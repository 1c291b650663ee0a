"""Span recording for the traced run, on top of the program's own tracer.

The program traces itself: under an active :class:`repro.obs.Tracer`
the pipeline stages, the quality gate, cache lookups, pool-chunk waits
and service micro-batches open spans, and pool workers ship their span
trees back for the parent to adopt.  The traced run activates such a
tracer (:class:`LinkedTracer`) and adds spans of its own only where the
program has none: the request root, the generator's lag, and the
public entry points ``ScreeningService.submit``, ``BatchExecutor.run``,
``MeeDetector.decision_distances`` and ``recording_key``, which
:func:`instrument` wraps for the timed phase only.  Nothing under
``src/`` changes.

Both kinds of span land in one flat list of :class:`Span` records (name,
start, end, parent, request id), kept in memory and written once, at
exit, by :func:`write_spans`.  A span's parent is the innermost span
open in its asyncio task when it opened, whichever side opened it:
program spans never stay open across an ``await``, so the tracer's
stack only ever holds spans of the running task.  Worker trees are
grafted under the span open when they are adopted and flagged
``worker``: they were timed in a pool process, while the parent waited.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

from repro.obs import Tracer, use_tracer


@dataclass
class Span:
    """One timed call, from the program's tracer or the benchmark's wrappers."""

    index: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: str | None
    attrs: dict = field(default_factory=dict)
    worker: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """The flat span list of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "e2ebench_span", default=None
        )
        self.tracer = LinkedTracer(self)

    def _add(self, name: str, parent: Span | None, **fields) -> Span:
        span = Span(
            len(self.spans),
            name,
            fields.pop("start", 0.0),
            fields.pop("end", 0.0),
            None if parent is None else parent.index,
            None if parent is None else parent.rid,
            **fields,
        )
        self.spans.append(span)
        return span

    def innermost(self) -> Span | None:
        """The span opened last among those open in the running task."""
        bench = self._current.get()
        program = self.tracer.open_span()
        if bench is None or (program is not None and program.index > bench.index):
            return program
        return bench

    @contextlib.contextmanager
    def span(self, name: str, rid: str | None = None, **attrs) -> Iterator[Span]:
        """Open a benchmark-side span; a given ``rid`` tags everything under it."""
        span = self._add(name, self.innermost(), start=time.perf_counter(), attrs=attrs)
        if rid is not None:
            span.rid = rid
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)

    def record(self, name: str, start: float, end: float, parent: Span) -> Span:
        """Add a span the caller timed, as a child of ``parent``."""
        return self._add(name, parent, start=start, end=end)

    def finish(self) -> None:
        """Copy the program spans' times and attributes into the flat list."""
        self.tracer.copy_times()


class LinkedTracer(Tracer):
    """The program's tracer, mirroring every span into a :class:`Recorder`."""

    def __init__(self, recorder: Recorder) -> None:
        super().__init__()
        self._recorder = recorder
        self._mirrors: list[tuple[Span, object]] = []
        self._mirror_of: dict[int, Span] = {}

    def _mirror(self, span, parent: Span | None, worker: bool) -> Span:
        record = self._recorder._add(span.name, parent, worker=worker)
        self._mirrors.append((record, span))
        self._mirror_of[id(span)] = record
        return record

    def open_span(self) -> Span | None:
        """Mirror of the innermost open program span, if any."""
        return self._mirror_of[id(self._stack[-1])] if self._stack else None

    def span(self, name: str, **attrs):
        parent = self._recorder.innermost()
        span = super().span(name, **attrs)
        self._mirror(span, parent, worker=False)
        return span

    def adopt(self, span) -> None:
        super().adopt(span)
        parents = {id(span): self._recorder.innermost()}
        for node in span.walk():
            record = self._mirror(node, parents[id(node)], worker=True)
            parents.update({id(child): record for child in node.children})

    def copy_times(self) -> None:
        for record, span in self._mirrors:
            record.start = self._epoch + span.start_ms / 1e3
            record.end = record.start + span.duration_ms / 1e3
            record.attrs = dict(span.attrs)


# ---------------------------------------------------------------------------
# Entry-point wrappers
# ---------------------------------------------------------------------------


def _wrap(recorder: Recorder, name: str, func, describe):
    """``func`` inside a span whose attributes ``describe(args)`` gives."""
    if inspect.iscoroutinefunction(func):

        @functools.wraps(func)
        async def async_wrapper(*args, **kwargs):
            with recorder.span(name, **describe(args)):
                return await func(*args, **kwargs)

        return async_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with recorder.span(name, **describe(args)):
            return func(*args, **kwargs)

    return wrapper


def _entry_points():
    """``(owner, attribute, span name, describe)`` of every wrapped entry point."""
    from repro.core.detector import MeeDetector
    from repro.runtime import cache as cache_module
    from repro.runtime import executor as executor_module
    from repro.runtime.executor import BatchExecutor
    from repro.serve.service import ScreeningService

    return [
        (ScreeningService, "submit", "serve", lambda args: {}),
        (BatchExecutor, "run", "runtime.executor", lambda args: {"size": len(args[1])}),
        (MeeDetector, "decision_distances", "core.detector", lambda args: {}),
        # recording_key is imported by name: the cache computes it for
        # every lookup, the executor for every write.
        (cache_module, "recording_key", "runtime.cache.key", lambda args: {"via": "get"}),
        (executor_module, "recording_key", "runtime.cache.key", lambda args: {"via": "put"}),
    ]


@contextlib.contextmanager
def instrument(recorder: Recorder) -> Iterator[Recorder]:
    """Trace the ``with`` body: the program's tracer plus the wrappers."""
    saved = []
    try:
        for owner, attr, name, describe in _entry_points():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, name, original, describe))
        with use_tracer(recorder.tracer):
            yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        recorder.finish()


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def children_of(
    spans: list[Span], links: dict[int, list[int]] | None = None
) -> defaultdict[int, list[int]]:
    """Child span indices of every span.

    ``links`` adds children that ran in another task, keyed by the index
    of the span they count under.
    """
    children: defaultdict[int, list[int]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span.index)
    for parent, extra in (links or {}).items():
        children[parent].extend(extra)
    return children


def self_times(spans: list[Span], children: dict[int, list[int]]) -> list[float]:
    """Each span's duration minus the part its children cover.

    Only children timed on the same side count: a worker tree ran in
    parallel with the parent's wait, not inside the parent's time.
    """
    return [
        span.duration
        - _covered(
            span.start,
            span.end,
            [
                (spans[c].start, spans[c].end)
                for c in children.get(span.index, ())
                if spans[c].worker == span.worker
            ],
        )
        for span in spans
    ]


def write_spans(path: Path, spans: list[Span]) -> None:
    """Write spans as JSON lines (the in-memory store is the source)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(asdict(span)) + "\n")
