"""Hierarchical span tracing with a zero-cost disabled path.

One *trace* is the span tree of one recording (or one run-level
operation such as a pool-chunk wait): a root :class:`Span` with child
spans for every pipeline stage and runtime step executed on its
behalf.  The :class:`Tracer` collects finished root spans; exporters
turn them into Chrome trace-event files, per-stage percentile tables,
and run diffs.

Three properties are load-bearing:

- **Zero cost when disabled.**  The ambient tracer defaults to the
  :data:`NULL_TRACER` singleton, whose ``span()`` returns a shared
  no-op context manager — no allocation, no clock read, no branch in
  the instrumented code.  Instrumentation is therefore left permanently
  compiled into the pipeline and runtime.
- **Deterministic structure.**  Span *names, attributes, and
  parent/child shape* are pure functions of the input data; only the
  timing fields vary between runs.  The serial-vs-parallel
  equivalence test compares trees projected onto exactly that
  deterministic part.
- **Worker propagation.**  Process-pool workers cannot share the
  parent's tracer object; instead the parent ships a
  :class:`TraceContext`, the worker records into a local tracer, and
  the finished span trees travel back with the chunk results where
  :meth:`Tracer.adopt` grafts them into the parent's timeline.  A
  parallel run therefore produces the same per-recording trees as a
  serial one.

Timestamps are monotonic (``time.perf_counter``) milliseconds relative
to each tracer's construction; wall-clock provenance lives in the
:class:`~repro.obs.manifest.RunManifest`, not in spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterator, Union

__all__ = [
    "Span",
    "NullSpan",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceContext",
    "current_tracer",
    "use_tracer",
    "activate_from_context",
]

#: Attribute value types spans accept: JSON-safe scalars only, so span
#: trees serialize losslessly and structures compare by value.
AttrValue = Union[str, int, float, bool, None]


class Span:
    """One timed, attributed node of a trace tree.

    Created by :meth:`Tracer.span` and used as a context manager; the
    span closes (records its duration and attaches itself to its
    parent, or to the tracer's root list) when the ``with`` block
    exits.  An exception escaping the block stamps an ``error``
    attribute with the exception class name before propagating.
    """

    __slots__ = ("name", "attrs", "start_ms", "duration_ms", "children", "_tracer")

    def __init__(self, name: str, attrs: dict[str, AttrValue]) -> None:
        self.name = name
        self.attrs = attrs
        self.start_ms = 0.0
        self.duration_ms = 0.0
        self.children: list[Span] = []
        self._tracer: "Tracer | None" = None

    def set(self, key: str, value: AttrValue) -> None:
        """Attach (or overwrite) one attribute on the open span."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        tracer = self._tracer
        if tracer is not None:
            tracer._finish(self)
        return False

    # -- serialization / comparison ------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form, round-trippable via :meth:`from_dict`."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "start_ms": self.start_ms,
            "duration_ms": self.duration_ms,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Rebuild a span tree serialized by :meth:`to_dict`."""
        span = cls(str(data["name"]), dict(data.get("attrs", {})))
        span.start_ms = float(data.get("start_ms", 0.0))
        span.duration_ms = float(data.get("duration_ms", 0.0))
        span.children = [cls.from_dict(child) for child in data.get("children", ())]
        return span

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def shift(self, delta_ms: float) -> None:
        """Translate this tree's start times by ``delta_ms``."""
        self.start_ms += delta_ms
        for child in self.children:
            child.shift(delta_ms)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, attrs={self.attrs!r}, "
            f"duration_ms={self.duration_ms:.3f}, "
            f"children={len(self.children)})"
        )


class NullSpan:
    """Shared no-op span: every method is a stateless no-op."""

    __slots__ = ()

    def set(self, key: str, value: AttrValue) -> None:
        """Discard the attribute."""

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


#: The single :class:`NullSpan` instance handed out by :data:`NULL_TRACER`.
_NULL_SPAN = NullSpan()


class Tracer:
    """Collects span trees for one run.

    A tracer is single-threaded by design: the executor's parallel
    path records parent-side spans from the parent process only, and
    each pool worker records into its own local tracer whose finished
    trees are shipped back and :meth:`adopt`-ed.  ``traces`` holds the
    finished root spans in completion order.
    """

    #: Real tracers record; the null tracer reports ``False`` so code
    #: can skip building expensive attributes when nobody listens.
    enabled: bool = True

    def __init__(self) -> None:
        # Bound builtin cached on the instance: the span open/close
        # path is hot enough (every pipeline stage of every recording)
        # that the module-attribute lookup on ``time`` shows up.
        self._clock = time.perf_counter
        self._epoch = self._clock()
        self.traces: list[Span] = []
        self._stack: list[Span] = []

    def _now_ms(self) -> float:
        return (self._clock() - self._epoch) * 1e3

    def span(self, name: str, **attrs: AttrValue) -> Span:
        """Open a span as a child of the innermost open span (or a root)."""
        span = Span(name, attrs)
        span._tracer = self
        span.start_ms = (self._clock() - self._epoch) * 1e3
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.duration_ms = (self._clock() - self._epoch) * 1e3 - span.start_ms
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - misuse guard
            while stack and stack[-1] is not span:
                stack.pop()
            stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            self.traces.append(span)

    def adopt(self, span: Span) -> None:
        """Graft a finished root span (e.g. from a worker) into this run.

        The tree is rebased onto this tracer's timeline — its end is
        pinned to "now", preserving internal relative offsets — so an
        exported trace stays monotone even though the span was timed
        against another process's epoch.
        """
        span.shift((self._now_ms() - span.duration_ms) - span.start_ms)
        self.traces.append(span)

    def roots(self, name: str | None = None) -> list[Span]:
        """Finished root spans, optionally filtered by span name."""
        if name is None:
            return list(self.traces)
        return [span for span in self.traces if span.name == name]


class NullTracer:
    """Disabled tracer: records nothing, allocates nothing per span."""

    __slots__ = ()

    #: Always ``False``; instrumented code may branch on it to skip
    #: building expensive attribute values.
    enabled: bool = False
    #: Always empty.
    traces: tuple = ()

    def span(self, name: str, **attrs: AttrValue) -> NullSpan:
        """Return the shared no-op span."""
        return _NULL_SPAN

    def adopt(self, span: Span) -> None:
        """Discard the span."""

    def roots(self, name: str | None = None) -> list[Span]:
        """Always the empty list."""
        return []


#: Process-wide disabled tracer; the ambient default.
NULL_TRACER = NullTracer()

_CURRENT_TRACER: ContextVar["Tracer | NullTracer"] = ContextVar(
    "repro_obs_tracer", default=NULL_TRACER
)


def current_tracer() -> "Tracer | NullTracer":
    """The ambient tracer (the shared :data:`NULL_TRACER` by default)."""
    return _CURRENT_TRACER.get()


@contextmanager
def use_tracer(tracer: "Tracer | NullTracer") -> Iterator["Tracer | NullTracer"]:
    """Make ``tracer`` ambient for the duration of the ``with`` block."""
    token = _CURRENT_TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _CURRENT_TRACER.reset(token)


@dataclass(frozen=True)
class TraceContext:
    """Picklable trace-propagation marker shipped to pool workers.

    Workers cannot share the parent's tracer object across the process
    boundary; they receive this context instead and, when ``enabled``,
    record into a local tracer whose root spans are returned with the
    chunk results.
    """

    enabled: bool = False

    @classmethod
    def capture(cls) -> "TraceContext | None":
        """Context for the ambient tracer; ``None`` when disabled.

        Returning ``None`` keeps the disabled path's pickled task
        payload byte-identical to pre-tracing builds.
        """
        return cls(enabled=True) if current_tracer().enabled else None


@contextmanager
def activate_from_context(context: TraceContext | None) -> Iterator[Tracer | None]:
    """Worker-side tracer activation from a shipped :class:`TraceContext`.

    Yields the local :class:`Tracer` (ambient inside the block) when
    the context asks for tracing, else ``None`` with the null tracer
    left in place.
    """
    if context is None or not context.enabled:
        yield None
        return
    tracer = Tracer()
    with use_tracer(tracer):
        yield tracer
