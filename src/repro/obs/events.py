"""Append-only structured event log (JSONL) with severity levels.

The runtime's noteworthy moments — batch start/finish, quarantines,
corrupt-cache evictions, serial fallbacks — are *events*: discrete,
structured, and worth keeping even when full tracing is off.  This
module replaces ad-hoc ``print`` / ``sys.stderr.write`` reporting with
an append-only log of JSON objects, one per line, so a run's event
stream is greppable, diffable, and machine-parseable after the fact.

Event *names* come from :mod:`repro.obs.names` (enforced by lint rule
QA007); free-form context travels in the ``fields`` mapping.  Like the
tracer, the ambient default is a null object so library code can emit
unconditionally at zero cost.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Any, Iterator, TextIO, Union

__all__ = [
    "EventLevel",
    "LogEvent",
    "EventLog",
    "NullEventLog",
    "NULL_EVENT_LOG",
    "current_event_log",
    "use_event_log",
]

FieldValue = Union[str, int, float, bool, None]


class EventLevel(IntEnum):
    """Severity of a structured event; integer-ordered for filtering."""

    DEBUG = 10
    INFO = 20
    WARNING = 30
    ERROR = 40


#: Serialized lowercase names, precomputed so the emit hot path does
#: not re-derive ``EventLevel(level).name.lower()`` per event.
_LEVEL_NAMES = {level: level.name.lower() for level in EventLevel}


@dataclass(frozen=True)
class LogEvent:
    """One immutable entry of the event log.

    ``seq`` is the per-log emission index (append-only ordering that
    survives serialization); ``elapsed_ms`` is monotonic time since the
    log was opened, mirroring the tracer's timebase.
    """

    seq: int
    level: str
    name: str
    elapsed_ms: float
    fields: dict[str, FieldValue] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form; ``fields`` keys are merged flat on read."""
        payload: dict[str, Any] = {
            "seq": self.seq,
            "level": self.level,
            "name": self.name,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        payload.update(self.fields)
        return payload

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LogEvent":
        """Rebuild an event from its serialized dict form."""
        reserved = {"seq", "level", "name", "elapsed_ms"}
        return cls(
            seq=int(data["seq"]),
            level=str(data["level"]),
            name=str(data["name"]),
            elapsed_ms=float(data["elapsed_ms"]),
            fields={k: v for k, v in data.items() if k not in reserved},
        )


class EventLog:
    """In-memory event collector with optional streaming JSONL append.

    Parameters
    ----------
    path:
        Optional file; every emitted event is appended as one JSON
        line and flushed immediately, so a crashed run keeps its log
        up to the last event.
    min_level:
        Events below this severity are dropped at emission time.
    """

    #: Real logs record; mirrors :class:`~repro.obs.tracer.Tracer`.
    enabled: bool = True

    def __init__(
        self,
        path: str | Path | None = None,
        min_level: EventLevel = EventLevel.DEBUG,
    ) -> None:
        import time

        self._clock = time.perf_counter
        self._epoch = self._clock()
        self.min_level = min_level
        self.events: list[LogEvent] = []
        self.path = Path(path) if path is not None else None
        self._stream: TextIO | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = self.path.open("a", encoding="utf-8")

    def emit(
        self,
        name: str,
        *,
        level: EventLevel = EventLevel.INFO,
        **fields: FieldValue,
    ) -> None:
        """Record one event (name from :mod:`repro.obs.names`)."""
        if level < self.min_level:
            return
        event = LogEvent(
            seq=len(self.events),
            level=_LEVEL_NAMES.get(level) or EventLevel(level).name.lower(),
            name=name,
            elapsed_ms=(self._clock() - self._epoch) * 1e3,
            fields=fields,
        )
        self.events.append(event)
        if self._stream is not None:
            self._stream.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
            self._stream.flush()

    def close(self) -> None:
        """Close the streaming file, if any (the memory log remains)."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def to_jsonl(self) -> str:
        """The whole log as JSONL text (one event per line)."""
        return "".join(
            json.dumps(event.to_dict(), sort_keys=True) + "\n" for event in self.events
        )

    @staticmethod
    def read_jsonl(source: str | Path) -> list[LogEvent]:
        """Parse a JSONL log file (or raw JSONL text) back into events."""
        if isinstance(source, Path):
            text = source.read_text(encoding="utf-8")
        else:
            candidate = Path(source)
            try:
                is_file = candidate.is_file()
            except OSError:  # e.g. a multi-line string is not a valid path
                is_file = False
            text = candidate.read_text(encoding="utf-8") if is_file else source
        return [
            LogEvent.from_dict(json.loads(line))
            for line in text.splitlines()
            if line.strip()
        ]


class NullEventLog:
    """Disabled log: :meth:`emit` discards everything."""

    __slots__ = ()

    #: Always ``False``.
    enabled: bool = False
    #: Always empty.
    events: tuple = ()

    def emit(
        self,
        name: str,
        *,
        level: EventLevel = EventLevel.INFO,
        **fields: FieldValue,
    ) -> None:
        """Discard the event."""

    def close(self) -> None:
        """No-op."""


#: Process-wide disabled event log; the ambient default.
NULL_EVENT_LOG = NullEventLog()

_CURRENT_EVENT_LOG: ContextVar["EventLog | NullEventLog"] = ContextVar(
    "repro_obs_event_log", default=NULL_EVENT_LOG
)


def current_event_log() -> "EventLog | NullEventLog":
    """The ambient event log (:data:`NULL_EVENT_LOG` by default)."""
    return _CURRENT_EVENT_LOG.get()


@contextmanager
def use_event_log(log: "EventLog | NullEventLog") -> Iterator["EventLog | NullEventLog"]:
    """Make ``log`` ambient for the duration of the ``with`` block."""
    token = _CURRENT_EVENT_LOG.set(log)
    try:
        yield log
    finally:
        _CURRENT_EVENT_LOG.reset(token)
