"""Span instrumentation: the timing plane of :mod:`repro.obs`.

A *span* is a named wall-clock interval (``obs.span("decode")``) that
lands in the process-global :class:`SpanCollector` together with the
emitting pid/tid, so a parallel suite merges into one timeline across
worker processes. The module is **off by default** and designed around
a zero-overhead disabled path:

* :func:`span` checks one module-level boolean and returns a shared
  no-op context manager when disabled -- no allocation, no clock read;
* collector and counter mutations are all behind the same flag.

Enable with ``REPRO_OBS=1`` in the environment or :func:`enable` at
runtime (which also exports the environment variable so worker
processes spawned afterwards inherit the setting).

Events are stored in Chrome trace-event shape (``name``/``ph``/``ts``/
``dur``/``pid``/``tid``/``args``) with ``ts`` in microseconds since the
Unix epoch -- a wall clock, so events from different processes are
directly comparable. :mod:`repro.obs.export` turns them into a
Perfetto-loadable trace file or ``"kind": "span"`` JSONL records.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

#: Environment variable gating the whole subsystem.
OBS_ENV = "REPRO_OBS"

#: Truthy values accepted for :data:`OBS_ENV`.
_TRUTHY = ("1", "true", "on", "yes")


def _env_enabled() -> bool:
    return os.environ.get(OBS_ENV, "0").strip().lower() in _TRUTHY


#: Module-level fast-path flag. Read directly by the hot checks; set
#: only through :func:`enable` / :func:`disable`.
_ENABLED = _env_enabled()


def enabled() -> bool:
    """Whether observability instrumentation is currently on."""
    return _ENABLED


def enable() -> None:
    """Turn instrumentation on (and export ``REPRO_OBS=1``).

    Exporting the environment variable means worker processes created
    after this call -- fork or spawn -- inherit the setting, so suite
    executions collect worker-side spans too.
    """
    global _ENABLED
    _ENABLED = True
    os.environ[OBS_ENV] = "1"


def disable() -> None:
    """Turn instrumentation off (and export ``REPRO_OBS=0``)."""
    global _ENABLED
    _ENABLED = False
    os.environ[OBS_ENV] = "0"


def now_us() -> int:
    """Microseconds since the Unix epoch (cross-process comparable)."""
    return time.time_ns() // 1000


class SpanCollector:
    """Process-global, thread-safe event sink.

    Events are plain dicts in Chrome trace-event shape. Worker
    processes :meth:`drain_from` their locally collected events (from a
    :meth:`mark` taken before the work started, so state inherited over
    ``fork`` is not re-shipped) and the parent :meth:`ingest`\\ s them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[dict[str, Any]] = []

    # -- emission ------------------------------------------------------
    def add(self, event: dict[str, Any]) -> None:
        """Append one pre-built trace event (caller sets all fields)."""
        with self._lock:
            self._events.append(event)

    def add_complete(
        self,
        name: str,
        ts_us: int,
        dur_us: int,
        args: dict[str, Any] | None = None,
        cat: str = "span",
        tid: int | None = None,
    ) -> None:
        """Record one completed interval (Chrome ``"X"`` event)."""
        event: dict[str, Any] = {
            "name": name,
            "ph": "X",
            "cat": cat,
            "ts": ts_us,
            "dur": dur_us,
            "pid": os.getpid(),
            "tid": threading.get_native_id() if tid is None else tid,
        }
        if args:
            event["args"] = args
        self.add(event)

    def add_instant(
        self, name: str, args: dict[str, Any] | None = None,
        cat: str = "span",
    ) -> None:
        """Record one instantaneous event (Chrome ``"i"`` event)."""
        event: dict[str, Any] = {
            "name": name,
            "ph": "i",
            "s": "p",  # process-scoped instant
            "cat": cat,
            "ts": now_us(),
            "pid": os.getpid(),
            "tid": threading.get_native_id(),
        }
        if args:
            event["args"] = args
        self.add(event)

    def add_counter(
        self, name: str, values: dict[str, float],
        ts_us: int | None = None,
    ) -> None:
        """Record one counter sample (Chrome ``"C"`` event)."""
        self.add(
            {
                "name": name,
                "ph": "C",
                "cat": "counter",
                "ts": now_us() if ts_us is None else ts_us,
                "pid": os.getpid(),
                "tid": 0,
                "args": dict(values),
            }
        )

    def add_thread_name(self, tid: int, name: str) -> None:
        """Name a thread track (Chrome ``"M"`` metadata event)."""
        self.add(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": os.getpid(),
                "tid": tid,
                "args": {"name": name},
            }
        )

    # -- draining / merging --------------------------------------------
    def mark(self) -> int:
        """A position marker for a later :meth:`drain_from`."""
        with self._lock:
            return len(self._events)

    def drain_from(self, mark: int) -> list[dict[str, Any]]:
        """Remove and return every event recorded since *mark*."""
        with self._lock:
            events = self._events[mark:]
            del self._events[mark:]
        return events

    def ingest(self, events: list[dict[str, Any]] | None) -> None:
        """Merge events drained from another process or collector."""
        if not events:
            return
        with self._lock:
            self._events.extend(events)

    def snapshot(self) -> list[dict[str, Any]]:
        """A copy of every collected event (collector unchanged)."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        """Discard every collected event."""
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


#: The process-global collector every span/counter reports into.
COLLECTOR = SpanCollector()


class Span:
    """A live span: context manager recording one ``"X"`` event."""

    __slots__ = ("name", "args", "_start")

    def __init__(self, name: str, args: dict[str, Any]) -> None:
        self.name = name
        self.args = args
        self._start = 0

    def __enter__(self) -> "Span":
        self._start = now_us()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # A disable() between __enter__ and __exit__ (test teardown,
        # mid-run reconfiguration) must not leak a late event into the
        # collector.
        if not _ENABLED:
            return False
        end = now_us()
        if exc_type is not None:
            self.args = dict(self.args or {})
            self.args["error"] = exc_type.__name__
        # The wall clock can step backwards (NTP); a negative dur
        # fails validate_chrome_trace, so clamp at zero.
        COLLECTOR.add_complete(
            self.name, self._start, max(end - self._start, 0),
            self.args or None,
        )
        return False


class _NoopSpan:
    """Shared do-nothing span returned while instrumentation is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


def span(name: str, **args: Any) -> Span | _NoopSpan:
    """A context manager timing one named interval.

    Zero-overhead when disabled: returns a shared no-op object without
    touching the clock or allocating.
    """
    if not _ENABLED:
        return _NOOP_SPAN
    return Span(name, args)
