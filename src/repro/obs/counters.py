"""Counter registry of :mod:`repro.obs`.

One process-global :class:`CounterRegistry` with two metric kinds:

* **counters** -- monotonically increasing totals (:meth:`inc`);
* **gauges** -- last-value-wins measurements (:meth:`gauge`).

The core reports per-pipeline-stage wall time, cycles per commit
state, flush causes, cache/TLB hit rates, and sampler overhead here at
the end of an observed run; :meth:`sample` additionally emits a
Chrome ``"C"`` counter event into the span collector so the values
render as counter tracks in Perfetto.

Every mutator no-ops while instrumentation is disabled, mirroring the
span fast path.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.obs import spans as _spans


class CounterRegistry:
    """Thread-safe registry of counters and gauges."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add *value* to the counter *name* (no-op when disabled)."""
        if not _spans._ENABLED:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge *name* to *value* (no-op when disabled)."""
        if not _spans._ENABLED:
            return
        with self._lock:
            self._gauges[name] = float(value)

    def sample(
        self, name: str, values: dict[str, float],
        ts_us: int | None = None,
    ) -> None:
        """Set gauges for *values* and emit one Chrome counter event.

        The event lands in the span collector under *name*, rendering
        as a counter track in Perfetto; each key of *values* becomes
        one series of the track (and the gauge ``f"{name}.{key}"``).
        """
        if not _spans._ENABLED:
            return
        with self._lock:
            for key, value in values.items():
                self._gauges[f"{name}.{key}"] = float(value)
        _spans.COLLECTOR.add_counter(name, values, ts_us=ts_us)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready copy of every metric."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
            }

    def clear(self) -> None:
        """Discard every metric."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()


#: The process-global registry the core and executor report into.
COUNTERS = CounterRegistry()
