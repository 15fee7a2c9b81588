"""Counter and histogram registry of :mod:`repro.obs`.

One process-global :class:`CounterRegistry` with three metric kinds:

* **counters** -- monotonically increasing totals (:meth:`inc`);
* **gauges** -- last-value-wins measurements (:meth:`gauge`);
* **histograms** -- count/sum/min/max summaries plus fixed log-spaced
  buckets (:meth:`observe`), so tail quantiles (p50/p95/p99) are
  derivable and Prometheus exposition gets its cumulative ``le``
  series without per-observation storage.

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
from bisect import bisect_left
from typing import Any

from repro.obs import spans as _spans

#: Fixed log-spaced histogram bucket upper bounds (1-2-5 per decade,
#: 1e-6 .. 1e9). Shared by every histogram so snapshots merge and
#: Prometheus exposition stays schema-free; observations above the top
#: bound only land in the implicit ``+Inf`` bucket.
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    mantissa * 10.0 ** exponent
    for exponent in range(-6, 10)
    for mantissa in (1.0, 2.0, 5.0)
)


def _fmt_bound(bound: float) -> str:
    """Stable JSON key for a bucket bound (``1e-06``, ``0.2``, ``5``)."""
    return f"{bound:.6g}"


def hist_quantile(summary: dict[str, Any], q: float) -> float | None:
    """Approximate the *q*-quantile of a snapshot histogram dict.

    Works on the ``{"count", "min", "max", "buckets", ...}`` shape that
    :meth:`CounterRegistry.snapshot` emits (and run-log ``"kind":
    "counters"`` records carry). Returns the upper bound of the bucket
    holding the q-th observation, clamped into ``[min, max]``; ``None``
    when the histogram is empty or carries no buckets.
    """
    count = int(summary.get("count", 0))
    buckets = summary.get("buckets")
    if count <= 0 or not buckets:
        return None
    rank = q * count
    bound: float | None = None
    for key, cumulative in buckets.items():
        if key == "+Inf":
            continue
        if cumulative >= rank:
            bound = float(key)
            break
    if bound is None:  # q-th observation sits in the +Inf bucket
        bound = summary.get("max", float("inf"))
    lo = summary.get("min")
    hi = summary.get("max")
    if lo is not None:
        bound = max(bound, lo)
    if hi is not None:
        bound = min(bound, hi)
    return bound


class CounterRegistry:
    """Thread-safe registry of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        # name -> [count, sum, min, max]
        self._hists: dict[str, list[float]] = {}
        # name -> per-bucket (non-cumulative) counts, BUCKET_BOUNDS
        # index order; observations above the top bound increment no
        # slot and surface only through the +Inf cumulative bucket.
        self._buckets: dict[str, list[int]] = {}

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

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation (no-op when disabled)."""
        if not _spans._ENABLED:
            return
        value = float(value)
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                self._hists[name] = [1.0, value, value, value]
                self._buckets[name] = [0] * len(BUCKET_BOUNDS)
            else:
                hist[0] += 1
                hist[1] += value
                if value < hist[2]:
                    hist[2] = value
                if value > hist[3]:
                    hist[3] = value
            index = bisect_left(BUCKET_BOUNDS, value)
            if index < len(BUCKET_BOUNDS):
                self._buckets[name][index] += 1

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

    def _hist_summary(self, name: str) -> dict[str, Any]:
        """JSON-ready summary of one histogram. Caller holds the lock.

        ``"buckets"`` maps bucket upper bound -> *cumulative* count in
        :data:`BUCKET_BOUNDS` order (Prometheus ``le`` semantics),
        sparse -- only bounds whose own bucket is non-empty appear --
        and always ends with the ``"+Inf"`` total.
        """
        hist = self._hists[name]
        buckets: dict[str, int] = {}
        cumulative = 0
        for bound, slot in zip(BUCKET_BOUNDS, self._buckets[name]):
            cumulative += slot
            if slot:
                buckets[_fmt_bound(bound)] = cumulative
        buckets["+Inf"] = int(hist[0])
        return {
            "count": int(hist[0]),
            "sum": hist[1],
            "min": hist[2],
            "max": hist[3],
            "buckets": buckets,
        }

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready copy of every metric."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: self._hist_summary(name)
                    for name in self._hists
                },
            }

    def get(self, name: str) -> float | dict[str, Any] | None:
        """The current value of a recorded metric, if any.

        Counters and gauges return their scalar value; histograms
        return their summary dict (the :meth:`snapshot` shape,
        ``buckets`` included) rather than pretending the metric does
        not exist. ``None`` means *name* was never recorded.
        """
        with self._lock:
            if name in self._counters:
                return self._counters[name]
            if name in self._gauges:
                return self._gauges[name]
            if name in self._hists:
                return self._hist_summary(name)
            return None

    def quantile(self, name: str, q: float) -> float | None:
        """Approximate *q*-quantile of histogram *name* (bucket-based).

        ``None`` for unknown histograms; see :func:`hist_quantile` for
        the derivation from cumulative buckets.
        """
        with self._lock:
            if name not in self._hists:
                return None
            summary = self._hist_summary(name)
        return hist_quantile(summary, q)

    def clear(self) -> None:
        """Discard every metric."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()
            self._buckets.clear()


#: The process-global registry the core and executor report into.
COUNTERS = CounterRegistry()


def counters() -> CounterRegistry:
    """The process-global :class:`CounterRegistry`."""
    return COUNTERS
