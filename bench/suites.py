"""The benchmark's four workloads, their correctness check and the
measurement loop.

Every workload is a closed loop with one caller: an operation starts
when the previous one has finished. ``store-cold`` is the exception in
that its one call, ``Engine.run_suite``, fans out over the engine's own
pool of :data:`JOBS` workers. Modelled caches start empty in every
simulation, which is how the repository defines its results.

Reported times are scaled to a reference host speed by a fixed
calibration loop timed around the same work (:mod:`calibrate`).

The seed orders each workload's operations and, in ``detailed-suite``,
picks the three ``synth`` scenarios. Sampler seeds stay fixed, so every
hand-built kernel run has the same spec key -- and so the same
reference digest -- at every benchmark seed.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import multiprocessing
import random
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.backends.functional import simulate_functional
from repro.backends.sampled import SampledResult
from repro.engine.engine import Engine
from repro.engine.executor import simulate_to_payload
from repro.engine.runs import build_workload, simulate_spec
from repro.engine.spec import RunSpec
from repro.engine.store import RunStore
from repro.engine.telemetry import RunLog
from repro.isa.semantics import InstStream, arch_digest
from repro.version import MODEL_VERSION
from repro.workloads import WORKLOAD_NAMES

from calibrate import HostClock, host_scale
from metrics import percentile, tail_samples
from tracing import NullTracer, StackSampler, Tracer, instrumented

#: The seed ``reference.json`` is generated at.
DEFAULT_SEED = 1
#: Worker processes for the pooled workload: one per core of the
#: two-core machine the baseline was measured on.
JOBS = 2
#: Timed passes every run makes, however long they take.
MIN_PASSES = 3
#: The tail percentile of serve latency that ``serve_p95_ms`` reports.
SERVE_TAIL = 95.0

DETAILED_SCALE = 0.25
SYNTH_SCENARIOS = 3
FF_SCALE = 0.75
STORE_SCALE = 0.1
STORE_EXTRA_PERIODS = (97, 997)
STORE_SAMPLER_SETS = 3
HEARTBEAT_S = 0.5
#: Calibration loops timed right after set-up, to scale ``setup_s``.
SETUP_TICKS = 5
#: Calibration loops timed right before and right after each pass.
BRACKET_TICKS = 3

_NULL = NullTracer()


@dataclass
class Outcome:
    """One operation: a simulation, or a run served from the store."""

    label: str
    spec: RunSpec
    latency_s: float
    run: Any = None
    #: Final architectural state, for tiers that expose it.
    state: Any = None
    error: str | None = None
    tea_err: float | None = None


#: Per-layer values only a store workload's pass can measure; 0 on the
#: workloads that do not use the store.
PASS_METRICS = (
    "engine.store_hits", "engine.suite_overhead_s", "engine.worker_busy_frac",
    "engine.retries", "engine.store_bytes", "obs.runlog_bytes",
)


@dataclass
class Pass:
    """One pass over a workload's operations."""

    wall_s: float
    outcomes: list[Outcome]
    #: Values of :data:`PASS_METRICS` the pass measured.
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def committed(self) -> int:
        return sum(o.run.result.committed for o in self.outcomes if o.run)


# ----------------------------------------------------------------------
# Digests and the reference check.
# ----------------------------------------------------------------------
def _sha(obj: Any) -> str:
    blob = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _raw(raw: dict) -> list:
    # float(): live samplers accumulate int weights, stored ones floats.
    return sorted([i, psv, float(v)] for (i, psv), v in raw.items())


def op_record(outcome: Outcome) -> dict[str, str]:
    """The digests one operation is checked by."""
    result = outcome.run.result
    record = {
        "golden": _sha([result.cycles, result.committed,
                        _raw(result.golden_raw)]),
    }
    if outcome.run.samplers:
        record["samplers"] = _sha([
            [key, _raw(s.raw), s.samples_taken, s.samples_dropped]
            for key, s in sorted(outcome.run.samplers.items())
        ])
    if outcome.state is not None:
        record["arch"] = arch_digest(outcome.state)
    return record


def reference_ops(reference: dict | None) -> dict | None:
    """The reference's per-spec digests; None when it is stale."""
    if reference is None or reference.get("model_version") != MODEL_VERSION:
        return None
    return reference["ops"]


def check(
    key: str, record: dict, ops: dict | None, expect_arch: str | None
) -> str | None:
    """Why an operation's output is wrong, or None when it is right.

    Runs the reference covers must match its digests. Any other run
    must reach the architectural state the functional tier reaches.
    """
    if ops is None:
        return f"no reference for model version {MODEL_VERSION}"
    ref = ops.get(key)
    if ref is not None:
        bad = [f for f in ("golden", "samplers", "arch")
               if f in ref and record.get(f) != ref[f]]
        return f"{'/'.join(bad)} digest mismatch" if bad else None
    if expect_arch is not None:
        if record.get("arch") == expect_arch:
            return None
        return "architectural state differs from the functional tier"
    return "no reference digest"


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------
class Suite:
    """One benchmark workload.

    Args:
        seed: Benchmark seed.
        workdir: Private scratch directory for stores and logs.
        scale: Multiplier on every workload scale (tests shrink it).
    """

    name = ""
    #: Whether the timed passes run in pool workers, whose memory then
    #: counts towards ``peak_rss_mb``.
    pooled = False
    #: Whether each operation serves a stored run, so that its latency
    #: is reported as ``serve_p50_ms`` and ``serve_p95_ms``.
    serves = False

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.scale = scale
        self.expect_arch: dict[str, str] = {}

    def _shuffled(self, items: list) -> list:
        random.Random(self.seed).shuffle(items)
        return items

    def setup(self, tracer) -> None:
        """Build the inputs (timed as part of ``setup_s``)."""

    def prepare(self, reference: dict | None) -> None:
        """Untimed preparation after set-up."""

    def run_pass(self, tracer, clock: HostClock | None = None) -> Pass:
        """One pass. A *clock* times calibration loops during the pass:
        the pass keeps their time out of the latencies it reports, and
        a pooled pass has its workers time them."""
        raise NotImplementedError

    def stream_init_ms(self) -> float:
        """Mean ms to create and start an ``InstStream`` per kernel."""
        return 0.0

    def verify(self, outcomes, reference, tracer) -> list[str]:
        """Failure reasons for *outcomes*; also fills their TEA error."""
        ops = reference_ops(reference)
        reasons = []
        for o in outcomes:
            reason = o.error
            if reason is None:
                if (o.tea_err is None and "TEA" in o.run.samplers
                        and o.spec.workload in WORKLOAD_NAMES):
                    with tracer.span("core.postproc", op=o.label):
                        o.tea_err = o.run.error("TEA")
                reason = check(o.spec.key, op_record(o), ops,
                               self.expect_arch.get(o.label))
            if reason:
                reasons.append(f"{o.label}: {reason}")
        return reasons


def _capture_state(workload):
    """*workload* plus a list that receives the state each run mutates."""
    states = []

    def fresh():
        state = workload.state_builder()
        states.append(state)
        return state

    return dataclasses.replace(workload, state_builder=fresh), states


class _DirectSuite(Suite):
    """A workload that calls ``simulate_spec`` once per item."""

    def run_pass(self, tracer, clock: HostClock | None = None) -> Pass:
        outcomes = []
        start = time.perf_counter()
        for label, spec, wl in self.items:
            op_start = time.perf_counter()
            outcome = Outcome(label, spec, 0.0)
            capturing, states = _capture_state(wl)
            layer = ("uarch.simulate" if spec.backend == "detailed"
                     else f"backends.{spec.backend}")
            try:
                with tracer.span(layer, op=label):
                    outcome.run = simulate_spec(spec, capturing)
                outcome.state = states[0]
            except Exception as exc:  # an op that raises counts as failed
                outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.latency_s = time.perf_counter() - op_start
            outcomes.append(outcome)
        return Pass(time.perf_counter() - start, outcomes)

    def stream_init_ms(self) -> float:
        kernels = {spec.workload: wl for _l, spec, wl in self.items
                   if spec.workload in WORKLOAD_NAMES}
        times = []
        for wl in kernels.values():
            state = wl.fresh_state()
            start = time.perf_counter()
            InstStream(wl.program, state).peek()
            times.append(time.perf_counter() - start)
        return 1e3 * statistics.fmean(times)


class DetailedSuite(_DirectSuite):
    """The 15 kernels plus three ``synth`` scenarios on the detailed
    tier with the five paper samplers attached, called directly."""

    name = "detailed-suite"

    def setup(self, tracer) -> None:
        scale = DETAILED_SCALE * self.scale
        specs = [(k, RunSpec.make(k, scale=scale)) for k in WORKLOAD_NAMES]
        specs += [
            (f"synth-{s}", RunSpec.make("synth", {"seed": s}, scale=scale))
            for s in range(self.seed, self.seed + SYNTH_SCENARIOS)
        ]
        self.items = []
        for label, spec in self._shuffled(specs):
            with tracer.span("workloads.build", op=label):
                self.items.append((label, spec, build_workload(spec)))

    def prepare(self, reference) -> None:
        ops = reference_ops(reference) or {}
        for label, spec, wl in self.items:
            if spec.key not in ops:
                result = simulate_functional(
                    wl.program, arch_state=wl.fresh_state()
                )
                self.expect_arch[label] = arch_digest(result.arch_state)


class FastForwardSuite(_DirectSuite):
    """The 15 kernels, each on the functional tier and then on the
    sampled tier (default window plan, samplers attached)."""

    name = "fastforward-suite"

    def setup(self, tracer) -> None:
        scale = FF_SCALE * self.scale
        self.items = []
        for k in self._shuffled(list(WORKLOAD_NAMES)):
            with tracer.span("workloads.build", op=k):
                wl = build_workload(RunSpec.make(k, scale=scale))
            for backend in ("functional", "sampled"):
                spec = RunSpec.make(k, scale=scale, backend=backend)
                self.items.append((f"{k}/{backend}", spec, wl))


class _StoreSuite(Suite):
    """45 specs: 15 kernels x 3 sampler seed sets, extra periods."""

    def setup(self, tracer) -> None:
        self.labels = self._shuffled([
            f"{k}#{j}" for k in WORKLOAD_NAMES
            for j in range(STORE_SAMPLER_SETS)
        ])

    def _spec(self, label: str) -> RunSpec:
        kernel, j = label.split("#")
        return RunSpec.make(
            kernel, scale=STORE_SCALE * self.scale,
            extra_periods=STORE_EXTRA_PERIODS,
            seed=12345 + 100 * int(j), extra_seed=54321 + 100 * int(j),
        )

    def _specs(self, tracer) -> dict[str, RunSpec]:
        specs = {}
        for label in self.labels:
            spec = specs[label] = self._spec(label)
            with tracer.span("engine.key", op=label):
                spec.key
        return specs


def _calibrated_payload(tick_log: str, item):
    """The engine's worker function, timing one calibration loop before
    it simulates and more while it does; it appends their times to the
    file *tick_log*."""
    clock = HostClock()
    clock.tick()
    with clock.ticking():
        payload = simulate_to_payload(item)
    with open(tick_log, "a") as f:
        f.write("".join(f"{t!r}\n" for t in clock.ticks))
    return payload


class StoreColdSuite(_StoreSuite):
    """The 45 specs through ``Engine.run_suite(jobs=2)`` into a fresh
    store with a run log and worker heartbeats."""

    name = "store-cold"
    pooled = True
    #: Whether the labels are in longest-first order yet.
    _longest_first = False

    def run_pass(self, tracer, clock: HostClock | None = None) -> Pass:
        root = Path(tempfile.mkdtemp(dir=self.workdir))
        tick_log = root / "ticks"
        # The work runs in the pool workers, so they time the loops.
        worker = (functools.partial(_calibrated_payload, str(tick_log))
                  if clock else simulate_to_payload)
        try:
            start = time.perf_counter()
            specs = self._specs(tracer)
            store = RunStore(root / "store")
            with RunLog(root / "runs.jsonl") as log:
                engine = Engine(store=store, run_log=log, jobs=JOBS,
                                heartbeat=HEARTBEAT_S, keep_going=True,
                                worker_fn=worker)
                with tracer.span("engine.run_suite"):
                    runs = engine.run_suite(specs)
            wall = time.perf_counter() - start
            if clock:
                ticks = [float(t) for t in tick_log.read_text().split()]
                clock.record(ticks, share=1 / JOBS)
            report = engine.last_suite_report
            outcomes = []
            for label, spec in specs.items():
                out = report.outcomes[label]
                outcomes.append(Outcome(
                    label, spec, out.wall_s, run=runs.get(label),
                    error=None if label in runs else out.cause or out.status,
                ))
            if not self._longest_first:
                # Later passes hand the pool its specs longest first, by
                # their times in this one, so that each pass ends with
                # short specs on both workers. In the seed's order a pass
                # ran about 15% longer when one of the three gcc specs,
                # which together are half the work, happened to come late.
                self.labels.sort(key=lambda label:
                                 report.outcomes[label].wall_s, reverse=True)
                self._longest_first = True
            busy = sum(out.wall_s for out in report.outcomes.values())
            extra = {
                "engine.suite_overhead_s": report.wall_s - busy / JOBS,
                "engine.worker_busy_frac": busy / (JOBS * report.wall_s),
                "engine.retries": report.retries,
                "engine.store_bytes": store.size_bytes(),
                "obs.runlog_bytes": log.path.stat().st_size,
                "engine.store_hits": store.hits,
            }
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return Pass(wall, outcomes, extra)


class StoreWarmSuite(_StoreSuite):
    """The same 45 specs served from a store filled before timing, one
    ``Engine.run`` and one TEA error computation per spec."""

    name = "store-warm"
    serves = True

    def setup(self, tracer) -> None:
        super().setup(tracer)
        self.store_root = self.workdir / "warm-store"
        RunStore(self.store_root).runs_dir.mkdir(parents=True, exist_ok=True)

    def _fill(self) -> None:
        Engine(store=RunStore(self.store_root), jobs=JOBS).run_suite(
            self._specs(_NULL)
        )

    def prepare(self, reference) -> None:
        # Filled from a child process, so that neither the pool workers
        # nor the runs they return count towards this process's
        # peak_rss_mb, which is meant to measure the read path only.
        filler = multiprocessing.get_context("fork").Process(target=self._fill)
        filler.start()
        filler.join()
        if filler.exitcode != 0:
            raise RuntimeError(f"filling the store failed "
                               f"(exit code {filler.exitcode})")

    def run_pass(self, tracer, clock: HostClock | None = None) -> Pass:
        store = RunStore(self.store_root)
        engine = Engine(store=store)
        outcomes = []
        start = time.perf_counter()
        for label in self.labels:
            op_start = time.perf_counter()
            paused = clock.spent_s if clock else 0.0
            spec = self._spec(label)
            outcome = Outcome(label, spec, 0.0)
            try:
                with tracer.span("serve", op=label):
                    with tracer.span("engine.key"):
                        spec.key
                    with tracer.span("engine.run"):
                        outcome.run = engine.run(spec)
                    with tracer.span("core.postproc"):
                        outcome.tea_err = outcome.run.error("TEA")
            except Exception as exc:  # an op that raises counts as failed
                outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.latency_s = time.perf_counter() - op_start
            if clock:
                # Calibration loops that interrupted the serve.
                outcome.latency_s -= clock.spent_s - paused
            outcomes.append(outcome)
        wall = time.perf_counter() - start
        return Pass(wall, outcomes, {"engine.store_hits": store.hits})


SUITES = {
    cls.name: cls
    for cls in (DetailedSuite, FastForwardSuite, StoreColdSuite,
                StoreWarmSuite)
}


# ----------------------------------------------------------------------
# Measurement.
# ----------------------------------------------------------------------
def sampled_cyc_err_pct(outcomes, reference) -> float | None:
    """Mean absolute error of the sampled tier's cycle count against the
    detailed tier's, in percent; None without sampled runs."""
    ref_cycles = (reference or {}).get("detailed_cycles", {})
    errors = []
    for o in outcomes:
        if o.run is not None and isinstance(o.run.result, SampledResult):
            ref = ref_cycles.get(f"{o.spec.workload}@x{o.spec.scale:g}")
            if ref:
                errors.append(100.0 * abs(o.run.result.cycles - ref) / ref)
    return statistics.fmean(errors) if errors else None


def _model_counts(outcomes) -> dict[str, float]:
    """Deterministic per-layer counts from one pass's results."""
    l1d_acc = l1d_miss = llc_acc = llc_miss = dram = mispredicts = 0
    taken = dropped = windows = measured = sampled_total = 0
    for o in outcomes:
        if o.run is None:
            continue
        result = o.run.result
        # Only live detailed runs keep their caches and predictor.
        hierarchy = result.hierarchy
        if hierarchy is not None:
            l1d_acc += hierarchy.l1d.stats.accesses
            l1d_miss += hierarchy.l1d.stats.misses
            llc_acc += hierarchy.llc.stats.accesses
            llc_miss += hierarchy.llc.stats.misses
            dram += hierarchy.dram.stats.reads
        if result.predictor is not None:
            mispredicts += result.predictor.stats.mispredicts
        for sampler in o.run.samplers.values():
            taken += sampler.samples_taken
            dropped += sampler.samples_dropped
        if isinstance(result, SampledResult):
            windows += len(result.windows)
            measured += result.measured_committed
            sampled_total += result.committed
    return {
        "memory.l1d_accesses": l1d_acc,
        "memory.l1d_miss_ratio": l1d_miss / l1d_acc if l1d_acc else 0.0,
        "memory.llc_miss_ratio": llc_miss / llc_acc if llc_acc else 0.0,
        "memory.dram_reads": dram,
        "branch.mispredicts": mispredicts,
        "core.samples_taken": taken,
        "core.samples_dropped": dropped,
        "backends.windows": windows,
        "backends.detailed_frac": (
            measured / sampled_total if sampled_total else 0.0
        ),
    }


def _span_metrics(tracer: Tracer, traced: Pass) -> dict[str, float]:
    detailed = sum(
        o.run.result.committed for o in traced.outcomes
        if o.run and o.spec.backend == "detailed"
    )
    _calls, simulate_s = tracer.totals("uarch.simulate")
    self_times = tracer.self_times()
    runs, _total = tracer.totals("engine.run")
    return {
        "uarch.simulate_s": simulate_s,
        "uarch.us_per_inst": (
            1e6 * simulate_s / detailed if simulate_s and detailed else 0.0
        ),
        "core.postproc_ms": 1e3 * tracer.mean("core.postproc"),
        "backends.functional_s": tracer.totals("backends.functional")[1],
        "backends.sampled_s": tracer.totals("backends.sampled")[1],
        "workloads.build_s": tracer.totals("workloads.build")[1],
        "engine.key_us": 1e6 * tracer.mean("engine.key"),
        "engine.run_self_ms": (
            1e3 * self_times.get("engine.run", 0.0) / runs if runs else 0.0
        ),
        "engine.store_load_ms": 1e3 * tracer.mean("engine.store_load"),
        "engine.payload_decode_ms": 1e3 * tracer.mean("engine.payload_decode"),
        "engine.store_save_ms": 1e3 * tracer.mean("engine.store_save"),
        "engine.payload_encode_ms": 1e3 * tracer.mean("engine.payload_encode"),
    }


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, or of it and its waited-for
    children."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def timed_pass(suite: Suite, clock: HostClock) -> tuple[Pass, float]:
    """One untraced pass with calibration loops timed before, after and
    during it: the pass, with its wall time net of the loops, and the
    host scale they give. During a pooled pass the workers time the
    loops; otherwise a timer interrupts the pass for them."""
    clock.ticks.clear()
    for _ in range(BRACKET_TICKS):
        clock.tick()
    clock.spent_s = 0.0
    if suite.pooled:
        p = suite.run_pass(_NULL, clock)
    else:
        with clock.ticking():
            p = suite.run_pass(_NULL, clock)
    p.wall_s -= clock.spent_s
    for _ in range(BRACKET_TICKS):
        clock.tick()
    return p, clock.scale()


def scaled_setup_s(started: float) -> float:
    """Seconds since *started* (a ``perf_counter()`` reading), scaled to
    the reference host by calibration loops run right after."""
    elapsed = time.perf_counter() - started
    return elapsed * host_scale(SETUP_TICKS)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    reference: dict | None,
    scale: float = 1.0,
    started: float | None = None,
) -> dict[str, Any]:
    """Set up, warm up and measure one workload in this process.

    Every time it reports is scaled to the reference host
    (:mod:`calibrate`) by the calibration loops timed around the same
    pass, or right after set-up.

    Args:
        started: ``perf_counter()`` at process start, before ``repro``
            was imported; set-up time counts from there.

    Returns the raw measurements ``run.py`` turns into metrics.
    """
    started = time.perf_counter() if started is None else started
    tracer = Tracer() if trace else _NULL
    suite = SUITES[name](seed, workdir, scale)
    suite.setup(tracer)
    setup_s = scaled_setup_s(started)
    suite.prepare(reference)
    failures: list[str] = []
    attempted = 0

    def account(p: Pass, verify_tracer=_NULL) -> Pass:
        nonlocal attempted
        attempted += len(p.outcomes)
        failures.extend(suite.verify(p.outcomes, reference, verify_tracer))
        return p

    warm = account(suite.run_pass(_NULL))
    tea = [o.tea_err for o in warm.outcomes if o.tea_err is not None]
    min_ops = tail_samples(SERVE_TAIL) if suite.serves else 0
    clock = HostClock()
    raw_walls, scales, walls, rates, latencies = [], [], [], [], []
    while (len(walls) < MIN_PASSES or sum(raw_walls) < seconds
           or len(latencies) < min_ops):
        p, host = timed_pass(suite, clock)
        account(p)
        raw_walls.append(p.wall_s)
        scales.append(host)
        walls.append(host * p.wall_s)
        rates.append(p.committed / walls[-1])
        latencies.extend(host * o.latency_s for o in p.outcomes)
    doc: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "passes": len(walls),
        "pass_wall_s": walls,
        "pass_raw_wall_s": raw_walls,
        "pass_host_scale": scales,
        "wall_s": statistics.median(walls),
        "insts_per_s": statistics.median(rates),
        "ops": len(latencies),
        "tea_runs": len(tea),
        "tea_err_pct": 100.0 * statistics.fmean(tea) if tea else 0.0,
        "peak_rss_mb": peak_rss_mb(suite.pooled),
        "serve_p50_ms": (
            1e3 * statistics.median(latencies) if suite.serves else None
        ),
        "serve_p95_ms": (
            1e3 * percentile(latencies, SERVE_TAIL) if suite.serves else None
        ),
        "sampled_cyc_err_pct": sampled_cyc_err_pct(warm.outcomes, reference),
    }
    if trace:
        with instrumented(tracer), StackSampler() as sampler:
            traced = suite.run_pass(tracer)
        account(traced, tracer)
        layers = sampler.shares()
        layers.update(_span_metrics(tracer, traced))
        layers.update(_model_counts(traced.outcomes))
        layers.update(dict.fromkeys(PASS_METRICS, 0), **traced.extra)
        layers["isa.stream_init_ms"] = suite.stream_init_ms()
        layers["trace.stack_samples"] = sampler.samples
        # The tracer's own work, measured directly: one traced pass
        # against the untraced median is swamped by run-to-run noise.
        cost = sampler.busy_s + tracer.totals("engine.payload_encode")[1]
        layers["trace_overhead_pct"] = 100.0 * cost / (traced.wall_s - cost)
        doc["per_layer"] = layers
        doc["spans"] = tracer.spans
    doc["attempted"] = attempted
    doc["failed"] = len(failures)
    doc["fail_rate"] = len(failures) / attempted
    doc["failures"] = failures[:5]
    return doc


def build_reference(workdir: Path, scale: float = 1.0) -> dict[str, Any]:
    """Digests of every operation at :data:`DEFAULT_SEED`, and the
    detailed-tier cycles the sampled tier is compared with."""
    ops: dict[str, Any] = {}
    for name, cls in SUITES.items():
        suite = cls(DEFAULT_SEED, workdir, scale)
        suite.setup(_NULL)
        suite.prepare(None)
        for o in suite.run_pass(_NULL).outcomes:
            if o.error:
                raise RuntimeError(f"{name}/{o.label}: {o.error}")
            ops[o.spec.key] = {"label": f"{name}/{o.label}", **op_record(o)}
    cycles = {}
    for kernel in WORKLOAD_NAMES:
        spec = RunSpec.make(kernel, scale=FF_SCALE * scale, techniques=())
        cycles[f"{kernel}@x{spec.scale:g}"] = simulate_spec(spec).result.cycles
    return {
        "model_version": MODEL_VERSION,
        "seed": DEFAULT_SEED,
        "ops": ops,
        "detailed_cycles": cycles,
    }
