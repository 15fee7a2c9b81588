"""Executing run specs and (de)serialising completed runs.

:func:`simulate_spec` turns a :class:`~repro.engine.spec.RunSpec` into a
live :class:`BenchmarkRun`; :func:`run_to_payload` /
:func:`run_from_payload` convert completed runs to and from the
JSON-able payload the :class:`~repro.engine.store.RunStore` persists.
Payloads keep every raw profile in accumulator insertion order, so a
run reloaded from the store reproduces *bit-identical* profiles and
error metrics (float summation order included) -- the property the
store round-trip tests pin down.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.core.error import pics_error
from repro.core.events import Event, event_mask
from repro.core.io import raw_from_list, raw_to_list
from repro.core.pics import PicsProfile, RawProfile
from repro.core.samplers import Sampler, make_sampler
from repro.core.states import CommitState
from repro.engine.spec import RunSpec
from repro.version import MODEL_VERSION
from repro.uarch.core import CoreResult, FlushStats, simulate
from repro.workloads import Workload, build

#: Schema identifier written into every stored-run payload.
PAYLOAD_SCHEMA = "tea-run-v1"


@dataclass
class BenchmarkRun:
    """One benchmark simulated with a set of samplers attached."""

    workload: Workload
    result: CoreResult
    samplers: dict[str, Any] = field(default_factory=dict)

    @property
    def golden(self) -> PicsProfile:
        """Golden-reference profile of this run."""
        return self.result.golden_profile()

    def profile(self, technique: str) -> PicsProfile:
        """A technique's sampled profile.

        Raises:
            KeyError: If the technique was not attached to this run.
        """
        return self.samplers[technique].profile()

    def error(self, technique: str) -> float:
        """Instruction-granularity PICS error of a technique (Sec. 4)."""
        sampler = self.samplers[technique]
        return pics_error(
            sampler.profile(), self.golden, event_mask(sampler.events)
        )


class LoadedSampler:
    """Read-only stand-in for a :class:`Sampler` rebuilt from the store.

    Exposes the attributes experiments consume (``name``, ``events``,
    ``mask``, ``raw``, sample counters, and :meth:`profile`); it cannot
    be attached to a core.
    """

    def __init__(
        self,
        name: str,
        period: int,
        events: frozenset[Event],
        raw: RawProfile,
        samples_taken: int,
        samples_dropped: int,
    ) -> None:
        self.name = name
        self.period = period
        self.events = frozenset(events)
        self.mask = event_mask(self.events)
        self.raw = raw
        self.samples_taken = samples_taken
        self.samples_dropped = samples_dropped

    def profile(self) -> PicsProfile:
        """The sampled PICS profile (instruction granularity)."""
        return PicsProfile.from_raw(self.name, self.raw)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LoadedSampler({self.name!r}, period={self.period}, "
            f"samples={self.samples_taken})"
        )


def build_workload(spec: RunSpec) -> Workload:
    """Build the workload a spec names.

    Each call assembles a new program. An :class:`~repro.engine.Engine`
    calls it once per distinct workload, scale and kwargs, and the runs
    it serves share that program; every simulation still takes a fresh
    architectural state from :meth:`Workload.fresh_state`.

    Raises:
        KeyError: For an unknown workload name.
    """
    return build(spec.workload, scale=spec.scale, **spec.workload_kwargs)


def simulate_spec(
    spec: RunSpec, workload: Workload | None = None
) -> BenchmarkRun:
    """Simulate one spec on its backend, sampler plan attached.

    The functional tier has no cycle-level behaviour to sample, so its
    runs carry no samplers (the golden profile is still produced); the
    detailed and sampled tiers attach the full plan.
    """
    workload = workload or build_workload(spec)
    backend = getattr(spec, "backend", "detailed")
    if backend == "functional":
        from repro.backends.functional import simulate_functional

        result = simulate_functional(
            workload.program,
            config=spec.config,
            arch_state=workload.fresh_state(),
        )
        return BenchmarkRun(workload=workload, result=result, samplers={})
    samplers: dict[str, Sampler] = {}
    for key, technique, period, seed in spec.sampler_plan():
        samplers[key] = make_sampler(
            technique, period, jitter=spec.jitter, seed=seed
        )
    if backend == "sampled":
        from repro.backends.sampled import SampledBackend

        result = SampledBackend(plan=spec.window_plan()).simulate(
            workload.program,
            config=spec.config,
            samplers=list(samplers.values()),
            arch_state=workload.fresh_state(),
        )
    else:
        result = simulate(
            workload.program,
            config=spec.config,
            samplers=list(samplers.values()),
            arch_state=workload.fresh_state(),
        )
    return BenchmarkRun(workload=workload, result=result,
                        samplers=samplers)


def run_to_payload(
    spec: RunSpec, run: BenchmarkRun, wall_s: float | None = None
) -> dict[str, Any]:
    """A JSON-able stored-run payload for a completed run."""
    result = run.result
    return {
        "schema": PAYLOAD_SCHEMA,
        "model_version": MODEL_VERSION,
        "spec_key": spec.key,
        "workload": spec.workload,
        "backend": getattr(spec, "backend", "detailed"),
        "wall_s": wall_s,
        "cycles": result.cycles,
        "committed": result.committed,
        "golden_raw": raw_to_list(result.golden_raw),
        "event_counts": [
            [index, psv, count]
            for (index, psv), count in result.event_counts.items()
        ],
        "exec_counts": [
            [index, count]
            for index, count in result.exec_counts.items()
        ],
        "stall_histogram": [
            [int(length), int(count)]
            for length, count in result.stall_histogram.items()
        ],
        "evented_execs": result.evented_execs,
        "combined_execs": result.combined_execs,
        "flushes": {
            "mispredicts": result.flushes.mispredicts,
            "serial": result.flushes.serial,
            "ordering": result.flushes.ordering,
        },
        "state_cycles": [
            [state.name, count]
            for state, count in result.state_cycles.items()
        ],
        "samplers": [
            {
                "key": key,
                "name": sampler.name,
                "period": sampler.period,
                "events": [e.name for e in sorted(sampler.events)],
                "samples_taken": sampler.samples_taken,
                "samples_dropped": sampler.samples_dropped,
                "raw": raw_to_list(sampler.raw),
            }
            for key, sampler in run.samplers.items()
        ],
    }


def run_from_payload(
    payload: dict[str, Any], workload: Workload
) -> BenchmarkRun:
    """Rebuild a :class:`BenchmarkRun` from a stored-run payload.

    The returned run carries a reconstructed :class:`CoreResult` with
    every field experiments consume; the live microarchitectural
    substrates (memory hierarchy, branch predictor) are not persisted
    and come back as ``None``.

    Raises:
        ValueError: On an unknown payload schema.
    """
    if payload.get("schema") != PAYLOAD_SCHEMA:
        raise ValueError(
            f"unknown stored-run schema {payload.get('schema')!r}"
        )
    samplers: dict[str, LoadedSampler] = {}
    for entry in payload["samplers"]:
        samplers[entry["key"]] = LoadedSampler(
            name=entry["name"],
            period=int(entry["period"]),
            events=frozenset(Event[name] for name in entry["events"]),
            raw=raw_from_list(entry["raw"]),
            samples_taken=int(entry["samples_taken"]),
            samples_dropped=int(entry["samples_dropped"]),
        )
    result = CoreResult(
        program=workload.program,
        cycles=int(payload["cycles"]),
        committed=int(payload["committed"]),
        golden_raw=raw_from_list(payload["golden_raw"]),
        event_counts={
            (int(index), int(psv)): int(count)
            for index, psv, count in payload["event_counts"]
        },
        exec_counts={
            int(index): int(count)
            for index, count in payload["exec_counts"]
        },
        stall_histogram=Counter(
            {
                int(length): int(count)
                for length, count in payload["stall_histogram"]
            }
        ),
        evented_execs=int(payload["evented_execs"]),
        combined_execs=int(payload["combined_execs"]),
        flushes=FlushStats(**payload["flushes"]),
        hierarchy=None,
        predictor=None,
        samplers=list(samplers.values()),
        state_cycles={
            CommitState[name]: int(count)
            for name, count in payload["state_cycles"]
        },
    )
    return BenchmarkRun(workload=workload, result=result,
                        samplers=samplers)
