"""Executing run specs and (de)serialising completed runs.

:func:`simulate_specs` simulates run specs
(:class:`~repro.engine.spec.RunSpec`) that share one machine run once
and returns a live :class:`BenchmarkRun` for each of them
(:func:`simulate_spec` is its one-spec case); :func:`run_to_payload` /
:func:`run_from_payload` convert completed runs to and from the
JSON-able payload the :class:`~repro.engine.store.RunStore` persists.

A payload stores each per-entry table as parallel columns, in
accumulator insertion order: a raw profile ``(index, psv) -> cycles``
is ``[indices, psvs, cycles]`` with the PSV as its integer bitmask, and
an ``int -> int`` table is ``[keys, values]``. Decoding zips the columns
back into a dict with the same iteration order, so a run reloaded from
the store reproduces *bit-identical* profiles and error metrics (float
summation order included) -- the property the store round-trip tests
pin down.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.backends import simulate_backend
from repro.core.error import pics_error
from repro.core.events import Event, event_mask
from repro.core.pics import PicsProfile, RawProfile
from repro.core.result import CoreResult, FlushStats
from repro.core.samplers import Sampler, make_sampler
from repro.core.states import CommitState
from repro.engine.spec import RunSpec
from repro.workloads import Workload, build

#: Schema identifier written into every stored-run payload.
PAYLOAD_SCHEMA = "tea-run-v2"

#: Name -> member tables for the enum names a payload stores.
_EVENT_OF: dict[str, Event] = {event.name: event for event in Event}
_STATE_OF: dict[str, CommitState] = {
    state.name: state for state in CommitState
}


@dataclass
class BenchmarkRun:
    """One benchmark simulated with a set of samplers attached."""

    workload: Workload
    result: CoreResult
    samplers: dict[str, Any] = field(default_factory=dict)

    @cached_property
    def golden(self) -> PicsProfile:
        """Golden-reference profile of this run, built on first use and
        kept (nothing mutates a profile's stacks)."""
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
    spec: RunSpec, workload: Workload | None = None, trace: Any = None
) -> BenchmarkRun:
    """Simulate one spec on its backend, sampler plan attached.

    ``simulate_specs((spec,), workload, trace)[0]``.
    """
    return simulate_specs((spec,), workload, trace)[0]


def simulate_specs(
    specs: Sequence[RunSpec],
    workload: Workload | None = None,
    trace: Any = None,
) -> list[BenchmarkRun]:
    """Simulate specs that share a machine run once, every member's
    samplers attached; one run per spec, in the order given.

    Samplers only observe -- each owns its RNG and accumulators, and
    its tags ride on µops without changing their timing -- so every
    member's run equals the one a simulation of its own would give.
    The members' samplers attach in the order given, each member's in
    :meth:`RunSpec.sampler_plan` order. Each run gets its own
    ``samplers`` dict and a copy of the shared result holding only its
    own samplers.

    The functional tier has no cycle-level behaviour to sample, so its
    runs carry no samplers (the golden profile is still produced).

    A *trace* (a :class:`~repro.trace.store.TraceStore`, detailed tier
    only, one spec only) becomes the core's ``cycle_trace`` and every
    sampler's sink; the hooks only observe, so the run is the one an
    untraced call returns.

    Raises:
        ValueError: When the specs' simulation keys differ, or a
            *trace* comes with more than one spec.
    """
    first = specs[0]
    if len(specs) > 1:
        if trace is not None:
            raise ValueError("a trace records the run of one spec")
        if any(s.simulation_key != first.simulation_key for s in specs):
            raise ValueError(
                "specs that share one simulation must differ only in "
                "their sampler plans: "
                + ", ".join(spec.label() for spec in specs)
            )
    workload = workload or build_workload(first)
    plans: list[dict[str, Sampler]] = []
    for spec in specs:
        samplers: dict[str, Sampler] = {}
        if first.backend != "functional":
            for key, technique, period, seed in spec.sampler_plan():
                sampler = make_sampler(
                    technique, period, jitter=spec.jitter, seed=seed
                )
                if trace is not None:
                    sampler.sink = trace.sampler_sink(key)
                samplers[key] = sampler
        plans.append(samplers)
    result = simulate_backend(
        first.backend,
        workload.program,
        config=first.config,
        samplers=[s for samplers in plans for s in samplers.values()],
        arch_state=workload.fresh_state(),
        plan=first.window_plan(),
        cycle_trace=trace,
    )
    if trace is not None:
        trace.meta.update(workload=first.workload, label=first.label(),
                          cycles=result.cycles, committed=result.committed)
    return [
        BenchmarkRun(
            workload,
            dataclasses.replace(result, samplers=list(samplers.values())),
            samplers,
        )
        for samplers in plans
    ]


def _pair_columns(table: Mapping[tuple[int, int], Any]) -> list[list]:
    """``[firsts, seconds, values]``: a pair-keyed table's columns, in
    its iteration order."""
    return [[a for a, _ in table], [b for _, b in table],
            list(table.values())]


def _columns(table: Mapping[Any, Any]) -> list[list]:
    """``[keys, values]``: a table's columns, in its iteration order."""
    return [list(table), list(table.values())]


def _zip_table(keys: Iterable, values: Iterable, *columns: list) -> dict:
    """``dict(zip(keys, values))``, checked against the stored columns
    they are read from.

    Raises:
        ValueError: When the columns differ in length or a key repeats;
            a bare ``zip`` would silently drop or merge entries.
    """
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError("stored columns differ in length")
    table = dict(zip(keys, values))
    if len(table) != n:
        raise ValueError("a stored table repeats a key")
    return table


def _pair_table(
    columns: list[list], value: Callable[[Any], Any] = int
) -> dict[tuple[int, int], Any]:
    """Inverse of :func:`_pair_columns`; *value* converts each value."""
    firsts, seconds, values = columns
    return _zip_table(
        zip(map(int, firsts), map(int, seconds)), map(value, values),
        firsts, seconds, values,
    )


def _table(
    columns: list[list], key: Callable[[Any], Any] = int
) -> dict[Any, int]:
    """Inverse of :func:`_columns` for int values; *key* converts each
    key."""
    keys, values = columns
    return _zip_table(map(key, keys), map(int, values), keys, values)


def run_to_payload(
    spec: RunSpec, run: BenchmarkRun, wall_s: float | None = None
) -> dict[str, Any]:
    """A JSON-able stored-run payload for a completed run."""
    result = run.result
    return {
        "schema": PAYLOAD_SCHEMA,
        "spec_key": spec.key,
        "workload": spec.workload,
        "backend": getattr(spec, "backend", "detailed"),
        "wall_s": wall_s,
        "cycles": result.cycles,
        "committed": result.committed,
        "golden_raw": _pair_columns(result.golden_raw),
        "event_counts": _pair_columns(result.event_counts),
        "exec_counts": _columns(result.exec_counts),
        "stall_histogram": _columns(result.stall_histogram),
        "evented_execs": result.evented_execs,
        "combined_execs": result.combined_execs,
        "flushes": {
            "mispredicts": result.flushes.mispredicts,
            "serial": result.flushes.serial,
            "ordering": result.flushes.ordering,
        },
        "state_cycles": [
            [state.name for state in result.state_cycles],
            list(result.state_cycles.values()),
        ],
        "samplers": [
            {
                "key": key,
                "name": sampler.name,
                "period": sampler.period,
                "events": [e.name for e in sorted(sampler.events)],
                "samples_taken": sampler.samples_taken,
                "samples_dropped": sampler.samples_dropped,
                "raw": _pair_columns(sampler.raw),
            }
            for key, sampler in run.samplers.items()
        ],
    }


def run_from_payload(
    payload: dict[str, Any], workload: Workload
) -> BenchmarkRun:
    """Rebuild a :class:`BenchmarkRun` from a stored-run payload.

    The returned run carries a reconstructed :class:`CoreResult` with
    every field experiments consume; the live substrates (memory
    hierarchy, branch predictor, final architectural state) are not
    persisted and come back as ``None``.

    Raises:
        ValueError: On an unknown payload schema, or a stored table
            whose columns differ in length or repeat a key.
        KeyError: On a missing field or an unknown event or state name.
        TypeError: On a field of the wrong shape.
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
            events=frozenset(map(_EVENT_OF.__getitem__, entry["events"])),
            # float(): live samplers accumulate int weights.
            raw=_pair_table(entry["raw"], float),
            samples_taken=int(entry["samples_taken"]),
            samples_dropped=int(entry["samples_dropped"]),
        )
    result = CoreResult(
        program=workload.program,
        cycles=int(payload["cycles"]),
        committed=int(payload["committed"]),
        golden_raw=_pair_table(payload["golden_raw"], float),
        event_counts=_pair_table(payload["event_counts"]),
        exec_counts=_table(payload["exec_counts"]),
        stall_histogram=Counter(_table(payload["stall_histogram"])),
        evented_execs=int(payload["evented_execs"]),
        combined_execs=int(payload["combined_execs"]),
        flushes=FlushStats(**payload["flushes"]),
        samplers=list(samplers.values()),
        state_cycles=_table(
            payload["state_cycles"], key=_STATE_OF.__getitem__
        ),
    )
    return BenchmarkRun(workload=workload, result=result,
                        samplers=samplers)
