"""The oracle set one fuzzed scenario runs against.

A scenario is *correct* when every execution path the repo has agrees
on it. Concretely, :func:`run_scenario` checks:

``interp-equivalence``
    The compiled (per-instruction specialised closures) and fully
    interpreted functional hot loops commit the same instruction
    sequence and final architectural state, and so does the compiled
    drive fed through :meth:`InstStream.skip` in seeded random chunk
    sizes, which cuts ``Interpreter.advance``'s blocks at arbitrary
    points.
``arch-state``
    The functional and detailed backends agree bit-for-bit on
    committed count, per-instruction execution counts, and final
    architectural state (registers + memory).
``time-proportionality``
    The detailed run's golden cycle stack attributes every simulated
    cycle exactly once within tolerance, state cycles partition the
    cycle count, and event counts never exceed execution counts
    (:func:`repro.uarch.validation.validate_result` -- the TEA paper's
    core claim, checked on a workload nobody hand-tuned).
``window-identity``
    The sampled backend's measurement windows are bit-identical to the
    ``reference_ff`` oracle (a full detailed run sliced at the same
    boundaries): fast-forwarding may change how gaps execute, never
    what a window measures.
``sampler-stream``
    A TEA sampler attached to both sampled runs captures the identical
    raw sample stream.
``sampled-arch``
    The sampled run's final architectural state and committed total
    match the functional tier (every instruction executed exactly
    once, in detail or fast-forwarded).

A backend that *crashes* on a generated program is reported as an
``<stage>-crash`` failure rather than propagating -- the shrinker needs
failing scenarios to stay evaluable.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from repro.backends.functional import simulate_functional
from repro.backends.sampled import SampledBackend, WindowPlan
from repro.core.samplers import make_sampler
from repro.isa.interpreter import Interpreter
from repro.isa.semantics import InstStream, arch_digest
from repro.uarch.core import Core
from repro.uarch.validation import ValidationError, validate_result
from repro.workloads.base import Workload
from repro.workloads.synth import Recipe, build_from_recipe

#: Window geometry for fuzz runs: small windows so even short generated
#: programs cross several measure/fast-forward boundaries.
DEFAULT_PLAN = WindowPlan(window=256, stride=768, warmup=256)

#: Sampling period for the sampler-stream oracle (prime, so samples
#: drift across window boundaries instead of aliasing with them).
_SAMPLER_PERIOD = 29


@dataclass(frozen=True)
class OracleFailure:
    """One oracle's disagreement on one scenario."""

    oracle: str
    detail: str


@dataclass
class ScenarioVerdict:
    """Everything the harness needs to know about one scenario run."""

    recipe: Recipe
    failures: list[OracleFailure] = field(default_factory=list)
    committed: int = 0
    cycles: int = 0

    @property
    def ok(self) -> bool:
        """True when every oracle agreed."""
        return not self.failures

    @property
    def oracles_failed(self) -> list[str]:
        """The names of the disagreeing oracles, in detection order."""
        return [f.oracle for f in self.failures]

    def summary(self) -> str:
        """One line for logs and CLI output."""
        if self.ok:
            return (
                f"seed {self.recipe.seed}: ok "
                f"({self.committed} insts, {self.cycles} cycles)"
            )
        first = self.failures[0]
        return (
            f"seed {self.recipe.seed}: FAIL "
            f"[{', '.join(self.oracles_failed)}] -- {first.detail}"
        )


def _first_count_mismatch(
    a: dict[int, int], b: dict[int, int]
) -> str:
    """Describe the first differing key of two exec-count maps."""
    for index in sorted(set(a) | set(b)):
        if a.get(index, 0) != b.get(index, 0):
            return (
                f"inst {index}: {a.get(index, 0)} vs {b.get(index, 0)}"
            )
    return "counts equal"


def _run_interpreted(workload: Workload) -> tuple[int, dict[int, int], str]:
    """Drain the *interpreted* (non-specialised) functional hot loop."""
    interp = Interpreter(
        workload.program, workload.fresh_state(), compiled=False
    )
    counts: Counter[int] = Counter()
    committed = 0
    for dyn in interp.run():
        counts[dyn.static.index] += 1
        committed += 1
    return committed, dict(counts), arch_digest(interp.state)


#: Largest chunk the chunked drive asks ``skip`` for: a few blocks.
_MAX_CHUNK = 64


def _run_chunked(
    workload: Workload, seed: int
) -> tuple[int, dict[int, int], str]:
    """Drain the compiled drive through ``InstStream.skip`` in seeded
    random chunks, each keeping a random tail of records."""
    stream = InstStream(workload.program, workload.fresh_state())
    counts = [0] * len(workload.program)
    rng = random.Random(f"tea-fuzz-chunks-{seed}")
    committed = 0
    while True:
        chunk = rng.randint(1, _MAX_CHUNK)
        ran = stream.skip(chunk, counts, keep=rng.randint(0, chunk))
        committed += ran
        if ran < chunk:
            break
    executed = {i: c for i, c in enumerate(counts) if c}
    return committed, executed, arch_digest(stream.state)


def _run_detailed(workload: Workload):
    """Run the detailed core over a shared stream; keep the state."""
    stream = InstStream(workload.program, workload.fresh_state())
    core = Core(workload.program, stream=stream)
    result = core.run()
    return result, arch_digest(stream.state)


def _window_key(w) -> tuple:
    return (
        w.start,
        w.committed,
        w.cycles,
        w.golden_raw,
        dict(w.state_cycles),
        dict(w.event_counts),
        dict(w.exec_counts),
        Counter(w.stall_histogram),
    )


def run_scenario(
    recipe: Recipe,
    scale: float = 1.0,
    plan: WindowPlan = DEFAULT_PLAN,
) -> ScenarioVerdict:
    """Run one scenario through the full oracle set.

    Every execution consumes a fresh architectural state built from the
    scenario seed, so the runs are independent and order-insensitive.
    """
    verdict = ScenarioVerdict(recipe=recipe)
    fail = verdict.failures.append
    try:
        workload = build_from_recipe(recipe, scale)
    except Exception as exc:  # noqa: BLE001 - any build crash is a finding
        fail(OracleFailure("build-crash", f"{type(exc).__name__}: {exc}"))
        return verdict

    # -- functional tier, compiled hot loop ----------------------------
    try:
        functional = simulate_functional(
            workload.program, arch_state=workload.fresh_state()
        )
        functional_digest = arch_digest(functional.arch_state)
        verdict.committed = functional.committed
    except Exception as exc:  # noqa: BLE001
        fail(
            OracleFailure(
                "functional-crash", f"{type(exc).__name__}: {exc}"
            )
        )
        return verdict

    # -- interpreted hot loop vs compiled, whole and in chunks ---------
    try:
        i_committed, i_counts, i_digest = _run_interpreted(workload)
        compiled = {
            "compiled": (
                functional.committed, functional.exec_counts,
                functional_digest,
            ),
            "chunked skip": _run_chunked(workload, recipe.seed),
        }
        for drive, (committed, counts, digest) in compiled.items():
            if committed != i_committed:
                detail = (
                    f"committed {committed} ({drive}) vs "
                    f"{i_committed} (interpreted)"
                )
            elif counts != i_counts:
                detail = (
                    f"exec counts diverge ({drive}): "
                    + _first_count_mismatch(counts, i_counts)
                )
            elif digest != i_digest:
                detail = (
                    f"final architectural state diverges ({drive}: "
                    f"{digest[:12]} vs {i_digest[:12]})"
                )
            else:
                continue
            fail(OracleFailure("interp-equivalence", detail))
            break
    except Exception as exc:  # noqa: BLE001
        fail(
            OracleFailure(
                "interpreted-crash", f"{type(exc).__name__}: {exc}"
            )
        )

    # -- detailed backend ----------------------------------------------
    detailed = None
    try:
        detailed, detailed_digest = _run_detailed(workload)
        verdict.cycles = detailed.cycles
        if detailed.committed != functional.committed:
            fail(
                OracleFailure(
                    "arch-state",
                    f"committed {functional.committed} (functional) vs "
                    f"{detailed.committed} (detailed)",
                )
            )
        elif detailed.exec_counts != functional.exec_counts:
            fail(
                OracleFailure(
                    "arch-state",
                    "exec counts diverge: "
                    + _first_count_mismatch(
                        functional.exec_counts, detailed.exec_counts
                    ),
                )
            )
        elif detailed_digest != functional_digest:
            fail(
                OracleFailure(
                    "arch-state",
                    "final architectural state diverges "
                    f"({functional_digest[:12]} vs "
                    f"{detailed_digest[:12]})",
                )
            )
    except Exception as exc:  # noqa: BLE001
        fail(
            OracleFailure(
                "detailed-crash", f"{type(exc).__name__}: {exc}"
            )
        )

    if detailed is not None:
        try:
            validate_result(detailed)
        except ValidationError as exc:
            fail(OracleFailure("time-proportionality", str(exc)))

    # -- sampled backend vs the reference_ff oracle --------------------
    try:
        sampler_a = make_sampler(
            "TEA", _SAMPLER_PERIOD, seed=recipe.seed
        )
        sampler_b = make_sampler(
            "TEA", _SAMPLER_PERIOD, seed=recipe.seed
        )
        sampled = SampledBackend(plan=plan).simulate(
            workload.program,
            samplers=[sampler_a],
            arch_state=workload.fresh_state(),
        )
        reference = SampledBackend(
            plan=plan, reference_ff=True
        ).simulate(
            workload.program,
            samplers=[sampler_b],
            arch_state=workload.fresh_state(),
        )
        if len(sampled.windows) != len(reference.windows):
            fail(
                OracleFailure(
                    "window-identity",
                    f"{len(sampled.windows)} windows (sampled) vs "
                    f"{len(reference.windows)} (reference_ff)",
                )
            )
        else:
            for n, (s, r) in enumerate(
                zip(sampled.windows, reference.windows)
            ):
                if _window_key(s) != _window_key(r):
                    fail(
                        OracleFailure(
                            "window-identity",
                            f"window {n} (start {s.start}) diverges "
                            "from the reference_ff oracle",
                        )
                    )
                    break
        if sampler_a.raw != sampler_b.raw or (
            sampler_a.samples_taken != sampler_b.samples_taken
        ):
            fail(
                OracleFailure(
                    "sampler-stream",
                    f"{sampler_a.samples_taken} samples (sampled) vs "
                    f"{sampler_b.samples_taken} (reference_ff), raw "
                    + (
                        "equal"
                        if sampler_a.raw == sampler_b.raw
                        else "diverged"
                    ),
                )
            )
        if sampled.committed != functional.committed:
            fail(
                OracleFailure(
                    "sampled-arch",
                    f"committed {functional.committed} (functional) vs "
                    f"{sampled.committed} (sampled)",
                )
            )
        elif arch_digest(sampled.arch_state) != functional_digest:
            fail(
                OracleFailure(
                    "sampled-arch",
                    "sampled final architectural state diverges from "
                    "the functional tier",
                )
            )
    except Exception as exc:  # noqa: BLE001
        fail(
            OracleFailure(
                "sampled-crash", f"{type(exc).__name__}: {exc}"
            )
        )

    return verdict


# The module-level simulate_functional binding above is the seam the
# sabotage acceptance test monkeypatches a mutated backend into.
__all__ = [
    "DEFAULT_PLAN",
    "OracleFailure",
    "ScenarioVerdict",
    "run_scenario",
]
