"""RunSpec canonicalisation and content-hash keying."""

import pytest

from repro.engine import RunSpec, canonical
from repro.engine.spec import MODEL_VERSION, SPEC_SCHEMA
from repro.experiments.runner import ExperimentRunner
from repro.isa.builder import ProgramBuilder
from repro.isa.interpreter import ArchState
from repro.uarch.config import CoreConfig
from repro.workloads import BUILDERS
from repro.workloads.base import Workload


def _build_anykw(scale=1.0, **kwargs):  # pragma: no cover - never built
    raise AssertionError("key-only tests must not build workloads")


@pytest.fixture
def anykw(monkeypatch):
    """Permissive fake builders: any kwarg passes spec validation."""
    monkeypatch.setitem(BUILDERS, "anykw", _build_anykw)
    monkeypatch.setitem(BUILDERS, "othkw", _build_anykw)


def test_kwarg_order_permutations_share_a_key(anykw):
    """Regression: the old ``name + repr(sorted(kwargs))`` memo key
    depended on value reprs; the canonical hash must not."""
    a = RunSpec.make("anykw", {"alpha": 1, "beta": 2.5, "gamma": "x"})
    b = RunSpec.make("anykw", {"gamma": "x", "alpha": 1, "beta": 2.5})
    c = RunSpec.make("anykw", {"beta": 2.5, "gamma": "x", "alpha": 1})
    assert a.key == b.key == c.key
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)


def test_dict_valued_kwargs_are_insertion_order_independent(anykw):
    a = RunSpec.make("anykw", {"cfg": {"a": 1, "b": 2}})
    b = RunSpec.make("anykw", {"cfg": {"b": 2, "a": 1}})
    assert a.key == b.key


def test_value_changes_change_the_key(anykw):
    base = RunSpec.make("anykw", {"alpha": 1})
    assert base.key != RunSpec.make("anykw", {"alpha": 2}).key
    assert base.key != RunSpec.make("othkw", {"alpha": 1}).key
    assert base.key != RunSpec.make("anykw", {"alpha": 1.0000001}).key


def test_unknown_workload_kwargs_are_rejected():
    """A typo'd engine option must fail loudly at spec construction,
    not mint a phantom cache entry keyed on a kwarg no builder takes."""
    with pytest.raises(ValueError, match="does not accept"):
        RunSpec.make("lbm", {"backend": "sampled"})
    with pytest.raises(ValueError, match="prefetch_distance"):
        RunSpec.make("lbm", {"prefetch_dist": 2})
    with pytest.raises(ValueError, match="does not accept"):
        RunSpec.make("mcf", {"alpha": 1})
    # The real kwarg still passes.
    RunSpec.make("lbm", {"prefetch_distance": 2})


def test_unknown_workload_names_are_left_to_build():
    """Validation is lenient on unknown workloads: build() owns that
    error (tests monkeypatch builders in after spec construction)."""
    spec = RunSpec.make("no-such-workload", {"anything": 1})
    assert spec.workload == "no-such-workload"


def test_unknown_backend_is_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        RunSpec.make("lbm", backend="detialed")


def test_backend_and_window_geometry_feed_the_key():
    base = RunSpec.make("lbm")
    assert base.backend == "detailed"
    sampled = RunSpec.make("lbm", backend="sampled")
    assert base.key != sampled.key
    assert base.key != RunSpec.make("lbm", backend="functional").key
    assert sampled.key != RunSpec.make(
        "lbm", backend="sampled", window=256
    ).key
    windowed = RunSpec.make(
        "lbm", backend="sampled", window=256, stride=768, warmup=128
    )
    assert windowed.key != RunSpec.make(
        "lbm", backend="sampled", window=256, stride=768, warmup=256
    ).key
    plan = windowed.window_plan()
    assert (plan.window, plan.stride, plan.warmup) == (256, 768, 128)
    assert base.window_plan() is None


def test_spec_dimensions_feed_the_key():
    base = RunSpec.make("lbm")
    assert base.key != RunSpec.make("lbm", scale=0.5).key
    assert base.key != RunSpec.make("lbm", period=100).key
    assert base.key != RunSpec.make("lbm", techniques=("TEA",)).key
    assert base.key != RunSpec.make("lbm", extra_periods=(67,)).key
    assert base.key != RunSpec.make("lbm", seed=1).key
    assert base.key != RunSpec.make("lbm", jitter=False).key


def test_config_feeds_the_key_structurally():
    base = RunSpec.make("lbm", config=CoreConfig())
    same = RunSpec.make("lbm", config=CoreConfig())
    assert base.key == same.key  # equal configs, different objects
    small = CoreConfig()
    small.rob_entries = 32
    assert base.key != RunSpec.make("lbm", config=small).key
    assert base.key != RunSpec.make("lbm").key  # None != default


def test_canonical_payload_carries_schema_and_model_version():
    payload = RunSpec.make("lbm").canonical_payload()
    assert payload["schema"] == SPEC_SCHEMA
    assert payload["model_version"] == MODEL_VERSION


#: ``RunSpec.make("lbm", scale=0.05, backend="functional").key``.
FUNCTIONAL_LBM_KEY = (
    "ef5077959e59ddb502294bd348534143247dbf248392483f2ee7e36a7916a7ac"
)
PLANS = [
    {},
    {"techniques": ("TEA",)},
    {"techniques": ("IBS",)},
    {"period": 67, "extra_periods": (97,), "seed": 1, "extra_seed": 2,
     "jitter": False},
]


@pytest.mark.parametrize("plan", PLANS)
def test_functional_specs_do_not_key_their_sampler_plan(plan):
    """The functional tier attaches no samplers: one simulation, one key."""
    spec = RunSpec.make("lbm", scale=0.05, backend="functional", **plan)
    assert spec.key == FUNCTIONAL_LBM_KEY


@pytest.mark.parametrize("backend", ["detailed", "sampled"])
def test_sampling_tiers_key_their_sampler_plan(backend):
    keys = {
        RunSpec.make("lbm", scale=0.05, backend=backend, **plan).key
        for plan in PLANS
    }
    assert len(keys) == len(PLANS)


def test_canonical_rejects_unhashable_junk():
    with pytest.raises(TypeError, match="cannot canonicalise"):
        canonical(object())


def test_sampler_plan_matches_legacy_seeding():
    spec = RunSpec.make(
        "lbm", techniques=("IBS", "TEA"), period=293,
        extra_periods=(67, 101),
    )
    plan = list(spec.sampler_plan())
    assert plan == [
        ("IBS", "IBS", 293, 12345),
        ("IBS@67", "IBS", 67, 54321),
        ("IBS@101", "IBS", 101, 54321),
        ("TEA", "TEA", 293, 12346),
        ("TEA@67", "TEA", 67, 54322),
        ("TEA@101", "TEA", 101, 54322),
    ]


def _build_twokw(scale=1.0, alpha=1, beta=2.0):
    b = ProgramBuilder("twokw")
    b.li("x1", 16 + alpha)
    b.label("loop")
    b.addi("x1", "x1", -1)
    b.bne("x1", "x0", "loop")
    b.halt()
    return Workload(
        name="twokw",
        program=b.build(),
        state_builder=ArchState,
        params={"alpha": alpha, "beta": beta},
    )


def test_runner_memo_is_kwarg_order_insensitive(monkeypatch):
    """End-to-end regression for the memo-key collision: permuted
    kwargs must hit the same memo entry (one simulation, same object)."""
    monkeypatch.setitem(BUILDERS, "twokw", _build_twokw)
    runner = ExperimentRunner(scale=0.05, period=67)
    first = runner.run("twokw", alpha=3, beta=1.5)
    second = runner.run("twokw", beta=1.5, alpha=3)
    assert first is second
    assert runner.engine.simulations == 1
    different = runner.run("twokw", alpha=4, beta=1.5)
    assert different is not first
    assert runner.engine.simulations == 2
