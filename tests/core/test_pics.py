"""Tests for PICS profiles and granularity aggregation."""

import pytest

from repro.core.events import Event
from repro.core.pics import Granularity, PicsProfile
from repro.isa.builder import ProgramBuilder

ST_L1 = 1 << Event.ST_L1
FL_MB = 1 << Event.FL_MB


def sample_profile():
    return PicsProfile(
        "t",
        {
            0: {0: 10.0, ST_L1: 30.0},
            1: {0: 5.0},
            2: {FL_MB: 55.0},
        },
    )


def program_for_aggregation():
    b = ProgramBuilder("agg")
    b.li("x1", 2)  # 0  main
    b.label("loop")
    b.addi("x1", "x1", -1)  # 1
    b.bne("x1", "x0", "loop")  # 2
    b.function("tail")
    b.halt()  # 3  tail
    return b.build()


def test_total_and_height():
    p = sample_profile()
    assert p.total() == pytest.approx(100.0)
    assert p.height(0) == pytest.approx(40.0)
    assert p.height(99) == 0.0


def test_top_units():
    p = sample_profile()
    assert p.top_units(2) == [2, 0]


def test_component_lookup():
    p = sample_profile()
    assert p.component(0, ST_L1) == pytest.approx(30.0)
    assert p.component(0, FL_MB) == 0.0


def test_named_stack():
    p = sample_profile()
    named = p.named_stack(0)
    assert named == {"Base": 10.0, "ST-L1": 30.0}


def test_project_merges_components():
    p = sample_profile()
    projected = p.project(FL_MB)  # only FL-MB survives
    # ST-L1 folds into Base for unit 0.
    assert projected.stacks[0] == {0: 40.0}
    assert projected.stacks[2] == {FL_MB: 55.0}
    assert projected.total() == pytest.approx(p.total())


def test_scaled():
    p = sample_profile()
    scaled = p.scaled(200.0)
    assert scaled.total() == pytest.approx(200.0)
    assert scaled.component(0, ST_L1) == pytest.approx(60.0)


def test_scaled_empty_profile():
    empty = PicsProfile("e", {})
    assert empty.scaled(100.0).total() == 0.0


def test_from_raw():
    raw = {(0, 0): 1.5, (0, ST_L1): 2.5, (3, 0): 1.0}
    p = PicsProfile.from_raw("r", raw)
    assert p.height(0) == pytest.approx(4.0)
    assert p.height(3) == pytest.approx(1.0)


def test_aggregate_function_granularity():
    program = program_for_aggregation()
    p = PicsProfile(
        "t", {0: {0: 1.0}, 1: {0: 2.0}, 2: {ST_L1: 3.0}, 3: {0: 4.0}}
    )
    by_func = p.aggregate(program, Granularity.FUNCTION)
    assert by_func.granularity == Granularity.FUNCTION
    assert by_func.height("main") == pytest.approx(6.0)
    assert by_func.height("tail") == pytest.approx(4.0)
    # Signatures survive aggregation.
    assert by_func.component("main", ST_L1) == pytest.approx(3.0)


def test_aggregate_basic_block_granularity():
    program = program_for_aggregation()
    p = PicsProfile("t", {0: {0: 1.0}, 1: {0: 2.0}, 2: {0: 3.0}})
    by_bb = p.aggregate(program, Granularity.BASIC_BLOCK)
    assert by_bb.height(0) == pytest.approx(1.0)
    assert by_bb.height(1) == pytest.approx(5.0)


def test_aggregate_application_granularity():
    program = program_for_aggregation()
    p = sample_profile()
    app = p.aggregate(program, Granularity.APPLICATION)
    assert list(app.units()) == ["agg"]
    assert app.total() == pytest.approx(p.total())


def test_aggregate_requires_instruction_granularity():
    program = program_for_aggregation()
    p = sample_profile().aggregate(program, Granularity.FUNCTION)
    with pytest.raises(ValueError, match="instruction-granularity"):
        p.aggregate(program, Granularity.APPLICATION)


def test_aggregate_instruction_is_identity():
    program = program_for_aggregation()
    p = PicsProfile("t", {0: {0: 1.0}})
    same = p.aggregate(program, Granularity.INSTRUCTION)
    assert same.stacks == p.stacks


def _snapshot(stacks):
    return {unit: dict(stack) for unit, stack in stacks.items()}


def _scribble(profile):
    """Mutate every stack of *profile*, and its unit map."""
    for stack in profile.stacks.values():
        stack[0] = -1.0
        stack[FL_MB] = -2.0
    profile.stacks["extra"] = {0: -3.0}


def test_from_raw_result_never_aliases_the_raw_dict():
    raw = {(0, 0): 1.5, (0, ST_L1): 2.5, (3, 0): 1.0}
    before = dict(raw)
    _scribble(PicsProfile.from_raw("r", raw))
    assert raw == before


@pytest.mark.parametrize(
    "derive",
    [
        lambda p: p.project(FL_MB),
        lambda p: p.project(ST_L1 | FL_MB),  # keeps every signature
        lambda p: p.scaled(200.0),
        lambda p: p.scaled(p.total()),
        lambda p: p.aggregate(
            program_for_aggregation(), Granularity.INSTRUCTION
        ),
    ],
    ids=["project", "project-all", "scaled", "scaled-same",
         "aggregate-instruction"],
)
def test_derived_profiles_never_alias_their_source(derive):
    source = sample_profile()
    before = _snapshot(source.stacks)
    derived = derive(source)
    derived_before = _snapshot(derived.stacks)
    _scribble(derived)
    assert source.stacks == before
    # Nor the other way round.
    derived = derive(source)
    _scribble(source)
    assert derived.stacks == derived_before


def test_constructor_copies_the_stacks_it_is_given():
    stacks = {0: {0: 1.0}, 1: {ST_L1: 2.0}}
    before = _snapshot(stacks)
    profile = PicsProfile("t", stacks)
    _scribble(profile)
    assert stacks == before
    profile = PicsProfile("t", stacks)
    stacks[0][0] = 9.0
    stacks[2] = {0: 9.0}
    assert profile.stacks == before
