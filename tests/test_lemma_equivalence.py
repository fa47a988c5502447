"""The property checker, stage-one resampling and stage two return exactly
what the reference copies in reference_lemma.py return.

States come from hypothesis graphs (n <= 40, edgeless graphs included, and
hub graphs that put small and large vertices side by side) at slacks 1.0,
1.3 and 2.0, both after stage one and after stage two. Every property id is
checked alone, all of them together, and the stage-one set, with and without
the redrawn edge set. Lowered caps make every property report violators and
keep stage one resampling; a 4° cap lowered to 0..3 keeps stage two's redraw
loop running for hundreds of rounds. The grid points with n <= 500 run both
stages at slack 1.0, where stage one resamples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_lemma as ref
from nsdcolour import (ALL_PROPERTIES, STAGE_ONE_PROPERTIES, LemmaParams,
                       check_properties, random_graph, resample_event,
                       resample_until_valid, stage_two)
from nsdcolour.lemma import _first_violation
from test_acceptance import GRID
from test_equivalence import graphs, hub_graphs

SLACKS = (1.0, 1.3, 2.0)
PROPERTY_SETS = ([None, list(ALL_PROPERTIES), list(STAGE_ONE_PROPERTIES)]
                 + [[q] for q in ALL_PROPERTIES])
QUERIES = (None, [], list(ALL_PROPERTIES), list(STAGE_ONE_PROPERTIES),
           ["1°"], ["4°"], ["I", "III", "V"])


def same_array(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


def assert_same_report(new, old):
    assert list(new.violators.items()) == list(old.violators.items())
    assert all(type(x) is int for pairs in new.violators.values()
               for pair in pairs for x in pair)
    assert list(new.verdicts.items()) == list(old.verdicts.items())
    assert list(new.violator_counts().items()) == \
        list(old.violator_counts().items())
    for q in QUERIES:
        assert new.all_pass(q) == old.all_pass(q), q
        assert new.violation_total(q) == old.violation_total(q), q
    assert _first_violation(new) == ref._first_violation(old)


def assert_same_check(g, state, p, h3_ids):
    """Every property set, with and without the redrawn edges, gives the
    same report, or the same ValueError."""
    for props in PROPERTY_SETS:
        for h3 in (None, h3_ids):
            try:
                old = ref.check_properties(g, state, p, props, h3)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    check_properties(g, state, p, props, h3)
                assert str(got.value) == str(exc)
                continue
            assert_same_report(check_properties(g, state, p, props, h3), old)


def assert_same_state(new, old):
    for name in ("c1", "c2", "c3v", "c3e"):
        assert same_array(getattr(new, name), getattr(old, name)), name


def assert_same_stage_one(g, p, seed, max_rounds):
    new = resample_until_valid(g, p, seed, max_rounds)
    old = ref.resample_until_valid(g, p, seed, max_rounds)
    assert (new.rounds, new.valid) == (old.rounds, old.valid)
    assert_same_state(new.state, old.state)
    assert_same_report(new.report, old.report)
    return new


def assert_same_stage_two(g, state, p, seed, max_rounds):
    new = stage_two(g, state, p, seed, max_rounds)
    old = ref.stage_two(g, state, p, seed, max_rounds)
    for name in ("rounds", "valid", "e1_count", "e2_count", "h1_max_degree",
                 "h2_max_degree"):
        assert getattr(new, name) == getattr(old, name), name
        assert type(getattr(new, name)) is type(getattr(old, name)), name
    assert same_array(new.h3_edge_ids, old.h3_edge_ids)
    assert_same_state(new.state, old.state)
    assert_same_report(new.report, old.report)
    return new


def assert_same_pipeline(g, p, seed, max_rounds):
    """Both stages, then every check on both stages' states."""
    r1 = assert_same_stage_one(g, p, seed, max_rounds)
    r2 = assert_same_stage_two(g, r1.state, p, seed + 1, max_rounds)
    assert_same_check(g, r1.state, p, r2.h3_edge_ids)
    assert_same_check(g, r2.state, p, r2.h3_edge_ids)
    return r1, r2


def lowered(p, cap, keys=None):
    """p with its caps (or those named in keys) lowered to cap at most."""
    p.caps = {k: min(v, cap) if keys is None or k in keys else v
              for k, v in p.caps.items()}
    return p


# ---------------------------------------------------------------------------
# hypothesis-drawn graphs


@settings(max_examples=60, deadline=None)
@given(g=st.one_of(graphs(), hub_graphs()), seed=st.integers(0, 2**32 - 1),
       slack=st.sampled_from(SLACKS), cap=st.sampled_from([None, 0, 1, 2]))
def test_stages_and_checks_match_reference(g, seed, slack, cap):
    p = LemmaParams(g.max_degree, slack=slack)
    if cap is not None:
        lowered(p, cap)
    assert_same_pipeline(g, p, seed, 25)


@settings(max_examples=60, deadline=None)
@given(g=hub_graphs(), seed=st.integers(0, 2**32 - 1),
       slack=st.sampled_from(SLACKS), v=st.integers(0, 39),
       prop=st.sampled_from(STAGE_ONE_PROPERTIES))
def test_resample_event_matches_reference(g, seed, slack, v, prop):
    if g.n == 0:
        return
    v %= g.n
    p = LemmaParams(g.max_degree, slack=slack)
    r1 = resample_until_valid(g, p, seed, 0)
    new, old = r1.state.copy(), r1.state.copy()
    rng_new = np.random.default_rng(seed)
    rng_old = np.random.default_rng(seed)
    for _ in range(3):
        resample_event(g, new, v, prop, rng_new, p)
        ref.resample_event(g, old, v, prop, rng_old, p)
        assert_same_state(new, old)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


# ---------------------------------------------------------------------------
# fixed cases


def test_empty_graphs_match_reference():
    for g in (random_graph(0, 0.0, seed=0), random_graph(7, 0.0, seed=0)):
        for slack in SLACKS:
            assert_same_pipeline(g, LemmaParams(g.max_degree, slack=slack),
                                 3, 10)


def test_unknown_property_id_raises_like_reference():
    g = random_graph(20, 0.3, seed=1)
    p = LemmaParams(g.max_degree)
    state = resample_until_valid(g, p, 0, 0).state
    for props in (["I", "VII"], ["1°a"], ["4°"], ["III", "3°"]):
        with pytest.raises(ValueError) as old:
            ref.check_properties(g, state, p, props)
        with pytest.raises(ValueError) as new:
            check_properties(g, state, p, props)
        assert str(new.value) == str(old.value)


@pytest.mark.parametrize("slack", SLACKS)
def test_lowered_caps_make_every_property_report(slack):
    g = random_graph(120, 0.15, seed=5)
    p = lowered(LemmaParams(g.max_degree, slack=slack), 0)
    r1, r2 = assert_same_pipeline(g, p, 11, 30)
    assert r1.rounds == 30 and not r1.valid
    for key in ("I", "II", "III", "IV", "V", "VI", "1°a", "1°b", "2°", "3°",
                "4°"):
        new = check_properties(g, r1.state if key == "V" else r2.state, p,
                               h3_edge_ids=r2.h3_edge_ids)
        assert new.violators[key], key


@pytest.mark.parametrize("cap4", [0, 1, 2, 3])
def test_redraw_loop_under_lowered_4_cap_matches_reference(cap4):
    rounds = 0
    for seed, (n, mean) in enumerate([(150, 20), (300, 40), (200, 100),
                                       (300, 120)]):
        g = random_graph(n, mean / (n - 1), seed=seed)
        p = lowered(LemmaParams(g.max_degree, slack=2.0), cap4, ("4°",))
        r1 = resample_until_valid(g, p, seed, 50)
        rounds += assert_same_stage_two(g, r1.state, p, seed + 7, 400).rounds
    assert rounds >= 100


@pytest.mark.parametrize("n,mean", [pt for pt in GRID if pt[0] <= 500])
def test_grid_points_match_reference(n, mean):
    g = random_graph(n, mean / (n - 1), seed=0)
    p = LemmaParams(g.max_degree, slack=1.0)
    r1, _ = assert_same_pipeline(g, p, 2026, 200)
    assert r1.rounds > 0
