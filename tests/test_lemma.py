import math
from fractions import Fraction

import numpy as np
import pytest

from nsdcolour import (ALL_PROPERTIES, Graph, InfeasibleStrictError,
                       LemmaParams, LemmaState, STAGE_ONE_PROPERTIES,
                       check_properties, event_scope,
                       interval_index, random_graph, resample_event,
                       resample_until_valid, s_of, sample_stage_one,
                       stage_two)
from recount import recount


def make_params(delta, slack=1.0):
    p = LemmaParams(delta, slack=slack)
    return p


# ---------------------------------------------------------------------------
# parameter values, frozen from independent high-precision evaluation


def test_palette_sizes_at_4096():
    p = make_params(4096)
    assert (p.r1, p.r2, p.r3) == (3, 8, 14)
    assert p.b_unit == 915
    assert abs(p.ln_floor - 8.317766166719343) < 1e-12


def test_caps_at_4096():
    p = make_params(4096)
    assert p.caps == {
        "I": 192, "II": 1576, "VI": 1521,
        "1°a": 715, "1°b": 1365, "2°": 715, "3°": 715, "4°": 131,
        "dH": 124, "III": 2080, "IV": 846,
    }


def test_cap_composition():
    for delta in (64, 500, 4096):
        for slack in (1.0, 2.0):
            p = make_params(delta, slack)
            assert p.caps["III"] == p.caps["1°b"] + p.caps["2°"]
            assert p.caps["IV"] == p.caps["3°"] + p.caps["4°"]
            assert p.caps["1°a"] == p.caps["2°"] == p.caps["3°"]


def test_slack_scales_caps():
    p1 = make_params(4096, 1.0)
    p2 = make_params(4096, 2.0)
    assert p2.caps["I"] == 384 == 2 * p1.caps["I"]
    # floor(2x) >= 2*floor(x) always; equality not guaranteed per cap
    for k in p1.caps:
        if k in ("III", "IV"):
            continue
        assert p2.caps[k] >= 2 * p1.caps[k]


def test_small_degree_palettes_clamp_to_one():
    p = make_params(1)
    assert (p.r1, p.r2, p.r3) == (1, 1, 3)
    assert p.b_unit == 7
    p0 = make_params(0)
    assert (p0.r1, p0.r2) == (1, 1)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        LemmaParams(-1)
    with pytest.raises(ValueError):
        LemmaParams(10, slack=0.5)
    with pytest.raises(ValueError):
        LemmaParams(10, strict=True, slack=2.0)


def test_strict_mode_refuses_desk_scale():
    with pytest.raises(InfeasibleStrictError):
        LemmaParams(4096, strict=True)
    p = make_params(4096)
    assert not p.feasible_strict
    assert any("score" in r for r in p.feasibility_reasons)


def test_strict_predicate_reasons_small_degree():
    p = make_params(2)
    assert not p.feasible_strict
    assert any("ln" in r for r in p.feasibility_reasons)


# ---------------------------------------------------------------------------
# scores and intervals


def test_score_reference_value():
    p = make_params(4096)
    assert s_of(2048, 2, p) == Fraction(15928320)
    # original definition: b_unit*(d*c1 + (d/r1)*T(r1) + (d/r2)*T(r2))
    d = 2048
    direct = 915 * (Fraction(d * 2) + Fraction(d, 3) * 6 + Fraction(d, 8) * 36)
    assert direct == Fraction(15928320)


def test_score_unit_case():
    p = make_params(1)
    assert s_of(1, 1, p) == 3 * 7  # three unit terms times b_unit


def test_score_monotone_in_attractor_colour():
    p = make_params(4096)
    assert s_of(100, 1, p) < s_of(100, 2, p) < s_of(100, 3, p)
    assert s_of(0, 3, p) == 0


def test_interval_len_value():
    p = make_params(4096)
    assert abs(float(p.interval_len) - 708186.3651139064) < 1e-3


def test_interval_index_reference():
    p = make_params(4096)
    assert interval_index(s_of(2048, 2, p), p) == 23


def test_interval_boundaries_right_closed():
    p = make_params(4096)
    L = p.interval_len
    assert interval_index(L, p) == 1
    assert interval_index(L + Fraction(1, 10 ** 9), p) == 2
    assert interval_index(Fraction(7, 2) * L, p) == 4
    assert interval_index(Fraction(1, 10 ** 12), p) == 1


def test_interval_index_rejects_nonpositive():
    p = make_params(4096)
    with pytest.raises(ValueError):
        interval_index(0, p)
    with pytest.raises(ValueError):
        interval_index(Fraction(-3, 2), p)


# ---------------------------------------------------------------------------
# sampling and the derived edge colour


def test_single_edge_sample_is_forced():
    g = Graph(2, [(0, 1)])
    p = make_params(1)
    st = sample_stage_one(g, p, seed=0)
    assert list(st.c1) == [1, 1]
    assert list(st.c2) == [1]
    assert list(st.c3v) == [1, 1]
    assert list(st.c3e) == [3]


def test_sample_ranges_and_sum_identity():
    g = random_graph(60, 0.2, seed=3)
    p = make_params(g.max_degree)
    st = sample_stage_one(g, p, seed=9)
    assert st.c1.min() >= 1 and st.c1.max() <= p.r1
    assert st.c2.min() >= 1 and st.c2.max() <= p.r2
    assert st.c3v.min() >= 1 and st.c3v.max() <= p.r2
    expect = st.c1[g.edge_u] + st.c1[g.edge_v] + st.c2
    assert np.array_equal(st.c3e, expect)
    assert st.c3e.max() <= p.r3


def test_sample_deterministic():
    g = random_graph(40, 0.3, seed=1)
    p = make_params(g.max_degree)
    a = sample_stage_one(g, p, seed=5)
    b = sample_stage_one(g, p, seed=5)
    c = sample_stage_one(g, p, seed=6)
    assert np.array_equal(a.c1, b.c1) and np.array_equal(a.c3v, b.c3v)
    assert not (np.array_equal(a.c1, c.c1) and np.array_equal(a.c2, c.c2)
                and np.array_equal(a.c3v, c.c3v))


# ---------------------------------------------------------------------------
# the property checker on handmade fixtures


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def test_attractor_balance_fails_on_constant_star():
    g = star(100)
    p = make_params(100)
    assert p.r1 == 2
    assert p.caps["I"] == 20
    c1 = np.ones(101, dtype=np.int64)
    c2 = np.ones(100, dtype=np.int64)
    c3v = np.ones(101, dtype=np.int64)
    st = LemmaState(c1, c2, c3v, c1[g.edge_u] + c1[g.edge_v] + c2)
    rep = check_properties(g, st, p, properties=["I"])
    assert rep.verdicts["I"] is False
    # centre fails for both attractor colours: all-1 and none-2
    assert (0, 1) in rep.violators["I"] and (0, 2) in rep.violators["I"]
    # leaves are small degree, never checked
    assert all(v == 0 for v, _ in rep.violators["I"])


def test_auxiliary_balance_fails_on_constant_star():
    g = star(100)
    p = make_params(100)
    st = LemmaState(np.ones(101, dtype=np.int64),
                    np.full(100, 2, dtype=np.int64),
                    np.ones(101, dtype=np.int64),
                    np.zeros(100, dtype=np.int64))
    st.c3e = st.c1[g.edge_u] + st.c1[g.edge_v] + st.c2
    rep = check_properties(g, st, p, properties=["II"])
    assert rep.verdicts["II"] is False
    assert all(v == 0 for v, _ in rep.violators["II"])


def test_equal_target_edge_rule():
    g = Graph(2, [(0, 1)])
    p = make_params(1)
    st = LemmaState(np.array([1, 1]), np.array([1]), np.array([1, 1]),
                    np.array([3]))
    rep = check_properties(g, st, p, properties=["V"])
    assert rep.verdicts["V"] is False
    assert rep.violators["V"] == [(0, 1)]
    st.c3e = np.array([1])
    rep = check_properties(g, st, p, properties=["V"])
    assert rep.verdicts["V"] is True


def test_checker_rejects_h3_properties_without_edge_set():
    g = Graph(2, [(0, 1)])
    p = make_params(1)
    st = sample_stage_one(g, p, 0)
    with pytest.raises(ValueError):
        check_properties(g, st, p, properties=["3°"])
    # default property list quietly omits them
    rep = check_properties(g, st, p)
    assert "3°" not in rep.verdicts and "4°" not in rep.verdicts
    assert set(rep.verdicts) == {"I", "II", "III", "IV", "V", "VI", "1°", "2°"}


def test_checker_agrees_with_recount_on_random_states():
    for seed in range(6):
        g = random_graph(150, 0.15, seed=seed)
        p = make_params(g.max_degree, slack=1.0)
        st = sample_stage_one(g, p, seed=100 + seed)
        rep = check_properties(g, st, p)
        ind = recount(g, st, p)
        for q in ("I", "II", "III", "IV", "V", "VI", "1°", "2°"):
            assert rep.verdicts[q] == ind[q], (seed, q)


# ---------------------------------------------------------------------------
# resampling


def test_event_scopes():
    g = star(4)
    nbrs = [1, 2, 3, 4]
    inc = sorted(g.incident_edges(0))
    assert event_scope(g, 0, "I") == (nbrs, [], [])
    assert event_scope(g, 0, "VI") == (nbrs, [], [])
    assert event_scope(g, 0, "II") == ([], inc, [])
    assert event_scope(g, 0, "1°") == ([0, 1, 2, 3, 4], inc, [0, 1, 2, 3, 4])
    assert event_scope(g, 0, "2°") == ([], [], nbrs)
    with pytest.raises(ValueError):
        event_scope(g, 0, "V")


def test_resample_event_touches_only_scope():
    g = random_graph(80, 0.2, seed=2)
    p = make_params(g.max_degree)
    rng = np.random.default_rng(0)
    for prop in STAGE_ONE_PROPERTIES:
        st = sample_stage_one(g, p, seed=1)
        before = st.copy()
        v = 7
        resample_event(g, st, v, prop, rng, p)
        c1_ids, c2_ids, c3v_ids = event_scope(g, v, prop)
        for w in range(g.n):
            if w not in c1_ids:
                assert st.c1[w] == before.c1[w]
            if w not in c3v_ids:
                assert st.c3v[w] == before.c3v[w]
        for e in range(g.m):
            if e not in c2_ids:
                assert st.c2[e] == before.c2[e]
        # derived colours always refreshed to match the sum rule
        assert np.array_equal(st.c3e, st.c1[g.edge_u] + st.c1[g.edge_v] + st.c2)


def test_resample_immediate_validity_means_zero_rounds():
    g = random_graph(500, 0.05, seed=4)
    p = make_params(g.max_degree, slack=2.0)
    res = resample_until_valid(g, p, seed=11, max_rounds=50)
    assert res.valid and res.rounds == 0
    ref = sample_stage_one(g, p, seed=11)
    assert np.array_equal(res.state.c1, ref.c1)
    assert np.array_equal(res.state.c2, ref.c2)
    assert np.array_equal(res.state.c3v, ref.c3v)


def test_resample_deterministic():
    g = random_graph(300, 0.06, seed=8)
    p = make_params(g.max_degree, slack=1.0)
    a = resample_until_valid(g, p, seed=3, max_rounds=30)
    b = resample_until_valid(g, p, seed=3, max_rounds=30)
    assert a.rounds == b.rounds and a.valid == b.valid
    assert np.array_equal(a.state.c1, b.state.c1)
    assert np.array_equal(a.state.c2, b.state.c2)
    assert np.array_equal(a.state.c3v, b.state.c3v)


def test_resample_budget_returns_best_state():
    g = star(100)
    p = make_params(100)
    res = resample_until_valid(g, p, seed=0, max_rounds=0)
    # zero budget: whatever the first sample looked like comes back
    rep = check_properties(g, res.state, p,
                           properties=STAGE_ONE_PROPERTIES)
    assert res.valid == rep.all_pass(STAGE_ONE_PROPERTIES)


def test_calibration_mid_size_random_graph():
    g = random_graph(2000, 0.02, seed=17)
    p = make_params(g.max_degree, slack=2.0)
    res = resample_until_valid(g, p, seed=23, max_rounds=200)
    assert res.valid
    assert res.rounds <= 50


# ---------------------------------------------------------------------------
# stage two


def test_stage_two_identity_when_no_collisions():
    # engineered so no edge sum hits a target and no targets repeat:
    # P2 with distinct c3v and c3e = 3 not in {c3v values}
    g = Graph(2, [(0, 1)])
    p = LemmaParams(4)  # r2 = 2 gives room for distinct targets
    st = LemmaState(np.array([1, 1]), np.array([1]), np.array([1, 2]),
                    np.array([3]))
    res = stage_two(g, st, p, seed=5, max_rounds=10)
    assert res.e1_count == 0 and res.e2_count == 0
    assert res.h3_edge_ids.size == 0
    assert np.array_equal(res.state.c3e, st.c3e)
    assert res.valid


def test_stage_two_equal_targets_get_shared_colour():
    g = Graph(2, [(0, 1)])
    p = LemmaParams(4)
    st = LemmaState(np.array([1, 1]), np.array([1]), np.array([2, 2]),
                    np.array([3]))
    res = stage_two(g, st, p, seed=5, max_rounds=10)
    assert res.e2_count == 1
    assert list(res.state.c3e) == [2]
    rep = res.report
    assert rep.verdicts["V"] is True


def test_stage_two_uncoloured_edges_get_fresh_colours():
    # force edge sum to hit an endpoint target: c1=1,1 c2=1 -> sum 3; c3v=(3,1)
    g = Graph(2, [(0, 1)])
    p = LemmaParams(9)  # r2 = 3 lets a target equal 3
    st = LemmaState(np.array([1, 1]), np.array([1]), np.array([3, 1]),
                    np.array([3]))
    res = stage_two(g, st, p, seed=5, max_rounds=10)
    assert res.e1_count == 1 and res.e2_count == 0
    assert list(res.h3_edge_ids) == [0]
    assert 1 <= int(res.state.c3e[0]) <= p.r3
    assert res.valid


def test_stage_two_never_touches_inputs():
    g = random_graph(200, 0.08, seed=21)
    p = make_params(g.max_degree, slack=2.0)
    st = sample_stage_one(g, p, seed=2)
    snapshot = st.copy()
    res = stage_two(g, st, p, seed=3, max_rounds=100)
    assert np.array_equal(st.c3e, snapshot.c3e)  # caller state untouched
    assert np.array_equal(res.state.c1, st.c1)
    assert np.array_equal(res.state.c2, st.c2)
    assert np.array_equal(res.state.c3v, st.c3v)
    # structural guarantees after the rewiring
    for q in ("III", "IV", "V"):
        assert res.report.verdicts[q] is True, res.report.violators[q]


def test_stage_two_report_matches_recount():
    g = random_graph(400, 0.05, seed=30)
    p = make_params(g.max_degree, slack=2.0)
    st = resample_until_valid(g, p, seed=31, max_rounds=100).state
    res = stage_two(g, st, p, seed=32, max_rounds=100)
    ind = recount(g, res.state, p, h3_edge_ids=res.h3_edge_ids)
    for q in ALL_PROPERTIES:
        assert res.report.verdicts[q] == ind[q], q
