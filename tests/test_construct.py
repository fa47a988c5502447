import numpy as np
import pytest

from nsdcolour import (ClassWidthError, ConstructConfig, Graph,
                       InfeasibleStrictError, LemmaParams, LemmaState,
                       RiskParams, TotalColouring, check_nsd,
                       check_proper, complete_graph, compute_risky, construct,
                       greedy_nsd, is_valid, path_graph, properize,
                       random_graph, recolour_H, repair_small_degree,
                       resample_until_valid, select_H, stage_two,
                       reference_span_bound, weighted_degrees)
from recount import recount_proper_and_distinct


def triangle_state():
    g = complete_graph(3)
    st = LemmaState(np.array([1, 1, 1]), np.array([1, 1, 1]),
                    np.array([1, 1, 1]), np.array([3, 3, 3]))
    return g, st


def pipeline_state(g, p, seed=0):
    st = resample_until_valid(g, p, seed, 200).state
    return stage_two(g, st, p, seed + 1, 200)


# ---------------------------------------------------------------------------
# lift and properize


def test_properize_triangle_layout():
    g, st = triangle_state()
    cs = properize(g, st, 10)
    # all edges in class 3: band {21..30}; triangle needs three edge slots
    assert sorted(int(c) for c in cs.edge_colours) == [21, 22, 23]
    # all vertices in class 1: band {1..10}, mutually adjacent
    assert sorted(int(c) for c in cs.vertex_colours) == [1, 2, 3]
    assert check_proper(g, TotalColouring(cs.vertex_colours, cs.edge_colours,
                                          cs.span)) == []


def test_properize_width_errors():
    g, st = triangle_state()
    with pytest.raises(ClassWidthError) as exc:
        properize(g, st, 2)
    assert exc.value.needed == 3
    # learned width mode never raises
    cs = properize(g, st, None)
    assert cs.width == 3
    assert sorted(int(c) for c in cs.edge_colours) == [7, 8, 9]


def test_properize_class_confinement():
    g = random_graph(120, 0.1, seed=6)
    p = LemmaParams(g.max_degree, slack=2.0)
    res = pipeline_state(g, p, seed=40)
    cs = properize(g, res.state, p.b_unit)
    B = cs.width
    for v in range(g.n):
        beta = int(res.state.c3v[v])
        assert B * (beta - 1) + 1 <= int(cs.vertex_colours[v]) <= B * beta
    for e in range(g.m):
        beta = int(res.state.c3e[e])
        assert B * (beta - 1) + 1 <= int(cs.edge_colours[e]) <= B * beta


def test_properize_output_is_proper():
    for seed in range(4):
        g = random_graph(150, 0.08, seed=seed)
        p = LemmaParams(g.max_degree, slack=2.0)
        res = pipeline_state(g, p, seed=50 + seed)
        cs = properize(g, res.state, p.b_unit)
        c = TotalColouring(cs.vertex_colours, cs.edge_colours, cs.span)
        assert check_proper(g, c) == []


def test_properize_rejects_uncoloured_edges():
    g = Graph(2, [(0, 1)])
    st = LemmaState(np.array([1, 1]), np.array([1]), np.array([1, 1]),
                    np.array([0]))
    with pytest.raises(ValueError):
        properize(g, st, 5)


# ---------------------------------------------------------------------------
# risky sets


def test_risky_symmetric_and_large_only():
    g = random_graph(300, 0.07, seed=9)
    p = LemmaParams(g.max_degree, slack=2.0)
    st = resample_until_valid(g, p, 60, 200).state
    risk = RiskParams(p, scale=2.0)
    risky = compute_risky(g, st, p, risk)
    deg = g.degrees
    for v in range(g.n):
        for u in risky[v]:
            assert v in risky[u]
            assert 3 * deg[u] >= p.delta and 3 * deg[v] >= p.delta
            assert g.has_edge(u, v)


def test_risky_respects_window():
    g = complete_graph(6)
    p = LemmaParams(5, slack=1.0)
    st = LemmaState(np.array([1, 2, 1, 2, 1, 2]), np.ones(15, dtype=np.int64),
                    np.ones(6, dtype=np.int64), np.zeros(15, dtype=np.int64))
    st.c3e = st.c1[g.edge_u] + st.c1[g.edge_v] + st.c2
    # shrink the window to zero: only identical doubled scores stay risky
    risk = RiskParams(p, scale=1.0)
    risk.threshold = 0
    risky = compute_risky(g, st, p, risk)
    s2 = p.score2_array(g.degrees, st.c1)
    for v in range(6):
        assert risky[v] == [u for u in g.adjacency[v] if s2[u] == s2[v]]


# ---------------------------------------------------------------------------
# pick-two selection


def test_select_h_triangle_covers_all_edges():
    g = complete_graph(3)
    p = LemmaParams(2, slack=1.0)
    sel = select_H(g, p, seed=0)
    assert sel.valid
    assert list(sel.edge_ids) == [0, 1, 2]


def test_select_h_every_picker_covered_twice():
    g = random_graph(200, 0.1, seed=3)
    p = LemmaParams(g.max_degree, slack=2.0)
    sel = select_H(g, p, seed=5)
    assert sel.valid
    h = set(int(e) for e in sel.edge_ids)
    deg_h = np.zeros(g.n, dtype=int)
    for e in h:
        deg_h[g.edge_u[e]] += 1
        deg_h[g.edge_v[e]] += 1
    for v in range(g.n):
        if 3 * g.degree(v) >= p.delta:
            assert deg_h[v] >= min(2, g.degree(v))
        assert deg_h[v] <= sel.cap


def test_select_h_deterministic():
    g = random_graph(100, 0.2, seed=1)
    p = LemmaParams(g.max_degree, slack=2.0)
    a = select_H(g, p, seed=8)
    b = select_H(g, p, seed=8)
    assert np.array_equal(a.edge_ids, b.edge_ids)


# ---------------------------------------------------------------------------
# reserve recolouring


def test_recolour_moves_only_picked_edges_above_span():
    g = random_graph(150, 0.1, seed=12)
    p = LemmaParams(g.max_degree, slack=2.0)
    res = pipeline_state(g, p, seed=70)
    cs = properize(g, res.state, p.b_unit)
    base = cs.span
    risk = RiskParams(p, scale=2.0)
    risky = compute_risky(g, res.state, p, risk)
    sel = select_H(g, p, seed=71)
    out, reserve = recolour_H(g, cs, sel.edge_ids, risky)
    h = set(int(e) for e in sel.edge_ids)
    assert reserve.base == base
    for e in range(g.m):
        if e in h:
            assert int(out.edge_colours[e]) > base
        else:
            assert int(out.edge_colours[e]) == int(cs.edge_colours[e])
    assert np.array_equal(out.vertex_colours, cs.vertex_colours)
    # properness survives: reserve colours clash with nothing below the base
    c = TotalColouring(out.vertex_colours, out.edge_colours, out.span)
    assert check_proper(g, c) == []


def test_recolour_separates_all_risky_pairs():
    # complete graph: every pair adjacent, equal degrees keep every pair
    # inside the window, so afterwards all sums must be pairwise distinct
    g = complete_graph(5)
    p = LemmaParams(4, slack=2.0)
    res = pipeline_state(g, p, seed=80)
    cs = properize(g, res.state, p.b_unit)
    risk = RiskParams(p, scale=2.0)
    risky = compute_risky(g, res.state, p, risk)
    for v in range(5):
        assert risky[v] == [u for u in range(5) if u != v]
    sel = select_H(g, p, seed=81)
    out, _ = recolour_H(g, cs, sel.edge_ids, risky)
    c = TotalColouring(out.vertex_colours, out.edge_colours, out.span)
    sums = weighted_degrees(g, c)
    assert len(set(int(s) for s in sums)) == 5
    assert check_proper(g, c) == []


# ---------------------------------------------------------------------------
# small-degree repair


def test_repair_fixes_small_vertex_clash():
    # star plus pendant chain: leaves are small, centre is large
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])
    from nsdcolour import ConstructionState
    vc = np.array([2, 1, 1, 1, 1, 3], dtype=np.int64)
    ec = np.array([3, 4, 5, 6, 1], dtype=np.int64)
    cs = ConstructionState(vc, ec, 1, np.zeros(6, dtype=np.int64),
                           np.zeros(5, dtype=np.int64))
    g_sums = weighted_degrees(g, TotalColouring(vc, ec, 20))
    # vertex 5 (degree 1) collides with vertex 4: 3+1 = 4 = 1+6-3... build
    # the clash explicitly instead of trusting arithmetic in a comment
    assert int(g_sums[5]) == 4
    vc[5] = int(g_sums[4]) - 1  # force sums[5] == sums[4]
    cs = ConstructionState(vc, ec, 1, cs.class_of_vertex, cs.class_of_edge)
    out, repaired = repair_small_degree(g, cs)
    assert repaired >= 1
    sums = weighted_degrees(g, TotalColouring(out.vertex_colours,
                                              out.edge_colours, out.span))
    for (u, v) in g.edges:
        assert int(sums[u]) != int(sums[v])
    # only small vertices may move
    for v in range(6):
        if 3 * g.degree(v) >= g.max_degree:
            assert int(out.vertex_colours[v]) == int(vc[v])
    assert np.array_equal(out.edge_colours, ec)


def test_repair_leaves_clean_states_alone():
    g = random_graph(100, 0.06, seed=14)
    col = greedy_nsd(g)
    from nsdcolour import ConstructionState
    cs = ConstructionState(col.vertex_colours.copy(), col.edge_colours.copy(),
                           1, np.zeros(g.n, dtype=np.int64),
                           np.zeros(g.m, dtype=np.int64))
    out, repaired = repair_small_degree(g, cs)
    assert repaired == 0
    assert np.array_equal(out.vertex_colours, col.vertex_colours)


# ---------------------------------------------------------------------------
# greedy fallback


def test_greedy_k2_span_three():
    g = Graph(2, [(0, 1)])
    col = greedy_nsd(g)
    assert col.span == 3
    assert is_valid(g, col)


def test_greedy_valid_and_bounded_on_families():
    cases = [complete_graph(6), path_graph(9), Graph(1, []), Graph(4, []),
             random_graph(60, 0.15, seed=2), random_graph(200, 0.04, seed=3)]
    for g in cases:
        col = greedy_nsd(g)
        assert is_valid(g, col)
        assert col.span <= 3 * max(g.max_degree, 0) + 10
        ok_proper, ok_sums = recount_proper_and_distinct(
            g, col.vertex_colours, col.edge_colours)
        assert ok_proper and ok_sums


def test_greedy_deterministic():
    g = random_graph(80, 0.2, seed=5)
    a, b = greedy_nsd(g), greedy_nsd(g)
    assert np.array_equal(a.vertex_colours, b.vertex_colours)
    assert np.array_equal(a.edge_colours, b.edge_colours)


# ---------------------------------------------------------------------------
# the full pipeline


def test_construct_k2():
    g = Graph(2, [(0, 1)])
    col, rep = construct(g, ConstructConfig(seed=1))
    assert rep.valid
    assert is_valid(g, col)
    assert col.span >= 3  # exact optimum for a single edge


def test_construct_edgeless():
    g = Graph(5, [])
    col, rep = construct(g, ConstructConfig(seed=0))
    assert rep.valid and col.span == 1
    assert list(col.vertex_colours) == [1] * 5


def test_construct_deterministic():
    g = random_graph(250, 0.06, seed=20)
    c1, r1 = construct(g, ConstructConfig(seed=4))
    c2, r2 = construct(g, ConstructConfig(seed=4))
    assert np.array_equal(c1.vertex_colours, c2.vertex_colours)
    assert np.array_equal(c1.edge_colours, c2.edge_colours)
    assert r1.to_dict() == r2.to_dict()


def test_construct_valid_mid_size():
    g = random_graph(800, 0.03, seed=33)
    col, rep = construct(g, ConstructConfig(seed=6))
    assert rep.valid
    assert not rep.fallback_used
    assert is_valid(g, col)
    a = rep.attempts[rep.chosen_attempt]
    assert a["proper_violations"] == 0 and a["nsd_violations"] == 0
    assert rep.span == col.span
    assert rep.reference_bound == reference_span_bound(g.max_degree)


def test_construct_span_cap_substitutes_fallback():
    g = random_graph(500, 0.05, seed=41)
    cap = 3 * g.max_degree + 10
    col, rep = construct(g, ConstructConfig(seed=2, span_cap=cap))
    assert rep.valid
    assert col.span <= cap
    if rep.span_capped:
        assert rep.fallback_used
        assert rep.pipeline_span is None or rep.pipeline_span > cap
    assert is_valid(g, col)


def test_construct_strict_refuses_desk_scale():
    g = random_graph(100, 0.2, seed=1)
    with pytest.raises(InfeasibleStrictError):
        construct(g, ConstructConfig(seed=0, mode="strict"))


def test_construct_rejects_unknown_mode():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        construct(g, ConstructConfig(seed=0, mode="hopeful"))


def test_reference_bound_values():
    assert reference_span_bound(0) == 0.0
    assert reference_span_bound(1) == 140.0  # 1 + 139 with the ln floor at 1
    b = reference_span_bound(4096)
    assert 4096 < b < 4096 + 139 * 1024 * 1.43
    assert reference_span_bound(8192) > b


def test_report_serializes():
    import json
    g = random_graph(60, 0.1, seed=0)
    _, rep = construct(g, ConstructConfig(seed=3))
    text = json.dumps(rep.to_dict(), sort_keys=True)
    assert "fallback_used" in text
