import importlib
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import reference_construct as ref
from nsdcolour import (ConstructConfig, Graph,
                       InfeasibleStrictError, LemmaParams, LemmaState,
                       STAGE_ONE_PROPERTIES, TotalColouring,
                       check_nsd, check_proper, complete_graph, compute_risky,
                       construct, greedy_nsd, is_valid, path_graph, properize,
                       random_graph, recolour_H, repair_small_degree,
                       resample_until_valid, select_H, stage_two,
                       reference_span_bound, weighted_degrees,
                       write_colouring)
from recount import recount_proper_and_distinct, risky_lists
from reference_graph import ViewGraph
from test_equivalence import hub_graphs, risk_params

# the package re-exports the function construct(), which shadows the module
construct_mod = importlib.import_module("nsdcolour.construct")
lemma_mod = importlib.import_module("nsdcolour.lemma")


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
    cs, width = properize(g, st, 10)
    assert width == 10
    # all edges in class 3: band {21..30}; triangle needs three edge slots
    assert sorted(int(c) for c in cs.edge_colours) == [21, 22, 23]
    # all vertices in class 1: band {1..10}, mutually adjacent
    assert sorted(int(c) for c in cs.vertex_colours) == [1, 2, 3]
    assert cs.k == cs.span == 23
    assert check_proper(g, cs) == []


def test_properize_widens_narrow_bands():
    # the triangle's edges need three slots, so width 2 becomes 3, as does
    # a learned width
    g, st = triangle_state()
    for asked in (2, None):
        cs, width = properize(g, st, asked)
        assert width == 3
        assert sorted(int(c) for c in cs.edge_colours) == [7, 8, 9]
        assert check_proper(g, cs) == []


def test_properize_class_confinement():
    g = random_graph(120, 0.1, seed=6)
    p = LemmaParams(g.max_degree, slack=2.0)
    res = pipeline_state(g, p, seed=40)
    cs, B = properize(g, res.state, p.b_unit)
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
        cs, _ = properize(g, res.state, p.b_unit)
        assert check_proper(g, cs) == []


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
    mask = compute_risky(g, st, p)
    assert mask.dtype == bool and mask.shape == (g.m,) and mask.any()
    risky = risky_lists(g, mask)
    deg = g.degrees
    for v in range(g.n):
        for u in risky[v]:
            assert v in risky[u]
            assert 3 * deg[u] >= p.delta and 3 * deg[v] >= p.delta
            assert g.find_edges([u], [v])[0] >= 0


def test_risky_respects_window():
    g = complete_graph(6)
    p = LemmaParams(5, slack=1.0)
    st = LemmaState(np.array([1, 2, 1, 2, 1, 2]), np.ones(15, dtype=np.int64),
                    np.ones(6, dtype=np.int64), np.zeros(15, dtype=np.int64))
    st.c3e = st.c1[g.edge_u] + st.c1[g.edge_v] + st.c2
    # shrink the window to zero: only identical doubled scores stay risky
    p.risk_threshold = 0
    risky = risky_lists(g, compute_risky(g, st, p))
    s2 = p.score2_array(g.degrees, st.c1)
    for v in range(6):
        nbrs = g.incidences([v])[0].tolist()
        assert risky[v] == [u for u in nbrs if s2[u] == s2[v]]


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
        assert deg_h[v] <= p.caps["dH"]


def test_pick_two_matches_generator_choice():
    # one stream per seed, shared by every pick, so the buffered 32-bit half
    # carries across picks; n = 3*10^9 rejects about 30% of its draws, which
    # runs the rejection loop
    sizes = ([*range(1, 601), 10001, 50000, *[3 * 10**9] * 20]
             + list(range(600, 0, -7)))
    for seed in (0, 1, 7, 2**32 + 5, 2**63):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        want = [rng.choice(n, size=min(2, n), replace=False).tolist()
                for n in sizes]
        want = [w if len(w) == 2 else w * 2 for w in want]
        # the first three sizes take five 32-bit draws, so a cut there leaves
        # a buffered half for the next call; an empty call draws nothing
        for cut in (3, 300, len(sizes)):
            mine = np.random.default_rng(np.random.SeedSequence(seed))
            parts = [construct_mod._pick_two(mine, sizes[:cut]),
                     construct_mod._pick_two(mine, []),
                     construct_mod._pick_two(mine, sizes[cut:])]
            assert parts[1].shape == (0, 2)
            assert np.concatenate(parts).tolist() == want, (seed, cut)


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
    cs, _ = properize(g, res.state, p.b_unit)
    base = cs.span
    risky = compute_risky(g, res.state, p)
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
    assert out.k == out.span and check_proper(g, out) == []


@settings(max_examples=100, deadline=None)
@given(n=hst.integers(2, 40), p_edge=hst.sampled_from([0.1, 0.3, 0.7, 1.0]),
       seed=hst.integers(0, 2**32 - 1),
       scale=hst.sampled_from([0.0, 1.0, 8.0]))
@example(n=8, p_edge=0.7, seed=31213, scale=0.0)   # uses planned - 4
def test_reserve_stays_inside_the_plan(n, p_edge, seed, scale):
    # a pick at (u, v) meets at most dh[u]-1 + dh[v]-1 used colours and
    # risky[u] + risky[v] neighbour sums, planned - 4 in all, so the reserve
    # never grows past planned - 3
    g = random_graph(n, p_edge, seed=seed)
    p = LemmaParams(max(g.max_degree, 1), slack=2.0)
    res = pipeline_state(g, p, seed=seed)
    cs, _ = properize(g, res.state, None)
    risky = compute_risky(g, res.state,
                          risk_params(max(g.max_degree, 1), scale))
    sel = select_H(g, p, seed=seed + 1)
    _, reserve = recolour_H(g, cs, sel.edge_ids, risky)
    if sel.edge_ids.size:
        assert reserve.used <= reserve.planned - 3
    else:
        assert (reserve.planned, reserve.used) == (0, 0)


def assert_reserve_inside_plan(g, seed):
    """Every attempt of every rung uses at most reserve_planned - 3 reserve
    offsets, as recolour_H's docstring proves."""
    with pytest.MonkeyPatch.context() as patch:
        fail_every_attempt(patch)
        _, rep = construct(g, ConstructConfig(seed=seed))
    # with no span cap every attempt on a graph with edges reaches recolour_H
    reached = [a for a in rep.attempts if "reserve_used" in a]
    assert len(reached) == (len(rep.attempts) if g.m else 0)
    for a in reached:
        assert a["reserve_used"] <= a["reserve_planned"] - 3


@pytest.mark.parametrize("n", range(3, 30))
def test_reserve_inside_the_plan_on_cliques(n):
    assert_reserve_inside_plan(complete_graph(n), seed=n)


@settings(max_examples=60, deadline=None)
@given(g=hub_graphs(), seed=hst.integers(0, 2**16))
def test_reserve_inside_the_plan_on_drawn_and_hub_graphs(g, seed):
    assert_reserve_inside_plan(g, seed)


def test_recolour_separates_all_risky_pairs():
    # complete graph: every pair adjacent, equal degrees keep every pair
    # inside the window, so afterwards all sums must be pairwise distinct
    g = complete_graph(5)
    p = LemmaParams(4, slack=2.0)
    res = pipeline_state(g, p, seed=80)
    cs, _ = properize(g, res.state, p.b_unit)
    risky = compute_risky(g, res.state, p)
    lists = risky_lists(g, risky)
    for v in range(5):
        assert lists[v] == [u for u in range(5) if u != v]
    sel = select_H(g, p, seed=81)
    out, _ = recolour_H(g, cs, sel.edge_ids, risky)
    sums = weighted_degrees(g, out)
    assert len(set(int(s) for s in sums)) == 5
    assert check_proper(g, out) == []


# ---------------------------------------------------------------------------
# small-degree repair


def test_repair_fixes_small_vertex_clash():
    # star plus pendant chain: leaves are small, centre is large
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])
    vc = np.array([2, 1, 1, 1, 1, 3], dtype=np.int64)
    ec = np.array([3, 4, 5, 6, 1], dtype=np.int64)
    g_sums = weighted_degrees(g, TotalColouring(vc, ec, 20))
    # vertex 5 (degree 1) collides with vertex 4: 3+1 = 4 = 1+6-3... build
    # the clash explicitly instead of trusting arithmetic in a comment
    assert int(g_sums[5]) == 4
    vc[5] = int(g_sums[4]) - 1  # force sums[5] == sums[4]
    out, repaired = repair_small_degree(g, TotalColouring(vc, ec, 20))
    assert repaired >= 1
    assert out.k == out.span
    sums = weighted_degrees(g, out)
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
    out, repaired = repair_small_degree(g, col)
    assert repaired == 0
    assert out == col


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
    for g in (Graph(5, []), Graph(0, [])):
        col, rep = construct(g, ConstructConfig(seed=0))
        assert rep.valid and col.span == min(g.n, 1)
        assert list(col.vertex_colours) == [1] * g.n
        assert (rep.span == rep.pipeline_span == rep.attempts[0]["span"]
                == col.span)


def test_edgeless_attempt_records_the_slack_given_in_permissive_mode():
    # an integer slack stays an integer, so its report prints 2, not 2.0
    for slack in (2, 3.5):
        _, rep = construct(Graph(3, []), ConstructConfig(slack=slack))
        assert type(rep.attempts[0]["slack"]) is type(slack)
        assert rep.attempts[0]["slack"] == slack
    _, rep = construct(Graph(3, []), ConstructConfig(mode="strict", slack=2))
    assert rep.attempts[0]["slack"] == 1.0


def test_config_is_checked_before_the_edgeless_branch():
    g = Graph(3, [])
    for cfg, want in ((ConstructConfig(mode="bogus"), "unknown mode 'bogus'"),
                      (ConstructConfig(slack=float("nan")),
                       "slack multiplier must be at least 1, got nan"),
                      (ConstructConfig(slack=float("inf")),
                       "slack multiplier must be finite, got inf")):
        with pytest.raises(ValueError) as exc:
            construct(g, cfg)
        assert str(exc.value) == want
    # an edgeless graph needs no strict feasibility
    col, rep = construct(g, ConstructConfig(mode="strict"))
    assert rep.valid and col.span == 1 and rep.attempts[0]["edgeless"]


def test_construct_deterministic():
    g = random_graph(250, 0.06, seed=20)
    c1, r1 = construct(g, ConstructConfig(seed=4))
    c2, r2 = construct(g, ConstructConfig(seed=4))
    assert np.array_equal(c1.vertex_colours, c2.vertex_colours)
    assert np.array_equal(c1.edge_colours, c2.edge_colours)
    assert r1.to_dict() == r2.to_dict()


def traced_peak_mib(fn, *args):
    """fn(*args) and the tracemalloc peak of the call, in MiB."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_construct_round_memory_budgets():
    # the n=2000 construct-verify graph at attempt 0, slack 2. With per
    # (class, vertex) masks, whole-graph incidence arrays and one text array
    # for all rows, the peaks were 24.6, 16.4 and 15.2 MiB; one class's
    # masks, edge ids read from Graph._vertex_order and row blocks stay
    # well under these budgets
    g = random_graph(2000, 150 / 1999, 0)
    p = LemmaParams(g.max_degree, slack=2.0)
    s_res, s_st2, s_hsel = construct_mod._phase_seeds(0, 0)
    r1 = resample_until_valid(g, p, s_res, 200)
    r2 = stage_two(g, r1.state, p, s_st2, 200)
    (col, _), peak = traced_peak_mib(properize, g, r2.state, p.b_unit)
    assert peak < 10
    _, peak = traced_peak_mib(select_H, g, p, s_hsel)
    assert peak < 8
    _, peak = traced_peak_mib(write_colouring, g, col)
    assert peak < 10


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


@pytest.mark.parametrize("n,p,seed,capped", [
    (2000, float(f"{150 / 1999:.6f}"), 0, True), (500, 0.05, 1, False)])
def test_construct_builds_no_tuple_views(n, p, seed, capped):
    # the capped run (a grid point) serves greedy_nsd from the band floor;
    # the uncapped one runs every phase and keeps the pipeline's colouring
    g = random_graph(n, p, seed=seed)
    cap = 3 * g.max_degree + 10 if capped else None
    col, rep = construct(g, ConstructConfig(span_cap=cap))
    assert rep.valid and rep.fallback_used == capped
    # the arrays Graph.__init__ builds and the one argsort every
    # neighbourhood is read from; not the edges tuple view
    assert set(vars(g)) == {"n", "m", "_keys", "edge_u", "edge_v", "degrees",
                            "max_degree", "_vertex_order"}


@pytest.mark.parametrize("n,p,seed,capped", [
    (2000, float(f"{150 / 1999:.6f}"), 0, True), (500, 0.05, 1, False)])
def test_construct_builds_no_certificate(monkeypatch, n, p, seed, capped):
    # stage one checks its state once per round and once more at the end;
    # stage two's ten-property certificate is built by no one
    calls = []
    real = lemma_mod.check_properties

    def counted(*args, **kwargs):
        calls.append(kwargs.get("properties"))
        return real(*args, **kwargs)

    monkeypatch.setattr(lemma_mod, "check_properties", counted)
    g = random_graph(n, p, seed=seed)
    cap = 3 * g.max_degree + 10 if capped else None
    _, rep = construct(g, ConstructConfig(span_cap=cap))
    assert rep.valid and rep.fallback_used == capped
    rounds = sum(a["stage1_rounds"] + 1 for a in rep.attempts)
    assert calls == [STAGE_ONE_PROPERTIES] * rounds


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


def count_greedy(monkeypatch):
    calls = []
    real = construct_mod.greedy_nsd

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(construct_mod, "greedy_nsd", counted)
    return calls


def fail_every_attempt(monkeypatch):
    real = construct_mod._attempt_pipeline

    def failing(*args):
        colouring, info = real(*args)
        if colouring is not None:
            info["valid"] = False
        return colouring, info

    monkeypatch.setattr(construct_mod, "_attempt_pipeline", failing)


def assert_floor_below_span(g, seed):
    _, rep = construct(g, ConstructConfig(seed=seed))
    for a in rep.attempts:
        if "band_floor" in a:
            assert a["band_floor"] <= a["span"]


@pytest.mark.parametrize("n,p,gseed", [(60, 0.3, 1), (200, 0.06, 2),
                                       (500, 0.05, 41), (300, 0.2, 7)])
def test_band_floor_bounds_every_attempt_span(monkeypatch, n, p, gseed):
    # every rung runs, so each slack's floor is checked against its span
    fail_every_attempt(monkeypatch)
    assert_floor_below_span(random_graph(n, p, seed=gseed), seed=gseed)


@settings(max_examples=40)
@given(n=hst.integers(2, 40), p=hst.sampled_from([0.1, 0.3, 0.6, 1.0]),
       gseed=hst.integers(0, 2**32 - 1), seed=hst.integers(0, 2**16))
def test_band_floor_bounds_span_drawn(n, p, gseed, seed):
    assert_floor_below_span(random_graph(n, p, seed=gseed), seed)


def test_capped_early_exit_serves_greedy_once(monkeypatch):
    g = random_graph(500, 0.05, seed=41)
    cap = 3 * g.max_degree + 10
    calls = count_greedy(monkeypatch)
    col, rep = construct(g, ConstructConfig(seed=2, span_cap=cap))
    assert len(calls) == 1
    assert col == greedy_nsd(g)
    assert rep.valid and rep.span == col.span
    assert rep.fallback_used and rep.span_capped
    assert rep.fallback_reason == "span-cap"
    assert rep.chosen_attempt is None and rep.pipeline_span is None
    assert len(rep.attempts) == 1
    last = rep.attempts[0]
    assert last["band_floor"] > cap
    assert "span" not in last and "b_width" not in last


def test_cap_above_floor_runs_full_pipeline():
    g = random_graph(200, 0.06, seed=2)
    _, free = construct(g, ConstructConfig(seed=3))
    cap = free.attempts[free.chosen_attempt]["band_floor"]
    col, rep = construct(g, ConstructConfig(seed=3, span_cap=cap))
    assert rep.attempts[0]["band_floor"] == cap
    assert "span" in rep.attempts[0]
    # the floor is met, but the pipeline's span lies above it
    assert rep.pipeline_span == free.pipeline_span > cap
    assert rep.span_capped and rep.fallback_reason == "span-cap"
    assert rep.chosen_attempt == free.chosen_attempt
    assert col == greedy_nsd(g)


def test_no_valid_attempt_reason(monkeypatch):
    g = random_graph(120, 0.1, seed=5)
    fail_every_attempt(monkeypatch)
    calls = count_greedy(monkeypatch)
    col, rep = construct(g, ConstructConfig(seed=1, retries=3))
    assert len(calls) == 1 and len(rep.attempts) == 3
    assert rep.fallback_used and not rep.span_capped
    assert rep.fallback_reason == "no-valid-attempt"
    assert rep.chosen_attempt is None and rep.pipeline_span is None
    assert col == greedy_nsd(g) and rep.valid


def test_no_valid_attempt_over_cap_calls_greedy_once(monkeypatch):
    # K2: every band floor is 1, greedy's span is 3
    g = Graph(2, [(0, 1)])
    fail_every_attempt(monkeypatch)
    calls = count_greedy(monkeypatch)
    col, rep = construct(g, ConstructConfig(seed=1, span_cap=2))
    assert all(a["band_floor"] <= 2 for a in rep.attempts)
    assert len(rep.attempts) == 3 and len(calls) == 1
    assert col == greedy_nsd(g) and col.span == 3
    assert rep.fallback_reason == "no-valid-attempt"
    assert rep.fallback_used and rep.span_capped and rep.valid


@pytest.mark.parametrize("b_unit", [1, 2])
def test_narrow_bands_widen_in_one_pass(monkeypatch, b_unit):
    # the classes of this graph need about 12 slots, so properize widens the
    # attempt's bands past b_unit; the floor, taken at b_unit, stays below
    # the span
    class NarrowBands(LemmaParams):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.b_unit = b_unit

    monkeypatch.setattr(construct_mod, "LemmaParams", NarrowBands)
    g = random_graph(60, 0.2, seed=3)
    col, rep = construct(g, ConstructConfig(seed=0))
    info = rep.attempts[rep.chosen_attempt]
    assert info["valid"] and not rep.fallback_used
    assert is_valid(g, col)
    assert recount_proper_and_distinct(g, col.vertex_colours,
                                       col.edge_colours) == (True, True)
    assert info["b_width"] > b_unit
    assert info["band_floor"] <= info["span"] == col.span
    assert construct(g, ConstructConfig(seed=0))[0] == col


@settings(max_examples=100)
@given(n=hst.integers(1, 30), p=hst.sampled_from([0.2, 0.5, 1.0]),
       gseed=hst.integers(0, 2**32 - 1), classes=hst.integers(1, 3),
       width=hst.integers(1, 5))
def test_properize_width_is_at_least_the_asked_width(n, p, gseed, classes,
                                                     width):
    # the band floor relies on this: properize at b_unit returns a width of
    # at least b_unit, and exactly b_unit wherever the frozen copy returns a
    # colouring (a proper one: its slot masks can go wrong inside a flipped
    # path, see tests/test_equivalence.py)
    g = random_graph(n, p, seed=gseed)
    rng = np.random.default_rng(gseed)
    st = LemmaState(np.ones(g.n, dtype=np.int64), np.ones(g.m, dtype=np.int64),
                    rng.integers(1, classes + 1, size=g.n, dtype=np.int64),
                    rng.integers(1, classes + 1, size=g.m, dtype=np.int64))
    got = properize(g, st, width)[1]
    assert got >= width
    try:
        old = ref.properize(ViewGraph(g), st, width)
    except ref.ClassWidthError:
        return
    if not check_proper(g, TotalColouring(old.vertex_colours,
                                          old.edge_colours, old.span)):
        assert got == width


@settings(max_examples=200)
@given(g=hub_graphs(), mode=hst.sampled_from(["plain", "seeded", "swaps"]),
       seed=hst.integers(0, 2**32 - 1))
@example(g=complete_graph(7), mode="swaps", seed=0)   # flips paths
def test_edge_kernel_slots_are_proper_and_masks_exact(g, mode, seed):
    # properize's vertex pass avoids the returned masks, and the kernel keeps
    # each run's smaller endpoint's mask in a local: both need a vertex's
    # mask to be its seed ORed with the slots of its edges, no more
    rng = np.random.default_rng(seed)
    ids = np.flatnonzero(rng.random(g.m) < 0.8)
    seeds = (rng.integers(0, 64, size=g.n).tolist() if mode == "seeded"
             else [0] * g.n)
    width = int(rng.integers(1, 4)) if mode == "swaps" else None
    slots, masks = construct_mod._colour_class_edges(
        g, ids, width, list(seeds) if mode == "seeded" else None)
    want = list(seeds)
    for e, s in zip(ids.tolist(), slots):
        for x in (int(g.edge_u[e]), int(g.edge_v[e])):
            assert not want[x] >> s & 1   # proper at x, clear of x's seed
            want[x] |= 1 << s
    assert masks == want


def test_edge_kernel_walk_fails_fast_on_a_cycle(monkeypatch):
    # a lowest-free slot that lies (a = b = 0) sends the alternating-path
    # walk back and forth over edge (0, 2), a cycle that proper slots never
    # make; the walk's bound must raise at once, where an unbounded walk
    # would spin until the alarm fires
    def alarm(signum, frame):
        raise TimeoutError("the alternating-path walk did not stop")

    monkeypatch.setattr(construct_mod, "_lowest_free", lambda mask: 0)
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(RuntimeError, match="not proper"):
            construct_mod._colour_class_edges(
                Graph(3, [(0, 2), (1, 2)]), np.arange(2), 1)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_uncapped_report_has_no_fallback_reason():
    g = random_graph(150, 0.08, seed=4)
    _, rep = construct(g, ConstructConfig(seed=0))
    assert not rep.fallback_used and rep.fallback_reason is None
    assert all("band_floor" in a for a in rep.attempts)


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
