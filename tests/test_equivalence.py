"""The optimised greedy_nsd, properize, repair_small_degree, compute_risky,
select_H and recolour_H return exactly what the reference implementations in
reference_construct.py return.

Graphs come from hypothesis (n <= 40, plus edgeless graphs, K2 and complete
graphs) and from the acceptance grid points: greedy_nsd on all ten, the
pipeline phases on those with n <= 500. Class assignments for properize are
drawn with few classes and narrow fixed widths, so properize widens the
bands to the width the reference learns; also with gaps in the edge classes
(1 and 3 only), vertex classes that no edge has, and isolated vertices.
Fixed small cases pin first-fit slots where an alternating-path swap would
have saved a slot, and the widths they need.
select_H also runs under lowered pick-degree caps, so its redraw rounds and
the round limit run, and on K_{2,10001}, whose hubs pick from runs of
10,001 edges. compute_risky
returns an edge mask, read back into the reference's per-vertex lists;
recolour_H on that mask is compared with the reference on those lists, also
on drawn colourings whose many equal sums block many candidates. The risk
window LemmaParams holds equals the frozen RiskParams's over a grid of max
degree and slack.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_construct as ref
from recount import risky_lists
from reference_graph import ViewGraph
from nsdcolour import (Graph, LemmaParams, LemmaState, TotalColouring,
                       check_proper, complete_graph, compute_risky,
                       greedy_nsd, properize, random_graph,
                       recolour_H, repair_small_degree, resample_until_valid,
                       select_H, stage_two)
from test_acceptance import GRID


def same_array(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


def assert_same_greedy(g):
    new, old = greedy_nsd(g), ref.greedy_nsd(ViewGraph(g))
    assert same_array(new.vertex_colours, old.vertex_colours)
    assert same_array(new.edge_colours, old.edge_colours)
    assert new.k == old.k


def assert_same_state(new, old):
    """The colouring new holds the reference state's colours, bounded by
    its span."""
    assert new.k == old.span
    for name in ("vertex_colours", "edge_colours"):
        assert same_array(getattr(new, name), getattr(old, name)), name


def ref_state(c):
    """The colouring c as a reference state, which the reference phases copy
    before they change it."""
    return ref.ConstructionState(c.vertex_colours, c.edge_colours, c.k,
                                 None, None)


def slots(c, state, width):
    """The vertex and edge slots of c, lifted at width `width`."""
    return [col - 1 - width * (cls - 1)
            for col, cls in ((c.vertex_colours, state.c3v),
                             (c.edge_colours, state.c3e))]


def in_bands(c, state, width):
    """Every colour of c lies in the band of width `width` of its class."""
    return all(((width * (cls - 1) < col) & (col <= width * cls)).all()
               for col, cls in ((c.vertex_colours, state.c3v),
                                (c.edge_colours, state.c3e)))


def assert_same_properize(g, state, width):
    """A proper colouring inside its bands, whose slots are the reference's
    first-fit slots, at the width asked for or, where those slots need
    more, at the width the reference learns for them."""
    new, got = properize(g, state, width)
    old = ref.properize(ViewGraph(g), state, None)
    assert check_proper(g, new) == [] and in_bands(new, state, got)
    assert got == max(width or 0, old.width)
    for mine, theirs in zip(slots(new, state, got),
                            slots(old, state, old.width)):
        assert same_array(mine, theirs)


def risk_params(delta, scale):
    """LemmaParams(delta, slack=scale), whose risk window is the frozen
    RiskParams's at that scale. A slack is at least 1, so scale 0, where
    only equal scores are risky, is the slack-1 object with its threshold
    set to that window's 0."""
    p = LemmaParams(delta, slack=max(scale, 1.0))
    if scale == 0:
        p.risk_threshold = 0
    return p


def assert_same_risky(g, state, scale):
    """The mask at window scale, read back as per-vertex lists, is the
    reference's lists at that scale."""
    p = risk_params(g.max_degree, scale)
    mask = compute_risky(g, state, p)
    assert mask.dtype == bool and mask.shape == (g.m,)
    new = risky_lists(g, mask)
    assert new == ref.compute_risky(g, state, p, ref.RiskParams(p, scale))
    assert all(type(w) is int for row in new for w in row)


def assert_same_select(g, p, seed, max_rounds=100):
    new = select_H(g, p, seed, max_rounds)
    old = ref.select_H(ViewGraph(g), p, seed, max_rounds)
    assert same_array(new.edge_ids, old.edge_ids)
    assert (new.rounds, new.valid, p.caps["dH"]) == \
        (old.rounds, old.valid, old.cap)
    return new


def assert_same_recolour(g, cs, h_ids, state, scale):
    """recolour_H on compute_risky's mask at window scale gives what the
    reference gives on the reference's risky lists at that scale."""
    p = risk_params(g.max_degree, scale)
    mask = compute_risky(g, state, p)
    new, new_info = recolour_H(g, cs, h_ids, mask)
    risky = ref.compute_risky(g, state, p, ref.RiskParams(p, scale))
    old, old_info = ref.recolour_H(g, ref_state(cs), h_ids, risky)
    assert (new_info.base, new_info.planned, new_info.used) == \
        (old_info.base, old_info.planned, old_info.used)
    assert not old_info.grew
    assert_same_state(new, old)


def capped_params(g, cap):
    """LemmaParams whose pick-degree cap is lowered to cap. At slack 2 the
    cap is 30*ln(max degree) or more (the log floored at 1), above any picked
    degree these graphs reach, so the redraw rounds run only under a lowered
    cap."""
    p = LemmaParams(g.max_degree, slack=2.0)
    p.caps = {**p.caps, "dH": cap}
    return p


def assert_same_repair(g, cs):
    new, new_count = repair_small_degree(g, cs)
    old, old_count = ref.repair_small_degree(ViewGraph(g), ref_state(cs))
    assert new_count == old_count
    assert_same_state(new, old)


@st.composite
def graphs(draw, max_n=40):
    n = draw(st.integers(0, max_n))
    p = draw(st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.6, 1.0]))
    return random_graph(n, p, seed=draw(st.integers(0, 2**32 - 1)))


@st.composite
def hub_graphs(draw, max_n=40):
    """A random graph plus a few hubs joined to many vertices, so that small
    and large vertices (3*degree >= max_degree) sit side by side."""
    g = draw(graphs(max_n=max_n))
    n = g.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hubs = min(n, draw(st.integers(0, 3)))
    near = np.repeat(np.arange(hubs), n)
    far = np.tile(np.arange(n), hubs)
    keep = (near != far) & (rng.random(near.size) < 0.7)
    return Graph(n, np.concatenate([np.stack([g.edge_u, g.edge_v], axis=1),
                                    np.stack([near[keep], far[keep]], axis=1)]))


def lemma_state(g, rng, classes, edge_classes=None):
    """Vertex classes drawn from 1..classes, edge classes from edge_classes
    (1..classes by default)."""
    c3v = rng.integers(1, classes + 1, size=g.n, dtype=np.int64)
    c3e = (rng.integers(1, classes + 1, size=g.m, dtype=np.int64)
           if edge_classes is None
           else rng.choice(np.array(edge_classes, dtype=np.int64), size=g.m))
    return LemmaState(np.ones(g.n, dtype=np.int64), np.ones(g.m, dtype=np.int64),
                      c3v, c3e)


def with_isolated(g, extra):
    """g with extra isolated vertices after its own."""
    return Graph(g.n + extra, np.stack([g.edge_u, g.edge_v], axis=1))


def drawn_colouring(g, rng, top):
    return TotalColouring(rng.integers(1, top + 1, size=g.n, dtype=np.int64),
                          rng.integers(1, top + 1, size=g.m, dtype=np.int64),
                          top)


# ---------------------------------------------------------------------------
# hypothesis-drawn graphs


@settings(max_examples=150)
@given(g=graphs())
def test_greedy_matches_reference(g):
    assert_same_greedy(g)


@settings(max_examples=150)
@given(g=graphs(), seed=st.integers(0, 2**32 - 1),
       classes=st.integers(1, 4), width=st.sampled_from([None, 1, 2, 3, 5, 8]),
       gaps=st.booleans(), isolated=st.integers(0, 3))
def test_properize_matches_reference(g, seed, classes, width, gaps, isolated):
    # with gaps, the edges take classes 1 and 3 only, and classes 2 and 4
    # hold vertices but no edge
    g = with_isolated(g, isolated)
    rng = np.random.default_rng(seed)
    state = (lemma_state(g, rng, 4, [1, 3]) if gaps
             else lemma_state(g, rng, classes))
    assert_same_properize(g, state, width)


@settings(max_examples=150)
@given(g=graphs(), seed=st.integers(0, 2**32 - 1), top=st.integers(1, 4))
def test_repair_matches_reference(g, seed, top):
    assert_same_repair(g, drawn_colouring(g, np.random.default_rng(seed), top))


@settings(max_examples=150)
@given(g=hub_graphs(), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.0, 1.0, 2.0]))
def test_risky_matches_reference(g, seed, scale):
    p = LemmaParams(g.max_degree, slack=2.0)
    rng = np.random.default_rng(seed)
    state = lemma_state(g, rng, 3)
    state.c1 = rng.integers(1, p.r1 + 1, size=g.n, dtype=np.int64)
    assert_same_risky(g, state, scale)


@pytest.mark.parametrize("delta", [0, 1, 2, 3, 5, 45, 49, 100, 4096, 10**6,
                                   10**12, 10**100])
def test_risk_window_matches_reference(delta):
    # up to 1e305 the caps fit a float whenever the window does, so a
    # refused slack is one whose frozen window overflows (at max degree 45,
    # 1e305 is refused for its window alone)
    for slack in (1.0, 1.5, 2.0, 3.0, 8.0, 2.0 ** 40, 1e100, 1e200, 1e305):
        try:
            p = LemmaParams(delta, slack=slack)
        except ValueError as exc:
            assert "out of range" in str(exc)
            with pytest.raises(OverflowError):
                ref.RiskParams(LemmaParams(delta), scale=slack)
            continue
        risk = ref.RiskParams(p, scale=slack)
        assert (p.risk_threshold, p.risky_allowed) == \
            (risk.threshold, risk.allowed_max), slack
        assert type(p.risk_threshold) is int and type(p.risky_allowed) is int


@settings(max_examples=150)
@given(g=hub_graphs(), seed=st.integers(0, 2**32 - 1),
       cap=st.sampled_from([None, 1, 2, 3, 5]),
       max_rounds=st.sampled_from([0, 2, 100]))
def test_select_matches_reference(g, seed, cap, max_rounds):
    p = (LemmaParams(g.max_degree, slack=2.0) if cap is None
         else capped_params(g, cap))
    assert_same_select(g, p, seed, max_rounds)


def test_select_on_a_large_star_matches_reference():
    # K_{2,10001}: the two hubs pick from runs of 10,001 edges
    g = Graph(10003, [(hub, leaf) for hub in (0, 1) for leaf in range(2, 10003)])
    assert g.max_degree == 10001
    for seed in range(3):
        assert assert_same_select(g, LemmaParams(g.max_degree, slack=2.0),
                                  seed).edge_ids.size == 4


def test_select_redraws_match_reference():
    g = random_graph(100, 0.2, seed=4)
    h = assert_same_select(g, capped_params(g, 6), seed=5)
    assert h.rounds == 10 and h.valid
    h = assert_same_select(g, capped_params(g, 4), seed=5, max_rounds=5)
    assert h.rounds == 5 and not h.valid


@pytest.mark.parametrize("g", [Graph(0, []), Graph(1, []), Graph(5, []),
                               Graph(2, [(0, 1)])]
                         + [complete_graph(n) for n in (3, 4, 7, 12, 20)],
                         ids=repr)
def test_named_graphs_match_reference(g):
    assert_same_greedy(g)
    rng = np.random.default_rng(g.n)
    for classes, edge_classes in ((1, None), (3, None), (4, [1, 3])):
        for width in (None, 2, 4):
            assert_same_properize(
                g, lemma_state(g, rng, classes, edge_classes), width)
            assert_same_properize(
                with_isolated(g, 2),
                lemma_state(with_isolated(g, 2), rng, classes, edge_classes),
                width)
    assert_same_repair(g, drawn_colouring(g, rng, 3))
    assert_same_select(g, LemmaParams(g.max_degree, slack=2.0), seed=g.n)


# ---------------------------------------------------------------------------
# acceptance grid points, on real engine output


@pytest.mark.parametrize("n,mean", GRID)
def test_greedy_on_grid_points_matches_reference(n, mean):
    # the graphs of the grid experiment, whose families give p to 6 places
    assert_same_greedy(random_graph(n, float(f"{mean / (n - 1):.6f}"), seed=0))


@pytest.mark.parametrize("n,mean", [(100, 8), (100, 25), (200, 12), (500, 15),
                                    (500, 60)])
def test_grid_points_match_reference(n, mean):
    g = random_graph(n, mean / (n - 1), seed=0)
    p = LemmaParams(g.max_degree, slack=2.0)
    r1 = resample_until_valid(g, p, seed=1, max_rounds=200)
    r2 = stage_two(g, r1.state, p, seed=2, max_rounds=200)
    assert_same_properize(g, r2.state, p.b_unit)
    assert_same_properize(g, r2.state, None)
    cs, _ = properize(g, r2.state, None)
    assert_same_repair(g, cs)
    for scale in (0.0, 1.0, 2.0):
        assert_same_risky(g, r2.state, scale)
    assert_same_select(g, p, seed=3)


@pytest.mark.parametrize("scale", [0.0, 1.0])
@pytest.mark.parametrize("n,mean", [(100, 8), (200, 12), (500, 60)])
def test_recolour_matches_reference(n, mean, scale):
    # scale 0 leaves only equal scores risky; scale 1 makes nearly every
    # large-large pair risky, so most sums are forbidden
    g = random_graph(n, mean / (n - 1), seed=0)
    p = LemmaParams(g.max_degree, slack=2.0)
    r1 = resample_until_valid(g, p, seed=1, max_rounds=200)
    r2 = stage_two(g, r1.state, p, seed=2, max_rounds=200)
    cs, _ = properize(g, r2.state, None)
    h_ids = select_H(g, p, seed=3).edge_ids
    assert_same_recolour(g, cs, h_ids, r2.state, scale)


@settings(max_examples=150)
@given(g=hub_graphs(), seed=st.integers(0, 2**32 - 1),
       top=st.integers(1, 4), share=st.sampled_from([0.2, 0.6, 1.0]),
       scale=st.sampled_from([0.0, 1.0, 8.0]))
def test_recolour_matches_reference_on_drawn_graphs(g, seed, top, share,
                                                    scale):
    # colours from 1..top make many equal sums, so the sum index has
    # buckets of several holders and many candidates are blocked
    rng = np.random.default_rng(seed)
    cs = drawn_colouring(g, rng, top)
    p = LemmaParams(g.max_degree, slack=2.0)
    state = lemma_state(g, rng, 3)
    state.c1 = rng.integers(1, p.r1 + 1, size=g.n, dtype=np.int64)
    h_ids = np.flatnonzero(rng.random(g.m) < share)
    assert_same_recolour(g, cs, h_ids, state, scale)


# ---------------------------------------------------------------------------
# first-fit edge slots, pinned on small cases where an alternating-path swap
# would have saved a slot


def one_class_edges(g, vertex_classes):
    """Every edge in class 1; vertex classes as given."""
    return LemmaState(np.ones(g.n, dtype=np.int64), np.ones(g.m, dtype=np.int64),
                      np.array(vertex_classes, dtype=np.int64),
                      np.ones(g.m, dtype=np.int64))


def assert_first_fit(g, state, width, edge_slots, needed):
    """properize at width gives the class-1 edges the first-fit slots
    edge_slots and widens the bands to their need."""
    cs, got = properize(g, state, width)
    assert got == max(width, needed)
    assert (cs.edge_colours - 1).tolist() == edge_slots
    assert_same_properize(g, state, width)


def test_first_fit_keeps_the_slot_a_swap_would_move():
    # edges by id: (0,4) (1,2) (1,3) (3,4) take slots 0 0 1 2. Flipping
    # (0,4) to slot 1 would let (3,4) take slot 0, but first-fit makes no
    # flip, so width 2 widens to 3. Every vertex has a class of its own, so
    # only the edges decide the width.
    g = Graph(5, [(0, 4), (1, 2), (1, 3), (3, 4)])
    assert_first_fit(g, one_class_edges(g, [2, 3, 4, 5, 6]), 2,
                     [0, 0, 1, 2], 3)


def test_first_fit_triangle_needs_three_slots():
    # triangle: (0,1) and (0,2) take slots 0 and 1, so (1,2) takes slot 2
    # and width 2 widens to 3
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert_first_fit(g, one_class_edges(g, [2, 3, 4]), 2, [0, 1, 2], 3)


def test_first_fit_flips_no_path():
    # edges by id: (0,3) (0,6) (1,3) (2,4) (2,6) (3,4). (2,6) and (3,4)
    # take slot 2, where flipping the path 6 -> 0 -> 3 -> 1 would have let
    # (2,6) take slot 1; width 2 widens to 3
    g = Graph(7, [(0, 3), (0, 6), (1, 3), (2, 4), (2, 6), (3, 4)])
    assert_first_fit(g, one_class_edges(g, range(2, 9)), 2,
                     [0, 1, 1, 0, 2, 2], 3)


def test_first_fit_widens_past_the_max_degree():
    # one class on a 7-vertex graph of max degree 5: at width 5 the edges
    # take slots up to 5 and vertex 5 slot 6, so the bands widen to 7
    g = Graph(7, [(0, 1), (0, 4), (0, 5), (1, 3), (1, 5), (1, 6), (2, 3),
                  (2, 4), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)])
    state = one_class_edges(g, [1] * 7)
    assert_first_fit(g, state, 5,
                     [0, 1, 2, 1, 3, 2, 0, 2, 3, 4, 5, 0, 4, 1], 7)
    for width in (6, 7, None):
        assert_same_properize(g, state, width)
