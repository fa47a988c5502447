"""The optimised greedy_nsd, properize, repair_small_degree, compute_risky,
select_H and recolour_H return exactly what the reference implementations in
reference_construct.py return.

Graphs come from hypothesis (n <= 40, plus edgeless graphs, K2 and complete
graphs) and from the acceptance grid points: greedy_nsd on all ten, the
pipeline phases on those with n <= 500. Class assignments for properize are
drawn with few classes and narrow fixed widths, so the alternating-path swap
and ClassWidthError paths both run; fixed small cases pin a swap that moves
a slot and one whose path ends at the other endpoint. select_H also runs
under lowered pick-degree caps, so its redraw rounds and the round limit run,
and on K_{2,10001}, whose hubs pick from runs of 10,001 edges. compute_risky
returns an edge mask, read back into the reference's per-vertex lists;
recolour_H on that mask is compared with the reference on those lists, also
on drawn colourings whose many equal sums block many candidates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_construct as ref
from recount import risky_lists
from reference_graph import ViewGraph
from nsdcolour import (ClassWidthError, ConstructionState, Graph, LemmaParams,
                       LemmaState, RiskParams, complete_graph, compute_risky,
                       greedy_nsd, properize, random_graph, recolour_H,
                       repair_small_degree, resample_until_valid, select_H,
                       stage_two)
from test_acceptance import GRID


def same_array(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


def assert_same_greedy(g):
    new, old = greedy_nsd(g), ref.greedy_nsd(ViewGraph(g))
    assert same_array(new.vertex_colours, old.vertex_colours)
    assert same_array(new.edge_colours, old.edge_colours)
    assert new.k == old.k


def assert_same_state(new, old):
    assert new.width == old.width
    for name in ("vertex_colours", "edge_colours"):
        assert same_array(getattr(new, name), getattr(old, name)), name


def assert_same_properize(g, state, width):
    """The same state, or a ClassWidthError with the same need."""
    try:
        old = ref.properize(ViewGraph(g), state, width)
    except ClassWidthError as exc:
        with pytest.raises(ClassWidthError) as got:
            properize(g, state, width)
        assert got.value.needed == exc.needed
        return
    assert_same_state(properize(g, state, width), old)


def assert_same_risky(g, state, p, scale):
    """The mask, read back as per-vertex lists, is the reference's lists."""
    risk = RiskParams(p, scale=scale)
    mask = compute_risky(g, state, p, risk)
    assert mask.dtype == bool and mask.shape == (g.m,)
    new = risky_lists(g, mask)
    assert new == ref.compute_risky(g, state, p, risk)
    assert all(type(w) is int for row in new for w in row)


def assert_same_select(g, p, seed, max_rounds=100):
    new = select_H(g, p, seed, max_rounds)
    old = ref.select_H(ViewGraph(g), p, seed, max_rounds)
    assert same_array(new.edge_ids, old.edge_ids)
    assert (new.rounds, new.valid, new.cap) == (old.rounds, old.valid, old.cap)
    return new


def assert_same_recolour(g, cs, h_ids, state, p, risk):
    """recolour_H on compute_risky's mask gives what the reference gives on
    the reference's risky lists."""
    mask = compute_risky(g, state, p, risk)
    new, new_info = recolour_H(g, cs, h_ids, mask)
    old, old_info = ref.recolour_H(g, cs, h_ids,
                                   ref.compute_risky(g, state, p, risk))
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
    old, old_count = ref.repair_small_degree(ViewGraph(g), cs)
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


def lemma_state(g, rng, classes):
    c3v = rng.integers(1, classes + 1, size=g.n, dtype=np.int64)
    c3e = rng.integers(1, classes + 1, size=g.m, dtype=np.int64)
    return LemmaState(np.ones(g.n, dtype=np.int64), np.ones(g.m, dtype=np.int64),
                      c3v, c3e)


def construction_state(g, rng, top):
    return ConstructionState(rng.integers(1, top + 1, size=g.n, dtype=np.int64),
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
       classes=st.integers(1, 4), width=st.sampled_from([None, 1, 2, 3, 5, 8]))
def test_properize_matches_reference(g, seed, classes, width):
    state = lemma_state(g, np.random.default_rng(seed), classes)
    assert_same_properize(g, state, width)


@settings(max_examples=150)
@given(g=graphs(), seed=st.integers(0, 2**32 - 1), top=st.integers(1, 4))
def test_repair_matches_reference(g, seed, top):
    assert_same_repair(g, construction_state(g, np.random.default_rng(seed), top))


@settings(max_examples=150)
@given(g=hub_graphs(), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.0, 1.0, 2.0]))
def test_risky_matches_reference(g, seed, scale):
    p = LemmaParams(g.max_degree, slack=2.0)
    rng = np.random.default_rng(seed)
    state = lemma_state(g, rng, 3)
    state.c1 = rng.integers(1, p.r1 + 1, size=g.n, dtype=np.int64)
    assert_same_risky(g, state, p, scale)


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
    for classes in (1, 3):
        for width in (None, 2, 4):
            assert_same_properize(g, lemma_state(g, rng, classes), width)
    assert_same_repair(g, construction_state(g, rng, 3))
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
    cs = properize(g, r2.state, None)
    assert_same_state(cs, ref.properize(ViewGraph(g), r2.state, None))
    assert_same_repair(g, cs)
    for scale in (0.0, 1.0, 2.0):
        assert_same_risky(g, r2.state, p, scale)
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
    cs = properize(g, r2.state, None)
    risk = RiskParams(p, scale=scale)
    h_ids = select_H(g, p, seed=3).edge_ids
    assert_same_recolour(g, cs, h_ids, r2.state, p, risk)


@settings(max_examples=150)
@given(g=hub_graphs(), seed=st.integers(0, 2**32 - 1),
       top=st.integers(1, 4), share=st.sampled_from([0.2, 0.6, 1.0]),
       scale=st.sampled_from([0.0, 1.0, 8.0]))
def test_recolour_matches_reference_on_drawn_graphs(g, seed, top, share,
                                                    scale):
    # colours from 1..top make many equal sums, so the sum index has
    # buckets of several holders and many candidates are blocked
    rng = np.random.default_rng(seed)
    cs = construction_state(g, rng, top)
    p = LemmaParams(g.max_degree, slack=2.0)
    state = lemma_state(g, rng, 3)
    state.c1 = rng.integers(1, p.r1 + 1, size=g.n, dtype=np.int64)
    h_ids = np.flatnonzero(rng.random(g.m) < share)
    assert_same_recolour(g, cs, h_ids, state, p, RiskParams(p, scale=scale))


# ---------------------------------------------------------------------------
# the alternating-path swap, pinned on small cases


def one_class_edges(g, vertex_classes):
    """Every edge in class 1; vertex classes as given."""
    return LemmaState(np.ones(g.n, dtype=np.int64), np.ones(g.m, dtype=np.int64),
                      np.array(vertex_classes, dtype=np.int64),
                      np.ones(g.m, dtype=np.int64))


def test_swap_moves_a_slot():
    # edges by id: (0,4) (1,2) (1,3) (3,4); greedy gives slots 0 0 1 and then
    # 2 for (3,4). With width 2 the swap walks from 4 along slot 0 to vertex
    # 0 and flips (0,4) to slot 1, so (3,4) takes slot 0. Every vertex has a
    # class of its own, so only the edges decide the width.
    g = Graph(5, [(0, 4), (1, 2), (1, 3), (3, 4)])
    state = one_class_edges(g, [2, 3, 4, 5, 6])
    swapped = ref.properize(ViewGraph(g), state, 2)
    greedy = ref.properize(ViewGraph(g), state, None)
    assert greedy.width == 3
    assert (swapped.edge_colours - 1).tolist() == [1, 0, 1, 0]
    assert (greedy.edge_colours - 1).tolist() == [0, 0, 1, 2]
    assert_same_state(properize(g, state, 2), swapped)


def test_swap_path_ending_at_u_keeps_the_overflow():
    # triangle: (0,1) and (0,2) take slots 0 and 1, so (1,2) overflows to 2
    # under width 2. The walk goes 2 -> 0 -> 1 and ends at u = 1, so no flip
    # is made and the overflow slot stands: the width error asks for 3.
    # Flipping the path anyway would leave every edge in slots 0 and 1.
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    state = one_class_edges(g, [2, 3, 4])
    with pytest.raises(ClassWidthError) as old:
        ref.properize(ViewGraph(g), state, 2)
    assert old.value.needed == 3
    assert_same_properize(g, state, 2)


def test_swap_flip_then_path_ending_at_u():
    # one class on a 7-vertex graph at width 5 = max degree: edge 10 flips a
    # three-edge path and edge 11's path then ends at its u
    g = Graph(7, [(0, 1), (0, 4), (0, 5), (1, 3), (1, 5), (1, 6), (2, 3),
                  (2, 4), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)])
    state = one_class_edges(g, [1] * 7)
    with pytest.raises(ClassWidthError):
        ref.properize(ViewGraph(g), state, 5)
    assert_same_properize(g, state, 5)
    for width in (6, 7, None):
        assert_same_properize(g, state, width)
