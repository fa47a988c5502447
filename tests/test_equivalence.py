"""The optimised greedy_nsd, properize and repair_small_degree return exactly
what the reference implementations in reference_construct.py return.

Graphs come from hypothesis (n <= 40, plus edgeless graphs, K2 and complete
graphs) and from the acceptance grid points with n <= 500. Class assignments
for properize are drawn with few classes and narrow fixed widths, so the
alternating-path swap and ClassWidthError paths both run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_construct as ref
from nsdcolour import (ClassWidthError, ConstructionState, Graph, LemmaParams,
                       LemmaState, complete_graph, greedy_nsd,
                       properize, random_graph, repair_small_degree,
                       resample_until_valid, stage_two)


def same_array(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


def assert_same_greedy(g):
    new, old = greedy_nsd(g), ref.greedy_nsd(g)
    assert same_array(new.vertex_colours, old.vertex_colours)
    assert same_array(new.edge_colours, old.edge_colours)
    assert new.k == old.k


def assert_same_state(new, old):
    assert new.width == old.width
    for name in ("vertex_colours", "edge_colours", "class_of_vertex",
                 "class_of_edge"):
        assert same_array(getattr(new, name), getattr(old, name)), name


def assert_same_properize(g, state, width):
    """The same state, or a ClassWidthError with the same need."""
    try:
        old = ref.properize(g, state, width)
    except ClassWidthError as exc:
        with pytest.raises(ClassWidthError) as got:
            properize(g, state, width)
        assert got.value.needed == exc.needed
        return
    assert_same_state(properize(g, state, width), old)


def assert_same_repair(g, cs):
    new, new_count = repair_small_degree(g, cs)
    old, old_count = ref.repair_small_degree(g, cs)
    assert new_count == old_count
    assert_same_state(new, old)


@st.composite
def graphs(draw, max_n=40):
    n = draw(st.integers(0, max_n))
    p = draw(st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.6, 1.0]))
    return random_graph(n, p, seed=draw(st.integers(0, 2**32 - 1)))


def lemma_state(g, rng, classes):
    c3v = rng.integers(1, classes + 1, size=g.n, dtype=np.int64)
    c3e = rng.integers(1, classes + 1, size=g.m, dtype=np.int64)
    return LemmaState(np.ones(g.n, dtype=np.int64), np.ones(g.m, dtype=np.int64),
                      c3v, c3e)


def construction_state(g, rng, top):
    c3v = np.ones(g.n, dtype=np.int64)
    c3e = np.ones(g.m, dtype=np.int64)
    return ConstructionState(rng.integers(1, top + 1, size=g.n, dtype=np.int64),
                             rng.integers(1, top + 1, size=g.m, dtype=np.int64),
                             top, c3v, c3e)


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


# ---------------------------------------------------------------------------
# acceptance grid points with n <= 500, on real engine output


@pytest.mark.parametrize("n,mean", [(100, 8), (100, 25), (200, 12), (500, 15),
                                    (500, 60)])
def test_grid_points_match_reference(n, mean):
    g = random_graph(n, mean / (n - 1), seed=0)
    assert_same_greedy(g)
    p = LemmaParams(g.max_degree, slack=2.0)
    r1 = resample_until_valid(g, p, seed=1, max_rounds=200)
    r2 = stage_two(g, r1.state, p, seed=2, max_rounds=200)
    assert_same_properize(g, r2.state, p.b_unit)
    cs = properize(g, r2.state, None)
    assert_same_state(cs, ref.properize(g, r2.state, None))
    assert_same_repair(g, cs)
