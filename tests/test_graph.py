import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsdcolour import (Graph, GraphError, GraphParseError, GenerationError,
                       complete_graph, connected_components, cycle_graph,
                       enumerate_connected_graphs, generate, parse_graph,
                       path_graph, random_graph, regular_graph, write_graph)
import nsdcolour.graph as graphmod
from nsdcolour.graph import _connected_masks
from brute import enumerate_labelled_graphs


def test_basic_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert g.n == 4 and g.m == 4
    assert g.degree(0) == 2
    assert g.max_degree == 2
    assert g.incidences([1])[0].tolist() == [0, 2]
    assert g.find_edges([3, 0], [0, 2]).tolist() == [1, -1]
    assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_edge_ids_align_with_sorted_edges():
    g = Graph(4, [(2, 3), (0, 1)])
    assert g.edge_id(0, 1) == 0
    assert g.edge_id(3, 2) == 1
    with pytest.raises(GraphError):
        g.edge_id(0, 2)


def test_incidences_ordered_by_far_endpoint():
    g = Graph(5, [(2, 4), (0, 2), (1, 2), (2, 3)])
    far = [g.edges[e][0] if g.edges[e][1] == 2 else g.edges[e][1]
           for e in g.incidences([2])[1].tolist()]
    assert far == sorted(far)


@st.composite
def edge_lists(draw):
    # loop-free pairs in either orientation, some repeated reversed or as is
    n = draw(st.integers(2, 12))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]),
                          max_size=40))
    again = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(again),
                          max_size=len(again)))
    again = [(v, u) if f else (u, v) for (u, v), f in zip(again, flips)]
    return n, pairs + again


@given(edge_lists())
def test_incidences_sorted_and_aligned(drawn):
    n, edges = drawn
    g = Graph(n, edges)
    assert set(g.edges) == {(min(e), max(e)) for e in edges}
    for v in range(n):
        adj, inc = (a.tolist() for a in g.incidences([v])[:2])
        assert all(a < b for a, b in zip(adj, adj[1:]))
        assert len(inc) == len(adj) == g.degrees[v]
        assert list(inc) == [g.edge_id(v, w) for w in adj]


def test_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(-1, [])


@pytest.mark.parametrize("edges", [
    [(0, 1.5)], [("0", "1")], np.array([[0, 1.7]]), [(0, 1), (1, 2.0)]])
def test_non_integer_endpoints_refused(edges):
    # np.asarray(..., dtype=np.int64) would truncate them to an edge
    with pytest.raises(GraphError) as exc:
        Graph(3, edges)
    assert str(exc.value) == "edge endpoints must be integers"


def test_integer_endpoints_of_any_width_are_kept():
    want = Graph(3, [(0, 1)])
    for dtype in (np.uint8, np.int32, np.int64):
        assert fields(Graph(3, np.array([[1, 0]], dtype=dtype))) == fields(want)
    assert fields(Graph(3, np.zeros((0, 2)))) == fields(Graph(3, []))


def test_parallel_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_parse_and_write_round_trip():
    g = Graph(4, [(0, 1), (2, 3), (1, 2)])
    text = write_graph(g)
    assert text.startswith("p edge 4 3\n")
    assert parse_graph(text) == g


def test_parse_rejects_garbage():
    with pytest.raises(GraphParseError):
        parse_graph("no header\n")
    with pytest.raises(GraphParseError):
        parse_graph("p edge 2 1\ne 1 3\n")
    with pytest.raises(GraphParseError):
        parse_graph("p edge 2 1\nq 1 2\n")


def test_parse_comments_and_blank_lines():
    g = parse_graph("c hello\n\np edge 3 2\nc mid\ne 1 2\ne 2 3\n")
    assert g.n == 3 and g.m == 2


def test_generators_shapes():
    assert complete_graph(5).m == 10
    assert cycle_graph(6).m == 6
    assert path_graph(7).m == 6
    assert path_graph(1).m == 0
    with pytest.raises(GenerationError):
        cycle_graph(2)
    for make in (lambda: path_graph(0), lambda: random_graph(-1, 0.5, 0),
                 lambda: random_graph(5, 1.5, 0),
                 lambda: regular_graph(-2, 2, 0)):
        with pytest.raises(GenerationError):
            make()


def test_random_graph_deterministic():
    a = random_graph(50, 0.2, seed=4)
    b = random_graph(50, 0.2, seed=4)
    c = random_graph(50, 0.2, seed=5)
    assert a == b
    assert a != c
    assert 0 < a.m < 50 * 49 / 2


def test_regular_graph_degrees():
    g = regular_graph(20, 4, seed=0)
    assert g.n == 20
    # pairing model with retry keeps degrees exact here
    assert set(int(d) for d in g.degrees) == {4}


def test_regular_graphs_equal_checked_graphs_and_recorded_digest():
    # regular_graph adopts its deduplicated keys without Graph's checks; the
    # digest of every graph and refusal is the one np.unique and a rebuild
    # through Graph gave (numpy 2.4.6)
    h = hashlib.sha256()
    for n in (0, 4, 7, 10, 30, 100):
        for d in range(7):
            for seed in (0, 1):
                try:
                    g = regular_graph(n, d, seed)
                except GraphError as exc:
                    h.update(f"{n} {d} {seed} {type(exc).__name__} {exc}\n"
                             .encode())
                    continue
                assert fields(g) == fields(Graph(n, g.edges))
                assert g.n == n and g.m == n * d // 2
                h.update(f"{n} {d} {seed} ok {g.m}\n".encode())
                h.update(g.edge_u.tobytes() + g.edge_v.tobytes())
    assert h.hexdigest() == (
        "f972fc1f8f620622f00fda3e700f0924b0fdf51858631afb820769c08739685c")


def test_generate_dispatch():
    assert generate("complete", n=4).m == 6
    assert generate("random", n=10, p=0.5, seed=1).n == 10
    with pytest.raises(GenerationError):
        generate("hypercube", n=3)
    with pytest.raises(GenerationError):
        generate("random", n=10)  # p and seed required
    assert generate("regular", n=6, d=3, seed=0).degrees.tolist() == [3] * 6
    with pytest.raises(GenerationError):
        generate("regular", n=6, seed=0)  # d and seed required


def test_connectivity_helpers():
    g = Graph(5, [(0, 1), (2, 3)])
    comps = connected_components(g)
    assert [sorted(c) for c in comps] == [[0, 1], [2, 3], [4]]
    assert len(comps) > 1
    assert len(connected_components(complete_graph(3))) == 1


def test_enumerate_labelled_counts():
    # 2^C(n,2) labelled graphs on n vertices
    assert sum(1 for _ in enumerate_labelled_graphs(3)) == 8
    assert sum(1 for _ in enumerate_labelled_graphs(4)) == 64
    assert sum(1 for _ in enumerate_labelled_graphs(4, max_edges=1)) == 7


def test_enumerate_connected_counts():
    # 1, 1, 4, 38, 728 connected labelled graphs on 1..5 vertices
    counts = {}
    for gid, g in enumerate_connected_graphs(5):
        counts[g.n] = counts.get(g.n, 0) + 1
        assert len(connected_components(g)) == 1
    assert counts == {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}


def test_enumerate_connected_filters_the_labelled_graphs(monkeypatch):
    # the connected graphs of enumerate_labelled_graphs, in its order; the
    # masks are tested in blocks, and where a block ends changes nothing
    for n in range(1, 6):
        want = [g for g in enumerate_labelled_graphs(n)
                if len(connected_components(g)) == 1]
        assert [g for _, g in enumerate_connected_graphs(n) if g.n == n] == want
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        with monkeypatch.context() as patch:
            patch.setattr(graphmod, "_MASK_BLOCK", 5)
            assert list(_connected_masks(n, pairs)) == [
                i for i, g in enumerate(enumerate_labelled_graphs(n))
                if len(connected_components(g)) == 1]
    # OEIS A001187 at n = 6 and 7; n = 7 spans two blocks
    for n, count in ((6, 26704), (7, 1866256)):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert sum(1 for _ in _connected_masks(n, pairs)) == count



def fields(g):
    """Every field of g; __eq__ compares only n and the keys."""
    arrays = (g._keys, g.edge_u, g.edge_v, g.degrees)
    return (g.n, g.m, g.max_degree, type(g.max_degree),
            [(a.dtype, a.shape, a.flags.writeable, a.tobytes())
             for a in arrays])


def test_enumerated_graphs_equal_checked_graphs_in_every_field():
    # enumeration builds each graph from its keys without Graph's checks
    for _, g in enumerate_connected_graphs(6):
        assert fields(g) == fields(Graph(g.n, g.edges))
    assert not g.degrees.flags.writeable and g.degrees.dtype == "int64"

def test_numpy_caches_frozen():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        g.degrees[0] = 99


def test_pickle_round_trip():
    import pickle
    g = random_graph(30, 0.3, seed=7)
    h = pickle.loads(pickle.dumps(g))
    assert h == g and h.max_degree == g.max_degree
