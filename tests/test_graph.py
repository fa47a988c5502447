import pytest

from nsdcolour import (Graph, GraphError, GraphParseError, GenerationError,
                       complete_graph, connected_components, cycle_graph,
                       enumerate_connected_graphs, enumerate_labelled_graphs,
                       generate, is_connected, parse_graph, path_graph,
                       random_graph, regular_graph, write_graph)


def test_basic_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert g.n == 4 and g.m == 4
    assert g.degree(0) == 2
    assert g.max_degree == 2
    assert g.adjacency[1] == (0, 2)
    assert g.has_edge(3, 0)
    assert not g.has_edge(0, 2)
    assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_edge_ids_align_with_sorted_edges():
    g = Graph(4, [(2, 3), (0, 1)])
    assert g.edge_id(0, 1) == 0
    assert g.edge_id(3, 2) == 1
    with pytest.raises(GraphError):
        g.edge_id(0, 2)


def test_incident_edges_ordered_by_far_endpoint():
    g = Graph(5, [(2, 4), (0, 2), (1, 2), (2, 3)])
    far = [g.edges[e][0] if g.edges[e][1] == 2 else g.edges[e][1]
           for e in g.incident_edges(2)]
    assert far == sorted(far)


def test_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(-1, [])


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


def test_generate_dispatch():
    assert generate("complete", n=4).m == 6
    assert generate("random", n=10, p=0.5, seed=1).n == 10
    with pytest.raises(GenerationError):
        generate("hypercube", n=3)
    with pytest.raises(GenerationError):
        generate("random", n=10)  # p and seed required


def test_connectivity_helpers():
    g = Graph(5, [(0, 1), (2, 3)])
    comps = connected_components(g)
    assert [sorted(c) for c in comps] == [[0, 1], [2, 3], [4]]
    assert not is_connected(g)
    assert is_connected(complete_graph(3))


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
        assert is_connected(g)
    assert counts == {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}


def test_numpy_caches_frozen():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        g.degrees[0] = 99


def test_pickle_round_trip():
    import pickle
    g = random_graph(30, 0.3, seed=7)
    h = pickle.loads(pickle.dumps(g))
    assert h == g and h.max_degree == g.max_degree
