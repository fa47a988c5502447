import hashlib
import itertools
import random
import time
from collections import Counter

import numpy as np
import pytest

import reference_exact as ref
from brute import (EnumerationGuardError, brute_force_chi,
                   enumerate_labelled_graphs)
from reference_graph import ViewGraph
import nsdcolour.exact as exact
import nsdcolour.graph as graphmod
from nsdcolour import (Graph, TotalColouring, check_nsd, check_proper,
                       complete_graph, conjecture_sweep, connected_components,
                       cycle_graph, enumerate_connected_graphs, is_valid,
                       path_graph, run_sweep, solve_exact)
from nsdcolour.exact import (_lower_bound, _neighbourhoods, _orbit,
                             _orbit_table)
from nsdcolour.experiment import sweep_to_csv


# minimum spans pinned by independent exhaustive enumeration
FROZEN = {
    "K2": (Graph(2, [(0, 1)]), 3),
    "P3": (path_graph(3), 3),
    "P4": (path_graph(4), 4),
    "K3": (complete_graph(3), 5),
    "C4": (cycle_graph(4), 4),
    "C5": (cycle_graph(5), 4),
    "star4": (Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), 5),
    "K4": (complete_graph(4), 5),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_optimum(name):
    g, chi = FROZEN[name]
    res = solve_exact(g)
    assert res.chi_sum_total == chi
    assert res.witness is not None
    assert res.witness.span <= chi
    assert is_valid(g, res.witness)


@pytest.mark.parametrize("name", ["K2", "P3", "K3", "C4"])
def test_brute_matches_backtracker(name):
    g, chi = FROZEN[name]
    assert brute_force_chi(g).chi_sum_total == chi


def test_k3_at_four_colours_impossible():
    # K3's bound is 5, so k_max = 4 leaves no palette to search
    res = solve_exact(complete_graph(3), k_max=4)
    assert res.exceeded_k_max and res.k_max == 4
    assert res.chi_sum_total is None and res.nodes_explored == 0


def test_empty_and_tiny_graphs():
    assert solve_exact(Graph(0, [])).chi_sum_total == 1
    assert solve_exact(Graph(3, [])).chi_sum_total == 1


def test_lower_bound_respected():
    # minimum span is always at least max_degree + 1
    for g, chi in FROZEN.values():
        assert chi >= g.max_degree + 1


def test_disconnected_solved_per_component():
    g = Graph(5, [(0, 1), (2, 3), (3, 4)])  # K2 + P3
    res = solve_exact(g)
    assert res.chi_sum_total == 3
    assert is_valid(g, res.witness)


def test_long_path_needs_no_recursion():
    # a path of n vertices has 2n - 1 search levels, far past Python's
    # recursion limit of 1000
    g = path_graph(2000)
    res = solve_exact(g)
    assert res.chi_sum_total == 4
    assert is_valid(g, res.witness)


def test_enumeration_guard_trips():
    with pytest.raises(EnumerationGuardError):
        brute_force_chi(complete_graph(6))


def test_sweep_rows_and_verdicts():
    graphs = [("K2", FROZEN["K2"][0]), ("K3", FROZEN["K3"][0]),
              ("C5", FROZEN["C5"][0])]
    rows = conjecture_sweep(graphs)
    assert [r["graph_id"] for r in rows] == ["K2", "K3", "C5"]
    assert all(r["verdict"] == "pass" for r in rows)
    k3 = rows[1]
    assert k3["chi_sum_total"] == 5 and k3["delta_plus_3"] == 5


def test_sweep_unsolved_marker():
    # an absurdly low budget (k_max = max_degree - 2 = 0) forces a give-up
    rows = conjecture_sweep([("K3", complete_graph(3))], k_max_extra=-2)
    assert rows[0]["verdict"].startswith("unsolved")


def seeded_graphs(n, count, seed, p=0.4, connected=False):
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    while len(out) < count:
        g = Graph(n, [e for e in pairs if rng.random() < p])
        if not connected or len(connected_components(g)) <= 1:
            out.append(g)
    return out


def test_solver_matches_reference_search():
    # every labelled graph with n <= 5 plus seeded 6-vertex graphs, with room
    # to spare (max degree + 8) and with a budget that often runs out (+1);
    # then K6, K5 + K3, and K5 with a pendant edge + K3, whose K3 is searched
    # after the first component failed at k = 6. The frozen search pins each
    # component root to colour 1 and is driven one palette at a time from
    # max degree + 1, as its solve_exact drives it: it must find nothing
    # below each component's _lower_bound, and the solver must return its
    # chi, witnesses and give-ups. The pin is a restriction, so every palette
    # the frozen search refutes from the bound on must also have no colouring
    # in the search without it, and node totals are compared only on graphs
    # with no such palette: there both searches stop at the same first
    # colouring, whose root has colour 1.
    graphs = [g for n in range(6) for g in enumerate_labelled_graphs(n)]
    graphs += seeded_graphs(6, 30, seed=5)
    graphs += [complete_graph(6),
               Graph(8, [*complete_graph(5).edges, (5, 6), (5, 7), (6, 7)]),
               Graph(9, [*complete_graph(5).edges, (4, 5), (6, 7), (6, 8),
                         (7, 8)])]
    unpinned, compared = {}, 0
    for g in graphs:
        viewed = ViewGraph(g)
        nbrs = _neighbourhoods(g)[0]
        for k_max in (g.max_degree + 8, g.max_degree + 1):
            chi, nodes, refuted = 1, 0, False
            witness = np.zeros(g.n, dtype=np.int64), np.zeros(g.m, dtype=np.int64)
            for comp in ref.connected_components(viewed):
                bound = _lower_bound(nbrs, comp)
                delta = max(viewed.degree(v) for v in comp)
                for k in range(delta + 1, k_max + 1):
                    counter = [0]
                    found = ref._solve_component(viewed, comp, k, counter)
                    if k < bound:
                        assert found is None, (g.edges, k)
                        continue
                    nodes += counter[0]
                    if found is not None:
                        break
                    refuted = True
                    sub = induced(g, comp)
                    key = orbit_key(sub)[0], k
                    if key not in unpinned:
                        unpinned[key] = unpinned_colourable(sub, k)
                    assert not unpinned[key], (g.edges, k)
                if found is None:
                    chi = witness = None
                    break
                chi = max(chi, k)
                for colours, placed in zip(witness, found):
                    for i, c in placed.items():
                        colours[i] = c
            new = solve_exact(g, k_max)
            assert (new.chi_sum_total, new.exceeded_k_max, new.k_max) == (
                chi, chi is None, k_max if chi is None else None), g.edges
            if not refuted:
                compared += 1
                assert new.nodes_explored == nodes, g.edges
            if witness is None:
                assert new.witness is None
                continue
            assert new.witness.k == chi
            for a, b in zip((new.witness.vertex_colours,
                             new.witness.edge_colours), witness):
                assert a.dtype == b.dtype and np.array_equal(a, b), g.edges
    assert (orbit_key(K5_PENDANT)[0], 6) in unpinned
    assert compared > len(graphs)


def induced(g, comp):
    """The subgraph of g on the vertices comp, relabelled 0..len(comp)-1 in
    ascending vertex order."""
    index = {v: i for i, v in enumerate(sorted(comp))}
    return Graph(len(comp), [(index[u], index[v]) for u, v in g.edges
                             if u in index])


K5_PENDANT = Graph(6, [*complete_graph(5).edges, (4, 5)])


def component_bounds(g):
    nbrs = _neighbourhoods(g)[0]
    return [_lower_bound(nbrs, comp) for comp in connected_components(g)]


@pytest.mark.parametrize("n, chi", [(1, 1), (2, 3), (3, 5), (4, 5), (5, 7)])
def test_lower_bound_is_tight_on_small_cliques(n, chi):
    g = complete_graph(n) if n > 1 else Graph(1, [])
    assert component_bounds(g) == [chi]
    assert solve_exact(g).chi_sum_total == chi


def test_lower_bound_falls_short_on_k5_with_a_pendant():
    # the one connected class on at most 6 vertices whose chi exceeds its
    # bound (test_connected_six_sweep checks that it is the only one)
    assert component_bounds(K5_PENDANT) == [6]
    res = solve_exact(K5_PENDANT)
    assert res.chi_sum_total == 7 and is_valid(K5_PENDANT, res.witness)


def test_seven_clique_is_solved_at_its_bound():
    # the odd-clique bound skips k = 7 and 8, so only k = 9 is searched
    g = complete_graph(7)
    t0 = time.perf_counter()
    res = solve_exact(g)
    assert time.perf_counter() - t0 < 1.0
    assert component_bounds(g) == [9]
    assert res.chi_sum_total == 9 and is_valid(g, res.witness)


def unpinned_colourable(g, k):
    """Whether the connected graph g has a valid total colouring in {1..k}.

    Plain backtracking over the BFS object order of the solver, with only
    the two prunes that are sound by definition: a colour already on a
    neighbour or an incident object, and equal sums on adjacent vertices
    whose edges are all coloured. No colour is pinned anywhere, as in the
    solver and unlike the frozen search of tests/reference_exact.py.
    """
    adj = [[] for _ in range(g.n)]
    for a, b in g.edges:    # lexicographic edges: each list comes out sorted
        adj[a].append(b)
        adj[b].append(a)
    vc, sums, used = [0] * g.n, [0] * g.n, [0] * g.n
    left = g.degrees.tolist()
    objects, seen = [], set()
    for v in connected_components(g)[0]:
        objects.append((v,))
        objects.extend((u, v) for u in adj[v] if u in seen)
        seen.add(v)

    def settled_clash(x):
        return left[x] == 0 and any(left[w] == 0 and sums[w] == sums[x]
                                    for w in adj[x])

    def search(i):
        if i == len(objects):
            return True
        obj = objects[i]
        if len(obj) == 1:
            v, = obj
            for c in range(1, k + 1):
                if any(vc[w] == c for w in adj[v]):
                    continue
                vc[v] = sums[v] = c
                used[v] = 1 << c
                if search(i + 1):
                    return True
                vc[v] = sums[v] = used[v] = 0
            return False
        u, v = obj
        for c in range(1, k + 1):
            if (used[u] | used[v]) >> c & 1:
                continue
            for x in obj:
                used[x] |= 1 << c
                sums[x] += c
                left[x] -= 1
            if not (settled_clash(u) or settled_clash(v)) and search(i + 1):
                return True
            for x in obj:
                used[x] &= ~(1 << c)
                sums[x] -= c
                left[x] += 1
        return False

    return search(0)


def canonical_form(g):
    return min(tuple(sorted(tuple(sorted((perm[u], perm[v])))
                            for u, v in g.edges))
               for perm in itertools.permutations(range(g.n)))


def test_palettes_below_chi_have_no_colouring():
    # each chi is a component's _lower_bound or a palette reached after the
    # search refuted every palette from the bound up to it. Check it with a
    # plain search that shares only the BFS order with the solver: wherever
    # chi exceeds max degree + 1 it finds a colouring at chi and none at
    # chi - 1, so none below (a colouring in {1..k} is one in {1..k + 1}).
    # Its answer depends only on the isomorphism class, so it runs once per
    # class and palette.
    graphs = [g for _, g in enumerate_connected_graphs(5)]
    graphs += seeded_graphs(6, 24, seed=6, connected=True)
    verdicts = {}
    checked = 0
    for g in graphs:
        chi = solve_exact(g).chi_sum_total
        if chi - 1 < g.max_degree + 1:
            continue
        checked += 1
        key = canonical_form(g), chi
        if key not in verdicts:
            verdicts[key] = (unpinned_colourable(g, chi),
                             unpinned_colourable(g, chi - 1))
        assert verdicts[key] == (True, False), (g.n, g.edges, chi)
    assert checked > 350


# ---------------------------------------------------------------------------
# canonical labelling and the sweep's class table

def relabelled(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def mask_edges(n, mask):
    """The sorted (lo, hi) edge list of an edge mask of _orbit_table(n)."""
    weight = _orbit_table(n)[0]
    lo, hi = np.triu_indices(n, 1)
    has = (mask & weight[lo, hi]) != 0
    return tuple(zip(lo[has].tolist(), hi[has].tolist()))


def orbit_key(g):
    """The key (n, edges of the canonical mask) of g's class, from _orbit,
    and g's labelling onto that mask as a list."""
    mask, label = _orbit(g)
    return (g.n, mask_edges(g.n, mask)), label.tolist()


def test_canonical_keys_match_brute_force_classes():
    # equal keys exactly when the forms over all n! labellings are equal
    graphs = [g for n in range(1, 6) for g in enumerate_labelled_graphs(n)]
    graphs += seeded_graphs(6, 40, seed=7)
    assert len(graphs) == 1099 + 40
    brute_of_key, key_of_brute = {}, {}
    for g in graphs:
        key, _ = orbit_key(g)
        brute = g.n, canonical_form(g)
        assert key == brute, g.edges
        assert brute_of_key.setdefault(key, brute) == brute, g.edges
        assert key_of_brute.setdefault(brute, key) == key, g.edges
    assert len(key_of_brute) == 1 + 2 + 4 + 11 + 34 + len(
        {canonical_form(g) for g in graphs if g.n == 6})


def test_canonical_labelling_reaches_key_and_ignores_labels():
    rng = random.Random(11)
    graphs = [g for _, g in enumerate_connected_graphs(5)]
    graphs += seeded_graphs(6, 40, seed=8)
    for g in graphs:
        key, labelling = orbit_key(g)
        assert sorted(labelling) == list(range(g.n))
        assert key == (g.n, relabelled(g, labelling).edges)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert orbit_key(relabelled(g, perm))[0] == key, g.edges


@pytest.mark.parametrize("n, classes, connected", [
    (0, 1, 1), (1, 1, 1), (2, 2, 1), (3, 4, 2), (4, 11, 6), (5, 34, 21),
    (6, 156, 112)])
def test_orbit_table_has_one_canonical_mask_per_class(n, classes, connected):
    # classes per n are OEIS A000088 and connected ones A001349. Every
    # mask's labelling carries its graph onto its canonical mask, which is
    # at least the mask itself; with exactly `classes` distinct canonical
    # masks, each orbit has one, its largest member
    weight, canon, labelling = _orbit_table(n)
    lo, hi = np.triu_indices(n, 1)
    has = (np.arange(canon.size)[:, None] & weight[lo, hi]) != 0
    assert (np.sort(labelling, axis=1) == np.arange(n)).all()
    moved = (weight[labelling[:, lo], labelling[:, hi]] * has).sum(1)
    assert np.array_equal(moved, canon)
    assert (canon >= np.arange(canon.size)).all()
    members = np.unique(canon)
    assert members.size == classes
    graphs = [Graph(n, np.stack([lo[has[c]], hi[has[c]]], 1)) for c in members]
    assert sum(len(connected_components(g)) <= 1 for g in graphs) == connected
    if n <= 5:
        for g in enumerate_labelled_graphs(n):
            key, label = orbit_key(g)
            assert key == (n, relabelled(g, label).edges), g.edges


def test_sweep_rows_match_uncached_solves():
    graphs = list(enumerate_connected_graphs(5))
    rows = conjecture_sweep(graphs)
    classes = {}
    for row, (gid, g) in zip(rows, graphs):
        k_max = g.max_degree + 5
        ref_res = solve_exact(g, k_max)
        res = solve_exact(g, k_max, classes=classes)
        assert res.chi_sum_total == ref_res.chi_sum_total
        assert not check_proper(g, res.witness) and not check_nsd(g, res.witness)
        expected = {"graph_id": gid, "n": g.n, "m": g.m,
                    "max_degree": g.max_degree,
                    "chi_sum_total": ref_res.chi_sum_total,
                    "delta_plus_3": g.max_degree + 3,
                    "verdict": ("pass" if ref_res.chi_sum_total
                                <= g.max_degree + 3 else "fail")}
        assert {c: row[c] for c in expected} == expected
    assert len(rows) == 772 and len(classes) == 31


def test_each_sweep_searches_each_class_once():
    graphs = list(enumerate_connected_graphs(5))
    first_of_class = {}
    for gid, g in graphs:
        first_of_class.setdefault(orbit_key(g)[0], gid)
    for _ in range(2):
        rows = conjecture_sweep(graphs)
        searched = [r["graph_id"] for r in rows if r["nodes"] > 0]
        assert searched == list(first_of_class.values())
        assert len(searched) == 31


def corrupted(g, w, kind):
    """A colouring of g one colour away from the witness w whose violations
    are all of the given kind; raises if no such colouring is found."""
    vc, ec = w.vertex_colours, w.edge_colours
    sums = vc + np.bincount(np.concatenate([g.edge_u, g.edge_v]),
                            np.concatenate([ec, ec]), g.n).astype(np.int64)
    changes = []   # (vertex or edge, index, new colour)
    for e, (u, v) in enumerate(g.edges):
        if kind == "vertex-vertex":
            changes.append(("v", v, vc[u]))
        elif kind == "vertex-edge":
            changes.append(("e", e, vc[u]))
        elif kind == "sum-conflict":
            changes.append(("v", u, vc[u] + sums[v] - sums[u]))
        else:
            changes += [("e", f, ec[e]) for f, (a, b) in enumerate(g.edges)
                        if f != e and {a, b} & {u, v}]
    for what, i, c in changes:
        if c < 1:
            continue
        nv, ne = vc.copy(), ec.copy()
        (nv if what == "v" else ne)[i] = c
        bad = TotalColouring(nv, ne, max(w.k, int(c)))
        if {x.kind for x in check_proper(g, bad) + check_nsd(g, bad)} == {kind}:
            return bad
    raise AssertionError(f"no {kind} corruption of {g.edges}")


def test_sweep_flags_exactly_the_invalid_witnesses(monkeypatch):
    # the sweep verifies every witness it gets from solve_exact: corrupt one
    # row per violation kind (a searched and a table-served row each, the
    # first and the last row among them) and only those rows are flagged
    graphs = list(enumerate_connected_graphs(5))[1:]   # from K2 on
    kinds = {0: "vertex-edge", 2: "vertex-vertex", 300: "edge-edge",
             len(graphs) - 1: "sum-conflict"}
    clean = conjecture_sweep(graphs)
    solve, nodes = exact.solve_exact, []

    def corrupting(g, *args, **kwargs):
        res = solve(g, *args, **kwargs)
        if len(nodes) in kinds:
            res.witness = corrupted(g, res.witness, kinds[len(nodes)])
        nodes.append(res.nodes_explored)
        return res

    monkeypatch.setattr(exact, "solve_exact", corrupting)
    rows = conjecture_sweep(graphs)
    assert [nodes[i] > 0 for i in sorted(kinds)] == [True, False, False, True]
    assert all(r["verdict"] == "pass" for r in clean)
    assert [i for i, r in enumerate(rows)
            if r["verdict"] == "error:invalid-witness"] == sorted(kinds)
    for i, (row, ref_row) in enumerate(zip(rows, clean)):
        if i not in kinds:
            assert row == ref_row


def test_sweep_verifies_in_blocks_that_each_fit_in_a_graph(monkeypatch):
    # one union of every witness can hold more vertices than a Graph may
    # (connected<=7 has 13,227,823): with the limit lowered to 50, the 772
    # rows of connected<=5 are verified in blocks, come out as before, and a
    # corrupted witness in the last block is still flagged
    graphs = list(enumerate_connected_graphs(5))
    clean = conjecture_sweep(graphs)
    monkeypatch.setattr(graphmod, "MAX_VERTICES", 50)
    assert conjecture_sweep(graphs) == clean
    solve, last = exact.solve_exact, graphs[-1][1]

    def corrupting(g, *args, **kwargs):
        res = solve(g, *args, **kwargs)
        if g is last:
            res.witness = corrupted(g, res.witness, "sum-conflict")
        return res

    monkeypatch.setattr(exact, "solve_exact", corrupting)
    rows = conjecture_sweep(graphs)
    assert [i for i, r in enumerate(rows) if r != clean[i]] == [771]
    assert rows[771]["verdict"] == "error:invalid-witness"


def test_sweep_records_a_failing_solve_and_goes_on(monkeypatch):
    graphs = list(enumerate_connected_graphs(4))
    clean = conjecture_sweep(graphs)
    solve = exact.solve_exact

    def failing(g, *args, **kwargs):
        if g is graphs[5][1]:
            raise RuntimeError("boom")
        return solve(g, *args, **kwargs)

    monkeypatch.setattr(exact, "solve_exact", failing)
    rows = conjecture_sweep(graphs)
    assert rows[5] == {**clean[5], "chi_sum_total": None, "nodes": 0,
                       "verdict": "error:RuntimeError"}
    assert rows[:5] + rows[6:] == clean[:5] + clean[6:]


def test_served_witness_is_read_only_and_owns_its_arrays():
    # a served witness skips TotalColouring's copy, so it must neither be
    # writable nor share memory with the class table it was read from
    classes = {}
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    relabelled = Graph(4, [(1, 0), (0, 2), (2, 3)])
    assert solve_exact(path, classes=classes).nodes_explored > 0
    served = solve_exact(relabelled, classes=classes)
    assert served.nodes_explored == 0
    (chi, cv, ce), = classes.values()
    want = (served.witness.vertex_colours.copy(),
            served.witness.edge_colours.copy())
    for arr in (served.witness.vertex_colours, served.witness.edge_colours):
        with pytest.raises(ValueError):
            arr[0] = 99
        assert not np.shares_memory(arr, cv) and not np.shares_memory(arr, ce)
        arr.flags.writeable = True   # the arrays own their memory
        arr[:] = 99
    again = solve_exact(relabelled, classes=classes)
    assert again.nodes_explored == 0
    assert (again.witness.vertex_colours.tolist(),
            again.witness.edge_colours.tolist()) == (want[0].tolist(),
                                                     want[1].tolist())
    assert not check_proper(relabelled, again.witness)
    assert not check_nsd(relabelled, again.witness)


def test_sweep_checks_served_witnesses_against_their_own_chi(monkeypatch):
    # served witnesses are built without a range check: the sweep's one
    # verifier pass checks each against its own row's chi. Row 3 (a path on
    # 3 vertices) is served with an edge colour 0, and row 770 (chi 6) with
    # a vertex colour 7 that is proper and sum-distinguishing, and would
    # pass a check against the sweep's largest chi (7, from K5)
    graphs = list(enumerate_connected_graphs(5))
    clean = conjecture_sweep(graphs)
    solve, calls, served = exact.solve_exact, [0], {}

    def corrupt_zero(chi, cv, ce):
        ce = ce.copy()
        a, b = np.argwhere(ce)[0]
        ce[a, b] = ce[b, a] = 0
        return chi, cv, ce

    def corrupt_above(chi, cv, ce):
        cv = cv.copy()
        cv[0] = chi + 1
        return chi, cv, ce

    targets = {3: corrupt_zero, 770: corrupt_above}

    def serving(g, k_max=None, classes=None):
        i, calls[0] = calls[0], calls[0] + 1
        key = (g.n, exact._orbit(g)[0], k_max)
        if i not in targets:
            return solve(g, k_max, classes=classes)
        entry = classes[key]
        classes[key] = targets[i](*entry)
        try:
            res = solve(g, k_max, classes=classes)
        finally:
            classes[key] = entry
        served[i] = (g, res)
        return res

    monkeypatch.setattr(exact, "solve_exact", serving)
    rows = conjecture_sweep(graphs)
    g, res = served[770]
    w = res.witness
    assert res.nodes_explored == 0 and w.span == res.chi_sum_total + 1 < 8
    above = TotalColouring(w.vertex_colours, w.edge_colours, w.span)
    assert not check_proper(g, above) and not check_nsd(g, above)
    assert served[3][1].witness.edge_colours.min() == 0
    assert [i for i, r in enumerate(rows) if r != clean[i]] == sorted(targets)
    for i in targets:
        assert rows[i]["verdict"] == "error:invalid-witness"
        assert {**rows[i], "verdict": "pass"} == clean[i]

def test_connected_six_sweep():
    # the recorded connected<=6 run: no graph on at most 6 vertices reaches
    # max degree + 3, the search totals stay as recorded, every class but
    # K5 with a pendant edge meets its _lower_bound, and the CSV (which the
    # CLI writes too) keeps its recorded bytes
    graphs = list(enumerate_connected_graphs(6))
    rows = conjecture_sweep(graphs)
    assert hashlib.sha256(sweep_to_csv(rows).encode()).hexdigest() == (
        "0629b04884496a4ff885f7632b6d78bede3f780687fd1c9bf28c8c2b64aeb989")
    six = [r for r in rows if r["n"] == 6]
    searched = [(r, g) for r, (_, g) in zip(rows, graphs) if r["nodes"] > 0]
    assert (len(rows), len(six)) == (27476, 26704)
    assert all(r["verdict"] == "pass" for r in rows)
    assert (len(searched), sum(r["n"] == 6 for r, _ in searched)) == (143, 112)
    assert sum(r["nodes"] for r in rows) == 7094112
    short = [g for r, g in searched
             if r["chi_sum_total"] > component_bounds(g)[0]]
    assert [orbit_key(g)[0] for g in short] == [
        orbit_key(K5_PENDANT)[0]]

    def excess(rs):
        return Counter(r["chi_sum_total"] - r["max_degree"] for r in rs)

    assert excess(r for r, _ in searched if r["n"] == 6) == {1: 54, 2: 58}
    assert excess(six) == {1: 14808, 2: 11896}


def test_class_table_shares_an_unsolved_result():
    # K5 with a pendant edge needs 7 colours and is searched, and fails, at
    # its bound 6; the table is keyed by k_max too
    classes = {}
    first = solve_exact(K5_PENDANT, k_max=6, classes=classes)
    second = solve_exact(K5_PENDANT, k_max=6, classes=classes)
    assert first.exceeded_k_max and first.nodes_explored > 0
    assert second.exceeded_k_max and second.nodes_explored == 0
    wider = solve_exact(K5_PENDANT, k_max=7, classes=classes)
    assert wider.chi_sum_total == 7 and wider.nodes_explored > 0


def test_paths_and_cycles_stay_off_the_factorial_path(monkeypatch):
    # only graphs on at most 6 vertices (at most 6! labellings) are keyed
    # through an orbit table
    keyed, orbit = [], exact._orbit

    def recording(g):
        keyed.append(g.n)
        return orbit(g)

    monkeypatch.setattr(exact, "_orbit", recording)
    t0 = time.perf_counter()
    rows = run_sweep(["path:2..60", "cycle:3..40", "path:590..600"])
    assert time.perf_counter() - t0 < 1.5
    assert len(rows) == 59 + 38 + 11
    assert all(r["verdict"] == "pass" for r in rows)
    assert keyed == [2, 3, 4, 5, 6, 3, 4, 5, 6]


def test_isomorphic_graphs_on_seven_vertices_are_both_searched():
    classes = {}
    path = path_graph(7)
    for g in (path, relabelled(path, [3, 0, 6, 1, 5, 2, 4])):
        assert solve_exact(g, classes=classes).nodes_explored > 0
    assert classes == {}
