"""Exact minimum palette computation for sum-distinguishing total colourings.

Two independent routes on purpose:

* ``brute_force_chi`` enumerates every assignment of colours to the n + m
  objects in lexicographic order, evaluating all constraints per candidate
  (vectorized in chunks). It is the ground-truth oracle and does nothing
  clever.
* ``solve_exact`` runs a backtracking search per connected component with a
  BFS object ordering (each vertex immediately before its edges back to
  already-visited vertices), properness pruning, a sum prune once both
  endpoint sums are final, and a pin of each component root's colour to 1.
  The pin is a restriction, not a symmetry (permuting colours changes
  weighted degrees), and is not proved: tests/test_exact.py checks with a
  search without it that no connected graph with n <= 5, nor any of a
  seeded sample with n = 6, has a colouring one colour below the reported
  minimum.

  The order is fixed, so each component gets a plan once, for every k:
  each vertex carries its neighbours placed before it, and each edge the
  sum checks that fall due when it is placed, as (x, [w...]) for an
  endpoint x whose last edge it is and x's neighbours w that are already
  final. A check bans the one colour sums[w] - sums[x], and a level's free
  colours are a bitmask, taken lowest first. The search keeps its own
  stack, so no graph meets Python's recursion limit. nodes_explored counts
  the colours each level visit tries in ascending order, banned ones
  included, by arithmetic: a visit that ends holding colour c adds c, one
  that runs out adds k, or 1 at the pinned root.

Both iterate the palette bound k upwards from max degree + 1, which is a
valid lower bound: a maximum-degree vertex and its incident edges are
pairwise constrained to distinct colours.

``solve_exact`` can share work between isomorphic graphs through a class
table that the caller owns and passes in (``conjecture_sweep`` makes a fresh
one per call). A graph is looked up by ``canonical_labelling``: colour
refinement from the degrees, then the least sorted edge list over every
labelling that keeps the refined cells in order. The first graph of a class
is searched as without the table, and its chi and witness are stored in
canonical labels; every later member gets that witness mapped back through
its own labelling, without a search. Isomorphic graphs have the same chi and
a relabelled witness stays valid, so no answer changes. A graph whose cells
allow more than MAX_LABELLINGS (6!) labellings gets no key and is always
searched, which keeps paths, cycles and large graphs off a factorial path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, permutations, product

import numpy as np

from .graph import Graph, connected_components
from .colouring import TotalColouring, is_valid


class EnumerationGuardError(ValueError):
    """Brute-force enumeration refused: the assignment space is too large."""


@dataclass
class SolveResult:
    chi_sum_total: int | None
    witness: TotalColouring | None
    nodes_explored: int
    exceeded_k_max: bool = False
    k_max: int | None = None

    def to_dict(self) -> dict:
        return {
            "chi": self.chi_sum_total,
            "nodes": self.nodes_explored,
            "exceeded_k_max": self.exceeded_k_max,
            "k_max": self.k_max,
        }


def _lower_bound(g: Graph) -> int:
    return g.max_degree + 1


def _neighbourhoods(g: Graph) -> tuple[list[list[int]], list[list[int]]]:
    """Each vertex's neighbours, ascending, and its aligned incident edge
    ids, as Python lists cut from g.incidences()."""
    far, ids, ends = g.incidences()
    far, ids, bounds = far.tolist(), ids.tolist(), [0, *ends.tolist()]
    cuts = list(zip(bounds, bounds[1:]))
    return [far[a:b] for a, b in cuts], [ids[a:b] for a, b in cuts]


def _brute_search_k(g: Graph, k: int, chunk: int = 1 << 16):
    """First (smallest-index) valid assignment with palette {1..k}, or None.

    Assignment index encodes colours in mixed radix k over the object order
    vertices 0..n-1 then edges by id. Returns (colouring | None, rows_examined).
    """
    n, m = g.n, g.m
    t = n + m
    total = k ** t
    eu, ev = g.edge_u, g.edge_v
    incident_pairs = []
    for inc in _neighbourhoods(g)[1]:
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                incident_pairs.append((inc[i], inc[j]))
    examined = 0
    powers = [k ** j for j in range(t)]
    lo = 0
    while lo < total:
        hi = min(lo + chunk, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        cols = np.empty((t, hi - lo), dtype=np.int64)
        for j in range(t):
            cols[j] = (idx // powers[j]) % k + 1
        vcols = cols[:n]
        ecols = cols[n:]
        ok = np.ones(hi - lo, dtype=bool)
        for eid in range(m):
            u, v = int(eu[eid]), int(ev[eid])
            ok &= vcols[u] != vcols[v]
            ok &= ecols[eid] != vcols[u]
            ok &= ecols[eid] != vcols[v]
        for a, b in incident_pairs:
            ok &= ecols[a] != ecols[b]
        if m:
            sums = vcols.copy()
            for eid in range(m):
                sums[int(eu[eid])] = sums[int(eu[eid])] + ecols[eid]
                sums[int(ev[eid])] = sums[int(ev[eid])] + ecols[eid]
            for eid in range(m):
                ok &= sums[int(eu[eid])] != sums[int(ev[eid])]
        examined += hi - lo
        hits = np.nonzero(ok)[0]
        if hits.size:
            col = int(hits[0])
            return TotalColouring(vcols[:, col], ecols[:, col], k), examined - (hi - lo) + col + 1
        lo = hi
    return None, examined


def brute_force_chi(g: Graph, k_max: int | None = None) -> SolveResult:
    """Oracle: smallest k admitting a valid colouring, by raw enumeration.

    k_max defaults to max_degree + 8 (bound target plus headroom). Guard:
    (n + m) * log2(k_max) must not exceed 40, keeping the assignment space
    within 2^40. Raises EnumerationGuardError otherwise.
    """
    if k_max is None:
        k_max = g.max_degree + 8
    t = g.n + g.m
    if k_max >= 2 and t * math.log2(k_max) > 40:
        raise EnumerationGuardError(
            f"{t} objects with k_max={k_max} exceeds the 2^40 enumeration guard"
        )
    if t == 0:
        return SolveResult(1, TotalColouring([], [], 1), 0)
    nodes = 0
    for k in range(_lower_bound(g), k_max + 1):
        witness, examined = _brute_search_k(g, k)
        nodes += examined
        if witness is not None:
            return SolveResult(k, witness, nodes)
    return SolveResult(None, None, nodes, exceeded_k_max=True, k_max=k_max)


# ---------------------------------------------------------------------------
# backtracking solver

def _component_plan(nbrs: list[list[int]], inc: list[list[int]],
                    comp: list[int]) -> list[tuple]:
    """The search levels of one component, built once for every palette.

    The objects are in BFS order: each vertex v, then its edges back to
    already-placed vertices u, sorted by u. A vertex level is
    (-1, v, v, before, False), where before lists v's neighbours placed
    earlier. An edge level is (edge id, u, v, checks, pair): checks holds
    (x, ws) for each endpoint x whose last edge this is, with ws the
    neighbours of x other than u and v whose sums are already final, and
    pair is True when this is the last edge of both u and v. nbrs and inc
    are the graph's _neighbourhoods.
    """
    placed: set[int] = set()
    plan: list[tuple] = []
    last = {}   # the level of each vertex's last edge
    for v in comp:
        before = [(u, eid) for u, eid in zip(nbrs[v], inc[v]) if u in placed]
        plan.append((-1, v, v, [u for u, _ in before], False))
        for u, eid in before:
            last[u] = last[v] = len(plan)
            plan.append((eid, u, v))
        placed.add(v)
    for i, (eid, u, v, *_) in enumerate(plan):
        if eid < 0:
            continue
        checks = []
        for x in (u, v):
            ws = [w for w in nbrs[x] if w != u and w != v and last[w] < i]
            if last[x] == i and ws:
                checks.append((x, ws))
        plan[i] = (eid, u, v, checks, last[u] == last[v] == i)
    return plan


def _solve_component(plan: list[tuple], k: int, vc: list[int],
                     ec: list[int], used: list[int],
                     sums: list[int]) -> tuple[bool, int]:
    """Colour one component with palette {1..k}: (success, nodes).

    Depth first over plan's levels on an explicit stack: free_at[i] holds
    the colours level i has still to try, bit_at[i] the one it holds.

    The other lists are indexed by vertex, or by edge id for ec, and shared
    by every component of the graph: vc[v] is v's colour, used[v] has bit c
    set when v or a placed edge at v has colour c, and sums[v] is v's colour
    plus its placed edges' colours. Placing a vertex assigns its entries and
    every read is of a placed vertex, so a failed search needs no cleanup.
    On success ec receives the component's edge colours.
    """
    full = (2 << k) - 2
    depth = len(plan)
    free_at, bit_at = [0] * depth, [0] * depth
    nodes = i = 0
    free = 2   # the component root is pinned to colour 1
    eid, u, v, extra, pair = plan[0]
    while True:
        if free:
            b = free & -free
            free_at[i], bit_at[i] = free ^ b, b
            c = b.bit_length() - 1
            if eid < 0:
                vc[v] = sums[v] = c
                used[v] = b
            else:
                used[u] |= b
                used[v] |= b
                sums[u] += c
                sums[v] += c
            i += 1
            if i == depth:
                break
            eid, u, v, extra, pair = plan[i]
            if eid < 0:
                banned = 0
                for w in extra:
                    banned |= 1 << vc[w]
            elif pair and sums[u] == sums[v]:
                banned = full   # the edge adds the same colour to both
            else:
                banned = used[u] | used[v]
                for x, ws in extra:
                    sx = sums[x]
                    for w in ws:
                        d = sums[w] - sx
                        if d > 0:
                            banned |= 1 << d
            free = full & ~banned
        else:
            nodes += k if i else 1
            i -= 1
            if i < 0:
                return False, nodes
            eid, u, v, extra, pair = plan[i]
            if eid >= 0:
                b = bit_at[i]
                c = b.bit_length() - 1
                used[u] ^= b
                used[v] ^= b
                sums[u] -= c
                sums[v] -= c
            free = free_at[i]
    for (eid, *_), b in zip(plan, bit_at):
        c = b.bit_length() - 1
        nodes += c
        if eid >= 0:
            ec[eid] = c
    return True, nodes


def _search(g: Graph, k_max: int) -> SolveResult:
    if g.n == 0:
        return SolveResult(1, TotalColouring([], [], 1), 0)
    vc, ec, used, sums = [0] * g.n, [0] * g.m, [0] * g.n, [0] * g.n
    nbrs, inc = _neighbourhoods(g)
    nodes, chi = 0, 1
    for comp in connected_components(g):
        plan = _component_plan(nbrs, inc, comp)
        comp_delta = max(len(nbrs[v]) for v in comp)
        for k in range(comp_delta + 1, k_max + 1):
            found, tried = _solve_component(plan, k, vc, ec, used, sums)
            nodes += tried
            if found:
                chi = max(chi, k)
                break
        else:
            return SolveResult(None, None, nodes, exceeded_k_max=True, k_max=k_max)
    return SolveResult(chi, TotalColouring(vc, ec, chi), nodes)


def solve_exact(g: Graph, k_max: int | None = None,
                classes: dict | None = None) -> SolveResult:
    """Minimum palette bound and a witness, by pruned backtracking.

    Components are solved independently (their optima are independent) and
    the answer is the maximum over components. nodes_explored counts every
    candidate colour placement tried across all components and k values.
    k_max defaults to max_degree + 8.

    classes is an optional class table owned by the caller, keyed by
    canonical form and k_max. When g's class is in it, g is not searched:
    the stored result is mapped through g's canonical labelling and
    returned with nodes_explored 0. Otherwise g is searched and the result
    is stored. A graph with no canonical key is always searched.
    """
    if k_max is None:
        k_max = g.max_degree + 8
    canon = canonical_labelling(g) if classes is not None and g.n else None
    if canon is None:
        return _search(g, k_max)
    key, labelling = canon
    vid = np.asarray(labelling, dtype=np.int64)
    eid = _canonical_edge_ids(g, vid)
    entry = classes.get((key, k_max))
    if entry is None:
        res = _search(g, k_max)
        cv = ce = None
        if res.witness is not None:
            cv = np.empty(g.n, dtype=np.int64)
            ce = np.empty(g.m, dtype=np.int64)
            cv[vid] = res.witness.vertex_colours
            ce[eid] = res.witness.edge_colours
        classes[key, k_max] = (res.chi_sum_total, cv, ce)
        return res
    chi, cv, ce = entry
    if chi is None:
        return SolveResult(None, None, 0, exceeded_k_max=True, k_max=k_max)
    return SolveResult(chi, TotalColouring(cv[vid], ce[eid], chi), 0)


# ---------------------------------------------------------------------------
# canonical form

# The most labellings canonical_labelling tries for one graph (6!).
MAX_LABELLINGS = 720


def canonical_labelling(g: Graph) -> tuple[tuple, list[int]] | None:
    """Canonical key of g's isomorphism class and a labelling reaching it.

    The vertex partition is refined from the degrees: each vertex's colour
    becomes the rank of (own colour, sorted neighbour colours) among all
    such pairs, until the number of cells stops growing. The ranks order the
    cells, and are invariant under relabelling. The key is (n, edges), where
    edges is the lexicographically least sorted (lo, hi) edge list over every
    labelling that maps the k-th cell onto the k-th block of labels. It is
    the edge list itself, not a hash, so equal keys mean isomorphic graphs.
    labelling[v] is v's canonical label; relabelling g's edges by it gives
    the key's edges. None when the cells allow more than MAX_LABELLINGS
    labellings.
    """
    n = g.n
    ends = list(zip(g.edge_u.tolist(), g.edge_v.tolist()))
    nbrs = _neighbourhoods(g)[0]
    colour = [len(row) for row in nbrs]
    cells = len(set(colour))
    while True:
        sig = [(colour[v], tuple(sorted(colour[w] for w in nbrs[v])))
               for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        colour = [rank[s] for s in sig]
        if len(rank) == cells:
            break
        cells = len(rank)
    members: list[list[int]] = [[] for _ in range(cells)]
    for v in range(n):
        members[colour[v]].append(v)
    if math.prod(math.factorial(len(cell)) for cell in members) > MAX_LABELLINGS:
        return None
    starts = list(accumulate((len(cell) for cell in members), initial=0))
    label = [0] * n
    best, best_label = None, label
    for choice in product(*(permutations(cell) for cell in members)):
        for start, cell in zip(starts, choice):
            for i, v in enumerate(cell):
                label[v] = start + i
        keys = sorted(a * n + b if a < b else b * n + a
                      for a, b in ((label[u], label[v]) for u, v in ends))
        if best is None or keys < best:
            best, best_label = keys, label.copy()
    return (n, tuple(divmod(x, n) for x in best)), best_label


def _canonical_edge_ids(g: Graph, vid: np.ndarray) -> np.ndarray:
    """Index of each edge of g in the canonical edge list of the labelling
    vid, which is sorted."""
    a, b = vid[g.edge_u], vid[g.edge_v]
    keys = np.minimum(a, b) * g.n + np.maximum(a, b)
    ids = np.empty(g.m, dtype=np.int64)
    ids[np.argsort(keys)] = np.arange(g.m)
    return ids


def conjecture_sweep(graphs, k_max_extra: int = 5) -> list[dict]:
    """Solve each graph and compare against the max-degree-plus-3 bound.

    graphs: iterable of (graph_id, Graph) pairs. Per-graph errors are recorded
    and the sweep continues. k_max per graph is max_degree + k_max_extra so a
    bound violation would still report the true value. Isomorphic graphs
    share one search through a class table that lives for this call only;
    every graph's witness is still verified on that graph.
    """
    rows: list[dict] = []
    classes: dict = {}
    for gid, g in graphs:
        bound = g.max_degree + 3
        row = {
            "graph_id": gid,
            "n": g.n,
            "m": g.m,
            "max_degree": g.max_degree,
            "chi_sum_total": None,
            "delta_plus_3": bound,
            "verdict": "",
            "nodes": 0,
        }
        try:
            res = solve_exact(g, g.max_degree + k_max_extra, classes=classes)
            row["nodes"] = res.nodes_explored
            if res.exceeded_k_max:
                row["verdict"] = f"unsolved<=+{k_max_extra}"
            else:
                row["chi_sum_total"] = res.chi_sum_total
                row["verdict"] = "pass" if res.chi_sum_total <= bound else "fail"
                if not is_valid(g, res.witness):
                    row["verdict"] = "error:invalid-witness"
        except Exception as exc:  # keep sweeping; record the failure
            row["verdict"] = f"error:{type(exc).__name__}"
        rows.append(row)
    return rows
