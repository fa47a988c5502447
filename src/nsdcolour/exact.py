"""Exact minimum palette computation for sum-distinguishing total colourings.

``solve_exact`` runs a backtracking search per connected component with a
BFS object ordering from the component's smallest vertex of largest degree
(each vertex immediately before its edges back to already-visited
vertices), properness pruning, and a sum prune once both endpoint sums are
final. The prunes drop only colours that no valid colouring can use there,
and every level, the root's included, tries the whole palette, so a palette
the search refutes has no valid colouring. The palette k rises from each
component's ``_lower_bound`` (two proved bounds above max degree + 1), so
each chi is proved: the bound, or the first palette after the search
refuted every one from the bound up, with a witness. Each k is searched
afresh; the bound and the root change only nodes_explored and the witness.

The order is fixed, so each component gets a plan once, for every k: each
vertex carries its neighbours placed before it, and each edge the sum
checks that fall due when it is placed, as (x, [w...]) for an endpoint x
whose last edge it is and x's neighbours w that are already final. A check
bans the one colour sums[w] - sums[x], and a level's free colours are a
bitmask, taken lowest first. The search keeps its own stack, so no graph
meets Python's recursion limit. nodes_explored counts the colours each
level visit tries in ascending order, banned ones included, by arithmetic:
a visit that ends holding colour c adds c, and one that runs out adds k.

``solve_exact`` can share work between isomorphic graphs through a class
table that the caller owns and passes in (``conjecture_sweep`` makes a fresh
one per call). A graph's class is read from the orbit table of its vertex
count, built on first use, which gives each edge mask its orbit's largest
mask (the least sorted edge list) and a labelling onto it. The first graph
of a class is searched as without the table, and its chi and witness are
stored in canonical labels; every later member gets that witness mapped
back through its own labelling, without a search. Isomorphic graphs have the
same chi and a relabelled witness stays valid, so no answer changes. A graph
on more than 6 vertices (more than 6! labellings) gets no orbit table and is
always searched, which keeps large graphs off a factorial path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations

import numpy as np

from . import graph
from .graph import Graph, connected_components
from .colouring import TotalColouring, _check_shapes, check_nsd, check_proper


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


def _neighbourhoods(g: Graph) -> tuple[list[list[int]], list[list[int]]]:
    """Each vertex's neighbours, ascending, and its aligned incident edge
    ids, as Python lists cut from g.incidences()."""
    far, ids, ends = g.incidences()
    far, ids, bounds = far.tolist(), ids.tolist(), [0, *ends.tolist()]
    cuts = list(zip(bounds, bounds[1:]))
    return [far[a:b] for a, b in cuts], [ids[a:b] for a, b in cuts]


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
    free, nodes, i = full, 0, 0
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
            nodes += k
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


def _lower_bound(nbrs: list[list[int]], comp: list[int]) -> int:
    """A proved lower bound on the palette of one connected component.

    With D the component's maximum degree, it is D + 3 for a clique on an
    odd number n >= 3 of vertices, D + 2 when two adjacent vertices both
    have degree D, and D + 1 otherwise (a degree-D vertex and its D edges
    need distinct colours).

    * Adjacent degree-D vertices rule out k = D + 1. A degree-D vertex and
      its D edges carry D + 1 distinct colours, so with k = D + 1 they carry
      every colour and its sum is (D + 1)(D + 2) / 2. Two adjacent degree-D
      vertices would tie.
    * An odd clique K_n, n >= 3, rules out k = D + 2 = n + 1 as well. Each
      vertex sees n of the n + 1 colours, so its sum is the total less the
      one colour it misses, and the n missed colours are distinct. So one
      colour c0 is missed by no vertex and every other colour c by exactly
      one vertex x_c. If some vertex y had colour c != c0, then y != x_c
      (x_c does not see c), and the edges of colour c, which avoid x_c and
      y, would perfectly match the other n - 2 vertices, an odd number.
      So every vertex has colour c0, which is impossible since they are
      pairwise adjacent.

    K1 is no odd clique here: it has no edges, and its palette is 1.
    """
    delta = max(len(nbrs[v]) for v in comp)
    n = len(comp)
    if n >= 3 and n % 2 and all(len(nbrs[v]) == n - 1 for v in comp):
        return delta + 3
    if any(len(nbrs[u]) == delta for v in comp if len(nbrs[v]) == delta
           for u in nbrs[v]):
        return delta + 2
    return delta + 1


def _search(g: Graph, k_max: int) -> SolveResult:
    vc, ec, used, sums = [0] * g.n, [0] * g.m, [0] * g.n, [0] * g.n
    nbrs, inc = _neighbourhoods(g)
    nodes, chi = 0, 1
    for comp in connected_components(g):
        plan = _component_plan(nbrs, inc, comp)
        for k in range(_lower_bound(nbrs, comp), k_max + 1):
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
    candidate colour placement tried across all components and every k
    searched, which starts at each component's _lower_bound.
    k_max defaults to max_degree + 8.

    classes is an optional class table owned by the caller, keyed by n, the
    canonical mask of g's class (see _orbit_table) and k_max. When g's class
    is in it, g is not searched: the stored result is mapped through g's
    labelling onto that mask and returned with nodes_explored 0. Otherwise g
    is searched and the result is stored. A graph on more than 6 vertices is
    always searched.
    """
    if k_max is None:
        k_max = g.max_degree + 8
    if classes is None or not 0 < g.n <= 6:
        return _search(g, k_max)
    mask, vid = _orbit(g)
    a, b = vid[g.edge_u], vid[g.edge_v]
    entry = classes.get((g.n, mask, k_max))
    if entry is None:
        res = _search(g, k_max)
        cv = ce = None
        if res.witness is not None:
            cv = res.witness.vertex_colours[np.argsort(vid)]
            ce = np.zeros((g.n, g.n), dtype=np.int64)
            ce[a, b] = ce[b, a] = res.witness.edge_colours
        classes[g.n, mask, k_max] = (res.chi_sum_total, cv, ce)
        return res
    chi, cv, ce = entry
    if chi is None:
        return SolveResult(None, None, 0, exceeded_k_max=True, k_max=k_max)
    # fresh arrays, checked against chi with every witness of a sweep
    witness = TotalColouring.__new__(TotalColouring)._adopt(cv[vid], ce[a, b], chi)
    return SolveResult(chi, witness, 0)


# ---------------------------------------------------------------------------
# canonical form

@cache
def _orbit_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (n, n) weights of the pairs, {i, j} weighing 1 << (C(n, 2) - 1 -
    its lexicographic rank), and for each edge mask (a sum of weights) its
    orbit's largest mask and a labelling onto that. Each pass takes the
    least mask not yet seen, applies all n! labellings p to it and records
    every image p(mask) with the labelling q after p's inverse, q(mask) the
    largest image."""
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    lo, hi = np.triu_indices(n, 1)
    weight = np.zeros((n, n), dtype=np.int64)
    weight[lo, hi] = weight[hi, lo] = 1 << np.arange(lo.size)[::-1]
    canon = np.full(1 << lo.size, -1, dtype=np.int64)
    labelling = np.empty((canon.size, n), dtype=np.int64)
    while canon[mask := int(canon.argmin())] < 0:
        has = (mask & weight[lo, hi]) != 0
        images = weight[perms[:, lo[has]], perms[:, hi[has]]].sum(1)
        members, first = np.unique(images, return_index=True)
        canon[members] = members[-1]
        labelling[members] = perms[first[-1]][np.argsort(perms[first], axis=1)]
    for arr in (weight, canon, labelling):
        arr.flags.writeable = False
    return weight, canon, labelling


def _orbit(g: Graph) -> tuple[int, np.ndarray]:
    """The canonical mask of g's class (n <= 6) and a labelling onto it."""
    weight, canon, labelling = _orbit_table(g.n)
    mask = int(weight[g.edge_u, g.edge_v].sum())
    return int(canon[mask]), labelling[mask]


def _flag_invalid_witnesses(block: list[tuple]) -> None:
    """Mark the row of each (row, graph, witness) in block whose witness
    fails on its graph, then empty block. A witness fails with a colour out
    of 1..its own k, or a violation from one check_proper and one check_nsd
    on the disjoint union, coloured with each colour clamped into its own
    range (which moves only failing witnesses). Its edge ids are the graphs'
    in turn, as each graph's keys are sorted and shifts rise."""
    rows, graphs, ws = zip(*block)
    ns, ms, ks = zip(*[(g.n, g.m, w.k) for g, w in zip(graphs, ws)])
    offsets = np.cumsum((0, *ns))
    shift = np.repeat(offsets[:-1], ms)
    union = Graph(int(offsets[-1]), np.stack(
        [np.concatenate([g.edge_u for g in graphs]) + shift,
         np.concatenate([g.edge_v for g in graphs]) + shift], axis=1))
    vc = np.concatenate([w.vertex_colours for w in ws])
    ec = np.concatenate([w.edge_colours for w in ws])
    colouring = TotalColouring.__new__(TotalColouring)._adopt(
        np.clip(vc, 1, np.repeat(ks, ns)), np.clip(ec, 1, np.repeat(ks, ms)),
        max(ks))
    firsts = [v.witnesses[0] for v in check_proper(union, colouring)
              + check_nsd(union, colouring)]
    vertices = [x if isinstance(x, int) else x[0] for x in firsts]
    vertices += np.flatnonzero(colouring.vertex_colours != vc).tolist()
    vertices += union.edge_u[colouring.edge_colours != ec].tolist()
    for i in (np.searchsorted(offsets, vertices, side="right") - 1).tolist():
        rows[i]["verdict"] = "error:invalid-witness"
    block.clear()


def conjecture_sweep(graphs, k_max_extra: int = 5) -> list[dict]:
    """Solve each graph and compare against the max-degree-plus-3 bound.

    graphs: iterable of (graph_id, Graph) pairs. Per-graph errors are recorded
    and the sweep continues. k_max per graph is max_degree + k_max_extra so a
    bound violation would still report the true value. Isomorphic graphs
    share one search through a class table that lives for this call only;
    every witness is verified on its graph, one verifier pass per block of
    rows whose union fits in a Graph and in 2^16 vertices.
    """
    rows: list[dict] = []
    classes: dict = {}
    block: list[tuple[dict, Graph, TotalColouring]] = []
    size, limit = 0, min(1 << 16, graph.MAX_VERTICES)   # 2^16 caps a pass's memory
    for gid, g in graphs:
        if block and size + g.n > limit:
            _flag_invalid_witnesses(block)
            size = 0
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
                _check_shapes(g, res.witness)
                block.append((row, g, res.witness))
                size += g.n
        except Exception as exc:  # keep sweeping; record the failure
            row["verdict"] = f"error:{type(exc).__name__}"
        rows.append(row)
    if block:
        _flag_invalid_witnesses(block)
    return rows
