"""Reference copy of the exact solver's backtracking search as it was before
the per-vertex-list rewrite.

``_component_objects``, ``_solve_component`` and ``solve_exact`` below are
kept verbatim (only the imports differ) so that tests/test_exact.py can check
that nsdcolour.exact.solve_exact returns the same optima and witnesses, and
the same node counts on graphs where no palette from the lower bound up is
refuted. This search still pins each component root to colour 1, which the
package's search no longer does. ``connected_components`` is a frozen copy of
the package's, reading the frozen graph's adjacency lists, so the BFS order
the reference search walks does not follow the package. They are test
oracles, not part of the package.
"""

from __future__ import annotations

import numpy as np

from nsdcolour.colouring import TotalColouring
from nsdcolour.exact import SolveResult
from nsdcolour.graph import Graph


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each BFS-ordered from its
    smallest vertex of largest degree over ascending neighbour lists;
    components sorted by smallest vertex."""
    seen = [False] * g.n
    comps: list[list[int]] = []
    for root in sorted(range(g.n), key=lambda v: -len(g.adjacency[v])):
        if seen[root]:
            continue
        order = [root]
        seen[root] = True
        for v in order:   # order grows as it is read: the BFS queue
            for u in g.adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    order.append(u)
        comps.append(order)
    return sorted(comps, key=min)


def _component_objects(g: Graph, comp: list[int]):
    """BFS object list for one component: each vertex, then its edges back to
    already-placed vertices (sorted by the far endpoint)."""
    placed: set[int] = set()
    objects: list[tuple] = []
    for v in comp:
        objects.append(("v", v))
        for u in g.adjacency[v]:
            if u in placed:
                objects.append(("e", g.edge_id(u, v), u, v))
        placed.add(v)
    return objects


def _solve_component(g: Graph, comp: list[int], k: int, counter: list[int]):
    """Find one valid assignment of the component with palette {1..k}.

    Returns (vertex colour dict, edge colour dict) or None. counter[0]
    accumulates the number of candidate colour placements tried.
    """
    objects = _component_objects(g, comp)
    vc: dict[int, int] = {}
    ec: dict[int, int] = {}
    remaining = {v: g.degree(v) for v in comp}
    sums = {v: 0 for v in comp}
    final = {v: False for v in comp}
    edge_mask = {v: 0 for v in comp}  # bit c set: an incident edge uses colour c
    adjacency = g.adjacency
    root = comp[0]

    def place(idx: int) -> bool:
        if idx == len(objects):
            return True
        obj = objects[idx]
        if obj[0] == "v":
            v = obj[1]
            top = 1 if v == root else k
            for c in range(1, top + 1):
                counter[0] += 1
                clash = False
                for u in adjacency[v]:
                    if vc.get(u) == c:
                        clash = True
                        break
                if clash:
                    continue
                vc[v] = c
                sums[v] += c
                was_final = False
                if remaining[v] == 0:
                    # isolated within its component only if the component is a
                    # single vertex; sums are final immediately, no neighbours
                    final[v] = True
                    was_final = True
                if place(idx + 1):
                    return True
                if was_final:
                    final[v] = False
                sums[v] -= c
                del vc[v]
            return False
        _, eid, u, v = obj
        bit_banned = edge_mask[u] | edge_mask[v]
        cu, cv = vc[u], vc[v]
        for c in range(1, k + 1):
            if c == cu or c == cv or (bit_banned >> c) & 1:
                counter[0] += 1
                continue
            counter[0] += 1
            ec[eid] = c
            edge_mask[u] |= 1 << c
            edge_mask[v] |= 1 << c
            sums[u] += c
            sums[v] += c
            remaining[u] -= 1
            remaining[v] -= 1
            newly = []
            pruned = False
            for x in (u, v):
                if remaining[x] == 0:
                    final[x] = True
                    newly.append(x)
            for x in newly:
                for w in adjacency[x]:
                    if final.get(w) and sums[w] == sums[x] and w != x:
                        pruned = True
                        break
                if pruned:
                    break
            if not pruned and place(idx + 1):
                return True
            for x in newly:
                final[x] = False
            remaining[u] += 1
            remaining[v] += 1
            sums[u] -= c
            sums[v] -= c
            edge_mask[u] &= ~(1 << c)
            edge_mask[v] &= ~(1 << c)
            del ec[eid]
        return False

    if place(0):
        return dict(vc), dict(ec)
    return None


def solve_exact(g: Graph, k_max: int | None = None) -> SolveResult:
    """Minimum palette bound and a witness, by pruned backtracking.

    Components are solved independently (their optima are independent) and
    the answer is the maximum over components. nodes_explored counts every
    candidate colour placement tried across all components and k values.
    k_max defaults to max_degree + 8.
    """
    if k_max is None:
        k_max = g.max_degree + 8
    counter = [0]
    if g.n == 0:
        return SolveResult(1, TotalColouring([], [], 1), 0)
    vc_all = np.zeros(g.n, dtype=np.int64)
    ec_all = np.zeros(g.m, dtype=np.int64)
    chi = 1
    for comp in connected_components(g):
        comp_delta = max(g.degree(v) for v in comp)
        found = None
        for k in range(comp_delta + 1, k_max + 1):
            found = _solve_component(g, comp, k, counter)
            if found is not None:
                chi = max(chi, k)
                break
        if found is None:
            return SolveResult(None, None, counter[0], exceeded_k_max=True, k_max=k_max)
        vcs, ecs = found
        for v, c in vcs.items():
            vc_all[v] = c
        for eid, c in ecs.items():
            ec_all[eid] = c
    witness = TotalColouring(vc_all, ec_all, chi)
    return SolveResult(chi, witness, counter[0])
