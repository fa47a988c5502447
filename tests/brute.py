"""Brute-force oracles for the exact solver and the graph enumerator.

Deliberately naive, and sharing no search code with ``nsdcolour.exact``
beyond its ``SolveResult`` type, so that the two cross-validate:

* ``brute_force_chi`` enumerates every assignment of colours to the n + m
  objects in lexicographic order, evaluating all constraints per candidate
  (vectorized in chunks), and iterates the palette bound k upwards from
  max degree + 1, a valid lower bound: a maximum-degree vertex and its
  incident edges are pairwise constrained to distinct colours.
* ``enumerate_labelled_graphs`` builds every labelled graph on n vertices
  through the checked ``Graph`` constructor, one edge subset at a time.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from nsdcolour import Graph, TotalColouring
from nsdcolour.exact import SolveResult


class EnumerationGuardError(ValueError):
    """Brute-force enumeration refused: the assignment space is too large."""


def _brute_search_k(g: Graph, k: int, chunk: int = 1 << 16):
    """First (smallest-index) valid assignment with palette {1..k}, or None.

    Assignment index encodes colours in mixed radix k over the object order
    vertices 0..n-1 then edges by id. Returns (colouring | None, rows_examined).
    """
    n, m = g.n, g.m
    t = n + m
    total = k ** t
    eu, ev = g.edge_u, g.edge_v
    _, ids, ends = g.incidences()
    incident_pairs = []
    for a, b in zip([0, *ends.tolist()], ends.tolist()):
        inc = ids[a:b].tolist()
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
    for k in range(g.max_degree + 1, k_max + 1):
        witness, examined = _brute_search_k(g, k)
        nodes += examined
        if witness is not None:
            return SolveResult(k, witness, nodes)
    return SolveResult(None, None, nodes, exceeded_k_max=True, k_max=k_max)


def enumerate_labelled_graphs(n: int, max_edges: int | None = None) -> Iterator[Graph]:
    """All labelled graphs on n vertices with at most max_edges edges, in
    edge-subset bitmask order (deterministic)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if max_edges is not None and len(chosen) > max_edges:
            continue
        yield Graph(n, chosen)
