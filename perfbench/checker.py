"""Independent checker for NSD total colourings, in plain Python.

Nothing here imports nsdcolour: the graph and colouring text formats are
parsed again, and properness and sum distinctness are recomputed from the
edge list, so a fault in the program's own verifier cannot hide a fault in
its colourings.

Vertices are 0-based and an edge is a tuple (u, v) with u < v, as in the
program's violation reports. A violation is a hashable tuple:

    ("vertex-vertex", (u, v))            adjacent vertices share a colour
    ("vertex-edge", (x, (u, v)))         edge colour equals endpoint x's colour
    ("edge-edge", ((a, b), (c, d)))      incident edges share a colour
    ("sum-conflict", (u, v))             adjacent weighted degrees are equal
"""

from __future__ import annotations

import itertools
from collections import Counter


class CheckError(ValueError):
    """Input the checker cannot read, or a colouring that is not total."""


def parse_graph_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Read the ``p edge n m`` / ``e u v`` format (1-based) into (n, edges)."""
    n = None
    edges = set()
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            n = int(parts[2])
        elif parts[0] == "e":
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
            edges.add((u, v) if u < v else (v, u))
        else:
            raise CheckError(f"unexpected graph line {raw!r}")
    if n is None:
        raise CheckError("graph text has no p line")
    return n, sorted(edges)


def parse_colouring_text(text: str, n: int, edges: list[tuple[int, int]]
                         ) -> tuple[int, list[int], list[int]]:
    """Read ``k`` / ``v x c`` / ``e u v c`` lines into (k, vertex, edge colours).

    Every vertex and edge must be coloured exactly once, from {1..k}.
    """
    index = {e: i for i, e in enumerate(edges)}
    k = None
    vc: list[int | None] = [None] * n
    ec: list[int | None] = [None] * len(edges)
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "k":
            k = int(parts[1])
        elif parts[0] == "v":
            v = int(parts[1]) - 1
            if vc[v] is not None:
                raise CheckError(f"vertex {v} coloured twice")
            vc[v] = int(parts[2])
        elif parts[0] == "e":
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
            i = index.get((u, v) if u < v else (v, u))
            if i is None:
                raise CheckError(f"no edge ({u}, {v}) in graph")
            if ec[i] is not None:
                raise CheckError(f"edge {edges[i]} coloured twice")
            ec[i] = int(parts[3])
        else:
            raise CheckError(f"unexpected colouring line {raw!r}")
    if k is None or None in vc or None in ec:
        raise CheckError("colouring is not total or has no k line")
    if any(not 1 <= c <= k for c in itertools.chain(vc, ec)):
        raise CheckError(f"colour outside 1..{k}")
    return k, vc, ec


def write_colouring_text(k: int, vc: list[int], edges: list[tuple[int, int]],
                         ec: list[int]) -> str:
    lines = [f"k {k}"]
    lines += [f"v {v + 1} {c}" for v, c in enumerate(vc)]
    lines += [f"e {u + 1} {v + 1} {c}" for (u, v), c in zip(edges, ec)]
    return "\n".join(lines) + "\n"


def max_degree(n: int, edges: list[tuple[int, int]]) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg, default=0)


def violations(n: int, edges: list[tuple[int, int]], vc: list[int],
               ec: list[int]) -> Counter:
    """Every properness and sum violation, each offending pair once."""
    found: Counter = Counter()
    sums = list(vc)
    at_vertex: list[dict[int, list[tuple[int, int]]]] = [{} for _ in range(n)]
    for (u, v), c in zip(edges, ec):
        sums[u] += c
        sums[v] += c
        if vc[u] == vc[v]:
            found[("vertex-vertex", (u, v))] += 1
        for x in (u, v):
            if c == vc[x]:
                found[("vertex-edge", (x, (u, v)))] += 1
            at_vertex[x].setdefault(c, []).append((u, v))
    for groups in at_vertex:
        for group in groups.values():
            for a, b in itertools.combinations(sorted(group), 2):
                found[("edge-edge", (a, b))] += 1
    for u, v in edges:
        if sums[u] == sums[v]:
            found[("sum-conflict", (u, v))] += 1
    return found


def _as_tuple(x):
    return tuple(_as_tuple(y) for y in x) if isinstance(x, list) else x


def violation_from_report(d: dict) -> tuple:
    """Canonical tuple for one violation as ``nsdcolour verify`` prints it."""
    w = _as_tuple(d["witnesses"])
    if d["kind"] == "edge-edge":
        w = tuple(sorted(w))
    return d["kind"], w


def canonical_form(n: int, edges: list[tuple[int, int]]) -> tuple:
    """Isomorphism invariant by brute force over all n! relabellings."""
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v]))
                           for u, v in edges))
        if best is None or key < best:
            best = key
    return n, best
