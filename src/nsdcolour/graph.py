"""Simple undirected graphs: construction, DIMACS-like file I/O, generators.

Vertices are dense 0-based integers in memory; files use 1-based ids.
Graphs are immutable once built and cache the numpy views the rest of the
package leans on (edge endpoint arrays, degrees).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

import numpy as np


class GraphError(ValueError):
    """Invalid graph structure (self-loop, endpoint out of range, ...)."""


class GraphParseError(GraphError):
    """Malformed graph file."""


class GenerationError(GraphError):
    """A generator could not produce a graph for the requested parameters."""


class Graph:
    """Immutable simple undirected graph.

    Edges are stored sorted lexicographically with u < v; parallel edges in
    the input collapse silently, self-loops raise. The edge id of an edge is
    its index in ``edges``, which every colouring in this package aligns to.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        seen = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            seen.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))
        self.m = len(self.edges)

        # every edge (w, x) with w < x precedes every edge (x, y) in
        # lexicographic order, so appending yields sorted neighbour lists
        adj: list[list[int]] = [[] for _ in range(n)]
        inc: list[list[int]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append(v)
            adj[v].append(u)
            inc[u].append(eid)
            inc[v].append(eid)
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))
        self._incident: tuple[tuple[int, ...], ...] = tuple(map(tuple, inc))

        if self.m:
            earr = np.array(self.edges, dtype=np.int64)
        else:
            earr = np.zeros((0, 2), dtype=np.int64)
        self.edge_u = earr[:, 0].copy()
        self.edge_v = earr[:, 1].copy()
        self.degrees = np.zeros(n, dtype=np.int64)
        np.add.at(self.degrees, self.edge_u, 1)
        np.add.at(self.degrees, self.edge_v, 1)
        self.max_degree = int(self.degrees.max()) if n else 0
        for arr in (self.edge_u, self.edge_v, self.degrees):
            arr.flags.writeable = False
        self._edge_index: dict[tuple[int, int], int] | None = None

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Edge ids incident to v, ordered by the neighbour at the far end."""
        return self._incident[v]

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    def edge_id(self, u: int, v: int) -> int:
        if self._edge_index is None:
            self._edge_index = {e: i for i, e in enumerate(self.edges)}
        key = (u, v) if u < v else (v, u)
        try:
            return self._edge_index[key]
        except KeyError:
            raise GraphError(f"no edge ({u}, {v}) in graph") from None

    def has_edge(self, u: int, v: int) -> bool:
        if self._edge_index is None:
            self._edge_index = {e: i for i, e in enumerate(self.edges)}
        return ((u, v) if u < v else (v, u)) in self._edge_index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __reduce__(self):
        return (Graph, (self.n, list(self.edges)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def parse_graph(text: str) -> Graph:
    """Parse the DIMACS-like format: ``p edge <n> <m>`` then ``e <u> <v>`` lines.

    Comment lines start with ``c``; blank lines are skipped. Vertex ids in the
    file are 1-based and are shifted down. Duplicate edge lines collapse; the
    declared m is not cross-checked against the line count (sloppy corpora),
    but unknown line types are an error.
    """
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphParseError(f"line {lineno}: second problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphParseError(f"line {lineno}: malformed problem line {line!r}")
            try:
                n = int(parts[2])
                declared_m = int(parts[3])
            except ValueError:
                raise GraphParseError(f"line {lineno}: non-integer sizes in {line!r}") from None
            if n < 0 or declared_m < 0:
                raise GraphParseError(f"line {lineno}: negative size in {line!r}")
        elif parts[0] == "e":
            if n is None:
                raise GraphParseError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphParseError(f"line {lineno}: malformed edge line {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphParseError(f"line {lineno}: non-integer endpoint in {line!r}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(f"line {lineno}: endpoint out of range in {line!r}")
            if u == v:
                raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
            edges.append((u - 1, v - 1))
        else:
            raise GraphParseError(f"line {lineno}: unknown line type {parts[0]!r}")
    if n is None:
        raise GraphParseError("missing problem line")
    return Graph(n, edges)


def write_graph(g: Graph) -> str:
    """Serialize to the same format; edges come out sorted, 1-based."""
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(path, g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_graph(g))


# ---------------------------------------------------------------------------
# generators

def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GenerationError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GenerationError("path needs at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a given seed."""
    if n < 0:
        raise GenerationError("n must be non-negative")
    if not (0.0 <= p <= 1.0):
        raise GenerationError(f"p={p} outside [0, 1]")
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    for u in range(n - 1):
        hits = np.nonzero(rng.random(n - u - 1) < p)[0]
        edges.extend((u, int(u + 1 + w)) for w in hits)
    return Graph(n, edges)


def regular_graph(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph via the pairing model, retried until simple."""
    if d < 0 or n < 0:
        raise GenerationError("n and d must be non-negative")
    if d >= n and not (n == 0 and d == 0):
        raise GenerationError(f"degree {d} impossible with {n} vertices")
    if (n * d) % 2 != 0:
        raise GenerationError(f"n*d = {n * d} is odd, no {d}-regular graph on {n} vertices")
    if d == 0:
        return Graph(n, [])
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for _ in range(200):
        perm = rng.permutation(stubs)
        us, vs = perm[0::2], perm[1::2]
        if np.any(us == vs):
            continue
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        keys = lo * n + hi
        if len(np.unique(keys)) != len(keys):
            continue
        return Graph(n, list(zip(lo.tolist(), hi.tolist())))
    raise GenerationError(
        f"pairing model failed to produce a simple {d}-regular graph in 200 tries"
    )


def generate(kind: str, *, n: int, p: float | None = None, d: int | None = None,
             seed: int | None = None) -> Graph:
    """Dispatch on generator kind: complete | cycle | path | random | regular."""
    if kind == "complete":
        return complete_graph(n)
    if kind == "cycle":
        return cycle_graph(n)
    if kind == "path":
        return path_graph(n)
    if kind == "random":
        if p is None or seed is None:
            raise GenerationError("random graphs need p and seed")
        return random_graph(n, p, seed)
    if kind == "regular":
        if d is None or seed is None:
            raise GenerationError("regular graphs need d and seed")
        return regular_graph(n, d, seed)
    raise GenerationError(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# enumeration and components

def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each BFS-ordered from its
    smallest vertex; components sorted by smallest vertex."""
    seen = [False] * g.n
    comps: list[list[int]] = []
    for root in range(g.n):
        if seen[root]:
            continue
        order = [root]
        seen[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for u in g.adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    order.append(u)
                    q.append(u)
        comps.append(order)
    return comps


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return len(connected_components(g)[0]) == g.n


def enumerate_labelled_graphs(n: int, max_edges: int | None = None) -> Iterator[Graph]:
    """All labelled graphs on n vertices with at most max_edges edges, in
    edge-subset bitmask order (deterministic)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if max_edges is not None and len(chosen) > max_edges:
            continue
        yield Graph(n, chosen)


def enumerate_connected_graphs(max_n: int) -> Iterator[tuple[str, Graph]]:
    """All connected labelled graphs on 1..max_n vertices with stable ids."""
    for n in range(1, max_n + 1):
        idx = 0
        for g in enumerate_labelled_graphs(n):
            if is_connected(g):
                yield f"conn-n{n}-{idx}", g
                idx += 1
