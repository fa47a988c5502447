"""Simple undirected graphs: construction, DIMACS-like file I/O, generators.

Vertices are dense 0-based integers in memory; files use 1-based ids.
Graphs are immutable once built. They hold their edges as numpy arrays
(sorted edge keys, endpoint arrays, degrees). Every neighbourhood is read
through ``Graph.incidences``: runs of one stable argsort of the doubled edge
list, each vertex's neighbours aligned with its incident edge ids.
"""

from __future__ import annotations

import re
from collections import deque
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

# The most vertices a graph may declare. Arrays are allocated per vertex, so
# an unchecked count in a tiny file would be an unbounded allocation; 10^7
# still admits K_{2,Δ} at the Δ where the strict lemma first becomes feasible.
MAX_VERTICES = 10 ** 7

# doubles per draw of random_graph's stream
_DRAW_BLOCK = 1 << 16


class GraphError(ValueError):
    """Invalid graph structure (self-loop, endpoint out of range, ...)."""


class GraphParseError(GraphError):
    """Malformed graph file."""


class GenerationError(GraphError):
    """A generator could not produce a graph for the requested parameters."""


def _check_vertex_count(n: int) -> None:
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def _ordered_ends(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """The pairs' smaller and larger endpoints as int64 arrays. A bad pair
    raises, the first one in input order, with the pair-by-pair message."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        arr = np.asarray(edges, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        arr = None          # endpoints past int64, or not pairs of integers
    if arr is not None and arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr is not None and arr.ndim == 2 and arr.shape[1] == 2:
        lo, hi = np.minimum(arr[:, 0], arr[:, 1]), np.maximum(arr[:, 0], arr[:, 1])
        if not lo.size or (lo.min() >= 0 and hi.max() < n and (lo < hi).all()):
            return lo, hi
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
    raise GraphError("edge endpoints must be integers")


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique(values) for int64 values: a sort and a mask, many times
    faster than np.unique on numpy 2.4."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


class Graph:
    """Immutable simple undirected graph.

    ``edges`` is pairs or an (m, 2) integer array. Edges are stored sorted
    lexicographically with u < v, as the keys ``u*n + v``; parallel edges
    in the input collapse silently, self-loops raise. The edge id of an edge
    is its index in ``edges``, which every colouring in this package aligns
    to.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        _check_vertex_count(n)
        lo, hi = _ordered_ends(n, edges)
        self.n = n
        # n <= MAX_VERTICES keeps every key below 2^63
        self._keys = sorted_unique(lo * n + hi)
        self.m = len(self._keys)
        self.edge_u, self.edge_v = np.divmod(self._keys, max(n, 1))
        self.degrees = self.endpoint_counts(slice(None))
        self.max_degree = int(self.degrees.max()) if n else 0
        for arr in (self._keys, self.edge_u, self.edge_v, self.degrees):
            arr.flags.writeable = False

    def endpoint_counts(self, edges) -> np.ndarray:
        """How many of the edges (an edge mask, edge ids or a slice) meet
        each vertex, as int64."""
        ends = np.concatenate([self.edge_u[edges], self.edge_v[edges]])
        return np.bincount(ends, minlength=self.n).astype(np.int64, copy=False)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.edge_u.tolist(), self.edge_v.tolist()))

    @cached_property
    def _vertex_order(self) -> np.ndarray:
        # In the doubled list [edge_v, edge_u] a vertex x first meets its
        # edges (w, x), w < x, then its edges (x, y), each run in edge-id
        # order; every (w, x) precedes every (x, y) in edge-id order. So a
        # stable sort by vertex lists each vertex's neighbours and incident
        # edge ids ascending, aligned.
        return np.argsort(np.concatenate([self.edge_v, self.edge_u]),
                          kind="stable")

    def incidences(self, verts=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The neighbours and incident edge ids of each of verts (every
        vertex by default), one run per vertex in the order of verts, each
        run ascending by neighbour and aligned with its edge ids; and where
        each run ends. The runs are slices of _vertex_order."""
        if verts is None:
            at = self._vertex_order
            ends = np.cumsum(self.degrees)
        else:
            verts = np.asarray(verts, dtype=np.int64)
            deg = self.degrees[verts]
            ends = np.cumsum(deg)
            first = np.cumsum(self.degrees) - self.degrees
            pos = (np.repeat(first[verts] - (ends - deg), deg)
                   + np.arange(int(ends[-1]) if ends.size else 0))
            at = self._vertex_order[pos]
        ids = at % max(self.m, 1)
        # at < m is an edge (w, x) met at its larger end x, so w is the far end
        far = np.where(at < self.m, self.edge_u[ids], self.edge_v[ids])
        return far, ids, ends

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    def find_edges(self, us, vs) -> np.ndarray:
        """Edge ids of the pairs (us[i], vs[i]), -1 where there is no edge."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        n = self.n
        real = (us >= 0) & (us < n) & (vs >= 0) & (vs < n) & (us != vs)
        keys = np.where(real, np.minimum(us, vs) * n + np.maximum(us, vs), -1)
        ids = np.searchsorted(self._keys, keys)
        found = real & (ids < self.m)
        found[found] = self._keys[ids[found]] == keys[found]
        return np.where(found, ids, -1)

    def _edge_index(self, u: int, v: int) -> int:
        # one scalar search: a tenth of the cost of find_edges on 1-element
        # arrays, and the colouring line parser makes one per edge line
        if not (0 <= u < self.n and 0 <= v < self.n):
            return -1
        key = min(u, v) * self.n + max(u, v)
        i = int(self._keys.searchsorted(key))
        return i if i < self.m and self._keys[i] == key else -1

    def edge_id(self, u: int, v: int) -> int:
        eid = self._edge_index(u, v)
        if eid < 0:
            raise GraphError(f"no edge ({u}, {v}) in graph")
        return eid

    def has_edge(self, u: int, v: int) -> bool:
        return self._edge_index(u, v) >= 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self._keys, other._keys)
        )

    def __hash__(self) -> int:
        return hash((self.n, self._keys.tobytes()))

    def __reduce__(self):
        return (Graph, (self.n, np.stack([self.edge_u, self.edge_v], axis=1)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# A graph file as write_graph writes it: the problem line, then bare
# "e <u> <v>" lines. At most 18 digits keeps every number inside int64.
_GRAPH_HEADER = re.compile(r"p edge ([0-9]{1,18}) [0-9]{1,18}\n")
_ODD_EDGE_LINE = re.compile(r"^(?!e [0-9]{1,18} [0-9]{1,18}$)", re.M)


def int_rows(text: str, start: int, end: int, odd_line: re.Pattern,
             width: int) -> np.ndarray | None:
    """The lines text[start:end], each a letter and then ``width`` unsigned
    integers and each ending in a newline, as a (lines, width) int64 array;
    None if ``odd_line`` finds a line of another shape.

    odd_line is a lookahead at a line start, not a pattern repeated over
    the lines, because a repeated group makes the regex engine keep state
    for every line it has passed.
    """
    if start >= end:
        return np.zeros((0, width), dtype=np.int64)
    if odd_line.search(text, start, end - 1):
        return None
    lines = text[start:end]
    flat = np.fromstring(lines.replace(lines[0], " "), dtype=np.int64, sep=" ")
    return flat.reshape(-1, width)


def parse_graph(text: str) -> Graph:
    """Parse the DIMACS-like format: ``p edge <n> <m>`` then ``e <u> <v>`` lines.

    Comment lines start with ``c``; blank lines are skipped. Vertex ids in the
    file are 1-based and are shifted down. Duplicate edge lines collapse; the
    declared m is not cross-checked against the line count (sloppy corpora),
    but unknown line types are an error. A problem line may declare at most
    MAX_VERTICES vertices.

    A file in write_graph's layout is tokenised at once. Any other text,
    and any range error or self-loop, goes through the line-by-line parser,
    the one source of error messages.
    """
    layout = text if text.endswith("\n") else text + "\n"
    head = _GRAPH_HEADER.match(layout)
    ends = head and int_rows(layout, head.end(), len(layout), _ODD_EDGE_LINE, 2)
    if ends is not None:
        n = int(head[1])
        if n <= MAX_VERTICES and (not ends.size or (
                ends.min() >= 1 and ends.max() <= n
                and not np.any(ends[:, 0] == ends[:, 1]))):
            return Graph(n, ends - 1)
    return _parse_graph_lines(text)


def _parse_graph_lines(text: str) -> Graph:
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
            if n > MAX_VERTICES:
                raise GraphParseError(
                    f"line {lineno}: {n} vertices exceed the limit of {MAX_VERTICES}")
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
    lines.extend(f"e {u + 1} {v + 1}"
                 for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators

def complete_graph(n: int) -> Graph:
    _check_vertex_count(n)
    return Graph(n, np.stack(np.triu_indices(n, 1), axis=1))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GenerationError("cycle needs at least 3 vertices")
    _check_vertex_count(n)
    ring = np.arange(n)
    return Graph(n, np.stack([ring, (ring + 1) % n], axis=1))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GenerationError("path needs at least 1 vertex")
    _check_vertex_count(n)
    steps = np.arange(n - 1)
    return Graph(n, np.stack([steps, steps + 1], axis=1))


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a given seed."""
    if n < 0:
        raise GenerationError("n must be non-negative")
    if not (0.0 <= p <= 1.0):
        raise GenerationError(f"p={p} outside [0, 1]")
    _check_vertex_count(n)
    rng = np.random.default_rng(seed)
    # one draw per candidate pair, row u over the neighbours u+1 .. n-1, rows
    # in order. random(a + b) returns random(a) then random(b), so the stream
    # is drawn in blocks and each hit mapped back to its row and column.
    rows = np.arange(n - 1, 0, -1)
    offsets = np.cumsum(rows) - rows
    total = n * (n - 1) // 2
    hits = [start + np.flatnonzero(rng.random(min(_DRAW_BLOCK, total - start)) < p)
            for start in range(0, total, _DRAW_BLOCK)]
    hits = np.concatenate(hits) if hits else np.zeros(0, dtype=np.int64)
    near = np.searchsorted(offsets, hits, side="right") - 1
    return Graph(n, np.stack([near, hits - offsets[near] + near + 1], axis=1))


def regular_graph(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph via the pairing model, retried until simple."""
    if d < 0 or n < 0:
        raise GenerationError("n and d must be non-negative")
    if d >= n and not (n == 0 and d == 0):
        raise GenerationError(f"degree {d} impossible with {n} vertices")
    if (n * d) % 2 != 0:
        raise GenerationError(f"n*d = {n * d} is odd, no {d}-regular graph on {n} vertices")
    _check_vertex_count(n)
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
        return Graph(n, np.stack([lo, hi], axis=1))
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
    far, _, ends = g.incidences()
    far, bounds = far.tolist(), [0, *ends.tolist()]
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
            for u in far[bounds[v]:bounds[v + 1]]:
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


def _mask_connected(n: int, pairs: list[tuple[int, int]], mask: int) -> bool:
    """Whether the edges of pairs chosen by the bits of mask connect n >= 1
    vertices, by a search over per-vertex neighbour bitmasks."""
    nbr = [0] * n
    for i, (u, v) in enumerate(pairs):
        if mask >> i & 1:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
    seen = frontier = 1
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = nbr[low.bit_length() - 1] & ~seen
        seen |= new
        frontier |= new
    return seen == (1 << n) - 1


def enumerate_connected_graphs(max_n: int) -> Iterator[tuple[str, Graph]]:
    """All connected labelled graphs on 1..max_n vertices with stable ids, in
    the order of enumerate_labelled_graphs. A Graph is built only for the
    connected edge subsets."""
    for n in range(1, max_n + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        idx = 0
        for mask in range(1 << len(pairs)):
            if _mask_connected(n, pairs, mask):
                chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                yield f"conn-n{n}-{idx}", Graph(n, chosen)
                idx += 1
