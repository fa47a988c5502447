"""Simple undirected graphs: construction, DIMACS-like file I/O, generators.

Vertices are dense 0-based integers in memory; files use 1-based ids.
Graphs are immutable once built. They hold their edges as numpy arrays
(sorted edge keys, endpoint arrays, degrees). Every neighbourhood is read
through ``Graph.incidences``: runs of one stable argsort of the doubled edge
list, each vertex's neighbours aligned with its incident edge ids.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

# The most vertices a graph may declare. Arrays are allocated per vertex, so
# an unchecked count in a tiny file would be an unbounded allocation; 10^7
# still admits K_{2,Δ} at the Δ where the strict lemma first becomes feasible.
MAX_VERTICES = 10 ** 7

_DRAW_BLOCK = 1 << 16   # doubles per draw of random_graph's stream
_ROW_BLOCK = 1 << 14    # rows per block of text_rows
_MASK_BLOCK = 1 << 20   # edge masks per block of _connected_masks


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
    raises, the first one in input order, with the pair-by-pair message; an
    endpoint that is not an integer is refused, never truncated."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        arr = np.asarray(edges)
    except ValueError:
        arr = None          # not pairs
    if arr is not None and arr.size == 0:
        arr = np.zeros((0, 2), dtype=np.int64)
    if arr is not None and arr.dtype.kind in "iu" and arr.shape[1:] == (2,):
        arr = arr.astype(np.int64, copy=False)
        lo, hi = np.minimum(arr[:, 0], arr[:, 1]), np.maximum(arr[:, 0], arr[:, 1])
        if not lo.size or (lo.min() >= 0 and hi.max() < n and (lo < hi).all()):
            return lo, hi
        # only the first bad pair words the message: no Python loop over m
        first = int(np.argmax((lo < 0) | (hi >= n) | (lo == hi)))
        edges = edges[first:first + 1]
    for u, v in edges:
        if not all(isinstance(x, (int, np.integer)) for x in (u, v)):
            break
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
        # n <= MAX_VERTICES keeps every key below 2^63
        self._adopt(n, sorted_unique(lo * n + hi))

    def _adopt(self, n: int, keys: np.ndarray) -> Graph:
        """Take sorted distinct int64 edge keys on n vertices as is; returns self."""
        self.n, self._keys, self.m = n, keys, len(keys)
        self.edge_u, self.edge_v = np.divmod(keys, max(n, 1))
        self.degrees = self.endpoint_counts(slice(None))
        self.max_degree = int(self.degrees.max()) if n else 0
        for arr in (keys, self.edge_u, self.edge_v, self.degrees):
            arr.flags.writeable = False
        return self

    def endpoint_counts(self, edges) -> np.ndarray:
        """How many of the edges (an edge mask, edge ids or a slice) meet
        each vertex, as int64."""
        return sum(np.bincount(ends[edges], minlength=self.n) for ends in
                   (self.edge_u, self.edge_v)).astype(np.int64, copy=False)

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


def int_rows(text: str, start: int, end: int, letter: str,
             width: int) -> np.ndarray | None:
    """The lines text[start:end], each ``letter`` and then ``width``
    unsigned integers, a space before each, as a (lines, width) int64
    array; None for any other text.

    One pass over the ASCII bytes checks the layout with array compares:
    every byte below '0' is a separator, and each line's separators are
    width spaces and a newline; the last byte is a newline; each line
    starts with the letter and a space; the only bytes above '9' are those
    letters; every digit run is 1 to 18 long. np.fromstring reads the rest.
    """
    if start >= end:
        return np.zeros((0, width), dtype=np.int64)
    # a non-ASCII character becomes '?', a byte no line may hold
    raw = text[start:end].encode("ascii", "replace")
    b, lead = np.frombuffer(raw, dtype=np.uint8), ord(letter)
    sep = np.flatnonzero(b < ord("0"))
    if b[-1] != ord("\n") or sep.size % (width + 1) or sep[0] != 1 or b[0] != lead:
        return None
    sep = sep.reshape(-1, width + 1)
    # one byte, the letter, between a newline and the next line's first space
    if not ((b[sep] == [ord(" ")] * width + [ord("\n")]).all()
            and (sep[1:, 0] - sep[:-1, width] == 2).all()
            and (b[sep[:-1, width] + 1] == lead).all()
            and np.count_nonzero(b > ord("9")) == len(sep)
            and all(1 <= run.min() and run.max() <= 18 for run in (
                sep[:, j + 1] - sep[:, j] - 1 for j in range(width)))):
        return None
    del sep     # free the positions before np.fromstring allocates
    flat = np.fromstring(raw.replace(letter.encode(), b" "), dtype=np.int64, sep=" ")
    return flat.reshape(-1, width)


def text_rows(letter: str, columns: list[np.ndarray]) -> str:
    """One line ``<letter> <c1> <c2> ...`` and a newline per row of the
    non-negative int64 columns, written from byte arrays, one block of
    _ROW_BLOCK rows at a time so that every array is block-sized.

    In a block, each column gives one uint8 array per digit position, most
    significant first, from repeated np.divmod by 10; a value keeps its
    digit at position j > 0 only where it is at least 10**j. All byte
    columns are stacked once and one boolean gather drops the leading zeros.
    """
    blocks = []
    for top in range(0, len(columns[0]), _ROW_BLOCK):
        block = [col[top:top + _ROW_BLOCK] for col in columns]
        kept = np.ones(len(block[0]), dtype=bool)
        parts, keep = [kept * np.uint8(ord(letter))], [kept]
        for col in block:
            places = len(str(int(col.max())))
            digits, rest = [], col
            for _ in range(places):
                rest, d = np.divmod(rest, 10)
                digits.append(d.astype(np.uint8) + ord("0"))
            parts += [kept * np.uint8(ord(" ")), *digits[::-1]]
            keep += [kept, *(col >= 10 ** j for j in range(places - 1, 0, -1)), kept]
        parts.append(kept * np.uint8(ord("\n")))
        text = np.stack(parts, axis=1)[np.stack(keep + [kept], axis=1)]
        blocks.append(text.tobytes().decode("ascii"))
    return "".join(blocks)


def parse_graph(text: str) -> Graph:
    """Parse the DIMACS-like format: ``p edge <n> <m>`` then ``e <u> <v>`` lines.

    Comment lines start with ``c``; blank lines are skipped. Vertex ids in the
    file are 1-based and are shifted down. Duplicate edge lines collapse; the
    declared m is not cross-checked against the line count (sloppy corpora),
    but unknown line types are an error. A problem line may declare at most
    MAX_VERTICES vertices.

    A file in write_graph's layout, as int_rows checks it byte by byte, is
    read at once and handed to Graph. Any other text, and any layout file
    that Graph refuses, goes through the line-by-line parser, the one
    source of error messages.
    """
    layout = text if text.endswith("\n") else text + "\n"
    head = _GRAPH_HEADER.match(layout)
    ends = head and int_rows(layout, head.end(), len(layout), "e", 2)
    if ends is not None:
        try:
            return Graph(int(head[1]), ends - 1)
        except GraphError:
            pass
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
    """The problem line, then an ``e <u> <v>`` line per edge, sorted and
    1-based, written by text_rows."""
    return f"p edge {g.n} {g.m}\n" + text_rows("e", [g.edge_u + 1, g.edge_v + 1])


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
    """Erdos-Renyi G(n, p), deterministic for a given seed. The hits ascend,
    so the graph adopts their keys, sorted and distinct, with no re-sort."""
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
    # the key of the pair (near, hits - offsets[near] + near + 1)
    return Graph.__new__(Graph)._adopt(n, near * (n + 1) + hits - offsets[near] + 1)


def regular_graph(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph via the pairing model, retried until simple;
    exactly d-regular, but 200 tries reach only small d (see the README)."""
    if d < 0 or n < 0:
        raise GenerationError("n and d must be non-negative")
    if d >= n and not (n == 0 and d == 0):
        raise GenerationError(f"degree {d} impossible with {n} vertices")
    if (n * d) % 2 != 0:
        raise GenerationError(f"n*d = {n * d} is odd, no {d}-regular graph on {n} vertices")
    _check_vertex_count(n)
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for _ in range(200):
        perm = rng.permutation(stubs)
        us, vs = perm[0::2], perm[1::2]
        if np.any(us == vs):
            continue
        keys = sorted_unique(np.minimum(us, vs) * n + np.maximum(us, vs))
        if len(keys) == len(us):
            return Graph.__new__(Graph)._adopt(n, keys)
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
    smallest vertex of largest degree; components sorted by smallest vertex."""
    far, _, ends = g.incidences()
    far, bounds = far.tolist(), [0, *ends.tolist()]
    seen = [False] * g.n
    comps: list[list[int]] = []
    for root in np.argsort(-g.degrees, kind="stable").tolist():
        if seen[root]:
            continue
        order = [root]
        seen[root] = True
        for v in order:   # order grows as it is read: the BFS queue
            for u in far[bounds[v]:bounds[v + 1]]:
                if not seen[u]:
                    seen[u] = True
                    order.append(u)
        comps.append(order)
    return sorted(comps, key=min)


def _connected_masks(n: int, pairs: list[tuple[int, int]]) -> Iterator[int]:
    """The masks, ascending, whose bits choose edges of pairs that connect
    n >= 1 vertices: a search over per-vertex neighbour bitmasks, run on a
    block of masks at once."""
    word = np.min_scalar_type((1 << n) - 1)
    for start in range(0, 1 << len(pairs), _MASK_BLOCK):
        masks = np.arange(start, min(start + _MASK_BLOCK, 1 << len(pairs)))
        nbr = np.zeros((n, masks.size), dtype=word)
        for i, (u, v) in enumerate(pairs):
            chosen = (masks >> i & 1).astype(word)
            nbr[u] |= chosen << v
            nbr[v] |= chosen << u
        seen = np.ones(masks.size, dtype=word)
        for _ in range(n - 1):    # each round reaches at least one more vertex
            for v in range(n):
                seen |= nbr[v] * (seen >> v & 1)
        yield from (np.flatnonzero(seen == (1 << n) - 1) + start).tolist()


def enumerate_connected_graphs(max_n: int) -> Iterator[tuple[str, Graph]]:
    """All connected labelled graphs on 1..max_n vertices with stable ids, by
    n and then by edge mask, bit i choosing the i-th pair in lexicographic
    order. A Graph is built only for the connected masks, straight from
    their keys, which come out sorted and distinct."""
    for n in range(1, max_n + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keys = [u * n + v for u, v in pairs]
        for idx, mask in enumerate(_connected_masks(n, pairs)):
            chosen = [keys[i] for i in range(len(keys)) if mask >> i & 1]
            yield f"conn-n{n}-{idx}", Graph.__new__(Graph)._adopt(
                n, np.array(chosen, dtype=np.int64))
