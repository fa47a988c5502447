"""Reference copies of ``Graph``, ``parse_graph``, ``parse_colouring`` and
``check_proper`` as they were before the array-first rewrite, of
``write_colouring`` as it was before it formatted from flattened arrays, of
``random_graph`` as it was when it drew one block per row, and of
``int_rows`` with its line patterns as it was when a regex checked the
layout. ``ViewGraph`` gives the package Graph back the per-vertex tuple
views it no longer builds.

The code below is kept verbatim (only the imports differ) so that
tests/test_graph_reference.py can check that the array-built graph, the
tokenising parsers and the sorted clash grouping give exactly what the
pure-Python originals give: the same views, the same error texts and the
same violation lists in the same order. They are test oracles, not part of
the package.
"""

from __future__ import annotations

import re
from typing import Iterable

import numpy as np

from nsdcolour.colouring import (ColouringError, ColouringParseError,
                                 TotalColouring, Violation, _check_shapes)
from nsdcolour.graph import Graph as ArrayGraph
from nsdcolour.graph import (GenerationError, GraphError, GraphParseError,
                             _check_vertex_count)


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


class ViewGraph(ArrayGraph):
    """A package Graph that also carries the frozen Graph's ``adjacency``
    and ``incident_edges`` views, which the frozen copies in
    reference_construct.py and reference_exact.py read."""

    def __init__(self, g: ArrayGraph):
        super().__init__(g.n, np.stack([g.edge_u, g.edge_v], axis=1))
        frozen = Graph(g.n, self.edges)
        self.adjacency = frozen.adjacency
        self._incident = frozen._incident

    incident_edges = Graph.incident_edges


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


def parse_colouring(text: str, g: Graph) -> TotalColouring:
    k = None
    vc = np.zeros(g.n, dtype=np.int64)
    ec = np.zeros(g.m, dtype=np.int64)
    v_seen = np.zeros(g.n, dtype=bool)
    e_seen = np.zeros(g.m, dtype=bool)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "k" and len(parts) == 2:
                if k is not None:
                    raise ColouringParseError(f"line {lineno}: second k line")
                k = int(parts[1])
            elif parts[0] == "v" and len(parts) == 3:
                v, col = int(parts[1]) - 1, int(parts[2])
                if not (0 <= v < g.n):
                    raise ColouringParseError(f"line {lineno}: unknown vertex {v + 1}")
                if v_seen[v]:
                    raise ColouringParseError(f"line {lineno}: vertex {v + 1} coloured twice")
                v_seen[v] = True
                vc[v] = col
            elif parts[0] == "e" and len(parts) == 4:
                u, v, col = int(parts[1]) - 1, int(parts[2]) - 1, int(parts[3])
                if not g.has_edge(u, v):
                    raise ColouringParseError(
                        f"line {lineno}: no edge ({u + 1}, {v + 1}) in graph")
                eid = g.edge_id(u, v)
                if e_seen[eid]:
                    raise ColouringParseError(f"line {lineno}: edge coloured twice")
                e_seen[eid] = True
                ec[eid] = col
            else:
                raise ColouringParseError(f"line {lineno}: malformed line {line!r}")
        except ValueError as exc:
            if isinstance(exc, ColouringParseError):
                raise
            raise ColouringParseError(f"line {lineno}: bad integer in {line!r}") from None
        except OverflowError:
            # only storing a colour into the int64 arrays can overflow
            raise ColouringParseError(
                f"line {lineno}: colour out of range in {line!r}") from None
    if k is None:
        raise ColouringParseError("missing k line")
    if not v_seen.all() or not e_seen.all():
        missing_v = int((~v_seen).sum())
        missing_e = int((~e_seen).sum())
        raise ColouringParseError(
            f"colouring not total: {missing_v} vertices and {missing_e} edges missing"
        )
    try:
        return TotalColouring(vc, ec, k)
    except ColouringError as exc:
        raise ColouringParseError(str(exc)) from None


def check_proper(g: Graph, c: TotalColouring) -> list[Violation]:
    """All properness violations; each offending pair reported exactly once."""
    _check_shapes(g, c)
    out: list[Violation] = []
    vc, ec = c.vertex_colours, c.edge_colours

    same_vv = np.nonzero(vc[g.edge_u] == vc[g.edge_v])[0] if g.m else []
    for eid in same_vv:
        u, v = g.edges[int(eid)]
        out.append(Violation("vertex-vertex", (u, v)))

    if g.m:
        for eid in np.nonzero(ec == vc[g.edge_u])[0]:
            u, v = g.edges[int(eid)]
            out.append(Violation("vertex-edge", (u, (u, v))))
        for eid in np.nonzero(ec == vc[g.edge_v])[0]:
            u, v = g.edges[int(eid)]
            out.append(Violation("vertex-edge", (v, (u, v))))

    # incident edge pairs share exactly one vertex, so grouping by vertex
    # lists each clashing pair once
    for v in range(g.n):
        inc = g.incident_edges(v)
        if len(inc) < 2:
            continue
        by_colour: dict[int, list[int]] = {}
        for eid in inc:
            by_colour.setdefault(int(ec[eid]), []).append(eid)
        for group in by_colour.values():
            if len(group) < 2:
                continue
            group.sort()
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    out.append(Violation(
                        "edge-edge", (g.edges[group[i]], g.edges[group[j]])
                    ))
    return out


def write_colouring(g: Graph, c: TotalColouring) -> str:
    _check_shapes(g, c)
    lines = [f"k {c.k}"]
    lines.extend(f"v {v + 1} {col}"
                 for v, col in enumerate(c.vertex_colours.tolist()))
    lines.extend(
        f"e {u + 1} {v + 1} {col}"
        for u, v, col in zip(g.edge_u.tolist(), g.edge_v.tolist(),
                             c.edge_colours.tolist())
    )
    return "\n".join(lines) + "\n"


def random_graph(n: int, p: float, seed: int) -> ArrayGraph:
    """Erdos-Renyi G(n, p), deterministic for a given seed."""
    if n < 0:
        raise GenerationError("n must be non-negative")
    if not (0.0 <= p <= 1.0):
        raise GenerationError(f"p={p} outside [0, 1]")
    _check_vertex_count(n)
    rng = np.random.default_rng(seed)
    # one draw per row u, over the candidate neighbours u+1 .. n-1
    far = [u + 1 + np.nonzero(rng.random(n - u - 1) < p)[0] for u in range(n - 1)]
    near = np.repeat(np.arange(len(far)), [len(row) for row in far])
    far_all = np.concatenate(far) if far else np.zeros(0, dtype=np.int64)
    return ArrayGraph(n, np.stack([near, far_all], axis=1))


# The odd-line patterns of the regex layout check, by (letter, width): the
# graph file's edge lines, the colouring file's vertex and edge lines, and
# the same form for vertex lines of three numbers.
ODD_LINES = {
    ("e", 2): re.compile(r"^(?!e [0-9]{1,18} [0-9]{1,18}$)", re.M),
    ("v", 2): re.compile(r"^(?!v [0-9]{1,18} [0-9]{1,18}$)", re.M),
    ("e", 3): re.compile(r"^(?!e [0-9]{1,18} [0-9]{1,18} [0-9]{1,18}$)", re.M),
    ("v", 3): re.compile(r"^(?!v [0-9]{1,18} [0-9]{1,18} [0-9]{1,18}$)", re.M),
}


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
