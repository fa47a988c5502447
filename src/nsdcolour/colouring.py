"""Total colourings, the properness/sum verifier, and colouring file I/O.

A total colouring assigns a positive colour to every vertex and every edge.
The verifier is the single source of truth for validity in this package:
``check_proper`` enforces the three properness rules (adjacent vertices
differ, incident edges differ, an edge differs from both endpoints) and
``check_nsd`` enforces distinct weighted degrees across every edge, where
the weighted degree of v is its own colour plus the colours of its
incident edges. Colour 0 never appears in a TotalColouring.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .graph import Graph, int_rows, sorted_unique, text_rows


class ColouringError(ValueError):
    """Invalid colouring data (wrong length, colour out of range, ...)."""


class ColouringParseError(ColouringError):
    """Malformed colouring file."""


@dataclass(frozen=True)
class Violation:
    """One violated adjacency/incidence pair.

    kinds and witness shapes:
      vertex-vertex: (u, v) with u < v        adjacent vertices share a colour
      edge-edge:     ((a, b), (c, d))         incident edges share a colour
      vertex-edge:   (v, (a, b))              edge colour equals endpoint v's colour
      sum-conflict:  (u, v) with u < v        adjacent weighted degrees equal
    """
    kind: str
    witnesses: tuple

    def to_dict(self) -> dict:
        def enc(w):
            return list(w) if isinstance(w, tuple) else w
        return {"kind": self.kind, "witnesses": [enc(w) for w in self.witnesses]}


class TotalColouring:
    """Value type: vertex colours, edge colours aligned to graph edge ids, bound k.

    Every colour must lie in {1, ..., k}. Instances are immutable; equality is
    by content.
    """

    def __init__(self, vertex_colours, edge_colours, k: int):
        if k < 1:
            raise ColouringError("palette bound k must be at least 1")
        arrays = []
        for name, colours in (("vertex", vertex_colours), ("edge", edge_colours)):
            arr = np.asarray(colours)
            if arr.ndim != 1:
                raise ColouringError(f"{name} colours must be one-dimensional")
            if arr.size and arr.dtype.kind not in "iu":
                raise ColouringError(f"{name} colours must be integers")
            # a fresh copy, in which a uint64 value past int64 wraps below 1
            arrays.append(arr := arr.astype(np.int64))
            if arr.size and (arr.min() < 1 or arr.max() > k):
                raise ColouringError(f"{name} colour outside {{1..{k}}}")
        self._adopt(*arrays, k)

    def _adopt(self, vc: np.ndarray, ec: np.ndarray, k: int) -> TotalColouring:
        """Take fresh 1-d int64 arrays of colours in 1..k as is; returns self."""
        vc.flags.writeable = ec.flags.writeable = False
        self.vertex_colours, self.edge_colours, self.k = vc, ec, int(k)
        return self

    @property
    def span(self) -> int:
        """Largest colour actually used (0 for the empty colouring)."""
        return max(int(self.vertex_colours.max(initial=0)),
                   int(self.edge_colours.max(initial=0)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TotalColouring)
            and self.k == other.k
            and np.array_equal(self.vertex_colours, other.vertex_colours)
            and np.array_equal(self.edge_colours, other.edge_colours)
        )

    def __hash__(self):
        return hash((self.k, self.vertex_colours.tobytes(), self.edge_colours.tobytes()))

    def __repr__(self) -> str:
        return (f"TotalColouring(k={self.k}, n={len(self.vertex_colours)}, "
                f"m={len(self.edge_colours)})")


def _check_shapes(g: Graph, c: TotalColouring) -> None:
    if len(c.vertex_colours) != g.n or len(c.edge_colours) != g.m:
        raise ColouringError(
            f"colouring shape ({len(c.vertex_colours)}, {len(c.edge_colours)}) "
            f"does not match graph ({g.n}, {g.m})"
        )


def weighted_degrees(g: Graph, c: TotalColouring) -> np.ndarray:
    """Array of weighted degrees: own colour plus incident edge colours.

    A weighted degree is at most k * (max_degree + 1). When that bound
    reaches 2^63, int64 would wrap, so the sums are exact Python ints in an
    object array; every other colouring takes the int64 path.
    """
    _check_shapes(g, c)
    kind = object if c.k * (g.max_degree + 1) >= 2 ** 63 else np.int64
    s = c.vertex_colours.astype(kind)
    ec = c.edge_colours.astype(kind, copy=False)
    np.add.at(s, g.edge_u, ec)
    np.add.at(s, g.edge_v, ec)
    return s


def _edge_pairs(g: Graph, ids: np.ndarray) -> list[tuple[int, int]]:
    return list(zip(g.edge_u[ids].tolist(), g.edge_v[ids].tolist()))


def _edge_clash_groups(g: Graph, ec: np.ndarray) -> list[list[int]]:
    """Edge ids that share a colour at a vertex, one ascending group per
    (vertex, colour); by vertex, then by smallest edge id."""
    if g.m < 2:
        return []
    # one int64 key per (vertex, colour) incidence: the colour itself where
    # every key fits in int64, else the colour's dense rank
    base, code = int(ec.max()) + 1, ec
    if g.n * base >= 2 ** 63:
        palette = sorted_unique(ec)
        base, code = len(palette), np.searchsorted(palette, ec)
    key = np.concatenate([g.edge_v, g.edge_u]) * base + np.concatenate([code, code])
    if not np.any(np.diff(np.sort(key)) == 0):
        return []
    # in the doubled list [edge_v, edge_u] each vertex meets its edges in
    # edge-id order (see Graph._vertex_order), and a stable sort keeps that
    # order, so every group comes out ascending
    order = np.argsort(key, kind="stable")
    key = key[order]
    repeat = np.nonzero(key[1:] == key[:-1])[0].tolist()
    ids = (order % g.m).tolist()
    keyed: list[tuple[int, list[int]]] = []
    last = -2
    for i in repeat:
        if i == last + 1:
            keyed[-1][1].append(ids[i + 1])
        else:
            keyed.append((int(key[i]) // base, [ids[i], ids[i + 1]]))
        last = i
    keyed.sort(key=lambda vg: (vg[0], vg[1][0]))
    return [group for _, group in keyed]


def check_proper(g: Graph, c: TotalColouring) -> list[Violation]:
    """All properness violations; each offending pair reported exactly once."""
    _check_shapes(g, c)
    vc, ec = c.vertex_colours, c.edge_colours
    eu, ev = g.edge_u, g.edge_v
    out = [Violation("vertex-vertex", e)
           for e in _edge_pairs(g, np.nonzero(vc[eu] == vc[ev])[0])]
    out.extend(Violation("vertex-edge", (e[0], e))
               for e in _edge_pairs(g, np.nonzero(ec == vc[eu])[0]))
    out.extend(Violation("vertex-edge", (e[1], e))
               for e in _edge_pairs(g, np.nonzero(ec == vc[ev])[0]))
    # incident edge pairs share exactly one vertex, so grouping by vertex
    # lists each clashing pair once
    for group in _edge_clash_groups(g, ec):
        ends = _edge_pairs(g, np.array(group))
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                out.append(Violation("edge-edge", (ends[i], ends[j])))
    return out


def check_nsd(g: Graph, c: TotalColouring) -> list[Violation]:
    """Sum conflicts: edges whose endpoints have equal weighted degrees."""
    s = weighted_degrees(g, c)
    return [Violation("sum-conflict", e)
            for e in _edge_pairs(g, np.nonzero(s[g.edge_u] == s[g.edge_v])[0])]


def is_valid(g: Graph, c: TotalColouring) -> bool:
    return not check_proper(g, c) and not check_nsd(g, c)


# ---------------------------------------------------------------------------
# file format: "k <bound>" header, then "v <vertex> <colour>" and
# "e <u> <v> <colour>" lines, 1-based vertex ids, comments with "c"

def write_colouring(g: Graph, c: TotalColouring) -> str:
    """The k line, then a ``v <vertex> <colour>`` line per vertex and an
    ``e <u> <v> <colour>`` line per edge, 1-based, written by text_rows."""
    _check_shapes(g, c)
    return (f"k {c.k}\n"
            + text_rows("v", [np.arange(1, g.n + 1), c.vertex_colours])
            + text_rows("e", [g.edge_u + 1, g.edge_v + 1, c.edge_colours]))


# A colouring file as write_colouring writes it: the k line, the vertex lines
# for 1..n, then the edge lines in edge id order. At most 18 digits keeps
# each number in int64.
_K_LINE = re.compile(r"k ([0-9]{1,18})\n")


def _parse_colouring_layout(text: str, g: Graph):
    """(k, vertex colours, edge colours) of a file in write_colouring's
    layout and order, vertices 1..n and then g's edges by (u, v); None for
    any other text."""
    text = text if text.endswith("\n") else text + "\n"
    head = _K_LINE.match(text)
    if head is None:
        return None
    # the vertex lines end where the first edge line starts
    edges_at = text.find("\ne ", head.end() - 1) + 1 or len(text)
    vrows = int_rows(text, head.end(), edges_at, "v", 2)
    erows = int_rows(text, edges_at, len(text), "e", 3)
    if (vrows is None or erows is None
            or len(vrows) != g.n or len(erows) != g.m
            or not np.array_equal(vrows[:, 0] - 1, np.arange(g.n))
            or not np.array_equal(erows[:, 0] - 1, g.edge_u)
            or not np.array_equal(erows[:, 1] - 1, g.edge_v)):
        return None
    return int(head[1]), vrows[:, 1], erows[:, 2]


def parse_colouring(text: str, g: Graph) -> TotalColouring:
    """Parse ``k <bound>``, ``v <vertex> <colour>`` and ``e <u> <v> <colour>``
    lines against g. A file in write_colouring's layout and order, as
    int_rows checks it byte by byte, is read at once; any other text, a
    valid file with its lines in another order included, goes through the
    line-by-line parser, the one source of error messages."""
    parsed = _parse_colouring_layout(text, g)
    k, vc, ec = parsed if parsed is not None else _parse_colouring_lines(text, g)
    try:
        return TotalColouring(vc, ec, k)
    except ColouringError as exc:
        raise ColouringParseError(str(exc)) from None


def _parse_colouring_lines(text: str, g: Graph):
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
                eid = g._edge_index(u, v)
                if eid < 0:
                    raise ColouringParseError(
                        f"line {lineno}: no edge ({u + 1}, {v + 1}) in graph")
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
    return k, vc, ec
