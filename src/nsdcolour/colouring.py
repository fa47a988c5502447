"""Total colourings, the properness/sum verifier, and colouring file I/O.

A total colouring assigns a positive colour to every vertex and every edge.
The verifier is the single source of truth for validity in this package:
``check_proper`` enforces the three properness rules (adjacent vertices
differ, incident edges differ, an edge differs from both endpoints) and
``check_nsd`` enforces distinct weighted degrees across every edge, where
the weighted degree of v is its own colour plus the colours of its
incident edges. Colour 0 never appears in a TotalColouring; it is reserved
as the internal "uncoloured" sentinel of intermediate pipeline states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph


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
        vc = np.asarray(vertex_colours, dtype=np.int64).copy()
        ec = np.asarray(edge_colours, dtype=np.int64).copy()
        if k < 1:
            raise ColouringError("palette bound k must be at least 1")
        for name, arr in (("vertex", vc), ("edge", ec)):
            if arr.ndim != 1:
                raise ColouringError(f"{name} colours must be one-dimensional")
            if arr.size and (arr.min() < 1 or arr.max() > k):
                raise ColouringError(f"{name} colour outside {{1..{k}}}")
        vc.flags.writeable = False
        ec.flags.writeable = False
        self.vertex_colours = vc
        self.edge_colours = ec
        self.k = int(k)

    @property
    def span(self) -> int:
        """Largest colour actually used (0 for the empty colouring)."""
        top = 0
        if self.vertex_colours.size:
            top = int(self.vertex_colours.max())
        if self.edge_colours.size:
            top = max(top, int(self.edge_colours.max()))
        return top

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


def vertex_sums(g: Graph, vc: np.ndarray, ec: np.ndarray) -> np.ndarray:
    """Each vertex's colour plus its incident edge colours, from raw arrays."""
    s = vc.astype(np.int64)
    np.add.at(s, g.edge_u, ec)
    np.add.at(s, g.edge_v, ec)
    return s


def weighted_degrees(g: Graph, c: TotalColouring) -> np.ndarray:
    """Array of weighted degrees: own colour plus incident edge colours."""
    _check_shapes(g, c)
    return vertex_sums(g, c.vertex_colours, c.edge_colours)


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


def check_nsd(g: Graph, c: TotalColouring) -> list[Violation]:
    """Sum conflicts: edges whose endpoints have equal weighted degrees."""
    s = weighted_degrees(g, c)
    out: list[Violation] = []
    if g.m:
        for eid in np.nonzero(s[g.edge_u] == s[g.edge_v])[0]:
            u, v = g.edges[int(eid)]
            out.append(Violation("sum-conflict", (u, v)))
    return out


def is_valid(g: Graph, c: TotalColouring) -> bool:
    return not check_proper(g, c) and not check_nsd(g, c)


# ---------------------------------------------------------------------------
# file format: "k <bound>" header, then "v <vertex> <colour>" and
# "e <u> <v> <colour>" lines, 1-based vertex ids, comments with "c"

def write_colouring(g: Graph, c: TotalColouring) -> str:
    _check_shapes(g, c)
    lines = [f"k {c.k}"]
    lines.extend(f"v {v + 1} {int(c.vertex_colours[v])}" for v in range(g.n))
    lines.extend(
        f"e {u + 1} {v + 1} {int(c.edge_colours[eid])}"
        for eid, (u, v) in enumerate(g.edges)
    )
    return "\n".join(lines) + "\n"


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


def load_colouring(path, g: Graph) -> TotalColouring:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_colouring(fh.read(), g)


def save_colouring(path, g: Graph, c: TotalColouring) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_colouring(g, c))
