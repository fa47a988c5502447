"""Reference copies of the construction hot paths as they were before the
bitmask and class-sorted rewrites, of ``recolour_H`` as it was before it
moved onto Python lists, of ``compute_risky`` as it was before it was
built from one mask over the vertex-ordered edge list, and of ``select_H``
as it was when it read the per-vertex incident-edge and adjacency views.

The functions below are kept verbatim (only the imports differ) so that
tests/test_equivalence.py can check that the optimised versions in
nsdcolour.construct return byte-identical colourings. ``ConstructionState``
and ``ReserveInfo`` are the old definitions, with the class arrays and the
``grew`` flag that the package no longer keeps; ``HSelection`` is the old
one, with the pick-degree cap the package reads from ``p.caps["dH"]``.
``RiskParams`` is the risk window as it was computed outside
``LemmaParams``, which now holds it as ``risk_threshold`` and
``risky_allowed``. They are test oracles, not part of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nsdcolour.colouring import TotalColouring
from nsdcolour.graph import Graph
from nsdcolour.lemma import LemmaParams, LemmaState


class ClassWidthError(ValueError):
    """A target class needs more slots than the band width provides."""

    def __init__(self, needed: int):
        super().__init__(f"band width too small, need {needed}")
        self.needed = needed


@dataclass
class ConstructionState:
    """Mutable total colouring plus the engine classes it was lifted from."""
    vertex_colours: np.ndarray
    edge_colours: np.ndarray
    width: int
    class_of_vertex: np.ndarray
    class_of_edge: np.ndarray

    @property
    def span(self) -> int:
        hi = 1
        if self.vertex_colours.size:
            hi = max(hi, int(self.vertex_colours.max()))
        if self.edge_colours.size:
            hi = max(hi, int(self.edge_colours.max()))
        return hi

    def copy(self) -> "ConstructionState":
        return ConstructionState(self.vertex_colours.copy(),
                                 self.edge_colours.copy(), self.width,
                                 self.class_of_vertex, self.class_of_edge)


@dataclass
class ReserveInfo:
    base: int
    planned: int
    used: int
    grew: bool = False  # the planned reserve always suffices; kept for reports


@dataclass
class HSelection:
    edge_ids: np.ndarray
    rounds: int
    valid: bool
    cap: int


class RiskParams:
    """Drift window deciding which adjacent large pairs need separation.

    A vertex's final sum is assumed to stay within scale*(fault_cap +
    repair_slack) of its idealized score, so two scores closer than twice
    that window are treated as collision-risky. threshold is the integer
    comparison bound on doubled scores. The number of score intervals the
    window covers, times the interval occupancy cap, bounds the risky set
    size: allowed_max.
    """

    def __init__(self, p: LemmaParams, scale: float = 1.0):
        x = float(max(p.delta, 0))
        L = p.ln_floor
        fault_cap = 5.5 * x ** (5 / 3) * L ** (1 / 3)
        repair_slack = 16.0 * x * L
        window = 2.0 * float(scale) * (fault_cap + repair_slack)
        self.threshold = int(math.floor(2.0 * window))
        covered_intervals = 0
        if p.interval_len > 0:
            covered_intervals = math.ceil(2.0 * window / float(p.interval_len)) + 1
        self.allowed_max = covered_intervals * p.caps["VI"]


def _vertex_sums(g: Graph, vc: np.ndarray, ec: np.ndarray) -> np.ndarray:
    s = vc.astype(np.int64).copy()
    np.add.at(s, g.edge_u, ec)
    np.add.at(s, g.edge_v, ec)
    return s


def _lowest_free(used: int) -> int:
    # lowest clear bit of the slot bitmask
    return ((used + 1) & ~used).bit_length() - 1


def _colour_class_edges(g: Graph, edge_ids, width_hint):
    """Proper slot assignment for one class's edges.

    Greedy lowest-free; when the pick would land at or above width_hint, one
    alternating-path swap is attempted to reuse a slot below it. Returns
    {edge_id: slot}.
    """
    slot_of: dict[int, int] = {}
    used: dict[int, int] = {}
    inc: dict[int, list[int]] = {}
    for eid in edge_ids:
        u, v = int(g.edge_u[eid]), int(g.edge_v[eid])
        uu, uv = used.get(u, 0), used.get(v, 0)
        s = _lowest_free(uu | uv)
        if width_hint is not None and s >= width_hint:
            a = _lowest_free(uu)
            b = _lowest_free(uv)
            # walk the a/b alternating path from v; flipping it frees a at v
            # unless the path ends at u
            path = []
            x, want = v, a
            seen = {v}
            while True:
                nxt = None
                for fid in inc.get(x, ()):
                    if slot_of[fid] == want:
                        nxt = fid
                        break
                if nxt is None:
                    break
                y = int(g.edge_u[nxt]) if int(g.edge_v[nxt]) == x else int(g.edge_v[nxt])
                path.append(nxt)
                if y in seen:
                    break
                seen.add(y)
                x, want = y, (b if want == a else a)
            if x != u or not path:
                if x != u:
                    for fid in path:
                        old = slot_of[fid]
                        new = b if old == a else a
                        slot_of[fid] = new
                        for w in (int(g.edge_u[fid]), int(g.edge_v[fid])):
                            used[w] = (used.get(w, 0) & ~(1 << old)) | (1 << new)
                    s = a
                # path ended at u with nonempty path: keep the overflow slot
        slot_of[eid] = s
        for w in (u, v):
            used[w] = used.get(w, 0) | (1 << slot_of[eid])
            inc.setdefault(w, []).append(eid)
    return slot_of


def properize(g: Graph, st: LemmaState, width: int | None) -> ConstructionState:
    """Lift engine classes to colour bands and make the result proper.

    Band for class beta covers colours {B*(beta-1)+1 .. B*beta}. Classes are
    processed in increasing beta; earlier bands are never revisited. With
    width=None the needed band width is learned and used. Raises
    ClassWidthError when a fixed width is exceeded.
    """
    if g.m and int(st.c3e.min(initial=1)) < 1:
        raise ValueError("edge classes must be fully assigned before lifting")
    n, m = g.n, g.m
    v_slot = np.zeros(n, dtype=np.int64)
    e_slot = np.zeros(m, dtype=np.int64)
    classes = sorted(set(int(b) for b in st.c3v) | set(int(b) for b in st.c3e))
    needed = 1
    for beta in classes:
        eids = [i for i in range(m) if int(st.c3e[i]) == beta]
        slots = _colour_class_edges(g, eids, width)
        for eid, s in slots.items():
            e_slot[eid] = s
            needed = max(needed, s + 1)
        for v in range(n):
            if int(st.c3v[v]) != beta:
                continue
            forbid = 0
            for eid in g.incident_edges(v):
                if int(st.c3e[eid]) == beta:
                    forbid |= 1 << int(e_slot[eid])
            for w in g.adjacency[v]:
                if int(st.c3v[w]) == beta and w < v:
                    forbid |= 1 << int(v_slot[w])
            s = _lowest_free(forbid)
            v_slot[v] = s
            needed = max(needed, s + 1)
        # vertex order inside a class is ascending, so w < v covers the
        # already-assigned same-class neighbours exactly
    if width is None:
        width = needed
    elif needed > width:
        raise ClassWidthError(needed)
    vc = width * (st.c3v - 1) + 1 + v_slot
    ec = width * (st.c3e - 1) + 1 + e_slot
    return ConstructionState(vc.astype(np.int64), ec.astype(np.int64),
                             width, st.c3v.copy(), st.c3e.copy())


def repair_small_degree(g: Graph, state: ConstructionState) -> tuple[ConstructionState, int]:
    """Give clashing small-degree vertices a fresh vertex colour.

    Small means 3*degree < max_degree. Scanned in ascending order; a vertex
    is touched only when its sum equals a neighbour's. The replacement colour
    avoids neighbour vertex colours, incident edge colours, and every
    neighbour's current sum. A vertex colour appears in no other vertex's
    sum, so a repair never creates a new clash elsewhere.
    """
    st = state.copy()
    delta = g.max_degree
    sums = _vertex_sums(g, st.vertex_colours, st.edge_colours)
    repaired = 0
    for v in range(g.n):
        if 3 * g.degree(v) >= delta:
            continue
        nbrs = g.adjacency[v]
        nb_sums = {int(sums[w]) for w in nbrs}
        if int(sums[v]) not in nb_sums:
            continue
        forbid_col = {int(st.vertex_colours[w]) for w in nbrs}
        forbid_col |= {int(st.edge_colours[e]) for e in g.incident_edges(v)}
        body = int(sums[v]) - int(st.vertex_colours[v])
        c = 1
        while c in forbid_col or body + c in nb_sums:
            c += 1
        st.vertex_colours[v] = c
        sums[v] = body + c
        repaired += 1
    return st, repaired


def greedy_nsd(g: Graph) -> TotalColouring:
    """Seedless fallback: greedy proper total colouring, then one vertex
    sweep separating equal neighbour sums. Span is at most 3*max_degree + 1
    (and exactly 3 on a single edge)."""
    n, m = g.n, g.m
    vc = np.zeros(n, dtype=np.int64)
    for v in range(n):
        taken = {int(vc[w]) for w in g.adjacency[v] if w < v}
        c = 1
        while c in taken:
            c += 1
        vc[v] = c
    ec = np.zeros(m, dtype=np.int64)
    for eid in range(m):
        u, v = int(g.edge_u[eid]), int(g.edge_v[eid])
        taken = {int(vc[u]), int(vc[v])}
        for w in (u, v):
            for f in g.incident_edges(w):
                if f < eid:
                    taken.add(int(ec[f]))
        c = 1
        while c in taken:
            c += 1
        ec[eid] = c
    sums = None
    if m:
        sums = _vertex_sums(g, vc, ec)
        for v in range(n):
            nbrs = g.adjacency[v]
            nb_sums = {int(sums[w]) for w in nbrs}
            if int(sums[v]) not in nb_sums:
                continue
            forbid = {int(vc[w]) for w in nbrs}
            forbid |= {int(ec[e]) for e in g.incident_edges(v)}
            body = int(sums[v]) - int(vc[v])
            c = 1
            while c in forbid or body + c in nb_sums:
                c += 1
            vc[v] = c
            sums[v] = body + c
    k = 1
    if n:
        k = max(k, int(vc.max()))
    if m:
        k = max(k, int(ec.max()))
    return TotalColouring(vc, ec, k)


def recolour_H(g: Graph, state: ConstructionState, h_edge_ids,
               risky: list[list[int]]) -> tuple[ConstructionState, ReserveInfo]:
    """Move the picked edges onto fresh reserve colours above the span.

    Edges are processed in ascending id. Each pick avoids reserve colours
    already used at either endpoint and any colour that would land an
    endpoint's new sum on the current sum of a risky neighbour. Both endpoint
    sums shift by the same amount, so previously separated pairs stay
    separated; the reserve grows (and records that it grew) if the planned
    size ever runs out. The scan is deterministic.
    """
    st = state.copy()
    h_ids = sorted(int(e) for e in np.asarray(h_edge_ids, dtype=np.int64))
    sums = _vertex_sums(g, st.vertex_colours, st.edge_colours)
    base = st.span
    if h_ids:
        dh = np.bincount(np.concatenate(
            [g.edge_u[h_ids], g.edge_v[h_ids]]), minlength=g.n)
        maxpair = max(len(risky[int(g.edge_u[e])]) + len(risky[int(g.edge_v[e])])
                      for e in h_ids)
        planned = maxpair + 2 * int(dh.max(initial=0)) + 2
    else:
        planned = 0
    size = planned
    used_at: dict[int, set[int]] = {}
    grew = False
    top_used = 0
    for eid in h_ids:
        u, v = int(g.edge_u[eid]), int(g.edge_v[eid])
        old = int(st.edge_colours[eid])
        taken = used_at.get(u, set()) | used_at.get(v, set())
        forbid_u = {int(sums[w]) for w in risky[u] if w != v}
        forbid_v = {int(sums[w]) for w in risky[v] if w != u}
        chosen = None
        offset = 1
        while chosen is None:
            if offset > size:
                size += max(planned, 4)
                grew = True
            c = base + offset
            if (c not in taken
                    and int(sums[u]) - old + c not in forbid_u
                    and int(sums[v]) - old + c not in forbid_v):
                chosen = c
            offset += 1
        st.edge_colours[eid] = chosen
        shift = chosen - old
        sums[u] += shift
        sums[v] += shift
        used_at.setdefault(u, set()).add(chosen)
        used_at.setdefault(v, set()).add(chosen)
        top_used = max(top_used, chosen - base)
    return st, ReserveInfo(base, planned, top_used, grew)


def compute_risky(g: Graph, st: LemmaState, p: LemmaParams,
                  risk: RiskParams) -> list[list[int]]:
    """risky[v]: sorted large neighbours of large v within the score window."""
    deg = g.degrees
    large = 3 * deg >= p.delta
    s2 = p.score2_array(deg, st.c1)
    risky: list[list[int]] = [[] for _ in range(g.n)]
    both = large[g.edge_u] & large[g.edge_v]
    close = np.abs(s2[g.edge_u] - s2[g.edge_v]) <= risk.threshold
    for eid in np.nonzero(both & close)[0]:
        u, v = int(g.edge_u[eid]), int(g.edge_v[eid])
        risky[u].append(v)
        risky[v].append(u)
    for v in range(g.n):
        risky[v].sort()
    return risky


def select_H(g: Graph, p: LemmaParams, seed: int,
             max_rounds: int = 100) -> HSelection:
    """Each large vertex (3*degree >= max_degree) picks two distinct incident
    edges (one if its degree is one); the union is resampled until every
    vertex touches at most cap picked edges.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    deg = g.degrees
    pickers = np.nonzero((3 * deg >= p.delta) & (deg > 0))[0]
    cap = p.caps["dH"]

    picks: dict[int, np.ndarray] = {}
    for v in pickers:
        inc = np.array(g.incident_edges(int(v)), dtype=np.int64)
        k = min(2, inc.size)
        picks[int(v)] = rng.choice(inc, size=k, replace=False)

    rounds = 0
    valid = True
    while True:
        if picks:
            h = np.unique(np.concatenate(list(picks.values())))
        else:
            h = np.array([], dtype=np.int64)
        dh = np.bincount(
            np.concatenate([g.edge_u[h], g.edge_v[h]]) if h.size else
            np.array([], dtype=np.int64), minlength=g.n)
        over = np.nonzero(dh > cap)[0]
        if over.size == 0:
            break
        if rounds >= max_rounds:
            valid = False
            break
        v = int(over[0])
        redraw = sorted(w for w in ([v] + list(g.adjacency[v])) if w in picks)
        for w in redraw:
            inc = np.array(g.incident_edges(w), dtype=np.int64)
            k = min(2, inc.size)
            picks[w] = rng.choice(inc, size=k, replace=False)
        rounds += 1
    return HSelection(h, rounds, valid, cap)
