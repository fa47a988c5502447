"""Pipeline turning the randomised engine's output into a total colouring
whose adjacent vertices get distinct weighted sums.

Phases, in order:

  lift/properize   map each engine target class onto its own band of width B
                   and resolve clashes inside each band (greedy edge colouring
                   with one alternating-path swap attempt per overflow, then
                   vertex slots); raises ClassWidthError when B is too narrow
  compute_risky    a mask of the risky edges: those joining two large
                   vertices whose idealized scores sit within a drift window,
                   so only those pairs need active separation later
  select_H         every large vertex picks two incident edges; the union is
                   resampled until no vertex exceeds the pick-degree cap
  recolour_H       the picked edges move to a reserve of fresh colours above
                   the current span, chosen to dodge the current sums of each
                   endpoint's risky neighbours, looked up in an index from
                   sum to holders; both endpoint sums shift equally, and the
                   last pick incident to a risky pair separates it
  repair_small     small-degree vertices with a sum clash get a new vertex
                   colour avoiding neighbour colours, incident edge colours,
                   and all neighbour sums (a vertex colour only moves its own
                   sum, so repairs never cascade)

construct() wraps the phases in a retry ladder that scales the caps and the
risk window, verifies every candidate, and falls back to a deterministic
greedy colouring with span at most 3*max_degree + 1 when the pipeline fails
or overshoots a configured span cap. Under a cap, an attempt stops right
after stage two when its band floor b_unit*(max_class-1)+1, a lower bound on
the span it would reach, already exceeds the cap; the phases above then do
not run. The greedy fallback is also exposed directly as greedy_nsd().
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .colouring import (TotalColouring, check_nsd, check_proper, is_valid,
                        vertex_sums)
from .graph import Graph, sorted_unique
from .lemma import LemmaParams, LemmaState, resample_until_valid, stage_two


def reference_span_bound(delta: int) -> float:
    """Asymptotic span guarantee D + 139 D^{5/6} ln^{1/6} D (ln floored at 1)."""
    if delta <= 0:
        return float(delta)
    L = max(math.log(delta), 1.0)
    return delta + 139.0 * delta ** (5 / 6) * L ** (1 / 6)


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


def _lowest_free(used: int) -> int:
    # lowest clear bit of the slot bitmask
    return ((used + 1) & ~used).bit_length() - 1


def _members(cls: np.ndarray) -> list[list[int]]:
    """Ascending ids of each class's members, by ascending class, from one
    stable argsort."""
    order = np.argsort(cls, kind="stable")
    cuts = np.flatnonzero(np.diff(cls[order])) + 1
    return [grp.tolist() for grp in np.split(order, cuts) if grp.size]


def _colour_class_edges(g: Graph, edge_u: list[int], edge_v: list[int],
                        c3e: list[int], edge_ids: list[int], width_hint,
                        e_slot: list[int]) -> None:
    """Proper slots for one class's edges, ascending ids, written into e_slot.

    edge_u[eid] and edge_v[eid] are the endpoints and c3e[eid] the class.
    Each edge takes the lowest slot free at both endpoints, read from a
    per-vertex bitmask of the class's slots. When the pick would land at or
    above width_hint, one alternating-path swap is attempted to reuse a slot
    below it. The walk reads a vertex's already-slotted edges of the class
    from its run of g.incidences (ids below the current edge), so no
    per-vertex edge lists are kept while no swap runs.
    """
    used = [0] * g.n
    for eid in edge_ids:
        u, v = edge_u[eid], edge_v[eid]
        taken = used[u] | used[v]
        s = ((taken + 1) & ~taken).bit_length() - 1
        if width_hint is not None and s >= width_hint:
            beta = c3e[eid]
            a = _lowest_free(used[u])
            b = _lowest_free(used[v])
            # walk the a/b alternating path from v; flipping it frees a at v
            # unless the path ends at u
            path = []
            x, want = v, a
            seen = {v}
            while True:
                run = g.incidences([x])[1].tolist()
                nxt = next((f for f in run if f < eid and c3e[f] == beta
                            and e_slot[f] == want), None)
                if nxt is None:
                    break
                y = edge_u[nxt] if edge_v[nxt] == x else edge_v[nxt]
                path.append(nxt)
                if y in seen:
                    break
                seen.add(y)
                x, want = y, (b if want == a else a)
            # a path that ends at u keeps the overflow slot
            if x != u:
                for fid in path:
                    old = e_slot[fid]
                    new = b if old == a else a
                    e_slot[fid] = new
                    for w in (edge_u[fid], edge_v[fid]):
                        used[w] = (used[w] & ~(1 << old)) | (1 << new)
                s = a
        e_slot[eid] = s
        used[u] |= 1 << s
        used[v] |= 1 << s


def _vertex_slots(g: Graph, st: LemmaState, e_slot: list[int]) -> list[int]:
    """Each vertex's lowest slot free of the slots of its incident edges and
    of its lower neighbours in its own class, in ascending vertex order.

    Array masks find the same-class incidences and neighbour pairs, so the
    loops touch only those.
    """
    ends = np.concatenate([g.edge_u, g.edge_v])
    at = np.flatnonzero(np.tile(st.c3e, 2) == st.c3v[ends])
    forbid = [0] * g.n
    for x, eid in zip(ends[at].tolist(), (at % max(g.m, 1)).tolist()):
        forbid[x] |= 1 << e_slot[eid]
    # same-class neighbour pairs (lo, hi) grouped by hi, whose slot needs
    # every lo slot first; lo < hi, so ascending order provides them
    same = np.flatnonzero(st.c3v[g.edge_u] == st.c3v[g.edge_v])
    same = same[np.argsort(g.edge_v[same], kind="stable")]
    lower = g.edge_u[same].tolist()
    bounds = np.cumsum(np.bincount(g.edge_v[same], minlength=g.n)).tolist()
    v_slot = [0] * g.n
    start = 0
    for v, end in enumerate(bounds):
        f = forbid[v]
        for w in lower[start:end]:
            f |= 1 << v_slot[w]
        start = end
        v_slot[v] = ((f + 1) & ~f).bit_length() - 1
    return v_slot


def properize(g: Graph, st: LemmaState, width: int | None) -> ConstructionState:
    """Lift engine classes to colour bands and make the result proper.

    Band for class beta covers colours {B*(beta-1)+1 .. B*beta}. Each class
    is coloured on its own, edges first; no slot depends on another class.
    With width=None the needed band width is learned and used. Raises
    ClassWidthError when a fixed width is exceeded.
    """
    if g.m and int(st.c3e.min(initial=1)) < 1:
        raise ValueError("edge classes must be fully assigned before lifting")
    c3e = st.c3e.tolist()
    edge_u, edge_v = g.edge_u.tolist(), g.edge_v.tolist()
    e_slot = [0] * g.m
    for members in _members(st.c3e):
        _colour_class_edges(g, edge_u, edge_v, c3e, members, width, e_slot)
    v_slot = _vertex_slots(g, st, e_slot)
    needed = 1 + max(max(e_slot, default=0), max(v_slot, default=0))
    if width is None:
        width = needed
    elif needed > width:
        raise ClassWidthError(needed)
    vc = width * (st.c3v - 1) + 1 + np.array(v_slot, dtype=np.int64)
    ec = width * (st.c3e - 1) + 1 + np.array(e_slot, dtype=np.int64)
    return ConstructionState(vc.astype(np.int64), ec.astype(np.int64),
                             width, st.c3v.copy(), st.c3e.copy())


# ---------------------------------------------------------------------------
# risk window

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


def compute_risky(g: Graph, st: LemmaState, p: LemmaParams,
                  risk: RiskParams) -> np.ndarray:
    """The risky-edge mask, one bool per edge id: the edges joining two large
    vertices whose doubled scores lie within the window."""
    deg = g.degrees
    large = 3 * deg >= p.delta
    s2 = p.score2_array(deg, st.c1)
    eu, ev = g.edge_u, g.edge_v
    return large[eu] & large[ev] & (np.abs(s2[eu] - s2[ev]) <= risk.threshold)


# ---------------------------------------------------------------------------
# pick-two edge selection

# 64-bit words per read of select_H's raw stream
_RAW_BLOCK = 1 << 10


class PickTwo:
    """Generator.choice(n, size=min(2, n), replace=False) on a PCG64 seeded
    with SeedSequence(seed), draw for draw, read from the raw 64-bit stream.

    numpy 2.4 draws such a pick by Floyd's algorithm: a in [0, n-2], then b
    in [0, n-1], which becomes n-1 if it equals a; then one draw in [0, 1]
    shuffles the pair, swapping it on 0. A draw over one value takes no
    word, so n = 1 draws nothing. Each draw is Lemire's bounded product of a
    32-bit word, with numpy's rejection. The words are the raw words' low
    then high halves, as PCG64's next_uint32 buffers them. n must be below
    2^32, which every vertex degree is.
    """

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(np.random.SeedSequence(seed))
        self._words: list[int] = []
        self._at = 0

    def _below(self, bound: int) -> int:
        # numpy tests the threshold only when the low half is below bound;
        # the threshold is below bound, so the outcome is the same
        threshold = (1 << 32) % bound
        while True:
            if self._at == len(self._words):
                raw = self._bits.random_raw(_RAW_BLOCK)
                self._words = raw.astype("<u8").view("<u4").tolist()
                self._at = 0
            m = self._words[self._at] * bound
            self._at += 1
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def pick(self, n: int) -> tuple[int, int]:
        """The two picked positions in choice's order; (0, 0) when n is 1."""
        if n == 1:
            return 0, 0
        a = self._below(n - 1) if n > 2 else 0
        b = self._below(n)
        if b == a:
            b = n - 1
        return (b, a) if self._below(2) == 0 else (a, b)


@dataclass
class HSelection:
    edge_ids: np.ndarray
    rounds: int
    valid: bool
    cap: int


def select_H(g: Graph, p: LemmaParams, seed: int,
             max_rounds: int = 100) -> HSelection:
    """Each large vertex (3*degree >= max_degree) picks two distinct incident
    edges (one if its degree is one); the union is resampled until every
    vertex touches at most cap picked edges.

    The picks are those of one Generator.choice(run, size=min(2, degree),
    replace=False) per picker and redrawn picker, in ascending vertex order
    each, on one generator seeded with SeedSequence(seed); PickTwo makes
    them from the raw stream. A pick is two positions in the flat run of
    the pickers' incident edge ids.
    """
    deg = g.degrees
    pickers = np.flatnonzero((3 * deg >= p.delta) & (deg > 0))
    cap = p.caps["dH"]

    _, inc, ends = g.incidences(pickers)
    sizes = deg[pickers].tolist()
    starts = [end - size for end, size in zip(ends.tolist(), sizes)]
    slot = {v: i for i, v in enumerate(pickers.tolist())}
    draw = PickTwo(seed).pick
    picked = []
    for start, size in zip(starts, sizes):
        a, b = draw(size)
        picked += (start + a, start + b)

    rounds = 0
    valid = True
    while True:
        h = sorted_unique(inc[np.array(picked, dtype=np.int64)])
        over = np.flatnonzero(g.endpoint_counts(h) > cap)
        if over.size == 0:
            break
        if rounds >= max_rounds:
            valid = False
            break
        nbrs = g.incidences(over[:1])[0].tolist()
        for w in sorted([int(over[0]), *nbrs]):
            i = slot.get(w)
            if i is not None:
                a, b = draw(sizes[i])
                picked[2 * i:2 * i + 2] = starts[i] + a, starts[i] + b
        rounds += 1
    return HSelection(h, rounds, valid, cap)


# ---------------------------------------------------------------------------
# reserve recolouring

@dataclass
class ReserveInfo:
    base: int
    planned: int
    used: int
    grew: bool = False  # the planned reserve always suffices; kept for reports


def recolour_H(g: Graph, state: ConstructionState, h_edge_ids,
               risky: np.ndarray) -> tuple[ConstructionState, ReserveInfo]:
    """Move the picked edges onto fresh reserve colours above the span.

    risky is compute_risky's edge mask. Edges are processed in ascending id.
    Each pick takes the lowest reserve colour not already used at either
    endpoint and not landing an endpoint's new sum on the current sum of
    one of its risky neighbours other than the far endpoint. Both endpoint
    sums shift by the same amount, so previously separated pairs stay
    separated. The scan is deterministic.

    A pick at (u, v) finds at most dh[u]-1 + dh[v]-1 used colours and
    risky[u] + risky[v] neighbour sums in its way, where dh and risky count
    picked and risky edges at a vertex: planned-4 offsets at most. So the
    chosen offset is at most planned-3, and the planned reserve never grows.

    A candidate's sums are looked up in an index from each sum to the
    vertices on risky edges that hold it, and a holder's edge to the
    endpoint in the sorted risky edge keys, so a pick costs the candidates
    it tries, not the endpoints' risky degrees.
    """
    st = state.copy()
    h_ids = sorted(np.asarray(h_edge_ids, dtype=np.int64).tolist())
    base = st.span
    if not h_ids:
        return st, ReserveInfo(base, 0, 0)
    sums = vertex_sums(g, st.vertex_colours, st.edge_colours).tolist()
    us, vs = g.edge_u[h_ids].tolist(), g.edge_v[h_ids].tolist()
    rdeg = g.endpoint_counts(risky)
    planned = (int((rdeg[us] + rdeg[vs]).max())
               + 2 * int(g.endpoint_counts(h_ids).max()) + 2)

    n = g.n
    risky_keys = g._keys[risky]     # sorted, as g._keys is
    holders: dict[int, set[int]] = {}
    on_risky = rdeg.astype(bool).tolist()
    for w in np.flatnonzero(rdeg).tolist():
        holders.setdefault(sums[w], set()).add(w)

    def blocked(x: int, y: int, s: int) -> bool:
        # a risky neighbour of x other than y holds sum s
        for w in holders.get(s, ()):
            if w != y:
                key = x * n + w if x < w else w * n + x
                i = risky_keys.searchsorted(key)
                if i < risky_keys.size and risky_keys[i] == key:
                    return True
        return False

    colours = dict(zip(h_ids, st.edge_colours[h_ids].tolist()))
    used_at: dict[int, int] = {}   # bitmask of the reserve offsets at a vertex
    top_used = 0
    for eid, u, v in zip(h_ids, us, vs):
        old = colours[eid]
        # bit 0 set: offsets start at 1
        taken = used_at.get(u, 1) | used_at.get(v, 1)
        rest_u, rest_v = sums[u] - old + base, sums[v] - old + base
        offset = _lowest_free(taken)
        while blocked(u, v, rest_u + offset) or blocked(v, u, rest_v + offset):
            taken |= 1 << offset
            offset = _lowest_free(taken)
        chosen = base + offset
        colours[eid] = chosen
        shift = chosen - old
        for x in (u, v):
            if on_risky[x]:
                holders[sums[x]].discard(x)
                holders.setdefault(sums[x] + shift, set()).add(x)
            sums[x] += shift
            used_at[x] = used_at.get(x, 1) | 1 << offset
        top_used = max(top_used, offset)
    st.edge_colours[list(colours)] = list(colours.values())
    return st, ReserveInfo(base, planned, top_used)


def _clear_sum_ties(g: Graph, vc: list[int], ec: np.ndarray, sums: np.ndarray,
                    keep: np.ndarray) -> int:
    """Recolour each vertex of the mask keep whose sum equals a neighbour's,
    in ascending order.

    The new colour is the smallest one avoiding neighbour vertex colours,
    incident edge colours, and every neighbour's current sum. A move changes
    only the moved vertex's sum, to one no neighbour has, so a vertex with no
    tie at the start never gets one: only the endpoints of edges whose sums
    are equal at the start are scanned. vc is updated in place; returns how
    many vertices were recoloured.
    """
    tie = sums[g.edge_u] == sums[g.edge_v]
    tied = np.zeros(g.n, dtype=bool)
    tied[g.edge_u[tie]] = True
    tied[g.edge_v[tie]] = True
    verts = np.flatnonzero(tied & keep)
    far, ids, ends = g.incidences(verts)
    far, cols, sums = far.tolist(), ec[ids].tolist(), sums.tolist()
    moved = 0
    start = 0
    for v, end in zip(verts.tolist(), ends.tolist()):
        nbrs = far[start:end]
        nb_sums = {sums[w] for w in nbrs}
        if sums[v] in nb_sums:
            forbid = {vc[w] for w in nbrs}
            forbid.update(cols[start:end])
            body = sums[v] - vc[v]
            c = 1
            while c in forbid or body + c in nb_sums:
                c += 1
            vc[v] = c
            sums[v] = body + c
            moved += 1
        start = end
    return moved


def repair_small_degree(g: Graph, state: ConstructionState) -> tuple[ConstructionState, int]:
    """Give clashing small-degree vertices a fresh vertex colour.

    Small means 3*degree < max_degree. Scanned in ascending order; a vertex
    is touched only when its sum equals a neighbour's. The replacement colour
    avoids neighbour vertex colours, incident edge colours, and every
    neighbour's current sum. A vertex colour appears in no other vertex's
    sum, so a repair never creates a new clash elsewhere.
    """
    st = state.copy()
    vc = st.vertex_colours.tolist()
    sums = vertex_sums(g, st.vertex_colours, st.edge_colours)
    repaired = _clear_sum_ties(g, vc, st.edge_colours, sums,
                               3 * g.degrees < g.max_degree)
    st.vertex_colours[:] = vc
    return st, repaired


# ---------------------------------------------------------------------------
# deterministic fallback

def greedy_nsd(g: Graph) -> TotalColouring:
    """Seedless fallback: greedy proper total colouring, then one vertex
    sweep separating equal neighbour sums. Span is at most 3*max_degree + 1
    (and exactly 3 on a single edge).

    Vertices in ascending order, then edges in id order, take the lowest
    free colour. A vertex reads its lower neighbours from a stable argsort
    of edge_v taken from Graph._vertex_order. Each vertex keeps a bitmask of
    the colours at it (its own, its coloured edges, and bit 0), so an edge's
    pick is one OR of its endpoints' masks. Edge ids are sorted by (u, v),
    so the edges of each u to its higher neighbours are one id run, over
    which u's mask stays in a local. The edge pass keeps colours, not bits:
    a list of bits several hundred wide costs megabytes.
    """
    n = g.n
    # the entries of Graph._vertex_order below m, the edges (w, v), w < v, met
    # at v, are a stable argsort of edge_v: grouped by v with w ascending
    order = g._vertex_order
    lower = g.edge_u[order[order < g.m]].tolist()
    vc = [0] * n
    start = 0
    for v, end in enumerate(np.cumsum(np.bincount(g.edge_v, minlength=n)).tolist()):
        used = 1
        for w in lower[start:end]:
            used |= 1 << vc[w]
        vc[v] = ((used + 1) & ~used).bit_length() - 1
        start = end
    used = [1 | (1 << c) for c in vc]
    higher = g.edge_v.tolist()
    ec = []
    start = 0
    for u, end in enumerate(np.cumsum(np.bincount(g.edge_u, minlength=n)).tolist()):
        mask = used[u]
        for v in higher[start:end]:
            taken = mask | used[v]
            bit = (taken + 1) & ~taken
            ec.append(bit.bit_length() - 1)
            mask |= bit
            used[v] |= bit
        start = end
    ec = np.array(ec, dtype=np.int64)
    sums = vertex_sums(g, np.array(vc, dtype=np.int64), ec)
    _clear_sum_ties(g, vc, ec, sums, np.ones(n, dtype=bool))
    return TotalColouring(vc, ec, max(1, *vc, int(ec.max(initial=1))))


# ---------------------------------------------------------------------------
# top-level pipeline

@dataclass
class ConstructConfig:
    seed: int = 0
    mode: str = "permissive"
    slack: float = 2.0
    rounds: int = 200
    retries: int = 3
    span_cap: int | None = None


@dataclass
class RunReport:
    """Everything construct() decided, for audit and serialization."""
    mode: str
    n: int
    m: int
    max_degree: int
    seed: int
    attempts: list = field(default_factory=list)
    chosen_attempt: int | None = None
    fallback_used: bool = False
    fallback_reason: str | None = None  # "no-valid-attempt" or "span-cap"
    span_capped: bool = False
    pipeline_span: int | None = None
    span: int = 0
    delta_plus_3: int = 0
    reference_bound: float = 0.0
    valid: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def _phase_seeds(seed: int, attempt: int) -> list[int]:
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFF, attempt])
    return [int(x) for x in ss.generate_state(3, dtype=np.uint64)]


def _attempt_pipeline(g: Graph, p: LemmaParams, slack: float,
                      cfg: ConstructConfig, attempt: int):
    s_res, s_st2, s_hsel = _phase_seeds(cfg.seed, attempt)
    info: dict = {"slack": slack}
    r1 = resample_until_valid(g, p, s_res, cfg.rounds)
    info["stage1_rounds"] = r1.rounds
    info["stage1_valid"] = r1.valid
    r2 = stage_two(g, r1.state, p, s_st2, cfg.rounds)
    info.update(stage2_rounds=r2.rounds, stage2_valid=r2.valid,
                e1_count=r2.e1_count, e2_count=r2.e2_count,
                h1_max_degree=r2.h1_max_degree, h2_max_degree=r2.h2_max_degree)

    # The band floor bounds this attempt's final span from below. properize
    # puts an edge of class beta at width*(beta-1)+1 or above, and the width
    # is never below b_unit: a relift follows a ClassWidthError at b_unit and
    # either takes the larger width it asked for or learns one, and the
    # learned run agrees with the b_unit run up to its first slot >= b_unit,
    # which it keeps. recolour_H only moves edges above the current span and
    # repair_small_degree only changes vertex colours, so no edge colour ever
    # drops. A floor above the span cap means the pipeline's colouring would
    # be replaced anyway, so the attempt stops here with no colouring.
    floor = p.b_unit * (int(r2.state.c3e.max()) - 1) + 1
    info["band_floor"] = floor
    if cfg.span_cap is not None and floor > cfg.span_cap:
        return None, info

    relifts = 0
    width = p.b_unit
    cs = None
    while cs is None:
        try:
            cs = properize(g, r2.state, width)
        except ClassWidthError as exc:
            relifts += 1
            width = None if relifts >= 2 else exc.needed
    info["b_width"] = cs.width
    info["relifts"] = relifts

    risk = RiskParams(p, scale=slack)
    risky = compute_risky(g, r2.state, p, risk)
    info["risky_max"] = int(g.endpoint_counts(risky).max(initial=0))
    info["risky_allowed"] = risk.allowed_max

    hsel = select_H(g, p, s_hsel, cfg.rounds)
    info["h_edges"] = int(hsel.edge_ids.size)
    info["h_rounds"] = hsel.rounds
    info["h_valid"] = hsel.valid

    cs, reserve = recolour_H(g, cs, hsel.edge_ids, risky)
    info.update(reserve_base=reserve.base, reserve_planned=reserve.planned,
                reserve_used=reserve.used, reserve_grew=reserve.grew)

    cs, repaired = repair_small_degree(g, cs)
    info["repaired"] = repaired

    colouring = TotalColouring(cs.vertex_colours, cs.edge_colours, cs.span)
    proper = check_proper(g, colouring)
    nsd = check_nsd(g, colouring)
    info["proper_violations"] = len(proper)
    info["nsd_violations"] = len(nsd)
    info["span"] = colouring.span
    info["valid"] = not proper and not nsd
    return colouring, info


def construct(g: Graph, config: ConstructConfig | None = None) -> tuple[TotalColouring, RunReport]:
    """Run the pipeline with a verifying retry ladder.

    Permissive mode doubles the caps and the risk window on each retry; a
    candidate only counts when the independent verifier passes it.
    If every attempt fails, or a valid candidate exceeds span_cap, the
    greedy fallback is substituted and flagged, with fallback_reason
    "no-valid-attempt" or "span-cap". With span_cap set, an attempt whose
    band floor (recorded as band_floor) exceeds the cap ends the ladder
    before properize: its colouring could only be over the cap, so the
    fallback is served at once and chosen_attempt and pipeline_span stay
    None. Strict mode builds strict engine parameters and so refuses degrees
    below the feasibility predicate. The result is deterministic in
    (graph, config).
    """
    cfg = config or ConstructConfig()
    delta = g.max_degree
    report = RunReport(mode=cfg.mode, n=g.n, m=g.m, max_degree=delta,
                       seed=cfg.seed, delta_plus_3=delta + 3,
                       reference_bound=reference_span_bound(delta))
    if g.m == 0:
        colouring = TotalColouring(np.ones(g.n, dtype=np.int64),
                                   np.zeros(0, dtype=np.int64), 1)
        report.span = 1
        report.pipeline_span = 1
        report.valid = True
        report.attempts.append({"slack": cfg.slack, "edgeless": True,
                                "span": 1, "valid": True})
        report.chosen_attempt = 0
        return colouring, report

    if cfg.mode == "strict":
        LemmaParams(delta, strict=True)  # refuses infeasible degrees up front
        ladder = [1.0]
    elif cfg.mode == "permissive":
        ladder = [cfg.slack * 2.0 ** i for i in range(max(cfg.retries, 1))]
    else:
        raise ValueError(f"unknown mode {cfg.mode!r}")

    cap = cfg.span_cap
    best: TotalColouring | None = None
    for attempt, slack in enumerate(ladder):
        if cfg.mode == "strict":
            p = LemmaParams(delta, strict=True)
        else:
            p = LemmaParams(delta, slack=slack)
        colouring, info = _attempt_pipeline(g, p, slack, cfg, attempt)
        report.attempts.append(info)
        if colouring is None:  # band floor above the cap
            report.span_capped = True
            break
        if info["valid"]:
            report.chosen_attempt = attempt
            report.pipeline_span = colouring.span
            report.span_capped = cap is not None and colouring.span > cap
            if not report.span_capped:
                best = colouring
                report.valid = True
            break

    if best is None:
        best = greedy_nsd(g)
        report.fallback_used = True
        report.fallback_reason = ("span-cap" if report.span_capped
                                  else "no-valid-attempt")
        if cap is not None and best.span > cap:
            report.span_capped = True
        report.valid = is_valid(g, best)

    report.span = best.span
    return best, report
