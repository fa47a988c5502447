"""Pipeline turning the randomised engine's output into a total colouring
whose adjacent vertices get distinct weighted sums.

Phases, in order:

  lift/properize   map each engine target class onto its own band of width B
                   and resolve clashes inside each band (greedy edge colouring
                   with one alternating-path swap attempt per overflow, then
                   vertex slots); raises ClassWidthError when B is too narrow
  compute_risky    per large vertex, the large neighbours whose idealized
                   scores sit within a drift window, so only those pairs need
                   active separation later
  select_H         every large vertex picks two incident edges; the union is
                   resampled until no vertex exceeds the pick-degree cap
  recolour_H       the picked edges move to a reserve of fresh colours above
                   the current span, chosen to dodge the current sums of each
                   endpoint's risky set; both endpoint sums shift equally, and
                   the last pick incident to a risky pair separates it
  repair_small     small-degree vertices with a sum clash get a new vertex
                   colour avoiding neighbour colours, incident edge colours,
                   and all neighbour sums (a vertex colour only moves its own
                   sum, so repairs never cascade)

construct() wraps the phases in a retry ladder that scales the caps and the
risk window, verifies every candidate, and falls back to a deterministic
greedy colouring with span at most 3*max_degree + 1 when the pipeline fails
or overshoots a configured span cap. The greedy fallback is also exposed
directly as greedy_nsd().
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .colouring import TotalColouring, check_nsd, check_proper, vertex_sums
from .graph import Graph
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


def _colour_class_edges(g: Graph, edge_ids, width_hint):
    """Proper slot assignment for one class's edges.

    Greedy lowest-free; when the pick would land at or above width_hint, one
    alternating-path swap is attempted to reuse a slot below it. Returns
    {edge_id: slot}.
    """
    ends = g.edges
    slot_of: dict[int, int] = {}
    used: dict[int, int] = {}
    inc: dict[int, list[int]] = {}
    for eid in edge_ids:
        u, v = ends[eid]
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
                y = ends[nxt][0] if ends[nxt][1] == x else ends[nxt][1]
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
                        for w in ends[fid]:
                            used[w] = (used.get(w, 0) & ~(1 << old)) | (1 << new)
                    s = a
                # path ended at u with nonempty path: keep the overflow slot
        slot_of[eid] = s
        for w in (u, v):
            used[w] = used.get(w, 0) | (1 << slot_of[eid])
            inc.setdefault(w, []).append(eid)
    return slot_of


def _members(cls: np.ndarray) -> dict[int, list[int]]:
    """Ascending ids of each class's members, from one stable argsort."""
    order = np.argsort(cls, kind="stable")
    cuts = np.flatnonzero(np.diff(cls[order])) + 1
    return {int(cls[grp[0]]): grp.tolist()
            for grp in np.split(order, cuts) if grp.size}


def properize(g: Graph, st: LemmaState, width: int | None) -> ConstructionState:
    """Lift engine classes to colour bands and make the result proper.

    Band for class beta covers colours {B*(beta-1)+1 .. B*beta}. Classes are
    processed in increasing beta; earlier bands are never revisited. With
    width=None the needed band width is learned and used. Raises
    ClassWidthError when a fixed width is exceeded.
    """
    if g.m and int(st.c3e.min(initial=1)) < 1:
        raise ValueError("edge classes must be fully assigned before lifting")
    c3v, c3e = st.c3v.tolist(), st.c3e.tolist()
    v_slot = [0] * g.n
    e_slot = [0] * g.m
    v_members, e_members = _members(st.c3v), _members(st.c3e)
    needed = 1
    for beta in sorted(v_members.keys() | e_members.keys()):
        slots = _colour_class_edges(g, e_members.get(beta, ()), width)
        for eid, s in slots.items():
            e_slot[eid] = s
            needed = max(needed, s + 1)
        # vertex order inside a class is ascending, so the neighbours below v
        # are exactly its already-assigned same-class neighbours
        for v in v_members.get(beta, ()):
            forbid = 0
            for eid in g.incident_edges(v):
                if c3e[eid] == beta:
                    forbid |= 1 << e_slot[eid]
            for w in g.adjacency[v]:
                if w >= v:
                    break
                if c3v[w] == beta:
                    forbid |= 1 << v_slot[w]
            s = _lowest_free(forbid)
            v_slot[v] = s
            needed = max(needed, s + 1)
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
    comparison bound on doubled scores. covered_intervals bounds how many
    score intervals the window spans, which together with the interval
    occupancy cap bounds the risky set size.
    """

    def __init__(self, p: LemmaParams, scale: float = 1.0):
        x = float(max(p.delta, 0))
        L = p.ln_floor
        self.fault_cap = 5.5 * x ** (5 / 3) * L ** (1 / 3)
        self.repair_slack = 16.0 * x * L
        self.scale = float(scale)
        self.window = 2.0 * self.scale * (self.fault_cap + self.repair_slack)
        self.threshold = int(math.floor(2.0 * self.window))
        if p.interval_len > 0:
            ratio = 2.0 * self.window / float(p.interval_len)
            self.covered_intervals = int(math.ceil(ratio)) + 1
        else:
            self.covered_intervals = 0
        self.allowed_max = self.covered_intervals * p.caps["VI"]


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


# ---------------------------------------------------------------------------
# pick-two edge selection

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


# ---------------------------------------------------------------------------
# reserve recolouring

@dataclass
class ReserveInfo:
    base: int
    planned: int
    used: int
    grew: bool


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
    sums = vertex_sums(g, st.vertex_colours, st.edge_colours)
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


def _clear_sum_ties(g: Graph, vc: list[int], ec: list[int], sums: list[int],
                    vertices) -> int:
    """Recolour each listed vertex whose sum equals a neighbour's, in order.

    The new colour is the smallest one avoiding neighbour vertex colours,
    incident edge colours, and every neighbour's current sum. vc and sums are
    updated in place; returns how many vertices were recoloured.
    """
    moved = 0
    for v in vertices:
        nbrs = g.adjacency[v]
        nb_sums = {sums[w] for w in nbrs}
        if sums[v] not in nb_sums:
            continue
        forbid = {vc[w] for w in nbrs}
        forbid.update(ec[e] for e in g.incident_edges(v))
        body = sums[v] - vc[v]
        c = 1
        while c in forbid or body + c in nb_sums:
            c += 1
        vc[v] = c
        sums[v] = body + c
        moved += 1
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
    sums = vertex_sums(g, st.vertex_colours, st.edge_colours).tolist()
    small = [v for v, d in enumerate(g.degrees.tolist()) if 3 * d < g.max_degree]
    repaired = _clear_sum_ties(g, vc, st.edge_colours.tolist(), sums, small)
    st.vertex_colours[:] = vc
    return st, repaired


# ---------------------------------------------------------------------------
# deterministic fallback

def greedy_nsd(g: Graph) -> TotalColouring:
    """Seedless fallback: greedy proper total colouring, then one vertex
    sweep separating equal neighbour sums. Span is at most 3*max_degree + 1
    (and exactly 3 on a single edge).

    Vertices, then edges in id order, take the lowest free colour. Each
    vertex keeps a bitmask of the colours at it (its own, its coloured edges,
    and bit 0), so an edge's pick is one OR of its endpoints' masks: O(m)
    bitmask operations instead of rescanning incident edges.
    """
    vc = [0] * g.n
    for v in range(g.n):
        used = 1
        for w in g.adjacency[v]:
            if w >= v:
                break
            used |= 1 << vc[w]
        vc[v] = _lowest_free(used)
    used = [1 | (1 << c) for c in vc]
    ec = []
    for u, v in g.edges:
        c = _lowest_free(used[u] | used[v])
        ec.append(c)
        used[u] |= 1 << c
        used[v] |= 1 << c
    sums = vertex_sums(g, np.array(vc, dtype=np.int64),
                       np.array(ec, dtype=np.int64)).tolist()
    _clear_sum_ties(g, vc, ec, sums, range(g.n))
    return TotalColouring(vc, ec, max([1, *vc, *ec]))


# ---------------------------------------------------------------------------
# top-level pipeline

@dataclass
class ConstructConfig:
    seed: int = 0
    mode: str = "permissive"
    slack: float = 2.0
    rounds: int = 200
    retries: int = 3
    slack_growth: float = 2.0
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
    info["risky_max"] = max((len(r) for r in risky), default=0)
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

    Permissive mode widens caps and the risk window by slack_growth each
    retry; a candidate only counts when the independent verifier passes it.
    If every attempt fails, or a valid candidate exceeds span_cap, the
    greedy fallback is substituted and flagged. Strict mode builds strict
    engine parameters and so refuses degrees below the feasibility predicate.
    The result is deterministic in (graph, config).
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
        ladder = [cfg.slack * cfg.slack_growth ** i for i in range(max(cfg.retries, 1))]
    else:
        raise ValueError(f"unknown mode {cfg.mode!r}")

    best: TotalColouring | None = None
    for attempt, slack in enumerate(ladder):
        if cfg.mode == "strict":
            p = LemmaParams(delta, strict=True)
        else:
            p = LemmaParams(delta, slack=slack)
        colouring, info = _attempt_pipeline(g, p, slack, cfg, attempt)
        report.attempts.append(info)
        if info["valid"]:
            best = colouring
            report.chosen_attempt = attempt
            break

    if best is None:
        best = greedy_nsd(g)
        report.fallback_used = True
    report.pipeline_span = None if report.fallback_used else best.span

    if cfg.span_cap is not None and best.span > cfg.span_cap:
        fb = greedy_nsd(g)
        report.span_capped = True
        report.fallback_used = True
        best = fb

    report.span = best.span
    report.valid = (not check_proper(g, best)) and (not check_nsd(g, best))
    return best, report
