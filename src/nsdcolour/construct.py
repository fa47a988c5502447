"""Pipeline turning the randomised engine's output into a total colouring
whose adjacent vertices get distinct weighted sums.

Phases, in order:

  properize        map each engine target class onto its own band of width B
                   and resolve clashes inside each band (greedy edge colouring
                   with one alternating-path swap attempt per overflow, then
                   vertex slots); B widens to the slots the classes need
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
                        weighted_degrees)
from .graph import Graph, sorted_unique
from .lemma import LemmaParams, LemmaState, check_slack, resample_until_valid, stage_two


def reference_span_bound(delta: int) -> float:
    """Asymptotic span guarantee D + 139 D^{5/6} ln^{1/6} D (ln floored at 1)."""
    if delta <= 0:
        return float(delta)
    L = max(math.log(delta), 1.0)
    return delta + 139.0 * delta ** (5 / 6) * L ** (1 / 6)


def _spanned(vc, ec: np.ndarray) -> TotalColouring:
    """vc and ec as a TotalColouring bounded by its span (1 when empty)."""
    vc = np.asarray(vc, dtype=np.int64)
    return TotalColouring(vc, ec, max(int(vc.max(initial=1)),
                                      int(ec.max(initial=1))))


def _lowest_free(used: int) -> int:
    # lowest clear bit of the slot bitmask
    return ((used + 1) & ~used).bit_length() - 1


def _colour_class_edges(g: Graph, ids: np.ndarray, width_hint,
                        used: list[int] | None = None) -> tuple[list, list]:
    """Proper slots for the edges ids, ascending, in their order; and each
    vertex's mask: its seed in used (0 without seeds) ORed with its slots.

    Each edge takes the lowest slot free at both endpoints. When the pick
    would land at or above width_hint, one alternating-path swap is
    attempted to reuse a slot below it; a swap takes the masks to hold only
    edge slots, so seeds go with width_hint=None. The ids run by smaller
    endpoint u, whose mask stays in a local for its run: a swap never
    changes it, as u lacks the swap slot a, so no path passes through u,
    and one that ends at u is not flipped. The walk reads a vertex's
    slotted edges from its run of g.incidences, through a map from edge id
    to position in ids that the first swap builds; so no per-vertex edge
    lists are kept, and no map while no swap runs.
    """
    eu, edge_v = g.edge_u[ids], g.edge_v[ids].tolist()
    starts = np.flatnonzero(np.diff(eu, prepend=-1))
    used = [0] * g.n if used is None else used
    # with no hint, a width no slot reaches: a slot is at most the number of
    # bits set at its two endpoints
    width = (2 * (g.max_degree + max(used, default=0).bit_length())
             if width_hint is None else width_hint)
    slots, pos = [], None
    for u, start, end in zip(eu[starts].tolist(), starts.tolist(),
                             starts[1:].tolist() + [len(edge_v)]):
        mask = used[u]
        for v in edge_v[start:end]:
            taken = mask | used[v]
            bit = (taken + 1) & ~taken      # the lowest slot free at both ends
            slot = bit.bit_length() - 1
            if slot >= width:
                pos = pos or dict(zip(ids.tolist(), range(len(ids))))
                top = len(slots)    # the positions below top have their slots
                a = _lowest_free(mask)
                b = _lowest_free(used[v])
                # walk the a/b alternating path from v; flipping it frees a at
                # v unless the path ends at u. Proper slots make it a path of
                # at most len(ids) edges: a longer walk is a cycle, so raise
                path = []
                x, want = v, a
                for _ in range(len(ids) + 1):
                    far, out, _ = g.incidences([x])
                    for y, f in zip(far.tolist(), out.tolist()):
                        i = pos.get(f, top)
                        if i < top and slots[i] == want:
                            break
                    else:
                        break       # x has no edge of slot want
                    path.append(i)
                    x, want = y, want ^ a ^ b
                else:
                    raise RuntimeError("slots not proper: the walk cycles")
                # a path that ends at u keeps the overflow slot; a flipped
                # path changes which of a and b its two ends hold, and no
                # other vertex's slots
                if x != u:
                    for i in path:
                        slots[i] ^= a ^ b
                    used[v] ^= (1 << a) | (1 << b)
                    used[x] ^= (1 << a) | (1 << b)
                    slot, bit = a, 1 << a
            slots.append(slot)
            mask |= bit
            used[v] |= bit
        used[u] = mask
    return slots, used


def _first_fit(g: Graph, ids: np.ndarray, forbid: list[int]) -> list[int]:
    """Each vertex, in ascending order, takes the lowest bit clear in
    forbid[v] and in the bits its lower neighbours took over the edges ids.
    ids is grouped by larger endpoint, as a stable argsort of edge_v is."""
    lower = g.edge_u[ids].tolist()
    bounds = np.cumsum(np.bincount(g.edge_v[ids], minlength=g.n)).tolist()
    slot = [0] * g.n
    start = 0
    for v, end in enumerate(bounds):
        f = forbid[v]
        for w in lower[start:end]:
            f |= 1 << slot[w]
        slot[v] = ((f + 1) & ~f).bit_length() - 1
        start = end
    return slot


def properize(g: Graph, st: LemmaState,
              width: int | None) -> tuple[TotalColouring, int]:
    """Lift engine classes to colour bands and make the result proper.

    Band for class beta covers colours {B*(beta-1)+1 .. B*beta}. Each class
    is coloured on its own, edges first; no slot depends on another class.
    width is where the edge pass starts its alternating-path swaps, and B is
    the larger of width and the slots the classes then need; with
    width=None no swap runs and B is the needed width. Returns the colouring
    and B. The classes are slotted one at a time, over a stable argsort of
    c3e; when a class ends, its masks at its own vertices are what the
    vertex pass must avoid besides lower same-class neighbours' slots.
    """
    if g.m and int(st.c3e.min(initial=1)) < 1:
        raise ValueError("edge classes must be fully assigned before lifting")
    order = np.argsort(st.c3e, kind="stable")
    slots, forbid = [], [0] * g.n
    cuts = np.cumsum(np.bincount(st.c3e))[:-1]
    for beta, ids in enumerate(np.split(order, cuts)):
        class_slots, used = _colour_class_edges(g, ids, width)
        slots += class_slots
        for v in np.flatnonzero(st.c3v == beta).tolist():
            forbid[v] = used[v]
    same = np.flatnonzero(st.c3v[g.edge_u] == st.c3v[g.edge_v])
    v_slot = _first_fit(g, same[np.argsort(g.edge_v[same], kind="stable")],
                        forbid)
    needed = 1 + max(max(slots, default=0), max(v_slot, default=0))
    width = needed if width is None else max(width, needed)
    e_slot = np.empty(g.m, dtype=np.int64)
    e_slot[order] = slots
    vc = width * (st.c3v - 1) + 1 + np.array(v_slot, dtype=np.int64)
    return _spanned(vc, width * (st.c3e - 1) + 1 + e_slot), width


# ---------------------------------------------------------------------------
# risky pairs

def compute_risky(g: Graph, st: LemmaState, p: LemmaParams) -> np.ndarray:
    """The risky-edge mask, one bool per edge id: the edges joining two large
    vertices whose doubled scores lie within p's risk window."""
    deg = g.degrees
    large = 3 * deg >= p.delta
    s2 = p.score2_array(deg, st.c1)
    eu, ev = g.edge_u, g.edge_v
    return large[eu] & large[ev] & (np.abs(s2[eu] - s2[ev]) <= p.risk_threshold)


# ---------------------------------------------------------------------------
# pick-two edge selection

def _pick_two(rng: np.random.Generator, sizes) -> np.ndarray:
    """The positions Generator.choice(n, size=min(2, n), replace=False) picks
    on rng for each n of sizes in turn, one row each; (0, 0) where n is 1.

    choice draws such a pick by Floyd's algorithm: a in [0, n-2], then b in
    [0, n-1], which becomes n-1 if it equals a; then one draw in [0, 1]
    swaps the pair on 0. A draw over one value takes nothing from the
    stream, so one Generator.integers call over every bound makes the same
    draws. Each n must be below 2^32, which every vertex degree is.
    """
    n = np.asarray(sizes, dtype=np.int64)
    bounds = np.stack([np.maximum(n - 1, 1), n, np.minimum(n, 2)], axis=1)
    a, b, swap = rng.integers(0, bounds, dtype=np.uint32).astype(np.int64).T
    b = np.where(b == a, n - 1, b)
    return np.where((swap == 0)[:, None], np.stack([b, a], axis=1),
                    np.stack([a, b], axis=1))


@dataclass
class HSelection:
    edge_ids: np.ndarray
    rounds: int
    valid: bool


def select_H(g: Graph, p: LemmaParams, seed: int,
             max_rounds: int = 100) -> HSelection:
    """Each large vertex (3*degree >= max_degree) picks two distinct incident
    edges (one if its degree is one); the union is resampled until every
    vertex touches at most p.caps["dH"] picked edges.

    The picks are those of one Generator.choice(run, size=min(2, degree),
    replace=False) per picker and redrawn picker, in ascending vertex order
    each, on one generator seeded with SeedSequence(seed); _pick_two makes
    each round's picks with one Generator.integers call. A pick is two
    offsets into the picker's run of Graph._vertex_order, whose entries
    modulo m are its incident edge ids.
    """
    deg = g.degrees
    pickers = np.flatnonzero((3 * deg >= p.delta) & (deg > 0))
    sizes = deg[pickers]
    starts = (np.cumsum(deg) - deg)[pickers][:, None]
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    picked = _pick_two(rng, sizes) + starts
    rounds = 0
    valid = True
    while True:
        h = sorted_unique(g._vertex_order[picked.ravel()] % max(g.m, 1))
        over = np.flatnonzero(g.endpoint_counts(h) > p.caps["dH"])
        if over.size == 0:
            break
        if rounds >= max_rounds:
            valid = False
            break
        near = np.append(g.incidences(over[:1])[0], over[0])
        at = np.flatnonzero(np.isin(pickers, near))
        picked[at] = _pick_two(rng, sizes[at]) + starts[at]
        rounds += 1
    return HSelection(h, rounds, valid)


# ---------------------------------------------------------------------------
# reserve recolouring

@dataclass
class ReserveInfo:
    base: int
    planned: int
    used: int


def recolour_H(g: Graph, state: TotalColouring, h_edge_ids,
               risky: np.ndarray) -> tuple[TotalColouring, ReserveInfo]:
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
    endpoint by its edge id in the risky mask, so a pick costs the
    candidates it tries, not the endpoints' risky degrees.
    """
    h_ids = sorted(np.asarray(h_edge_ids, dtype=np.int64).tolist())
    base = max(state.span, 1)
    ec = state.edge_colours.copy()
    if not h_ids:
        return _spanned(state.vertex_colours, ec), ReserveInfo(base, 0, 0)
    sums = weighted_degrees(g, state).tolist()
    us, vs = g.edge_u[h_ids].tolist(), g.edge_v[h_ids].tolist()
    rdeg = g.endpoint_counts(risky)
    planned = (int((rdeg[us] + rdeg[vs]).max())
               + 2 * int(g.endpoint_counts(h_ids).max()) + 2)

    holders: dict[int, set[int]] = {}
    on_risky = rdeg.astype(bool).tolist()
    for w in np.flatnonzero(rdeg).tolist():
        holders.setdefault(sums[w], set()).add(w)

    def blocked(x: int, y: int, s: int) -> bool:
        # a risky neighbour of x other than y holds sum s
        for w in holders.get(s, ()):
            if w != y:
                i = g._edge_index(x, w)
                if i >= 0 and risky[i]:
                    return True
        return False

    colours = dict(zip(h_ids, ec[h_ids].tolist()))
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
    ec[list(colours)] = list(colours.values())
    return _spanned(state.vertex_colours, ec), ReserveInfo(base, planned,
                                                           top_used)


def _clear_sum_ties(g: Graph, state: TotalColouring,
                    keep: np.ndarray) -> tuple[TotalColouring, int]:
    """Recolour each vertex of the mask keep whose sum equals a neighbour's,
    in ascending order; returns the colouring and how many vertices moved.

    The new colour is the smallest one avoiding neighbour vertex colours,
    incident edge colours, and every neighbour's current sum. A move changes
    only the moved vertex's sum, to one no neighbour has, so a vertex with no
    tie at the start never gets one: only the endpoints of edges whose sums
    are equal at the start are scanned.
    """
    sums = weighted_degrees(g, state)
    tied = g.endpoint_counts(sums[g.edge_u] == sums[g.edge_v]) > 0
    verts = np.flatnonzero(tied & keep)
    far, ids, ends = g.incidences(verts)
    ec = state.edge_colours
    far, cols, sums = far.tolist(), ec[ids].tolist(), sums.tolist()
    vc = state.vertex_colours.tolist()
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
    return _spanned(vc, ec), moved


def repair_small_degree(g: Graph,
                        state: TotalColouring) -> tuple[TotalColouring, int]:
    """Give clashing small-degree vertices a fresh vertex colour: the tie
    sweep over the vertices with 3*degree < max_degree. Returns the
    colouring and how many vertices were repaired.

    A vertex is touched only when its sum equals a neighbour's. The
    replacement colour avoids neighbour vertex colours, incident edge
    colours, and every neighbour's current sum. A vertex colour appears in
    no other vertex's sum, so a repair never creates a new clash elsewhere.
    """
    return _clear_sum_ties(g, state, 3 * g.degrees < g.max_degree)


# ---------------------------------------------------------------------------
# deterministic fallback

def greedy_nsd(g: Graph) -> TotalColouring:
    """Seedless fallback: greedy proper total colouring, then one vertex
    sweep separating equal neighbour sums. Span is at most 3*max_degree + 1
    (and exactly 3 on a single edge).

    _first_fit colours the vertices in ascending order. properize's edge
    kernel, with no width, colours every edge in id order over masks seeded
    with bit 0 and the vertex's colour, so each edge takes the lowest colour
    free at both ends. _clear_sum_ties then sweeps every vertex.
    """
    # the entries of Graph._vertex_order below m, the edges (w, v), w < v, met
    # at v, are a stable argsort of edge_v: grouped by v with w ascending
    order = g._vertex_order
    vc = _first_fit(g, order[order < g.m], [1] * g.n)   # bit 0: colours from 1
    ec, _ = _colour_class_edges(g, np.arange(g.m), None,
                                [1 | 1 << c for c in vc])
    return _clear_sum_ties(g, _spanned(vc, np.array(ec, dtype=np.int64)),
                           np.ones(g.n, dtype=bool))[0]


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


def _attempt_pipeline(g: Graph, p: LemmaParams, cfg: ConstructConfig,
                      attempt: int):
    s_res, s_st2, s_hsel = _phase_seeds(cfg.seed, attempt)
    info: dict = {"slack": p.slack}
    r1 = resample_until_valid(g, p, s_res, cfg.rounds)
    info["stage1_rounds"] = r1.rounds
    info["stage1_valid"] = r1.valid
    r2 = stage_two(g, r1.state, p, s_st2, cfg.rounds)
    info.update(stage2_rounds=r2.rounds, stage2_valid=r2.valid,
                e1_count=r2.e1_count, e2_count=r2.e2_count,
                h1_max_degree=r2.h1_max_degree, h2_max_degree=r2.h2_max_degree)

    # The band floor bounds this attempt's final span from below. properize
    # puts an edge of class beta at width*(beta-1)+1 or above, with a width
    # of at least b_unit; recolour_H only moves edges above the current span
    # and repair_small_degree only changes vertex colours, so no edge colour
    # ever drops. A floor above the span cap means the pipeline's colouring
    # would be replaced anyway, so the attempt stops here with no colouring.
    floor = p.b_unit * (int(r2.state.c3e.max()) - 1) + 1
    info["band_floor"] = floor
    if cfg.span_cap is not None and floor > cfg.span_cap:
        return None, info

    colouring, info["b_width"] = properize(g, r2.state, p.b_unit)

    risky = compute_risky(g, r2.state, p)
    info["risky_max"] = int(g.endpoint_counts(risky).max(initial=0))
    info["risky_allowed"] = p.risky_allowed

    hsel = select_H(g, p, s_hsel, cfg.rounds)
    info["h_edges"] = int(hsel.edge_ids.size)
    info["h_rounds"] = hsel.rounds
    info["h_valid"] = hsel.valid

    colouring, reserve = recolour_H(g, colouring, hsel.edge_ids, risky)
    info.update(reserve_base=reserve.base, reserve_planned=reserve.planned,
                reserve_used=reserve.used)

    colouring, info["repaired"] = repair_small_degree(g, colouring)

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
    if cfg.mode not in ("strict", "permissive"):
        raise ValueError(f"unknown mode {cfg.mode!r}")
    if cfg.mode == "permissive":
        check_slack(cfg.slack)
    if g.m == 0:
        colouring = TotalColouring(np.ones(g.n, dtype=np.int64),
                                   np.zeros(0, dtype=np.int64), 1)
        report.span = report.pipeline_span = colouring.span
        report.valid = True
        # strict mode takes no slack; its attempts record 1.0
        report.attempts.append({"slack": 1.0 if cfg.mode == "strict"
                                else cfg.slack, "edgeless": True,
                                "span": colouring.span, "valid": True})
        report.chosen_attempt = 0
        return colouring, report

    if cfg.mode == "strict":
        # built before the ladder: it refuses infeasible degrees
        ladder = [LemmaParams(delta, strict=True)]
    else:
        # one rung at a time, so a rung past a kept colouring is never built
        ladder = (LemmaParams(delta, slack=cfg.slack * 2.0 ** i)
                  for i in range(max(cfg.retries, 1)))

    cap = cfg.span_cap
    best: TotalColouring | None = None
    for attempt, p in enumerate(ladder):
        colouring, info = _attempt_pipeline(g, p, cfg, attempt)
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
