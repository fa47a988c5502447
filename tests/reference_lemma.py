"""Reference copies of the randomised engine's property checker, stage-one
resampling and stage-two redraw loop as they were before the checker was
rebuilt on shared tally kernels and PropertyReport stopped storing verdicts.

``PropertyReport``, ``_pair_counts``, ``check_properties``,
``_first_violation``, ``resample_event``, ``resample_until_valid`` and
``stage_two`` below are kept verbatim (only the imports differ) so that
tests/test_lemma_equivalence.py can check that nsdcolour.lemma returns the
same violators, verdicts, rounds and states. They are test oracles, not part
of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from nsdcolour.graph import Graph
from nsdcolour.lemma import (ALL_PROPERTIES, STAGE_ONE_PROPERTIES, LemmaParams,
                             LemmaState, ResampleResult, Stage2Result, _alphas,
                             _sample_with_rng, _sum_colours, event_scope)


@dataclass
class PropertyReport:
    """Outcome of a property check pass.

    verdicts: property id -> pass/fail for every evaluated property.
    violators: finer-grained lists of (vertex, value) pairs; "1°" splits into
    "1°a"/"1°b", III reports (vertex, exception count), V reports
    (smaller endpoint, shared target colour).
    """
    verdicts: dict[str, bool] = field(default_factory=dict)
    violators: dict[str, list[tuple[int, int]]] = field(default_factory=dict)

    def all_pass(self, properties=None) -> bool:
        ids = self.verdicts if properties is None else properties
        return all(self.verdicts.get(q, False) for q in ids)

    def violation_total(self, properties=None) -> int:
        if properties is None:
            return sum(len(v) for v in self.violators.values())
        keys = []
        for q in properties:
            keys.extend(("1°a", "1°b") if q == "1°" else (q,))
        return sum(len(self.violators.get(k, ())) for k in keys)

    def violator_counts(self) -> dict[str, int]:
        return {k: len(v) for k, v in self.violators.items()}


def _pair_counts(n: int, centers: np.ndarray, values: np.ndarray, width: int) -> np.ndarray:
    key = centers * width + values
    return np.bincount(key, minlength=n * width).reshape(n, width)


def check_properties(g: Graph, st: LemmaState, p: LemmaParams,
                     properties=None, h3_edge_ids=None) -> PropertyReport:
    """Evaluate the requested properties (default: all that are meaningful).

    3° and 4° partition edges by membership in the uniformly redrawn set and
    need h3_edge_ids; without it they are skipped unless explicitly requested.
    """
    if properties is None:
        properties = [q for q in ALL_PROPERTIES
                      if q not in ("3°", "4°") or h3_edge_ids is not None]
    else:
        properties = list(properties)
        if ("3°" in properties or "4°" in properties) and h3_edge_ids is None:
            raise ValueError("3°/4° need the redrawn edge set")

    n = g.n
    caps = p.caps
    deg = g.degrees
    large = 3 * deg >= p.delta
    eu, ev = g.edge_u, g.edge_v
    centers = np.concatenate([eu, ev])
    others = np.concatenate([ev, eu])
    svals = _sum_colours(g, st)
    rep = PropertyReport()

    def record(cap_key, bad_pairs):
        rep.violators[cap_key] = bad_pairs
        base = "1°" if cap_key in ("1°a", "1°b") else cap_key
        ok = not bad_pairs
        rep.verdicts[base] = rep.verdicts.get(base, True) and ok

    def over_cap_pairs(cnt: np.ndarray, cap: int, row_mask=None, col_lo=1):
        bad = cnt[:, col_lo:] > cap
        if row_mask is not None:
            bad &= row_mask[:, None]
        return [(int(v), int(c) + col_lo) for v, c in np.argwhere(bad)]

    for q in properties:
        if q == "I":
            cnt = _pair_counts(n, centers, st.c1[others], p.r1 + 1)
            dev = np.abs(p.r1 * cnt[:, 1:] - deg[:, None]) > caps["I"]
            dev &= large[:, None]
            record("I", [(int(v), int(c) + 1) for v, c in np.argwhere(dev)])
        elif q == "II":
            vals = np.concatenate([st.c2, st.c2])
            cnt = _pair_counts(n, centers, vals, p.r2 + 1)
            dev = np.abs(p.r2 * cnt[:, 1:] - deg[:, None]) > caps["II"]
            dev &= large[:, None]
            record("II", [(int(v), int(c) + 1) for v, c in np.argwhere(dev)])
        elif q == "VI":
            bad_pairs: list[tuple[int, int]] = []
            if g.m:
                alpha = _alphas(g, st, p, large)
                mask = large[centers] & large[others]
                if mask.any():
                    ctr = centers[mask]
                    av = alpha[others[mask]]
                    width = int(av.max()) + 1
                    cnt = _pair_counts(n, ctr, av, width)
                    over = cnt > caps["VI"]
                    over &= large[:, None]
                    bad_pairs = [(int(v), int(c)) for v, c in np.argwhere(over)]
            record("VI", bad_pairs)
        elif q == "1°":
            vals = np.concatenate([svals, svals])
            cnt = _pair_counts(n, centers, vals, p.r3 + 1)
            record("1°a", over_cap_pairs(cnt, caps["1°a"]))
            hit = (svals == st.c3v[eu]) | (svals == st.c3v[ev])
            per_v = np.bincount(np.concatenate([eu[hit], ev[hit]]), minlength=n)
            bad = np.nonzero(per_v > caps["1°b"])[0]
            record("1°b", [(int(v), int(per_v[v])) for v in bad])
        elif q == "2°":
            vals = np.concatenate([st.c3v[ev], st.c3v[eu]])
            cnt = _pair_counts(n, centers, vals, p.r3 + 1)
            record("2°", over_cap_pairs(cnt, caps["2°"]))
        elif q == "III":
            ex = st.c3e != svals
            per_v = np.bincount(np.concatenate([eu[ex], ev[ex]]), minlength=n)
            bad = np.nonzero(per_v > caps["III"])[0]
            record("III", [(int(v), int(per_v[v])) for v in bad])
        elif q == "IV":
            width = max(int(st.c3e.max(initial=0)), p.r3) + 1
            vals = np.concatenate([st.c3e, st.c3e])
            cnt = _pair_counts(n, centers, vals, width)
            record("IV", over_cap_pairs(cnt, caps["IV"]))
        elif q == "V":
            mask = (st.c3v[eu] == st.c3v[ev]) & (st.c3e != st.c3v[eu])
            record("V", [(int(eu[i]), int(st.c3v[eu[i]]))
                         for i in np.nonzero(mask)[0]])
        elif q in ("3°", "4°"):
            in_h3 = np.zeros(g.m, dtype=bool)
            in_h3[np.asarray(h3_edge_ids, dtype=np.int64)] = True
            sel = in_h3 if q == "4°" else ~in_h3
            width = max(int(st.c3e.max(initial=0)), p.r3) + 1
            ctr = np.concatenate([eu[sel], ev[sel]])
            vals = np.concatenate([st.c3e[sel], st.c3e[sel]])
            cnt = _pair_counts(n, ctr, vals, width)
            record(q, over_cap_pairs(cnt, caps[q]))
        else:
            raise ValueError(f"unknown property id {q!r}")
    return rep


def resample_event(g: Graph, st: LemmaState, v: int, prop: str, rng,
                   p: LemmaParams) -> None:
    """Redraw exactly the variables in the event's scope, in index order,
    then refresh the derived edge targets."""
    c1_ids, c2_ids, c3v_ids = event_scope(g, v, prop)
    if c1_ids:
        st.c1[np.array(c1_ids, dtype=np.int64)] = rng.integers(
            1, p.r1 + 1, size=len(c1_ids), dtype=np.int64)
    if c2_ids:
        st.c2[np.array(c2_ids, dtype=np.int64)] = rng.integers(
            1, p.r2 + 1, size=len(c2_ids), dtype=np.int64)
    if c3v_ids:
        st.c3v[np.array(c3v_ids, dtype=np.int64)] = rng.integers(
            1, p.r2 + 1, size=len(c3v_ids), dtype=np.int64)
    st.c3e = _sum_colours(g, st)


def _first_violation(report: PropertyReport):
    best = None
    for order, prop in enumerate(STAGE_ONE_PROPERTIES):
        keys = ("1°a", "1°b") if prop == "1°" else (prop,)
        for k in keys:
            for v, _ in report.violators.get(k, ()):
                if best is None or (v, order) < best[:2]:
                    best = (v, order, prop)
    if best is None:
        return None
    return best[0], best[2]


def resample_until_valid(g: Graph, p: LemmaParams, seed: int,
                         max_rounds: int) -> ResampleResult:
    """Sample stage one, then resample first-violated events until the five
    stage-one properties hold or the round budget runs out.

    Deterministic per seed. On budget exhaustion the best state seen (fewest
    total violations) comes back with valid=False.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    st = _sample_with_rng(g, p, rng)
    rounds = 0
    best: tuple[int, LemmaState, PropertyReport] | None = None
    while True:
        report = check_properties(g, st, p, properties=STAGE_ONE_PROPERTIES)
        total = report.violation_total(STAGE_ONE_PROPERTIES)
        if best is None or total < best[0]:
            best = (total, st.copy(), report)
        if total == 0:
            return ResampleResult(st, report, rounds, True)
        if rounds >= max_rounds:
            return ResampleResult(best[1], best[2], rounds, False)
        v, prop = _first_violation(report)
        resample_event(g, st, v, prop, rng, p)
        rounds += 1


def stage_two(g: Graph, st: LemmaState, p: LemmaParams, seed: int,
              max_rounds: int) -> Stage2Result:
    """Rewire edge targets: uncolour edges whose sum value hits an endpoint
    target, give equal-target pairs their shared target, uniformly redraw the
    rest of the uncoloured edges under the 4° cap with local resampling.

    Never touches c1, c2, or c3v. The returned report evaluates all ten
    properties; valid means 4° held within the round budget.
    """
    st2 = st.copy()
    svals = _sum_colours(g, st2)
    e1 = (svals == st2.c3v[g.edge_u]) | (svals == st2.c3v[g.edge_v])
    e2 = st2.c3v[g.edge_u] == st2.c3v[g.edge_v]
    c3e = svals.copy()
    c3e[e1] = 0
    c3e[e2] = st2.c3v[g.edge_u][e2]
    h3 = e1 & ~e2
    h3_ids = np.nonzero(h3)[0].astype(np.int64)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if h3_ids.size:
        c3e[h3_ids] = rng.integers(1, p.r3 + 1, size=h3_ids.size, dtype=np.int64)
    st2.c3e = c3e

    cap4 = p.caps["4°"]
    rounds = 0
    valid = True
    while h3_ids.size:
        ctr = np.concatenate([g.edge_u[h3_ids], g.edge_v[h3_ids]])
        vals = np.concatenate([c3e[h3_ids], c3e[h3_ids]])
        width = p.r3 + 1
        cnt = _pair_counts(g.n, ctr, vals, width)
        over = np.nonzero((cnt[:, 1:] > cap4).any(axis=1))[0]
        if over.size == 0:
            break
        if rounds >= max_rounds:
            valid = False
            break
        v = int(over[0])
        mine = h3_ids[(g.edge_u[h3_ids] == v) | (g.edge_v[h3_ids] == v)]
        c3e[mine] = rng.integers(1, p.r3 + 1, size=mine.size, dtype=np.int64)
        rounds += 1

    per_v_e1 = np.bincount(
        np.concatenate([g.edge_u[e1], g.edge_v[e1]]), minlength=g.n)
    per_v_e2 = np.bincount(
        np.concatenate([g.edge_u[e2], g.edge_v[e2]]), minlength=g.n)
    report = check_properties(g, st2, p, h3_edge_ids=h3_ids)
    return Stage2Result(
        state=st2,
        report=report,
        rounds=rounds,
        valid=valid and report.verdicts.get("4°", True),
        h3_edge_ids=h3_ids,
        e1_count=int(e1.sum()),
        e2_count=int(e2.sum()),
        h1_max_degree=int(per_v_e1.max(initial=0)),
        h2_max_degree=int(per_v_e2.max(initial=0)),
    )
