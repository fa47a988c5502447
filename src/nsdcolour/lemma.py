"""Randomised balanced-colouring engine with local resampling.

Stage one draws three independent uniform colourings of a graph: a small
"attractor" palette on vertices (c1), an auxiliary palette on edges (c2),
and a target palette on vertices (c3v); the derived edge colour is the sum
c3e(uv) = c1(u) + c1(v) + c2(uv). Stage two rewires c3e so that equal-target
neighbours share their joining edge's colour and the leftover edges get
uniform colours, again under counting caps.

The engine certifies a state against ten counting/structural properties,
identified as I..VI and 1°..4° (the ids are part of this package's report
format). All caps scale as powers of the max degree D and ln D; permissive
mode multiplies each cap by a slack factor, strict mode requires D large
enough for the engine's feasibility predicate. Caps are evaluated in floating
point once, floored to integers, and recorded; every comparison afterwards is
integer or exact rational arithmetic.

Checked per vertex v (d = degree, "large" means 3d >= D):

  I    large v: every attractor colour appears among neighbours d/r1 +- sqrt(D)
       times (checked as |r1*count - d| <= floor(slack*r1*sqrt(D)))
  II   large v: every auxiliary colour appears on incident edges d/r2 +-
       3 D^{1/3} ln^{2/3} D times (scaled by r2 likewise)
  III  the sum formula c3e = c1+c1+c2 fails for at most cap(1°b)+cap(2°)
       incident edges
  IV   no target colour appears on more than cap(3°)+cap(4°) incident edges
  V    equal target colours on adjacent vertices force the joining edge to
       carry that same target colour
  VI   large v: within every score interval, at most
       D^{5/6} ln^{1/6} D + sqrt(D) large neighbours' scores land
  1°   (a) no value of the sum c1(u)+c1(v)+c2(uv) appears on more than
       D^{2/3} ln^{1/3} D + 3 D^{1/3} ln^{2/3} D incident edges;
       (b) the sum hits a target colour of either endpoint on at most
       2 D^{2/3} ln^{1/3} D + 5 D^{1/3} ln^{2/3} D incident edges
  2°   no target colour appears on more than cap(1°a) neighbours
  3°   after stage two, edges coloured before the uniform redraw carry no
       colour more than cap(1°a) times per vertex
  4°   the uniformly redrawn edges carry no colour more than
       2 D^{1/3} ln^{2/3} D times per vertex

The checker runs on three kernels: a (vertex, value) tally and its list of
over-cap cells (1°a, 2°, IV, VI, 3°, 4°); a spread test for I and II, on a
tally r + 1 wide, since a colour seen zero times can stray too; and
Graph.endpoint_counts, the per-vertex count of an edge mask (III, 1°b).

Resampling follows the usual algorithmic local-lemma discipline: sweep
vertices in index order, find the first violated event, redraw exactly the
random variables in that event's scope, repeat under a round budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graph import Graph

STAGE_ONE_PROPERTIES = ("I", "II", "VI", "1°", "2°")
ALL_PROPERTIES = ("I", "II", "III", "IV", "V", "VI", "1°", "2°", "3°", "4°")
# the property ids whose violators are reported under more than one key
_PARTS = {"1°": ("1°a", "1°b")}


class InfeasibleStrictError(ValueError):
    """Strict mode refused: the max degree fails the feasibility predicate."""


class LemmaParams:
    """Palette sizes, integer caps and exact score machinery for a max degree.

    r1 = ceil(D^{1/6} / ln^{1/6} D) sizes the attractor palette, r2 the
    auxiliary and target palettes, r3 = 2 r1 + r2 the full edge target range.
    ``caps`` maps check ids to the enforced integer caps; "I" and "II" are on
    the r-scaled axis (see module docstring), "1°" splits into "1°a"/"1°b".

    score(d, c1) = b_unit * (d*c1 + (d/r1)*T(r1) + (d/r2)*T(r2)) with
    T(r) = r(r+1)/2; score2_array gives twice the score, which is always an
    integer. interval_len is the float evaluation of D^{5/3} ln^{1/3} D / 3
    converted to an exact Fraction once, so boundary membership of the
    right-closed intervals ((a-1)*len, a*len] is deterministic.
    """

    def __init__(self, delta: int, strict: bool = False, slack: float = 1.0):
        if delta < 0:
            raise ValueError("max degree must be non-negative")
        if not slack >= 1.0:  # also refuses NaN
            raise ValueError(f"slack multiplier must be at least 1, got {slack:g}")
        if strict and slack != 1.0:
            raise ValueError("strict mode does not take slack")
        self.delta = int(delta)
        self.strict = bool(strict)
        self.slack = float(slack)
        self.ln_floor = max(math.log(max(delta, 1)), 1.0)

        try:
            x = float(max(delta, 0))
            L = self.ln_floor
            self.r1 = max(1, math.ceil(x ** (1 / 6) / L ** (1 / 6)))
            self.r2 = max(1, math.ceil(x ** (1 / 3) / L ** (1 / 3)))
            self.r3 = 2 * self.r1 + self.r2

            a = x ** (2 / 3) * L ** (1 / 3)
            b = x ** (1 / 3) * L ** (2 / 3)
            self.b_unit = math.ceil(a) + 6 * math.ceil(b)
            self.interval_len = Fraction(x ** (5 / 3) * L ** (1 / 3)) / 3
            base = {
                "I": self.r1 * math.sqrt(x),
                "II": self.r2 * 3.0 * b,
                "VI": x ** (5 / 6) * L ** (1 / 6) + math.sqrt(x),
                "1°a": a + 3 * b,
                "1°b": 2 * a + 5 * b,
                "2°": a + 3 * b,
                "3°": a + 3 * b,
                "4°": 2 * b,
                "dH": 15.0 * L,
            }
            caps = {k: int(math.floor(self.slack * v)) for k, v in base.items()}
            caps["III"] = caps["1°b"] + caps["2°"]
            caps["IV"] = caps["3°"] + caps["4°"]
        except OverflowError:
            # a degree past about 1e184 (or an infinite slack) overflows the
            # float arithmetic above; refuse it as bad input
            raise ValueError(
                f"max degree {delta} at slack {self.slack:g} is out of range: "
                "its palette sizes and caps overflow a float") from None
        self.caps: dict[str, int] = caps

        reasons = []
        if delta < 3 or math.log(max(delta, 1)) < 1.0:
            reasons.append("ln(max degree) below 1")
        small = [k for k in ("I", "II", "VI", "1°a", "1°b", "2°", "3°", "4°")
                 if caps[k] < 1]
        if small:
            reasons.append(f"caps below 1: {','.join(small)}")
        # largest score must stay within D^2 for the interval machinery
        s2_max = self.b_unit * delta * (3 * self.r1 + self.r2 + 2)
        if s2_max > 2 * delta * delta:
            reasons.append("max score exceeds squared max degree")
        self.feasibility_reasons: list[str] = reasons
        self.feasible_strict = not reasons
        if strict and not self.feasible_strict:
            raise InfeasibleStrictError(
                f"max degree {delta} fails the strict feasibility predicate: "
                + "; ".join(reasons)
            )

    def score2_array(self, degrees: np.ndarray, c1: np.ndarray) -> np.ndarray:
        """Twice the score; integer by the closed form b_unit*d*(2c1+r1+r2+2)."""
        return self.b_unit * degrees * (2 * c1 + self.r1 + self.r2 + 2)

    def __repr__(self) -> str:
        mode = "strict" if self.strict else f"permissive(slack={self.slack})"
        return f"LemmaParams(delta={self.delta}, r1={self.r1}, r2={self.r2}, {mode})"


@dataclass
class LemmaState:
    """The engine's random variables plus the derived edge target colours.

    c1: vertex attractor colours in {1..r1}; c2: edge auxiliary colours in
    {1..r2}; c3v: vertex target colours in {1..r2}; c3e: edge target colours,
    equal to c1(u)+c1(v)+c2(uv) after stage one (so at most r3), 0 only as the
    transient uncoloured sentinel inside stage two.
    """
    c1: np.ndarray
    c2: np.ndarray
    c3v: np.ndarray
    c3e: np.ndarray

    def copy(self) -> "LemmaState":
        return LemmaState(self.c1.copy(), self.c2.copy(),
                          self.c3v.copy(), self.c3e.copy())


def _sum_colours(g: Graph, st: LemmaState) -> np.ndarray:
    return st.c1[g.edge_u] + st.c1[g.edge_v] + st.c2


def _sample_with_rng(g: Graph, p: LemmaParams, rng) -> LemmaState:
    c1 = rng.integers(1, p.r1 + 1, size=g.n, dtype=np.int64)
    c2 = rng.integers(1, p.r2 + 1, size=g.m, dtype=np.int64)
    c3v = rng.integers(1, p.r2 + 1, size=g.n, dtype=np.int64)
    st = LemmaState(c1, c2, c3v, np.zeros(g.m, dtype=np.int64))
    st.c3e = _sum_colours(g, st)
    return st


def sample_stage_one(g: Graph, p: LemmaParams, seed: int) -> LemmaState:
    """Draw the three independent colourings and the derived edge targets."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return _sample_with_rng(g, p, rng)


@dataclass
class PropertyReport:
    """Outcome of a property check pass.

    violators: for every evaluated property, its lists of (vertex, value)
    pairs in vertex order; "1°" splits into "1°a"/"1°b", III and 1°b report
    (vertex, edge count), V reports (smaller endpoint, shared target colour).
    verdicts derives property id -> pass/fail from them.
    """
    violators: dict[str, list[tuple[int, int]]] = field(default_factory=dict)

    @property
    def verdicts(self) -> dict[str, bool]:
        ids = dict.fromkeys("1°" if k in _PARTS["1°"] else k
                            for k in self.violators)
        return {q: not self.violation_total([q]) for q in ids}

    def all_pass(self, properties=None) -> bool:
        verdicts = self.verdicts
        ids = verdicts if properties is None else properties
        return all(verdicts.get(q, False) for q in ids)

    def violation_total(self, properties=None) -> int:
        if properties is None:
            return sum(len(v) for v in self.violators.values())
        return sum(len(self.violators.get(k, ()))
                   for q in properties for k in _PARTS.get(q, (q,)))

    def violator_counts(self) -> dict[str, int]:
        return {k: len(v) for k, v in self.violators.items()}


# ---------------------------------------------------------------------------
# tally kernels

def _tally(n: int, centers: np.ndarray, values: np.ndarray,
           width: int | None = None) -> np.ndarray:
    """Count table of (centre, value) pairs: row v, column x-1 counts the
    pairs (v, x) for x in 1..width-1; width defaults to the largest x + 1."""
    if width is None:
        width = int(values.max(initial=0)) + 1
    return np.bincount(centers * width + values,
                       minlength=n * width).reshape(n, width)[:, 1:]


def _cells(bad: np.ndarray) -> list[tuple[int, int]]:
    """The (vertex, value) cells set in a mask over a tally, row-major."""
    rows, cols = np.nonzero(bad)
    return list(zip(rows.tolist(), (cols + 1).tolist()))


def _spread(n: int, centers, values, r: int, deg, large, cap: int):
    """Large-vertex cells whose count strays from d/r, as |r*count - d| > cap,
    over all r colours: a colour seen zero times strays too."""
    off = np.abs(r * _tally(n, centers, values, r + 1) - deg[:, None]) > cap
    return _cells(off & large[:, None])


def _heavy(counts: np.ndarray, cap: int) -> list[tuple[int, int]]:
    """(vertex, count) for every vertex whose count is over cap."""
    over = np.flatnonzero(counts > cap)
    return list(zip(over.tolist(), counts[over].tolist()))


def _alphas(g: Graph, st: LemmaState, p: LemmaParams, large: np.ndarray) -> np.ndarray:
    """Interval index per large vertex (0 elsewhere); exact integer arithmetic."""
    out = np.zeros(g.n, dtype=np.int64)
    if p.interval_len <= 0:
        return out
    num, den = p.interval_len.numerator, p.interval_len.denominator
    twice_num = 2 * num
    s2 = p.score2_array(g.degrees, st.c1)
    for v in np.nonzero(large & (g.degrees > 0))[0]:
        scaled = int(s2[v]) * den
        out[v] = (scaled + twice_num - 1) // twice_num
    return out


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

    n, caps, deg = g.n, p.caps, g.degrees
    large = 3 * deg >= p.delta
    eu, ev = g.edge_u, g.edge_v
    # every edge twice, once seen from each end
    centers = np.concatenate([eu, ev])
    others = np.concatenate([ev, eu])
    svals = _sum_colours(g, st)
    viol: dict[str, list[tuple[int, int]]] = {}

    for q in properties:
        if q in ("I", "II"):
            r, vals = ((p.r1, st.c1[others]) if q == "I"
                       else (p.r2, np.tile(st.c2, 2)))
            viol[q] = _spread(n, centers, vals, r, deg, large, caps[q])
        elif q == "VI":
            alpha = _alphas(g, st, p, large)
            mask = large[centers] & large[others]
            cnt = _tally(n, centers[mask], alpha[others[mask]])
            viol[q] = _cells(cnt > caps[q])
        elif q == "1°":
            cnt = _tally(n, centers, np.tile(svals, 2))
            viol["1°a"] = _cells(cnt > caps["1°a"])
            hit = (svals == st.c3v[eu]) | (svals == st.c3v[ev])
            viol["1°b"] = _heavy(g.endpoint_counts(hit), caps["1°b"])
        elif q == "2°":
            viol[q] = _cells(_tally(n, centers, st.c3v[others]) > caps[q])
        elif q == "III":
            viol[q] = _heavy(g.endpoint_counts(st.c3e != svals), caps[q])
        elif q in ("IV", "3°", "4°"):
            sel = slice(None)
            if q != "IV":
                in_h3 = np.zeros(g.m, dtype=bool)
                in_h3[np.asarray(h3_edge_ids, dtype=np.int64)] = True
                sel = np.tile(in_h3 if q == "4°" else ~in_h3, 2)
            cnt = _tally(n, centers[sel], np.tile(st.c3e, 2)[sel])
            viol[q] = _cells(cnt > caps[q])
        elif q == "V":
            u = eu[(st.c3v[eu] == st.c3v[ev]) & (st.c3e != st.c3v[eu])]
            viol[q] = list(zip(u.tolist(), st.c3v[u].tolist()))
        else:
            raise ValueError(f"unknown property id {q!r}")
    return PropertyReport(viol)


# ---------------------------------------------------------------------------
# resampling

def event_scope(g: Graph, v: int, prop: str):
    """Random variables a stage-one event at vertex v depends on.

    Returned as (c1 vertex ids, c2 edge ids, c3v vertex ids), each sorted.
    """
    far, ids, _ = g.incidences([v])
    nbrs, inc = far.tolist(), sorted(ids.tolist())
    closed = sorted([v] + nbrs)
    if prop in ("I", "VI"):
        return nbrs, [], []
    if prop == "II":
        return [], inc, []
    if prop == "1°":
        return closed, inc, closed
    if prop == "2°":
        return [], [], nbrs
    raise ValueError(f"{prop!r} is not a stage-one event")


def resample_event(g: Graph, st: LemmaState, v: int, prop: str, rng,
                   p: LemmaParams) -> None:
    """Redraw exactly the variables in the event's scope, in index order,
    then refresh the derived edge targets."""
    scope = event_scope(g, v, prop)
    for arr, ids, top in zip((st.c1, st.c2, st.c3v), scope, (p.r1, p.r2, p.r2)):
        arr[np.array(ids, dtype=np.int64)] = rng.integers(
            1, top + 1, size=len(ids), dtype=np.int64)
    st.c3e = _sum_colours(g, st)


@dataclass
class ResampleResult:
    state: LemmaState
    report: PropertyReport
    rounds: int
    valid: bool


def _first_violation(report: PropertyReport):
    """(vertex, property) of the least violating vertex, ties going to the
    earlier stage-one property; each violator list is in vertex order."""
    firsts = [(pairs[0][0], order, prop)
              for order, prop in enumerate(STAGE_ONE_PROPERTIES)
              for k in _PARTS.get(prop, (prop,))
              if (pairs := report.violators.get(k))]
    if not firsts:
        return None
    v, _, prop = min(firsts)
    return v, prop


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


@dataclass
class Stage2Result:
    state: LemmaState
    report: PropertyReport
    rounds: int
    valid: bool
    h3_edge_ids: np.ndarray
    e1_count: int
    e2_count: int
    h1_max_degree: int
    h2_max_degree: int


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
    h3_ids = np.flatnonzero(e1 & ~e2).astype(np.int64)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    c3e[h3_ids] = rng.integers(1, p.r3 + 1, size=h3_ids.size, dtype=np.int64)
    st2.c3e = c3e

    cap4 = p.caps["4°"]
    h3_u, h3_v = g.edge_u[h3_ids], g.edge_v[h3_ids]
    h3_ends = np.concatenate([h3_u, h3_v])
    rounds = 0
    valid = True
    while h3_ids.size:
        cnt = _tally(g.n, h3_ends, np.tile(c3e[h3_ids], 2), p.r3 + 1)
        over = np.flatnonzero((cnt > cap4).any(axis=1))
        if over.size == 0:
            break
        if rounds >= max_rounds:
            valid = False
            break
        v = int(over[0])
        mine = h3_ids[(h3_u == v) | (h3_v == v)]
        c3e[mine] = rng.integers(1, p.r3 + 1, size=mine.size, dtype=np.int64)
        rounds += 1

    report = check_properties(g, st2, p, h3_edge_ids=h3_ids)
    return Stage2Result(
        state=st2,
        report=report,
        rounds=rounds,
        valid=valid and report.verdicts.get("4°", True),
        h3_edge_ids=h3_ids,
        e1_count=int(e1.sum()),
        e2_count=int(e2.sum()),
        h1_max_degree=int(g.endpoint_counts(e1).max(initial=0)),
        h2_max_degree=int(g.endpoint_counts(e2).max(initial=0)),
    )
