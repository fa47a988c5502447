"""Batch harness: run the constructor or the exact solver over graph
families, verify every result, and serialize deterministic CSV/JSON output.

Family specs are compact strings:

    connected<=4                  all connected labelled graphs up to 4 vertices
    complete:2..5  cycle:3..8  path:2..8
    random:n=500,p=0.05,seeds=3   3 binomial graphs, generation seeds 0..2
    regular:n=100,d=3,seeds=2     2 exactly 3-regular pairing-model graphs

Graph generation seeds are literal (stable across experiment seeds) while
solver seeds derive from the experiment seed and the run index, so the same
spec re-run with a new seed re-solves the same graphs. Wall times are
measured but serialized only on request, keeping default outputs
byte-for-byte reproducible.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .construct import ConstructConfig, construct, reference_span_bound
from .exact import conjecture_sweep
from .graph import (Graph, enumerate_connected_graphs, generate,
                    random_graph, regular_graph)

SCHEMA_VERSION = 1

CSV_COLUMNS = ("run_index", "graph_id", "seed", "n", "m", "max_degree",
               "mode", "slack", "span", "delta_plus_3", "reference_bound",
               "span_over_delta", "fallback", "verdict")

SWEEP_COLUMNS = ("graph_id", "n", "m", "max_degree", "chi_sum_total",
                 "delta_plus_3", "verdict")


def split_seed(global_seed: int, run_index: int) -> int:
    """Independent solver seed for one run, stable across platforms."""
    ss = np.random.SeedSequence([int(global_seed), int(run_index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _number(spec: str, cast, text: str):
    """cast(text), or a ValueError naming the family spec."""
    try:
        return cast(text)
    except ValueError as exc:
        raise ValueError(f"family spec {spec!r}: {exc}") from None


def _parse_range(spec: str, token: str) -> range:
    lo, dots, hi = token.partition("..")
    lo = _number(spec, int, lo)
    return range(lo, (_number(spec, int, hi) if dots else lo) + 1)


def _parse_kv(kind: str, body: str, keys: tuple[str, ...]) -> list[str]:
    """The values of keys, in order, from a family body of key=value pairs.
    Every key must be given once, and no other key may be."""
    out = {}
    for part in body.split(","):
        if "=" not in part:
            raise ValueError(f"{kind} family spec expects key=value, got {part!r}")
        k, v = (x.strip() for x in part.split("=", 1))
        if k not in keys:
            raise ValueError(f"{kind} family spec has unknown key {k!r}")
        if k in out:
            raise ValueError(f"{kind} family spec repeats key {k!r}")
        out[k] = v
    for key in keys:
        if key not in out:
            raise ValueError(f"{kind} family spec lacks key {key!r}")
    return [out[key] for key in keys]


# connected<=8 would walk 2^28 edge subsets and hold 251,548,592 graphs
_CONNECTED_MAX_N = 7


def parse_family(spec: str) -> list[tuple[str, Graph]]:
    """Expand one family spec string into (graph_id, graph) pairs. A spec
    that expands to no graphs is a ValueError naming it."""
    spec = spec.strip()
    if spec.startswith("connected<="):
        max_n = _number(spec, int, spec[len("connected<="):])
        if max_n > _CONNECTED_MAX_N:
            raise ValueError(f"connected<=N takes N up to {_CONNECTED_MAX_N}, "
                             f"got {max_n}")
        graphs = list(enumerate_connected_graphs(max_n))
    elif ":" not in spec:
        raise ValueError(f"malformed family spec {spec!r}")
    else:
        kind, body = spec.split(":", 1)
        kind = kind.strip()
        if kind in ("complete", "cycle", "path"):
            graphs = [(f"{kind}-{n}", generate(kind, n=n))
                      for n in _parse_range(spec, body)]
        elif kind == "random":
            n, p, seeds = _parse_kv(kind, body, ("n", "p", "seeds"))
            n, seeds = _number(spec, int, n), _number(spec, int, seeds)
            prob = _number(spec, float, p)
            graphs = [(f"random-n{n}-p{p}-s{s}",
                       random_graph(n, prob, seed=s)) for s in range(seeds)]
        elif kind == "regular":
            n, d, seeds = (_number(spec, int, x) for x in
                           _parse_kv(kind, body, ("n", "d", "seeds")))
            graphs = [(f"regular-n{n}-d{d}-s{s}", regular_graph(n, d, seed=s))
                      for s in range(seeds)]
        else:
            raise ValueError(f"unknown family kind {kind!r}")
    if not graphs:
        raise ValueError(f"family spec {spec!r} expands to no graphs")
    return graphs


def _count(v, least: int) -> bool:
    """v is a JSON integer (not a boolean) of at least least."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


_NON_NEGATIVE = (lambda v: _count(v, 0), "a non-negative integer")

# field -> (accepts the JSON value, what it must be)
_SPEC_FIELDS = {
    "name": (lambda v: isinstance(v, str), "a string"),
    "seed": _NON_NEGATIVE,
    "families": (lambda v: isinstance(v, list) and v != []
                 and all(isinstance(f, str) for f in v),
                 "a non-empty list of family spec strings"),
    "solver": (lambda v: v in ("construct", "exact"), '"construct" or "exact"'),
    "mode": (lambda v: v in ("permissive", "strict"), '"permissive" or "strict"'),
    "slack": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
              and 1 <= v <= sys.float_info.max, "a finite number of at least 1"),
    "rounds": _NON_NEGATIVE,
    "retries": _NON_NEGATIVE,
    "span_cap": (lambda v: v is None or v == "auto" or _count(v, 0),
                 '"auto", null or a non-negative integer'),
    "k_max_extra": _NON_NEGATIVE,
    "workers": (lambda v: _count(v, 1), "a positive integer"),
    "schema": (lambda v: _count(v, 0) and v == SCHEMA_VERSION,
               f"the integer {SCHEMA_VERSION}"),
}


@dataclass
class ExperimentSpec:
    """Declarative experiment description, loadable from JSON."""
    name: str = "experiment"
    seed: int = 0
    families: list[str] = field(default_factory=list)
    solver: str = "construct"
    mode: str = "permissive"
    slack: float = 2.0
    rounds: int = 200
    retries: int = 3
    span_cap: object = "auto"   # "auto" -> 3*max_degree+10, None -> uncapped
    k_max_extra: int = 5
    workers: int = 1
    schema: int = SCHEMA_VERSION

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("experiment spec must be a JSON object")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        for key, value in data.items():
            ok, want = _SPEC_FIELDS[key]
            if not ok(value):
                raise ValueError(
                    f"spec field {key!r} must be {want}, got {json.dumps(value)}")
        if "families" not in data:
            raise ValueError("spec lists no graph families")
        return cls(**data)

    def to_json(self) -> str:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        return json.dumps(d, indent=2, sort_keys=True) + "\n"

    def resolve_span_cap(self, delta: int):
        if self.span_cap == "auto":
            return 3 * delta + 10
        return self.span_cap


@dataclass
class RunRecord:
    run_index: int
    graph_id: str
    seed: int
    n: int
    m: int
    max_degree: int
    mode: str
    slack: str
    span: int
    delta_plus_3: int
    reference_bound: float
    span_over_delta: float
    fallback: bool
    verdict: str
    wall_time_s: float = 0.0
    report: dict | None = None

    def csv_row(self, timings: bool = False) -> list[str]:
        row = [str(self.run_index), self.graph_id, str(self.seed),
               str(self.n), str(self.m), str(self.max_degree), self.mode,
               self.slack, str(self.span), str(self.delta_plus_3),
               f"{self.reference_bound:.3f}", f"{self.span_over_delta:.6f}",
               "1" if self.fallback else "0", self.verdict]
        if timings:
            row.append(f"{self.wall_time_s:.3f}")
        return row


def _solve_one(graph: Graph, graph_id: str, run_index: int,
               spec: ExperimentSpec) -> RunRecord:
    delta = graph.max_degree
    seed = split_seed(spec.seed, run_index)
    t0 = time.perf_counter()
    if spec.solver == "construct":
        cfg = ConstructConfig(seed=seed, mode=spec.mode, slack=spec.slack,
                              rounds=spec.rounds, retries=spec.retries,
                              span_cap=spec.resolve_span_cap(delta))
        colouring, rep = construct(graph, cfg)
        mode, slack, span = spec.mode, f"{spec.slack:g}", colouring.span
        fallback, verdict = rep.fallback_used, "ok" if rep.valid else "invalid"
        report = rep.to_dict()
    else:
        [row] = conjecture_sweep([(graph_id, graph)],
                                 k_max_extra=3 + spec.k_max_extra)
        unsolved = row["verdict"].startswith("unsolved")
        mode, slack, span = "exact", "", row["chi_sum_total"] or 0
        fallback, verdict = False, "unsolved" if unsolved else row["verdict"]
        report = {"nodes_explored": row["nodes"], "exceeded_k_max": unsolved}
    return RunRecord(
        run_index=run_index, graph_id=graph_id, seed=seed, n=graph.n,
        m=graph.m, max_degree=delta, mode=mode, slack=slack, span=span,
        delta_plus_3=delta + 3, reference_bound=reference_span_bound(delta),
        span_over_delta=span / max(delta, 1), fallback=fallback,
        verdict=verdict, wall_time_s=time.perf_counter() - t0, report=report)


def run_experiment(spec: ExperimentSpec, workers: int | None = None
                   ) -> tuple[list[RunRecord], dict]:
    """Run every (family graph, run) and aggregate. Output order follows run
    index regardless of worker count."""
    graphs = [pair for fam in spec.families for pair in parse_family(fam)]
    # the job columns: graph, graph id, run index, spec
    jobs = ([graph for _, graph in graphs], [gid for gid, _ in graphs],
            range(len(graphs)), [spec] * len(graphs))
    # with fork, a pool starts all max_workers processes at the first submit
    nworkers = min(workers if workers is not None else spec.workers,
                   len(graphs), os.cpu_count() or 1)
    if nworkers > 1:
        # imported only here, so importing the package loads no process pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            records = list(pool.map(_solve_one, *jobs))
    else:
        records = list(map(_solve_one, *jobs))
    summary = summarize(spec, records)
    return records, summary


def summarize(spec: ExperimentSpec, records: list[RunRecord],
              timings: bool = False) -> dict:
    good = {"construct": ("ok",), "exact": ("pass",)}[spec.solver]
    ratios = [r.span_over_delta for r in records]
    summary = {
        "schema": SCHEMA_VERSION,
        "name": spec.name,
        "solver": spec.solver,
        "seed": spec.seed,
        "runs": len(records),
        "valid_runs": sum(r.verdict in good for r in records),
        "invalid_runs": sum(r.verdict not in good for r in records),
        "fallback_runs": sum(r.fallback for r in records),
        "max_degree_range": [min((r.max_degree for r in records), default=0),
                             max((r.max_degree for r in records), default=0)],
        "span_max": max((r.span for r in records), default=0),
        "span_over_delta_mean": round(sum(ratios) / len(ratios), 6) if ratios else 0.0,
        "span_over_delta_max": round(max(ratios), 6) if ratios else 0.0,
        "runs_within_3delta_plus_10": sum(
            r.span <= 3 * r.max_degree + 10 for r in records),
        "runs_within_reference_bound": sum(
            r.span <= r.reference_bound for r in records),
        "runs_within_delta_plus_3": sum(
            r.span <= r.delta_plus_3 for r in records),
    }
    if timings:
        summary["wall_time_total_s"] = round(
            sum(r.wall_time_s for r in records), 3)
        summary["wall_time_max_s"] = round(
            max((r.wall_time_s for r in records), default=0.0), 3)
    return summary


def records_to_csv(records: list[RunRecord], timings: bool = False) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    header = list(CSV_COLUMNS) + (["wall_time_s"] if timings else [])
    w.writerow(header)
    for r in records:
        w.writerow(r.csv_row(timings))
    return buf.getvalue()


def summary_to_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def run_sweep(family_specs: list[str], k_max_extra: int = 5):
    """Exactly solve every graph in the families and compare against
    max_degree + 3. Returns the row dicts from the sweep."""
    graphs = [pair for fam in family_specs for pair in parse_family(fam)]
    return conjecture_sweep(graphs, k_max_extra=k_max_extra)


def sweep_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SWEEP_COLUMNS)
    for row in rows:
        w.writerow([str(row[c]) for c in SWEEP_COLUMNS])
    return buf.getvalue()

