"""Batch harness: run the constructor or the exact solver over graph
families, verify every result, and serialize deterministic CSV/JSON output.

Family specs are compact strings:

    connected<=4                  all connected labelled graphs up to 4 vertices
    complete:2..5  cycle:3..8  path:2..8
    random:n=500,p=0.05,seeds=3   3 binomial graphs, generation seeds 0..2
    regular:n=100,d=10,seeds=2    near-regular pairing-model graphs

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
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .construct import ConstructConfig, construct, reference_span_bound
from .exact import conjecture_sweep, solve_exact
from .graph import (GenerationError, Graph, complete_graph, cycle_graph,
                    enumerate_connected_graphs, path_graph, random_graph,
                    regular_graph)

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


def _parse_range(token: str) -> range:
    if ".." in token:
        lo, hi = token.split("..", 1)
        return range(int(lo), int(hi) + 1)
    v = int(token)
    return range(v, v + 1)


def _parse_kv(body: str) -> dict[str, str]:
    out = {}
    for part in body.split(","):
        if "=" not in part:
            raise ValueError(f"expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def parse_family(spec: str) -> list[tuple[str, Graph]]:
    """Expand one family spec string into (graph_id, graph) pairs."""
    spec = spec.strip()
    if spec.startswith("connected<="):
        max_n = int(spec[len("connected<="):])
        return list(enumerate_connected_graphs(max_n))
    if ":" not in spec:
        raise ValueError(f"malformed family spec {spec!r}")
    kind, body = spec.split(":", 1)
    kind = kind.strip()
    if kind in ("complete", "cycle", "path"):
        maker = {"complete": complete_graph, "cycle": cycle_graph,
                 "path": path_graph}[kind]
        return [(f"{kind}-{n}", maker(n)) for n in _parse_range(body)]
    if kind == "random":
        kv = _parse_kv(body)
        n, p, seeds = int(kv["n"]), float(kv["p"]), int(kv["seeds"])
        return [(f"random-n{n}-p{kv['p']}-s{s}", random_graph(n, p, seed=s))
                for s in range(seeds)]
    if kind == "regular":
        kv = _parse_kv(body)
        n, d, seeds = int(kv["n"]), int(kv["d"]), int(kv["seeds"])
        return [(f"regular-n{n}-d{d}-s{s}", regular_graph(n, d, seed=s))
                for s in range(seeds)]
    raise ValueError(f"unknown family kind {kind!r}")


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
        schema = data.get("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ValueError(f"unsupported spec schema {schema}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        spec = cls(**data)
        if spec.solver not in ("construct", "exact"):
            raise ValueError(f"unknown solver {spec.solver!r}")
        if not spec.families:
            raise ValueError("spec lists no graph families")
        return spec

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
        colouring, report = construct(graph, cfg)
        rec = RunRecord(
            run_index=run_index, graph_id=graph_id, seed=seed,
            n=graph.n, m=graph.m, max_degree=delta, mode=spec.mode,
            slack=f"{spec.slack:g}", span=colouring.span,
            delta_plus_3=delta + 3,
            reference_bound=reference_span_bound(delta),
            span_over_delta=colouring.span / max(delta, 1),
            fallback=report.fallback_used,
            verdict="ok" if report.valid else "invalid",
            report=report.to_dict())
    else:
        res = solve_exact(graph, k_max=delta + 3 + spec.k_max_extra)
        if res.exceeded_k_max:
            verdict, span = "unsolved", 0
        else:
            span = res.chi_sum_total
            verdict = "pass" if span <= delta + 3 else "fail"
        rec = RunRecord(
            run_index=run_index, graph_id=graph_id, seed=seed,
            n=graph.n, m=graph.m, max_degree=delta, mode="exact",
            slack="", span=span, delta_plus_3=delta + 3,
            reference_bound=reference_span_bound(delta),
            span_over_delta=span / max(delta, 1),
            fallback=False, verdict=verdict,
            report={"nodes_explored": res.nodes_explored,
                    "exceeded_k_max": res.exceeded_k_max})
    rec.wall_time_s = time.perf_counter() - t0
    return rec


def _solve_one_star(args) -> RunRecord:
    return _solve_one(*args)


def run_experiment(spec: ExperimentSpec, workers: int | None = None
                   ) -> tuple[list[RunRecord], dict]:
    """Run every (family graph, run) and aggregate. Output order follows run
    index regardless of worker count."""
    jobs = []
    idx = 0
    for fam in spec.families:
        for graph_id, graph in parse_family(fam):
            jobs.append((graph, graph_id, idx, spec))
            idx += 1
    nworkers = workers if workers is not None else spec.workers
    if nworkers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            records = list(pool.map(_solve_one_star, jobs))
    else:
        records = [_solve_one_star(j) for j in jobs]
    records.sort(key=lambda r: r.run_index)
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
    graphs = []
    for fam in family_specs:
        graphs.extend(parse_family(fam))
    return conjecture_sweep(graphs, k_max_extra=k_max_extra)


def sweep_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SWEEP_COLUMNS)
    for row in rows:
        w.writerow([str(row[c]) for c in SWEEP_COLUMNS])
    return buf.getvalue()


__all__ = [
    "CSV_COLUMNS", "SWEEP_COLUMNS", "ExperimentSpec", "RunRecord",
    "parse_family", "run_experiment", "run_sweep", "records_to_csv",
    "summary_to_json", "summarize", "split_seed", "sweep_to_csv",
    "GenerationError",
]
