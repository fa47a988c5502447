"""One workload in one process: set up, run whole rounds, check, report.

Run by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``:

    python3 perfbench/worker.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/worker.py --workload grid --seed 1 --setup-only

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import spans
from workloads import WORKLOADS

# inputs, outputs and span files, relative to the checkout root
OUT_DIR = ".perfbench_runs"


def measure_setup(workload_cls, workdir: str, seed: int):
    t0 = time.perf_counter()
    import nsdcolour  # noqa: F401  (import time is part of set-up)
    wl = workload_cls(workdir, seed)
    wl.prepare()
    return wl, time.perf_counter() - t0


def run_rounds(wl, rec, seconds: float, trace: bool):
    """Whole rounds until ``seconds`` have passed, at least two, so every
    output is compared with a rerun. With tracing, odd rounds are traced."""
    rounds, problems = [], []
    first_digest = rss_mb = None
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        traced = trace and len(rounds) % 2 == 1
        rec.round, rec.active = len(rounds), traced
        rnd = wl.run_round()
        rec.active = False
        problems += rnd.problems
        if first_digest is None:
            # high-water mark of the work itself, before the checker runs
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            found, ratio = wl.check(rnd)
            problems += found
            first_digest = wl.digest(rnd)
        elif wl.digest(rnd) != first_digest:
            problems.append(f"round {len(rounds) + 1} outputs differ from "
                            f"round 1")
        rnd.outputs = None
        rounds.append((traced, rnd))
    return rounds, problems, rss_mb, ratio


def end_to_end(rounds, rss_mb: float, ratio: float) -> dict:
    plain = [r for traced, r in rounds if not traced]
    per_graph = zip(*(r.per_graph_s for r in plain))
    return {
        "wall_s": (statistics.median(r.wall_s for r in plain), "s"),
        "max_run_s": (max(statistics.median(g) for g in per_graph), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "span_over_delta_mean": (ratio, "ratio"),
    }


def per_layer(rounds, rec) -> dict:
    traced = [r.wall_s for t, r in rounds if t]
    plain = [r.wall_s for t, r in rounds if not t]
    n = len(traced)
    self_s = rec.self_times()
    out = {name: (self_s.get(name, 0.0) / n, "s")
           for _, _, name, _, _ in spans.LAYERS}
    out.update({key: (rec.counts.get(key, 0.0) / n, "count")
                for key in spans.COUNTERS})
    runs = rec.counts.get("construct.runs", 0.0)
    out["construct.pipeline_kept_ratio"] = (
        rec.counts.get("construct.pipeline_kept", 0.0) / runs if runs else 0.0,
        "ratio")
    wall, base = statistics.median(traced), statistics.median(plain)
    total_self = sum(self_s.values()) / n
    out.update({
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (base, "s"),
        "trace.overhead_ratio": (wall / base - 1.0, "ratio"),
        "trace.self_total_s": (total_self, "s"),
        "trace.spans": (len(rec.spans) / n, "count"),
        "trace.coverage": (total_self / (sum(traced) / n), "ratio"),
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}"
                                    f"-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl, setup_s = measure_setup(WORKLOADS[args.workload], workdir,
                                    args.seed)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        rec = spans.Recorder()
        spans.install(rec, layers=bool(args.trace), hooks=wl.hooks())
        rounds, problems, rss_mb, ratio = run_rounds(
            wl, rec, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(rounds, rec)
        rec.write_spans(os.path.join(
            OUT_DIR, f"trace-{args.workload}-s{args.seed}.jsonl"))
    else:
        metrics = end_to_end(rounds, rss_mb, ratio)
    import numpy
    print(json.dumps({
        "correct": not problems,
        "problems": problems[:20],
        "attempted": sum(r.attempted for _, r in rounds),
        "failed": sum(r.failed for _, r in rounds),
        "round_wall_s": [[traced, r.wall_s] for traced, r in rounds],
        "setup_s": setup_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
