"""Benchmark for nsdcolour: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs in its own process
(worker.py) against the checkout's ``src``; set-up is also measured in
separate probe processes, because the import of nsdcolour only happens
once per process. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETUP_PROBES = 4          # extra set-up measurements; setup_s is the median
DEADLINE_S = 170          # the whole run, probes included


def child(argv: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py with ``argv``; return the JSON of its last stdout line."""
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "worker.py")
    proc = subprocess.run([sys.executable, worker, *argv], env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["grid", "construct-verify", "sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "nsdcolour", "__init__.py")):
        print("error: run from the root of an nsdcolour checkout "
              "(no src/nsdcolour here)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [child(common + ["--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = child(common + ["--seconds", str(args.seconds),
                              "--trace", str(args.trace)], env, deadline)
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups + [res["setup_s"]]),
                              "unit": "s"}
    m = res["machine"]
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']}")
    print(f"workload {args.workload}: seed={args.seed} "
          f"attempted={res['attempted']} failed={res['failed']}")
    print("rounds (traced, wall s): " + ", ".join(
        f"({t:d}, {w:.3f})" for t, w in res["round_wall_s"]))
    for problem in res["problems"]:
        print(f"check failed: {problem}")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
