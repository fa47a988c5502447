"""Command line front end.

Subcommands: gen, verify, exact, sweep, lemma, construct, experiment.
Exit codes: 0 success, 1 a check failed or a solver gave up, 2 bad usage or
unreadable input. All default output is deterministic; wall-clock timings
only appear under --timings.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiment as expmod
from .colouring import (ColouringParseError, check_nsd, check_proper,
                        is_valid, parse_colouring, weighted_degrees,
                        write_colouring)
from .construct import ConstructConfig, construct, greedy_nsd
from .exact import EnumerationGuardError, solve_exact
from .graph import GenerationError, GraphParseError, generate, parse_graph, write_graph
from .lemma import (InfeasibleStrictError, LemmaParams, resample_until_valid,
                    stage_two)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_graph(path: str):
    return parse_graph(_read(path))


def cmd_gen(args) -> int:
    kwargs = {}
    if args.p is not None:
        kwargs["p"] = args.p
    if args.d is not None:
        kwargs["d"] = args.d
    if args.seed is not None:
        kwargs["seed"] = args.seed
    g = generate(args.kind, n=args.n, **kwargs)
    _write_out(write_graph(g), args.output)
    return 0


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    col = parse_colouring(_read(args.colouring), g)
    violations = check_proper(g, col) + check_nsd(g, col)
    if args.json:
        sums = weighted_degrees(g, col)
        out = {
            "valid": not violations,
            "span": col.span,
            "max_degree": g.max_degree,
            "violations": [v.to_dict() for v in violations],
            "sum_range": [int(sums.min()), int(sums.max())] if g.n else [0, 0],
        }
        sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    else:
        for v in violations:
            sys.stdout.write(json.dumps(v.to_dict(), sort_keys=True) + "\n")
    return 1 if violations else 0


def cmd_exact(args) -> int:
    g = _load_graph(args.graph)
    res = solve_exact(g, k_max=args.k_max)
    if args.json:
        sys.stdout.write(json.dumps(res.to_dict(), indent=2, sort_keys=True) + "\n")
    else:
        if res.exceeded_k_max:
            sys.stdout.write(f"unsolved k_max={res.k_max}\n")
        else:
            sys.stdout.write(f"chi_sum_total {res.chi_sum_total}\n")
    if args.witness and res.witness is not None:
        _write_out(write_colouring(g, res.witness), args.witness)
    return 1 if res.exceeded_k_max else 0


def cmd_sweep(args) -> int:
    rows = expmod.run_sweep(args.family, k_max_extra=args.k_max_extra)
    _write_out(expmod.sweep_to_csv(rows), args.output)
    return 0 if all(r["verdict"] == "pass" for r in rows) else 1


def cmd_lemma(args) -> int:
    p = LemmaParams(args.delta, strict=args.strict, slack=args.slack)
    info = {
        "delta": p.delta,
        "ln_floor": round(p.ln_floor, 9),
        "r1": p.r1, "r2": p.r2, "r3": p.r3,
        "b_unit": p.b_unit,
        "caps": {k: p.caps[k] for k in sorted(p.caps)},
        "interval_len": float(p.interval_len),
        "strict": p.strict,
        "slack": p.slack,
        "feasible_strict": p.feasible_strict,
        "feasibility_reasons": p.feasibility_reasons,
    }
    if args.graph is None:
        sys.stdout.write(json.dumps(info, indent=2, sort_keys=True) + "\n")
        return 0
    g = _load_graph(args.graph)
    if g.max_degree != p.delta:
        p = LemmaParams(g.max_degree, strict=args.strict, slack=args.slack)
    r1 = resample_until_valid(g, p, args.seed, args.rounds)
    r2 = stage_two(g, r1.state, p, args.seed + 1, args.rounds)
    out = {
        "params": {"delta": p.delta, "r1": p.r1, "r2": p.r2, "r3": p.r3,
                   "slack": p.slack},
        "stage1": {"rounds": r1.rounds, "valid": r1.valid,
                   "violations": r1.report.violator_counts()},
        "stage2": {"rounds": r2.rounds, "valid": r2.valid,
                   "e1_count": r2.e1_count, "e2_count": r2.e2_count,
                   "verdicts": {k: bool(v) for k, v in
                                sorted(r2.report.verdicts.items())},
                   "violations": r2.report.violator_counts()},
    }
    sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    ok = r1.valid and r2.report.all_pass()
    return 0 if ok else 1


def cmd_construct(args) -> int:
    g = _load_graph(args.graph)
    if args.greedy:
        col = greedy_nsd(g)
        report = {"mode": "greedy", "span": col.span,
                  "max_degree": g.max_degree,
                  "valid": is_valid(g, col)}
        valid = report["valid"]
        rep_json = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        cfg = ConstructConfig(seed=args.seed, mode=args.mode,
                              slack=args.slack, rounds=args.rounds,
                              retries=args.retries, span_cap=args.span_cap)
        col, rep = construct(g, cfg)
        valid = rep.valid
        rep_json = json.dumps(rep.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.output:
        _write_out(write_colouring(g, col), args.output)
    if args.report:
        _write_out(rep_json, args.report)
    if args.json:
        sys.stdout.write(rep_json)
    else:
        sys.stdout.write(
            f"span {col.span} max_degree {g.max_degree} "
            f"valid {str(valid).lower()}\n")
    return 0 if valid else 1


def cmd_experiment(args) -> int:
    spec = expmod.ExperimentSpec.from_json(_read(args.spec))
    records, _ = expmod.run_experiment(spec, workers=args.workers)
    summary = expmod.summarize(spec, records, timings=args.timings)
    if args.csv:
        _write_out(expmod.records_to_csv(records, timings=args.timings),
                   args.csv)
    if args.summary:
        _write_out(expmod.summary_to_json(summary), args.summary)
    sys.stdout.write(expmod.summary_to_json(summary))
    return 0 if summary["invalid_runs"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nsdcolour",
        description="Neighbour sum distinguishing total colourings: "
                    "construct, verify, exactly solve, and survey.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("--kind", required=True,
                   choices=["complete", "cycle", "path", "random", "regular"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None, help="edge probability")
    p.add_argument("--d", type=int, default=None, help="target degree")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="check a colouring file against a graph")
    p.add_argument("graph")
    p.add_argument("colouring")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exact", help="minimum span by exact search")
    p.add_argument("graph")
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--witness", default=None,
                   help="write an optimal colouring here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("sweep", help="exact solve whole families, compare "
                                     "spans against max_degree+3")
    p.add_argument("--family", action="append", required=True)
    p.add_argument("--k-max-extra", type=int, default=5)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("lemma", help="inspect engine parameters, optionally "
                                     "run both stages on a graph")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--slack", type=float, default=1.0)
    p.add_argument("--graph", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=200)
    p.set_defaults(func=cmd_lemma)

    p = sub.add_parser("construct", help="build a verified colouring")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["permissive", "strict"],
                   default="permissive")
    p.add_argument("--slack", type=float, default=2.0)
    p.add_argument("--rounds", type=int, default=200)
    p.add_argument("--retries", type=int, default=3)
    p.add_argument("--span-cap", type=int, default=None)
    p.add_argument("--greedy", action="store_true",
                   help="skip the pipeline, use the deterministic fallback")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("experiment", help="run a JSON experiment spec")
    p.add_argument("spec")
    p.add_argument("--csv", default=None)
    p.add_argument("--summary", default=None)
    p.add_argument("--timings", action="store_true")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_experiment)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (GraphParseError, ColouringParseError, GenerationError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleStrictError, EnumerationGuardError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
