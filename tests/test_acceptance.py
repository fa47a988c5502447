"""Acceptance gate: the eight build criteria.

Each test records a single "criterion N: PASS/FAIL" line; conftest echoes the
collected lines in the terminal summary so a full run shows one verdict per
criterion. The fixtures that are expensive (the 50-run pipeline grid, the
small-graph oracle set) are session scoped and shared between criteria.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from nsdcolour import (LemmaParams, brute_force_chi, check_nsd,
                       check_proper, check_properties, complete_graph,
                       enumerate_labelled_graphs, is_valid, parse_colouring,
                       parse_graph, random_graph, resample_until_valid,
                       run_sweep, solve_exact, stage_two)
from nsdcolour.experiment import ExperimentSpec, run_experiment
from recount import recount

ACCEPTANCE_LINES = []


def criterion(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="session")
def oracle_instances():
    """Small graphs where raw enumeration is affordable, solved both ways.

    Exhaustive over labelled graphs with n <= 4 and n + m <= 8, plus twelve
    graphs sampled (seed 1) from the labelled 5-vertex graphs with m <= 3.
    """
    graphs = []
    for n in range(1, 5):
        graphs.extend(enumerate_labelled_graphs(n, max_edges=8 - n))
    pool = list(enumerate_labelled_graphs(5, max_edges=3))
    rng = np.random.default_rng(1)
    picks = rng.choice(len(pool), size=12, replace=False)
    graphs.extend(pool[int(i)] for i in sorted(picks))
    results = []
    for g in graphs:
        results.append((g, solve_exact(g), brute_force_chi(g)))
    return results


GRID = [(100, 8), (100, 25), (200, 12), (500, 15), (500, 60), (1000, 30),
        (1000, 100), (2000, 40), (2000, 150), (5000, 50)]


@pytest.fixture(scope="session")
def pipeline_records():
    """50 seeded end-to-end runs across a degree grid, shared by 5 and 6."""
    families = [f"random:n={n},p={mean / (n - 1):.6f},seeds=5"
                for n, mean in GRID]
    spec = ExperimentSpec(name="acceptance-grid", seed=2026,
                          families=families, solver="construct",
                          mode="permissive", slack=2.0, span_cap="auto")
    workers = min(4, os.cpu_count() or 1)
    records, _summary = run_experiment(spec, workers=workers)
    return records


# ---------------------------------------------------------------------------
# 1: the backtracking solver agrees with raw enumeration


def test_criterion_1_solver_matches_enumeration(oracle_instances):
    mismatches = [(g.n, g.m) for g, a, b in oracle_instances
                  if a.chi_sum_total != b.chi_sum_total]
    witness_bad = [(g.n, g.m) for g, a, _ in oracle_instances
                   if not (a.witness is not None and is_valid(g, a.witness)
                           and a.witness.span <= a.chi_sum_total)]
    criterion(1, not mismatches and not witness_bad,
              f"exact solver equals enumeration on all "
              f"{len(oracle_instances)} small graphs "
              f"(68 exhaustive n<=4 plus 12 sampled n=5); "
              f"mismatches={mismatches[:5]} bad_witness={witness_bad[:5]}")


# ---------------------------------------------------------------------------
# 2: known anchors, zero tolerance


def test_criterion_2_anchors(oracle_instances):
    k2 = solve_exact(complete_graph(2)).chi_sum_total
    below = [(g.n, g.m) for g, a, _ in oracle_instances
             if g.m and a.chi_sum_total < g.max_degree + 1]
    criterion(2, k2 == 3 and not below,
              f"two-vertex optimum is {k2} (must be 3) and no tested graph "
              f"with an edge beats max_degree+1; below={below[:5]}")


# ---------------------------------------------------------------------------
# 3: bound sweep over every connected graph on at most 5 vertices


def test_criterion_3_small_bound_sweep():
    rows = run_sweep(["connected<=5"], k_max_extra=5)
    bad = [r["graph_id"] for r in rows if r["verdict"] != "pass"]
    tight = sum(1 for r in rows
                if r["chi_sum_total"] == r["delta_plus_3"])
    criterion(3, len(rows) == 772 and not bad,
              f"all {len(rows)} connected graphs on <=5 vertices stay within "
              f"max_degree+3 ({tight} meet it exactly); failures={bad[:5]}")


# ---------------------------------------------------------------------------
# 4: engine property suite at scale, independently recounted


def test_criterion_4_engine_trials():
    passes = 0
    recount_disagree = 0
    trials = 100
    for t in range(trials):
        g = random_graph(2000, 0.02, seed=t)
        p = LemmaParams(g.max_degree, slack=2.0)
        res = resample_until_valid(g, p, seed=1000 + t, max_rounds=200)
        if not res.valid:
            continue
        s2 = stage_two(g, res.state, p, seed=5000 + t, max_rounds=200)
        if not s2.valid:
            continue
        report = check_properties(g, s2.state, p,
                                  h3_edge_ids=s2.h3_edge_ids)
        if not report.all_pass():
            continue
        # independent pure-python recount of all ten properties
        independent = recount(g, s2.state, p, h3_edge_ids=s2.h3_edge_ids)
        if all(independent.values()):
            passes += 1
        else:
            recount_disagree += 1
    criterion(4, passes >= 95 and recount_disagree == 0,
              f"{passes}/{trials} seeded trials on n=2000 p=0.02 graphs pass "
              f"all ten properties at slack 2 (need >=95), recount "
              f"disagreements={recount_disagree}")


# ---------------------------------------------------------------------------
# 5: end-to-end validity and wall time on the 50-run grid


def test_criterion_5_pipeline_grid_validity(pipeline_records):
    records = pipeline_records
    invalid = [r.graph_id for r in records if r.verdict != "ok"]
    slowest = max(r.wall_time_s for r in records)
    deltas = sorted(r.max_degree for r in records)
    criterion(5, len(records) == 50 and not invalid and slowest <= 60.0,
              f"{len(records) - len(invalid)}/{len(records)} runs verifier "
              f"clean across max_degree {deltas[0]}..{deltas[-1]}, slowest "
              f"run {slowest:.2f}s (limit 60s); invalid={invalid[:5]}")


# ---------------------------------------------------------------------------
# 6: span tracking against the reference growth curve


def test_criterion_6_span_tracking(pipeline_records):
    records = pipeline_records
    over_cap = [r.graph_id for r in records if r.span > 3 * r.max_degree + 10]
    missing = [r.graph_id for r in records
               if not (r.reference_bound > 0 and r.span_over_delta > 0)]
    # informational trend: mean span/max_degree per grid row, ascending degree
    by_delta = {}
    for r in records:
        by_delta.setdefault(r.max_degree, []).append(r.span_over_delta)
    trend = [(d, sum(v) / len(v)) for d, v in sorted(by_delta.items())]
    lo = [x for _, x in trend[: max(1, len(trend) // 3)]]
    hi = [x for _, x in trend[-max(1, len(trend) // 3):]]
    decreasing = sum(lo) / len(lo) >= sum(hi) / len(hi)
    trend_txt = ", ".join(f"d={d}:{x:.2f}" for d, x in trend)
    criterion(6, not over_cap and not missing,
              f"span <= 3*max_degree+10 on all runs and the reference-curve "
              f"comparison is recorded; span/degree by degree [{trend_txt}] "
              f"{'decreases' if decreasing else 'does not decrease'} "
              f"low-to-high; over_cap={over_cap[:5]}")


# ---------------------------------------------------------------------------
# 7: byte-identical reruns for every command


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_cli(args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "nsdcolour.cli"] + args,
                          capture_output=True, cwd=cwd, env=env)
    return proc.returncode, proc.stdout


def test_criterion_7_determinism(tmp_path):
    cwd = str(tmp_path)
    gpath = tmp_path / "g.graph"
    rc, _ = run_cli(["gen", "--kind", "random", "--n", "60", "--p", "0.15",
                     "--seed", "11", "-o", str(gpath)], cwd)
    assert rc == 0
    k3 = tmp_path / "k3.graph"
    rc, out = run_cli(["gen", "--kind", "complete", "--n", "3"], cwd)
    k3.write_bytes(out)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "det", "seed": 5, "families": ["random:n=40,p=0.2,seeds=2"],
        "solver": "construct"}))

    mismatched = []
    for name, args, outfiles in [
        ("gen", ["gen", "--kind", "random", "--n", "60", "--p", "0.15",
                 "--seed", "11"], []),
        ("exact", ["exact", str(k3), "--json",
                   "--witness", "{d}/w.col"], ["w.col"]),
        ("lemma", ["lemma", "--delta", "4096"], []),
        ("lemma-run", ["lemma", "--delta", "1", "--graph", str(gpath),
                       "--slack", "2.0", "--seed", "4"], []),
        ("construct", ["construct", str(gpath), "--seed", "7", "--json",
                       "-o", "{d}/c.col", "--report", "{d}/r.json"],
         ["c.col", "r.json"]),
        ("sweep", ["sweep", "--family", "complete:2..4",
                   "-o", "{d}/s.csv"], ["s.csv"]),
        ("experiment", ["experiment", str(spec), "--csv", "{d}/e.csv",
                        "--summary", "{d}/e.json"], ["e.csv", "e.json"]),
    ]:
        outs = []
        for run in (1, 2):
            d = tmp_path / f"{name}-{run}"
            d.mkdir()
            argv = [a.replace("{d}", str(d)) for a in args]
            rc, stdout = run_cli(argv, cwd)
            blobs = [stdout] + [(d / f).read_bytes() for f in outfiles]
            outs.append((rc, blobs))
        if outs[0] != outs[1]:
            mismatched.append(name)
        if name == "construct":
            # verify round trip is also deterministic and clean
            rc1, v1 = run_cli(["verify", str(gpath),
                               str(tmp_path / "construct-1" / "c.col"),
                               "--json"], cwd)
            rc2, v2 = run_cli(["verify", str(gpath),
                               str(tmp_path / "construct-2" / "c.col"),
                               "--json"], cwd)
            if (rc1, v1) != (rc2, v2) or rc1 != 0:
                mismatched.append("verify")
    criterion(7, not mismatched,
              f"double runs of gen/verify/exact/sweep/lemma/construct/"
              f"experiment are byte-identical; mismatched={mismatched}")


# ---------------------------------------------------------------------------
# 8: the six randomized invariant suites exist at >= 1000 cases each


def test_criterion_8_invariant_suites():
    import test_properties as props
    suites = [props.test_edge_target_identity,
              props.test_verifier_detects_injected_clash,
              props.test_resample_scope_discipline,
              props.test_properize_band_confinement,
              props.test_sum_shift_locality,
              props.test_score_ignores_auxiliary_colours]
    thin = [f.__name__ for f in suites
            if f._hypothesis_internal_use_settings.max_examples < 1000]
    criterion(8, props.CASES >= 1000 and not thin,
              f"six invariant suites run at {props.CASES} randomized cases "
              f"each (sum identity, clash detection, scope discipline, band "
              f"confinement, sum-shift locality, score locality); "
              f"under-provisioned={thin}")
