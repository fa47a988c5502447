import concurrent.futures
import json
import os
import subprocess
import sys

import pytest

import nsdcolour.experiment as expmod
from nsdcolour import ExperimentSpec, parse_family, run_experiment, run_sweep, split_seed
from nsdcolour.experiment import (CSV_COLUMNS, records_to_csv, summarize,
                                  summary_to_json, sweep_to_csv)


def test_parse_family_fixed_kinds():
    assert [gid for gid, _ in parse_family("complete:2..4")] == \
        ["complete-2", "complete-3", "complete-4"]
    assert [gid for gid, _ in parse_family("cycle:3..5")] == \
        ["cycle-3", "cycle-4", "cycle-5"]
    assert [gid for gid, _ in parse_family("path:2")] == ["path-2"]


def test_parse_family_connected():
    fams = parse_family("connected<=3")
    assert len(fams) == 6  # 1 + 1 + 4 connected labelled graphs
    assert all(gid.startswith("conn-n") for gid, _ in fams)


def test_parse_family_random_and_regular():
    fams = parse_family("random:n=40,p=0.1,seeds=3")
    assert [gid for gid, _ in fams] == [
        "random-n40-p0.1-s0", "random-n40-p0.1-s1", "random-n40-p0.1-s2"]
    gs = [g for _, g in fams]
    assert gs[0] != gs[1]
    # literal generation seeds: re-parsing gives identical graphs
    again = [g for _, g in parse_family("random:n=40,p=0.1,seeds=3")]
    assert gs == again
    regs = parse_family("regular:n=20,d=4,seeds=2")
    assert len(regs) == 2 and regs[0][1].n == 20


def test_parse_family_rejects_malformed():
    for bad in ("random:n=10", "unknown:3..4", "complete", "cycle:x..y",
                "random:n=10,p=0.5"):
        with pytest.raises(ValueError):
            parse_family(bad)


@pytest.mark.parametrize("spec, message", [
    ("random:n=5,p=0.3,seeds=1,sead=9", "random family spec has unknown key 'sead'"),
    ("regular:n=6,d=2,seeds=1,p=0.5", "regular family spec has unknown key 'p'"),
    ("random:n=5,p=0.3,seeds=1,n=6", "random family spec repeats key 'n'"),
    ("regular: d=2,n=6,d =2,seeds=1", "regular family spec repeats key 'd'"),
    ("random:n=5,p", "random family spec expects key=value, got 'p'"),
])
def test_parse_family_rejects_unknown_and_repeated_keys(spec, message):
    with pytest.raises(ValueError) as exc:
        parse_family(spec)
    assert str(exc.value) == message


def test_split_seed_stable_and_distinct():
    a = split_seed(7, 0)
    assert a == split_seed(7, 0)
    assert a != split_seed(7, 1)
    assert a != split_seed(8, 0)
    assert 0 <= a < 2 ** 64


def test_spec_round_trip_and_validation():
    spec = ExperimentSpec(name="t", seed=3, families=["complete:2..3"],
                          solver="construct")
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec
    with pytest.raises(ValueError):
        ExperimentSpec.from_json(json.dumps({"families": []}))
    with pytest.raises(ValueError, match="^spec lists no graph families$"):
        ExperimentSpec.from_json(json.dumps({"name": "t"}))
    with pytest.raises(ValueError):
        ExperimentSpec.from_json(json.dumps(
            {"families": ["path:2"], "solver": "quantum"}))
    with pytest.raises(ValueError):
        ExperimentSpec.from_json(json.dumps(
            {"families": ["path:2"], "schema": 99}))
    with pytest.raises(ValueError):
        ExperimentSpec.from_json(json.dumps(
            {"families": ["path:2"], "mystery_field": 1}))
    with pytest.raises(ValueError):
        ExperimentSpec.from_json("[1,2]")


def test_span_cap_resolution():
    spec = ExperimentSpec(families=["path:2"])
    assert spec.resolve_span_cap(40) == 130
    spec2 = ExperimentSpec(families=["path:2"], span_cap=None)
    assert spec2.resolve_span_cap(40) is None
    spec3 = ExperimentSpec(families=["path:2"], span_cap=99)
    assert spec3.resolve_span_cap(40) == 99


def test_run_experiment_construct_route():
    spec = ExperimentSpec(name="small", seed=5,
                          families=["complete:2..4", "random:n=40,p=0.15,seeds=2"],
                          solver="construct")
    records, summary = run_experiment(spec)
    assert [r.run_index for r in records] == list(range(5))
    assert all(r.verdict == "ok" for r in records)
    assert summary["runs"] == 5 and summary["invalid_runs"] == 0
    assert summary["runs_within_3delta_plus_10"] == 5
    for r in records:
        assert r.span <= 3 * r.max_degree + 10
        assert r.seed == split_seed(5, r.run_index)


def test_run_experiment_exact_route():
    spec = ExperimentSpec(name="ex", seed=1, families=["complete:2..4"],
                          solver="exact")
    records, summary = run_experiment(spec)
    # spans are the exact optima: 3, 5, 5 for K2, K3, K4
    assert [r.span for r in records] == [3, 5, 5]
    assert all(r.verdict == "pass" for r in records)
    assert summary["invalid_runs"] == 0
    assert summary["runs_within_delta_plus_3"] == 3


def test_csv_deterministic_and_shaped():
    spec = ExperimentSpec(name="csv", seed=2, families=["complete:2..3"])
    records, _ = run_experiment(spec)
    text1 = records_to_csv(records)
    records2, _ = run_experiment(spec)
    text2 = records_to_csv(records2)
    assert text1 == text2
    lines = text1.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    timed = records_to_csv(records, timings=True)
    assert timed.split("\n")[0].endswith(",wall_time_s")
    assert "wall_time_s" not in text1


def test_summary_json_deterministic():
    spec = ExperimentSpec(name="sum", seed=9, families=["path:2..4"])
    records, summary = run_experiment(spec)
    assert summary_to_json(summary) == summary_to_json(
        summarize(spec, records))
    timed = summarize(spec, records, timings=True)
    assert "wall_time_total_s" in timed


def test_workers_preserve_order_and_content():
    spec = ExperimentSpec(name="w", seed=4,
                          families=["random:n=30,p=0.2,seeds=4"])
    seq_records, _ = run_experiment(spec, workers=1)
    par_records, _ = run_experiment(spec, workers=2)
    assert records_to_csv(seq_records) == records_to_csv(par_records)


def test_pool_starts_no_more_workers_than_jobs(monkeypatch):
    # with fork, a pool starts all max_workers processes at the first
    # submit; the stand-in records the size asked for and maps in-process
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(expmod.os, "cpu_count", lambda: 64)
    spec = ExperimentSpec(name="w", seed=4, workers=500,
                          families=["random:n=30,p=0.2,seeds=2"])
    par_records, _ = run_experiment(spec)
    assert asked == [2]
    seq_records, _ = run_experiment(spec, workers=1)
    assert asked == [2]
    assert records_to_csv(par_records) == records_to_csv(seq_records)


def test_package_import_leaves_the_process_pool_unloaded():
    # run_experiment imports the pool only when it starts one
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, nsdcolour; "
            "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out == "False\n"


def test_run_sweep_families():
    rows = run_sweep(["complete:2..3", "cycle:3..4"])
    assert [r["graph_id"] for r in rows] == \
        ["complete-2", "complete-3", "cycle-3", "cycle-4"]
    assert all(r["verdict"] == "pass" for r in rows)
    csv_text = sweep_to_csv(rows)
    assert csv_text.startswith(
        "graph_id,n,m,max_degree,chi_sum_total,delta_plus_3,verdict\n")
    assert len(csv_text.strip().split("\n")) == 5
