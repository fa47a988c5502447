import io
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from nsdcolour import (Graph, GraphError, TotalColouring, complete_graph,
                       is_valid, parse_colouring, parse_graph,
                       write_colouring, write_graph)
from nsdcolour.graph import MAX_VERTICES
from nsdcolour.cli import main
from nsdcolour.construct import greedy_nsd


def write_k3(tmp_path):
    path = tmp_path / "k3.graph"
    path.write_text(write_graph(complete_graph(3)))
    return str(path)


def test_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "c5.graph"
    rc = main(["gen", "--kind", "cycle", "--n", "5", "-o", str(out)])
    assert rc == 0
    g = parse_graph(out.read_text())
    assert g.n == 5 and g.m == 5


def test_gen_stdout_deterministic(capsys):
    assert main(["gen", "--kind", "random", "--n", "12", "--p", "0.3",
                 "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--kind", "random", "--n", "12", "--p", "0.3",
                 "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("p edge 12 ")


def test_verify_valid_is_silent(tmp_path, capsys, monkeypatch):
    gpath = write_k3(tmp_path)
    g = complete_graph(3)
    col = greedy_nsd(g)
    cpath = tmp_path / "k3.col"
    cpath.write_text(write_colouring(g, col))
    rc = main(["verify", gpath, str(cpath)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    # "-" reads the colouring from stdin
    monkeypatch.setattr(sys, "stdin", io.StringIO(write_colouring(g, col)))
    assert main(["verify", gpath, "-"]) == 0
    assert capsys.readouterr().out == ""


def test_verify_reports_violations(tmp_path, capsys):
    gpath = write_k3(tmp_path)
    bad = "k 5\nv 1 1\nv 2 1\nv 3 2\ne 1 2 3\ne 1 3 4\ne 2 3 5\n"
    cpath = tmp_path / "bad.col"
    cpath.write_text(bad)
    rc = main(["verify", gpath, str(cpath)])
    assert rc == 1
    lines = [json.loads(s) for s in capsys.readouterr().out.strip().split("\n")]
    assert any(d["kind"] == "vertex-vertex" for d in lines)
    rc = main(["verify", gpath, str(cpath), "--json"])
    assert rc == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["valid"] is False and blob["violations"]


def test_verify_names_unknown_edge(tmp_path, capsys):
    p = tmp_path / "p3.graph"
    p.write_text(write_graph(Graph(3, [(0, 1), (1, 2)])))
    cpath = tmp_path / "nonedge.col"
    cpath.write_text("k 3\nv 1 1\nv 2 2\nv 3 1\ne 1 2 3\ne 1 3 3\n")
    rc = main(["verify", str(p), str(cpath)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: line 6: no edge (1, 3) in graph\n"


def test_verify_colour_beyond_int64_is_usage_error(tmp_path, capsys):
    p = tmp_path / "k2.graph"
    p.write_text("p edge 2 1\ne 1 2\n")
    cpath = tmp_path / "huge.col"
    cpath.write_text("k 3\nv 1 99999999999999999999\nv 2 2\ne 1 2 3\n")
    rc = main(["verify", str(p), str(cpath)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == ("error: line 2: colour out of range in "
                   "'v 1 99999999999999999999'\n")


def test_verify_sums_past_int64_are_exact(tmp_path, capsys):
    # the centre's true sum is 2^64 + 3; int64 would wrap it onto the leaf
    # sum 3 and report a sum conflict that is not there
    gpath = tmp_path / "star.graph"
    gpath.write_text("p edge 4 3\ne 1 2\ne 1 3\ne 1 4\n")
    top = 2 ** 63 - 1
    cpath = tmp_path / "star.col"
    cpath.write_text(f"k {top}\nv 1 4\nv 2 1\nv 3 1\nv 4 1\n"
                     f"e 1 2 2\ne 1 3 {top}\ne 1 4 {top - 1}\n")
    rc = main(["verify", str(gpath), str(cpath)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    rc = main(["verify", str(gpath), str(cpath), "--json"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["valid"] is True and blob["violations"] == []
    assert blob["sum_range"] == [3, 2 ** 64 + 3]


def test_exact_text_json_and_witness(tmp_path, capsys):
    gpath = write_k3(tmp_path)
    wpath = tmp_path / "k3.col"
    rc = main(["exact", gpath, "--witness", str(wpath)])
    assert rc == 0
    assert capsys.readouterr().out == "chi_sum_total 5\n"
    g = complete_graph(3)
    col = parse_colouring(wpath.read_text(), g)
    assert is_valid(g, col) and col.span <= 5
    rc = main(["exact", gpath, "--json"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["chi"] == 5 and blob["exceeded_k_max"] is False


def test_exact_budget_give_up(tmp_path, capsys):
    gpath = write_k3(tmp_path)
    rc = main(["exact", gpath, "--k-max", "4"])
    assert rc == 1
    assert "unsolved" in capsys.readouterr().out


def test_exact_refuses_an_invalid_witness(tmp_path, capsys, monkeypatch):
    import nsdcolour.cli as cli_mod
    real = cli_mod.solve_exact

    def corrupted(g, **kwargs):
        res = real(g, **kwargs)
        # every vertex and edge coloured 1: improper on any edge
        res.witness = TotalColouring(np.ones(g.n, dtype=np.int64),
                                     np.ones(g.m, dtype=np.int64),
                                     res.witness.k)
        return res

    monkeypatch.setattr(cli_mod, "solve_exact", corrupted)
    gpath = write_k3(tmp_path)
    wpath = tmp_path / "k3.col"
    rc = main(["exact", gpath, "--witness", str(wpath), "--json"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and not wpath.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--family", "complete:2..4", "--family", "cycle:3..4",
               "-o", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "graph_id,n,m,max_degree,chi_sum_total,delta_plus_3,verdict"
    assert len(lines) == 6
    assert all(line.endswith("pass") for line in lines[1:])


def test_sweep_with_unsolved_rows_exits_1(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--family", "complete:3..4", "--k-max-extra", "0",
               "-o", str(out)])
    assert rc == 1
    rows = out.read_text().strip().split("\n")[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["unsolved<=+0"] * 2


def test_sweep_refuses_connected_past_seven_at_once(capsys):
    # connected<=8 would walk 2^28 edge subsets and never return
    t0 = time.perf_counter()
    assert main(["sweep", "--family", "connected<=8"]) == 2
    assert time.perf_counter() - t0 < 5
    assert capsys.readouterr().err == (
        "error: connected<=N takes N up to 7, got 8\n")


@pytest.mark.parametrize("family", [
    "connected<=0", "complete:5..3", "random:n=5,p=0.3,seeds=0"])
def test_family_with_no_graphs_is_usage_error_naming_it(
        tmp_path, capsys, family):
    out = tmp_path / "empty.csv"
    assert main(["sweep", "--family", family, "-o", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: family spec {family!r} expands to no graphs\n")


def test_experiment_family_with_no_graphs_is_usage_error(tmp_path, capsys):
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps({"families": ["complete:3", "path:9..2"]}))
    assert main(["experiment", str(spath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: family spec 'path:9..2' expands to no graphs\n")


@pytest.mark.parametrize("family, bad", [
    ("connected<=x", "'x'"), ("connected<=", "''"), ("complete:a", "'a'"),
    ("complete:2..", "''"), ("cycle:3..x", "'x'"),
    ("random:n=x,p=0.1,seeds=1", "'x'"), ("regular:n=10,d=q,seeds=1", "'q'"),
    ("random:n=10,p=x,seeds=1", "float: 'x'")])
@pytest.mark.parametrize("command", ["sweep", "experiment"])
def test_non_numeric_family_is_usage_error_naming_it(tmp_path, capsys,
                                                     command, family, bad):
    if command == "sweep":
        argv = ["sweep", "--family", family]
    else:
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps({"families": ["complete:3", family]}))
        argv = ["experiment", str(spath)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: family spec {family!r}: ")
    assert captured.err.endswith(f"{bad}\n")
    assert "Traceback" not in captured.err


def test_exact_and_sweep_on_long_paths(tmp_path, capsys):
    # deeper than Python's recursion limit: 2n - 1 search levels
    gpath = tmp_path / "p600.graph"
    assert main(["gen", "--kind", "path", "--n", "600", "-o", str(gpath)]) == 0
    assert main(["exact", str(gpath)]) == 0
    assert capsys.readouterr().out == "chi_sum_total 4\n"
    out = tmp_path / "paths.csv"
    assert main(["sweep", "--family", "path:590..600", "-o", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 11 and all(r.endswith(",pass") for r in rows)


@pytest.mark.parametrize("family, key", [("random:n=5", "p"),
                                         ("regular:n=5,d=2", "seeds")])
def test_sweep_family_missing_key_is_usage_error(family, key, capsys):
    assert main(["sweep", "--family", family]) == 2
    kind = family.split(":")[0]
    assert capsys.readouterr().err == (
        f"error: {kind} family spec lacks key {key!r}\n")


@pytest.mark.parametrize("family, error", [
    ("random:n=5,p=0.3,seeds=1,sead=9", "has unknown key 'sead'"),
    ("regular:n=6,d=2,seeds=1,seeds=2", "repeats key 'seeds'"),
])
def test_sweep_family_unknown_or_repeated_key_is_usage_error(family, error,
                                                             capsys):
    assert main(["sweep", "--family", family]) == 2
    kind = family.split(":")[0]
    assert capsys.readouterr().err == f"error: {kind} family spec {error}\n"


def test_lemma_parameter_dump(capsys):
    rc = main(["lemma", "--delta", "4096"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["r1"] == 3 and blob["r2"] == 8 and blob["b_unit"] == 915
    assert blob["caps"]["I"] == 192
    assert blob["feasible_strict"] is False


def test_lemma_strict_refusal(capsys):
    rc = main(["lemma", "--delta", "4096", "--strict"])
    assert rc == 1
    assert "refused" in capsys.readouterr().err


def test_lemma_reads_the_graph_before_judging_feasibility(tmp_path, capsys):
    missing = str(tmp_path / "missing.graph")
    rc = main(["lemma", "--delta", "10", "--strict", "--graph", missing])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "missing.graph" in captured.err


def test_lemma_huge_degree_is_usage_error(capsys):
    delta = "1" + "0" * 200
    rc = main(["lemma", "--delta", delta])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: max degree {delta} ")
    assert "Traceback" not in captured.err


def test_lemma_without_delta_or_graph_is_usage_error(capsys):
    assert main(["lemma", "--slack", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--delta" in captured.err


def write_golden_graph(tmp_path):
    """The n=300 graph of test_cli_golden.py: max degree 45."""
    path = tmp_path / "g.graph"
    assert main(["gen", "--kind", "random", "--n", "300", "--p", "0.1",
                 "--seed", "5", "-o", str(path)]) == 0
    return str(path)


OUT_OF_RANGE = ("error: max degree 45 at slack 1e+305 is out of range: its "
                "palette sizes, caps or risk window overflow a float\n")


@pytest.mark.parametrize("cap", [[], ["--span-cap", "145"]])
def test_construct_slack_whose_window_overflows_is_usage_error(tmp_path,
                                                                capsys, cap):
    # the caps fit a float at slack 1e305, the risk window does not; a
    # capped run is refused too, though its attempt would stop at the band
    # floor before the window is used
    rc = main(["construct", write_golden_graph(tmp_path),
               "--slack", "1e305"] + cap)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == "" and captured.err == OUT_OF_RANGE


def test_experiment_slack_whose_window_overflows_is_usage_error(tmp_path,
                                                                capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"solver": "construct", "slack": 1e305, '
                    '"families": ["random:n=300,p=0.1,seeds=1"]}')
    rc = main(["experiment", str(spec), "--csv", str(tmp_path / "r.csv")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == "" and captured.err == OUT_OF_RANGE
    assert not (tmp_path / "r.csv").exists()


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("slack", [[], ["--slack", "nan"], ["--slack", "3"]])
def test_strict_edgeless_report_is_json_with_slack_one(tmp_path, capsys,
                                                        slack):
    # strict mode takes no slack: the edgeless attempt records 1.0, as every
    # strict attempt on a graph with an edge does
    edgeless = tmp_path / "e3.graph"
    edgeless.write_text("p edge 3 0\n")
    rc = main(["construct", str(edgeless), "--mode", "strict", "--json"]
              + slack)
    assert rc == 0
    blob = json.loads(capsys.readouterr().out,
                      parse_constant=refuse_constant)
    assert blob["attempts"] == [{"edgeless": True, "slack": 1.0, "span": 1,
                                 "valid": True}]


@pytest.mark.parametrize("slack", ["nan", "0.5", "inf"])
def test_bad_slack_is_usage_error_naming_value(tmp_path, capsys, slack):
    rule = "must be finite" if slack == "inf" else "must be at least 1"
    want = f"error: slack multiplier {rule}, got {slack}\n"
    edgeless = tmp_path / "e3.graph"
    edgeless.write_text("p edge 3 0\n")
    for argv in (["lemma", "--delta", "100"], ["lemma", "--delta", "0"],
                 ["construct", write_k3(tmp_path)],
                 ["construct", str(edgeless), "--json"]):
        rc = main(argv + ["--slack", slack])
        assert rc == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == want, argv


def test_lemma_stage_run(tmp_path, capsys):
    gpath = tmp_path / "g.graph"
    rc = main(["gen", "--kind", "random", "--n", "120", "--p", "0.1",
               "--seed", "3", "-o", str(gpath)])
    assert rc == 0
    rc = main(["lemma", "--delta", "1", "--graph", str(gpath),
               "--slack", "2.0", "--seed", "5"])
    blob = json.loads(capsys.readouterr().out)
    # params rebuilt from the real graph, not the placeholder delta
    assert blob["params"]["delta"] > 1
    assert set(blob["stage2"]["verdicts"]) == \
        {"I", "II", "III", "IV", "V", "VI", "1°", "2°", "3°", "4°"}
    assert rc in (0, 1)


def test_construct_outputs(tmp_path, capsys):
    gpath = tmp_path / "g.graph"
    main(["gen", "--kind", "random", "--n", "150", "--p", "0.08",
          "--seed", "2", "-o", str(gpath)])
    cpath = tmp_path / "g.col"
    rpath = tmp_path / "g.report.json"
    rc = main(["construct", str(gpath), "--seed", "9", "-o", str(cpath),
               "--report", str(rpath)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("span ") and "valid true" in out
    g = parse_graph(gpath.read_text())
    col = parse_colouring(cpath.read_text(), g)
    assert is_valid(g, col)
    rep = json.loads(rpath.read_text())
    assert rep["valid"] is True and rep["span"] == col.span
    # verify subcommand agrees end to end
    assert main(["verify", str(gpath), str(cpath)]) == 0


def test_construct_greedy_mode(tmp_path, capsys):
    gpath = write_k3(tmp_path)
    rc = main(["construct", gpath, "--greedy", "--json"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["mode"] == "greedy" and blob["valid"] is True


def test_experiment_command(tmp_path, capsys):
    spec = {"name": "cli-test", "seed": 3,
            "families": ["complete:2..3", "random:n=30,p=0.2,seeds=1"],
            "solver": "construct"}
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps(spec))
    csv_path = tmp_path / "runs.csv"
    sum_path = tmp_path / "summary.json"
    rc = main(["experiment", str(spath), "--csv", str(csv_path),
               "--summary", str(sum_path)])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["runs"] == 3 and blob["invalid_runs"] == 0
    assert json.loads(sum_path.read_text()) == blob
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 4
    assert "wall_time_s" not in lines[0]


@pytest.mark.parametrize("argv, flag, least, value", [
    (["construct", "GRAPH", "--span-cap", "-1"], "--span-cap", 0, -1),
    (["construct", "GRAPH", "--rounds", "-2", "--retries", "-4"],
     "--rounds", 0, -2),
    (["construct", "GRAPH", "--retries", "-4"], "--retries", 0, -4),
    (["lemma", "--delta", "3", "--rounds", "-1"], "--rounds", 0, -1),
    (["sweep", "--family", "complete:3", "--k-max-extra", "-9"],
     "--k-max-extra", 0, -9),
    (["experiment", "SPEC", "--workers", "0"], "--workers", 1, 0),
    (["experiment", "SPEC", "--workers", "-5"], "--workers", 1, -5),
    (["exact", "GRAPH", "--k-max", "-5", "--json"], "--k-max", 0, -5),
    (["gen", "--kind", "random", "--n", "30", "--p", "0.3", "--seed", "-1"],
     "--seed", 0, -1),
    (["lemma", "--delta", "3", "--graph", "GRAPH", "--seed", "-1"],
     "--seed", 0, -1),
    (["construct", "GRAPH", "--seed", "-1"], "--seed", 0, -1),
])
def test_integer_flag_below_its_least_is_usage_error_naming_it(
        tmp_path, capsys, argv, flag, least, value):
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps({"families": ["complete:3"]}))
    names = {"GRAPH": write_k3(tmp_path), "SPEC": str(spath)}
    with pytest.raises(SystemExit) as exc:
        main([names.get(a, a) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument {flag}: must be at least {least}, got {value}\n")


def test_integer_flags_accept_their_least(tmp_path, capsys):
    k3 = write_k3(tmp_path)
    assert main(["construct", k3, "--span-cap", "0", "--rounds", "0",
                 "--retries", "0"]) == 0
    assert capsys.readouterr().out.endswith(" valid true\n")
    assert main(["sweep", "--family", "complete:3", "--k-max-extra", "0"]) == 1
    assert main(["exact", k3, "--k-max", "0"]) == 1
    assert capsys.readouterr().out.endswith("\nunsolved k_max=0\n")
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps({"families": ["complete:3"]}))
    assert main(["experiment", str(spath), "--workers", "1"]) == 0


def test_experiment_family_missing_key_is_usage_error(tmp_path, capsys):
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps({"families": ["random:n=30,seeds=1"]}))
    assert main(["experiment", str(spath)]) == 2
    assert capsys.readouterr().err == "error: random family spec lacks key 'p'\n"


def test_experiment_family_unknown_key_is_usage_error(tmp_path, capsys):
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps(
        {"families": ["random:n=5,p=0.3,seeds=1,sead=9"]}))
    assert main(["experiment", str(spath)]) == 2
    assert capsys.readouterr().err == (
        "error: random family spec has unknown key 'sead'\n")


def test_missing_file_is_usage_error(capsys):
    rc = main(["verify", "/nonexistent.graph", "/nonexistent.col"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_malformed_graph_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.graph"
    p.write_text("this is not a graph\n")
    rc = main(["exact", str(p)])
    assert rc == 2


def test_million_vertex_header_parses_quickly():
    t0 = time.perf_counter()
    g = parse_graph("p edge 1000000 0\n")
    assert time.perf_counter() - t0 < 1.0
    assert (g.n, g.m, g.max_degree) == (1000000, 0, 0)


@pytest.mark.parametrize("command", ["verify", "construct"])
def test_vertex_count_past_limit_is_usage_error(tmp_path, capsys, command):
    gpath = tmp_path / "huge.graph"
    gpath.write_text("p edge 1000000000 0\n")
    cpath = tmp_path / "huge.col"
    cpath.write_text("k 1\n")
    argv = [command, str(gpath)] + ([str(cpath)] if command == "verify" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "1000000000" in err and str(MAX_VERTICES) in err
    with pytest.raises(GraphError, match=str(MAX_VERTICES)):
        Graph(10 ** 9, [])


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point():
    import os
    import subprocess
    import sys
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "nsdcolour.cli", "lemma", "--delta", "64"],
        capture_output=True, text=True, cwd=root, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["delta"] == 64
    proc2 = subprocess.run(
        [sys.executable, "-m", "nsdcolour", "lemma", "--delta", "64"],
        capture_output=True, text=True, cwd=root, env=env)
    assert proc2.returncode == 0
    assert proc2.stdout == proc.stdout


def test_out_of_memory_is_usage_error():
    # K_100000 asks numpy for a 9.31 GiB mask; the child's address space is
    # capped at 3 GiB, so the request fails at once and nothing large is held
    import os
    import subprocess
    import sys
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "nsdcolour", "gen", "--kind", "complete",
         "--n", "100000"],
        capture_output=True, text=True, cwd=root, env=env, preexec_fn=cap)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: out of memory")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_gen_rejects_bad_combination(capsys):
    rc = main(["gen", "--kind", "random", "--n", "10"])
    assert rc == 2
    rc = main(["gen", "--kind", "regular", "--n", "6", "--seed", "1"])
    assert rc == 2
    assert capsys.readouterr().err.endswith(
        "error: regular graphs need d and seed\n")


def test_verify_rejects_wrong_shape_colouring(tmp_path, capsys):
    gpath = write_k3(tmp_path)
    g2 = Graph(2, [(0, 1)])
    cpath = tmp_path / "wrong.col"
    col = greedy_nsd(g2)
    cpath.write_text(write_colouring(g2, col))
    rc = main(["verify", gpath, str(cpath)])
    assert rc == 2


@pytest.mark.parametrize("field,value", [
    ("span_cap", "foo"), ("retries", 2.5), ("workers", "2"),
    ("families", "complete:3"), ("families", [3]), ("seed", True),
    ("seed", -1), ("rounds", False), ("rounds", -1), ("workers", 0),
    ("k_max_extra", 1.0), ("slack", "2"), ("slack", 0.5), ("slack", True),
    ("name", 7), ("mode", "lax"), ("solver", None), ("span_cap", -1),
    ("schema", True), ("schema", 2)])
def test_experiment_spec_bad_field_is_usage_error_naming_it(
        tmp_path, capsys, field, value):
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps({"families": ["complete:3"], field: value}))
    assert main(["experiment", str(spath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: spec field {field!r} must be ")
    assert captured.err.endswith(f", got {json.dumps(value)}\n")
