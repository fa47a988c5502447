"""The benchmark's three workloads.

Each workload has ``prepare`` (set-up: write the input files), ``run_round``
(one whole batch, timed operation by operation), ``check`` (the
independent checks, run on the first round outside the timed region) and
``digest`` (a fingerprint of a round's outputs; every later round of a run
must reproduce the first round's). The program only ever sees the
generated inputs; the workload seed never reaches it except where noted.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field

import checker

# the acceptance grid of tests/test_acceptance.py: (n, mean degree)
GRID = [(100, 8), (100, 25), (200, 12), (500, 15), (500, 60), (1000, 30),
        (1000, 100), (2000, 40), (2000, 150), (5000, 50)]

# construct-verify graphs: (n, p as passed to ``gen --p``, generation seed)
CV_GRAPHS = [(500, "0.05", 1), (2000, repr(150 / 1999), 0),
             (3000, repr(100 / 2999), 0), (5000, repr(50 / 4999), 0)]


@dataclass
class Round:
    wall_s: float
    per_graph_s: list[float]
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    outputs: object = None


class Grid:
    """``run_experiment`` over the acceptance grid, auto span cap, 1 worker.

    The workload seed is the experiment seed, so it picks the solver seeds;
    the graphs are the grid's fixed generation seed 0.
    """

    def __init__(self, workdir: str, seed: int):
        self.workdir, self.seed = workdir, seed
        self.captured: list = []

    def prepare(self) -> None:
        from nsdcolour.experiment import ExperimentSpec
        spec = ExperimentSpec(
            name="bench-grid", seed=self.seed, solver="construct",
            mode="permissive", slack=2.0, span_cap="auto", workers=1,
            families=[f"random:n={n},p={mean / (n - 1):.6f},seeds=1"
                      for n, mean in GRID])
        path = os.path.join(self.workdir, "grid.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(spec.to_json())
        with open(path, encoding="utf-8") as fh:
            self.spec = ExperimentSpec.from_json(fh.read())

    def hooks(self) -> dict:
        def keep(args, result, seconds):
            g, (colouring, report) = args[0], result
            self.captured.append((g.n, g.edge_u, g.edge_v,
                                  colouring.vertex_colours,
                                  colouring.edge_colours, report.span))
        return {"construct.construct": keep}

    def run_round(self) -> Round:
        from nsdcolour.experiment import records_to_csv, run_experiment
        self.captured = []
        t0 = time.perf_counter()
        records, _ = run_experiment(self.spec, workers=1)
        wall = time.perf_counter() - t0
        return Round(wall, [r.wall_time_s for r in records], len(records),
                     outputs=(records, records_to_csv(records), self.captured))

    def check(self, rnd: Round) -> tuple[list[str], float]:
        records, _, captured = rnd.outputs
        problems, ratios = [], []
        if len(records) != len(GRID) or len(captured) != len(GRID):
            return [f"grid: {len(records)} records, {len(captured)} colourings,"
                    f" expected {len(GRID)}"], 0.0
        for rec, (n, eu, ev, vc, ec, span) in zip(records, captured):
            edges = list(zip(eu.tolist(), ev.tolist()))
            delta = checker.max_degree(n, edges)
            vcl, ecl = vc.tolist(), ec.tolist()
            top = max(vcl + ecl)
            bad = checker.violations(n, edges, vcl, ecl)
            where = f"grid {rec.graph_id}"
            if bad:
                problems.append(f"{where}: {sum(bad.values())} violations, "
                                f"e.g. {next(iter(bad))}")
            if min(vcl + ecl) < 1:
                problems.append(f"{where}: colour below 1")
            if not (rec.report["valid"] and rec.verdict == "ok"):
                problems.append(f"{where}: report not valid")
            if (rec.n, rec.m, rec.max_degree) != (n, len(edges), delta):
                problems.append(f"{where}: record shape disagrees with graph")
            if not (rec.span == span == top):
                problems.append(f"{where}: span {rec.span} vs colouring {top}")
            if not delta + 1 <= top <= 3 * delta + 10:
                problems.append(f"{where}: span {top} outside "
                                f"[{delta + 1}, {3 * delta + 10}]")
            ratios.append(top / delta)
        return problems, sum(ratios) / len(ratios)

    def digest(self, rnd: Round) -> str:
        _, csv_text, captured = rnd.outputs
        h = hashlib.sha256(csv_text.encode())
        for _, _, _, vc, ec, _ in captured:
            h.update(vc.tobytes())
            h.update(ec.tobytes())
        return h.hexdigest()


def _cli(argv: list[str]) -> tuple[int, str, str, float]:
    """Run ``nsdcolour.cli.main(argv)`` capturing its output and time."""
    from nsdcolour import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), seconds


NON_EDGE = "non-edge"
# malformed colouring files: name -> (what the exit-2 message must say,
# what it must not say). The non-edge message must name the edge rather
# than blame an integer. Known fault: parse_colouring reports "bad integer"
# there, so that operation is counted as failed.
MALFORMED = {"missing-k": ("missing k", None),
             "vertex-twice": ("coloured twice", None),
             "colour-out-of-range": ("outside", None),
             "non-integer": ("bad integer", None),
             NON_EDGE: ("edge", "bad integer")}


class ConstructVerify:
    """README quick-start through ``nsdcolour.cli.main`` on files.

    ``construct`` (defaults: seed 0, no span cap) then ``verify`` on four
    generated graphs, ``verify`` on a corrupted copy of the first colouring
    (the workload seed picks where the clashes go), on four malformed files
    and on one naming a non-edge.
    """

    def __init__(self, workdir: str, seed: int):
        self.workdir, self.seed = workdir, seed
        self.corrupt_expected = None

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self) -> None:
        for i, (n, p, s) in enumerate(CV_GRAPHS):
            rc, _, err, _ = _cli(["gen", "--kind", "random", "--n", str(n),
                                  "--p", p, "--seed", str(s),
                                  "-o", self._path(f"g{i}.graph")])
            if rc != 0:
                raise RuntimeError(f"gen failed: {err}")
        with open(self._path("g0.graph"), encoding="utf-8") as fh:
            n, edges = checker.parse_graph_text(fh.read())
        lines = checker.write_colouring_text(
            1, [1] * n, edges, [1] * len(edges)).splitlines()
        first_e = lines.index(next(x for x in lines if x.startswith("e ")))
        linked = {v for u, v in edges if u == 0}
        stranger = next(v for v in range(1, n) if v not in linked)
        files = {
            "missing-k": lines[1:],
            "vertex-twice": lines[:2] + lines[1:],
            "colour-out-of-range": lines[:1] + ["v 1 2"] + lines[2:],
            "non-integer": lines[:1] + ["v 1 x"] + lines[2:],
            NON_EDGE: (lines[:first_e] + [f"e 1 {stranger + 1} 1"]
                       + lines[first_e + 1:]),
        }
        for name, body in files.items():
            with open(self._path(f"{name}.col"), "w", encoding="utf-8") as fh:
                fh.write("\n".join(body) + "\n")

    def hooks(self) -> dict:
        return {}

    def _corrupt(self) -> None:
        """Copy g0.col with one edge-edge and one vertex-edge clash added."""
        with open(self._path("g0.graph"), encoding="utf-8") as fh:
            n, edges = checker.parse_graph_text(fh.read())
        with open(self._path("g0.col"), encoding="utf-8") as fh:
            k, vc, ec = checker.parse_colouring_text(fh.read(), n, edges)
        rng = random.Random(self.seed)
        at = defaultdict(list)
        for i, (u, v) in enumerate(edges):
            at[u].append(i)
            at[v].append(i)
        x = rng.choice([v for v in sorted(at) if len(at[v]) >= 2])
        e1, e2 = rng.sample(at[x], 2)
        ec[e2] = ec[e1]
        e3 = rng.choice([i for i in range(len(edges)) if i not in (e1, e2)])
        ec[e3] = vc[edges[e3][0]]
        with open(self._path("corrupt.col"), "w", encoding="utf-8") as fh:
            fh.write(checker.write_colouring_text(k, vc, edges, ec))
        self.corrupt_expected = checker.violations(n, edges, vc, ec)

    def run_round(self) -> Round:
        per_graph, ops, problems, failed, wall = [], [], [], 0, 0.0

        def op(label, argv, ok):
            nonlocal failed, wall
            rc, out, err, seconds = _cli(argv)
            wall += seconds
            ops.append((label, rc, out, err))
            if not ok(rc, out, err):
                failed += 1
                if label != NON_EDGE:
                    problems.append(f"{label}: exit {rc}, {err.strip()!r}")
            return seconds

        for i in range(len(CV_GRAPHS)):
            g, col = self._path(f"g{i}.graph"), self._path(f"g{i}.col")
            t = op(f"construct g{i}",
                   ["construct", g, "-o", col, "--report", self._path(f"r{i}.json")],
                   lambda rc, out, err: rc == 0 and out.endswith(" valid true\n"))
            t += op(f"verify g{i}", ["verify", g, col],
                    lambda rc, out, err: rc == 0 and out == "")
            per_graph.append(t)
            if i == 0 and self.corrupt_expected is None:
                self._corrupt()
        op("verify corrupt", ["verify", self._path("g0.graph"),
                              self._path("corrupt.col")],
           lambda rc, out, err: rc == 1 and out != "")
        for name, (says, not_says) in MALFORMED.items():
            op(name, ["verify", self._path("g0.graph"), self._path(f"{name}.col")],
               lambda rc, out, err, says=says, not_says=not_says: (
                   rc == 2 and says in err and "Traceback" not in err
                   and (not_says is None or not_says not in err)))
        outputs = {"ops": ops}
        for i in range(len(CV_GRAPHS)):
            for name in (f"g{i}.col", f"r{i}.json"):
                with open(self._path(name), "rb") as fh:
                    outputs[name] = hashlib.sha256(fh.read()).hexdigest()
        return Round(wall, per_graph, len(ops), failed, problems, outputs)

    def check(self, rnd: Round) -> tuple[list[str], float]:
        problems, ratios = [], []
        stdout = {label: (rc, out) for label, rc, out, _ in rnd.outputs["ops"]}
        for i in range(len(CV_GRAPHS)):
            with open(self._path(f"g{i}.graph"), encoding="utf-8") as fh:
                n, edges = checker.parse_graph_text(fh.read())
            delta = checker.max_degree(n, edges)
            where = f"construct-verify g{i}"
            try:
                with open(self._path(f"g{i}.col"), encoding="utf-8") as fh:
                    k, vc, ec = checker.parse_colouring_text(fh.read(), n, edges)
            except (checker.CheckError, ValueError) as exc:
                problems.append(f"{where}: unreadable colouring: {exc}")
                continue
            bad = checker.violations(n, edges, vc, ec)
            if bad:
                problems.append(f"{where}: {sum(bad.values())} violations, "
                                f"e.g. {next(iter(bad))}")
            with open(self._path(f"r{i}.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            top = max(vc + ec)
            if report["fallback_used"]:
                problems.append(f"{where}: fallback used")
            if report["span"] != top or k < top:
                problems.append(f"{where}: reported span {report['span']}, "
                                f"k {k}, largest colour {top}")
            if stdout[f"construct g{i}"][1] != (
                    f"span {top} max_degree {delta} valid true\n"):
                problems.append(f"{where}: construct printed "
                                f"{stdout[f'construct g{i}'][1]!r}")
            ratios.append(top / delta)
        kinds = {kind for kind, _ in self.corrupt_expected}
        if not {"edge-edge", "vertex-edge"} <= kinds:
            problems.append(f"corrupted copy lacks a clash kind: {kinds}")
        reported = [checker.violation_from_report(json.loads(line))
                    for line in stdout["verify corrupt"][1].splitlines()]
        if sorted(reported) != sorted(self.corrupt_expected.elements()):
            problems.append("verify on the corrupted colouring listed "
                            f"{len(reported)} violations, the checker finds "
                            f"{sum(self.corrupt_expected.values())}")
        return problems, sum(ratios) / len(ratios)

    def digest(self, rnd: Round) -> str:
        return hashlib.sha256(
            json.dumps(rnd.outputs, sort_keys=True).encode()).hexdigest()


class Sweep:
    """``run_sweep(["connected<=5"])``: every connected labelled graph on at
    most five vertices, solved exactly. The family has no randomness, so the
    workload seed changes nothing here."""

    ROWS = 1 + 1 + 4 + 38 + 728      # OEIS A001187
    CLASSES = 1 + 1 + 2 + 6 + 21     # OEIS A001349

    def __init__(self, workdir: str, seed: int):
        self.workdir, self.seed = workdir, seed
        self.captured: list = []

    def prepare(self) -> None:
        pass

    def hooks(self) -> dict:
        def keep(args, result, seconds):
            g = args[0]
            w = result.witness
            self.captured.append((g.n, g.edges, result.chi_sum_total,
                                  w.vertex_colours, w.edge_colours, seconds))
        return {"exact.solve_exact": keep}

    def run_round(self) -> Round:
        from nsdcolour.experiment import run_sweep
        self.captured = []
        t0 = time.perf_counter()
        rows = run_sweep(["connected<=5"])
        wall = time.perf_counter() - t0
        return Round(wall, [c[-1] for c in self.captured], len(rows),
                     outputs=(rows, self.captured))

    def check(self, rnd: Round) -> tuple[list[str], float]:
        rows, captured = rnd.outputs
        if len(rows) != self.ROWS or len(captured) != self.ROWS:
            return [f"sweep: {len(rows)} rows, {len(captured)} solves, "
                    f"expected {self.ROWS}"], 0.0
        problems, ratios = [], []
        chi_of_class = defaultdict(set)
        for row, (n, edges, chi, vc, ec) in zip(rows, (c[:5] for c in captured)):
            edges = list(edges)
            delta = checker.max_degree(n, edges)
            vcl, ecl = vc.tolist(), ec.tolist()
            where = f"sweep {row['graph_id']}"
            if (row["n"], row["m"], row["max_degree"], row["chi_sum_total"]) != (
                    n, len(edges), delta, chi) or row["verdict"] != "pass":
                problems.append(f"{where}: row {row} disagrees with the solve")
            if checker.violations(n, edges, vcl, ecl) or not all(
                    1 <= c <= chi for c in vcl + ecl):
                problems.append(f"{where}: witness fails the checker")
            if not delta + 1 <= chi <= delta + 3:
                problems.append(f"{where}: chi {chi} outside "
                                f"[{delta + 1}, {delta + 3}]")
            chi_of_class[checker.canonical_form(n, edges)].add(chi)
            ratios.append(chi / max(delta, 1))
        if len(chi_of_class) != self.CLASSES:
            problems.append(f"sweep: {len(chi_of_class)} isomorphism classes, "
                            f"expected {self.CLASSES}")
        split = [c for c, chis in chi_of_class.items() if len(chis) > 1]
        if split:
            problems.append(f"sweep: {len(split)} isomorphism classes with "
                            f"more than one chi")
        return problems, sum(ratios) / len(ratios)

    def digest(self, rnd: Round) -> str:
        rows, captured = rnd.outputs
        h = hashlib.sha256(json.dumps(rows, sort_keys=True).encode())
        for _, _, _, vc, ec, _ in captured:
            h.update(vc.tobytes())
            h.update(ec.tobytes())
        return h.hexdigest()


WORKLOADS = {"grid": Grid, "construct-verify": ConstructVerify, "sweep": Sweep}
