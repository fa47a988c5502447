"""Spans and counters around nsdcolour's public functions, from outside.

``install`` replaces each listed function in every nsdcolour module that
holds it by name, so a call through ``nsdcolour.construct.properize`` and
one through ``from .construct import properize`` are both seen. Nothing
under ``src/`` changes. A span is (name, start, end, parent, round); spans
stay in memory until ``write_spans`` runs at the end of the process.

The same wrappers carry the workloads' capture hooks, which see each call's
arguments, result and duration; those are the only wrappers installed when
tracing is off, and while ``Recorder.active`` is false a wrapper records no
span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable


def _count_rounds(key: str):
    def count(counts, args, result):
        counts[key] += result.rounds
    return count


def _count_construct(counts, args, result):
    _, report = result
    counts["construct.attempts"] += len(report.attempts)
    counts["construct.runs"] += 1
    counts["construct.pipeline_kept"] += not report.fallback_used


def _count_greedy(counts, args, result):
    counts["construct.greedy_calls"] += 1


def _count_check(counts, args, result):
    counts["colouring.check_calls"] += 1
    counts["colouring.violations_reported"] += len(result)


def _count_solve(counts, args, result):
    counts["exact.nodes"] += result.nodes_explored
    counts["exact.solve_calls"] += 1


# (module, function, span name, counter, materialise a returned iterator)
LAYERS = [
    ("graph", "random_graph", "graph.random_graph_s", None, False),
    ("graph", "parse_graph", "graph.parse_graph_s", None, False),
    ("graph", "enumerate_connected_graphs",
     "graph.enumerate_connected_graphs_s", None, True),
    ("lemma", "resample_until_valid", "lemma.resample_until_valid_s",
     _count_rounds("lemma.stage1_rounds"), False),
    ("lemma", "stage_two", "lemma.stage_two_s",
     _count_rounds("lemma.stage2_rounds"), False),
    ("construct", "construct", "construct.construct_s", _count_construct, False),
    ("construct", "properize", "construct.properize_s", None, False),
    ("construct", "compute_risky", "construct.compute_risky_s", None, False),
    ("construct", "select_H", "construct.select_H_s", None, False),
    ("construct", "recolour_H", "construct.recolour_H_s", None, False),
    ("construct", "repair_small_degree", "construct.repair_small_degree_s",
     None, False),
    ("construct", "greedy_nsd", "construct.greedy_nsd_s", _count_greedy, False),
    ("colouring", "check_proper", "colouring.check_proper_s", _count_check, False),
    ("colouring", "check_nsd", "colouring.check_nsd_s", _count_check, False),
    ("colouring", "parse_colouring", "colouring.parse_colouring_s", None, False),
    ("colouring", "write_colouring", "colouring.write_colouring_s", None, False),
    ("exact", "solve_exact", "exact.solve_exact_s", _count_solve, False),
    ("experiment", "run_experiment", "experiment.run_experiment_s", None, False),
    ("experiment", "parse_family", "experiment.parse_family_s", None, False),
    ("experiment", "run_sweep", "experiment.run_sweep_s", None, False),
    ("cli", "cmd_construct", "cli.construct_s", None, False),
    ("cli", "cmd_verify", "cli.verify_s", None, False),
]

COUNTERS = ["graph.edges_built", "lemma.stage1_rounds", "lemma.stage2_rounds",
            "construct.attempts", "construct.greedy_calls",
            "colouring.check_calls", "colouring.violations_reported",
            "exact.nodes", "exact.solve_calls"]

# hook(args, result, seconds), keyed by "module.function"
Hook = Callable[[tuple, object, float], None]


class Recorder:
    """In-memory spans and counters; ``active`` switches recording on."""

    def __init__(self):
        self.active = False
        self.round = 0
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, fn, name, count=None, eager=False, hook: Hook | None = None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result, time.perf_counter() - t0)
                return result
            span = [name, time.perf_counter(), 0.0,
                    rec.stack[-1] if rec.stack else -1, rec.round]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = iter(list(result))
            finally:
                span[2] = time.perf_counter()
                rec.stack.pop()
            if count is not None:
                count(rec.counts, args, result)
            if hook is not None:
                hook(args, result, span[2] - span[1])
            return result
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the spans it directly caused."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - children[i]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rnd) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "round": rnd}) + "\n")


def _replace_everywhere(fn, wrapper) -> None:
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("nsdcolour"):
            continue
        for attr, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, attr, wrapper)


def install(rec: Recorder, layers: bool, hooks: dict[str, Hook]) -> None:
    """Wrap every function of LAYERS (when ``layers``) or only the hooked ones."""
    for module, func, name, count, eager in LAYERS:
        key = f"{module}.{func}"
        if not layers and key not in hooks:
            continue
        mod = importlib.import_module(f"nsdcolour.{module}")
        fn = getattr(mod, func)
        _replace_everywhere(fn, rec.wrap(fn, name, count, eager, hooks.get(key)))
    if layers:
        graph_cls = importlib.import_module("nsdcolour.graph").Graph
        init = graph_cls.__init__

        @functools.wraps(init)
        def counted_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if rec.active:
                rec.counts["graph.edges_built"] += self.m
        graph_cls.__init__ = counted_init
