"""The lean tallies: a count over a cap is taken only at vertices whose
degree passes the cap, so where every cap is at least the max degree no
count property tallies a row, and a hub graph's counts run on two rows.
Both are checked against the reference checker in reference_lemma.py; the
strict K_{2,370000} stage one is held to half the memory of the n x width
tables it once built.
"""

import importlib
import tracemalloc

import numpy as np

from nsdcolour import (Graph, LemmaParams, check_properties, random_graph,
                       resample_until_valid)
from test_lemma_equivalence import (assert_same_check, assert_same_stage_one,
                                    assert_same_stage_two)

lemma_mod = importlib.import_module("nsdcolour.lemma")


def k2(d):
    """K_{2,d}: vertices 0 and 1 joined to each of 2..d+1."""
    return Graph(d + 2, np.stack([np.repeat([0, 1], d),
                                  np.tile(np.arange(2, d + 2), 2)], axis=1))


def test_caps_at_max_degree_tally_no_count(monkeypatch):
    g = random_graph(300, 0.1, seed=3)
    p = LemmaParams(g.max_degree, slack=1.3)
    p.caps = {k: max(v, g.max_degree) for k, v in p.caps.items()}
    r1 = assert_same_stage_one(g, p, 5, 20)
    r2 = assert_same_stage_two(g, r1.state, p, 6, 20)
    assert_same_check(g, r2.state, p, r2.h3_edge_ids)

    sizes = []
    real = lemma_mod._tally

    def counted(g, rows, *args):
        sizes.append(rows.size)
        return real(g, rows, *args)

    monkeypatch.setattr(lemma_mod, "_tally", counted)
    report = check_properties(g, r2.state, p, h3_edge_ids=r2.h3_edge_ids)
    # I and II tally at the large vertices; III and 1°b pass no row, and
    # every other count returns before it tallies
    large = int((3 * g.degrees >= p.delta).sum())
    assert sizes == [large, large, 0, 0]
    assert not any(report.violators[k] for k in report.violators
                   if k not in ("I", "II", "V"))


def test_permissive_hub_state_matches_reference():
    g = k2(50000)
    p = LemmaParams(g.max_degree, slack=1.0)
    r1 = assert_same_stage_one(g, p, 7, 3)
    r2 = assert_same_stage_two(g, r1.state, p, 8, 3)
    assert_same_check(g, r2.state, p, r2.h3_edge_ids)


def test_strict_k2_stage_one_memory():
    # the n x width tables and 2m-long endpoint concatenations peaked at
    # 298.9 MiB here; the lean tallies must stay under half of that
    g = k2(370000)
    p = LemmaParams(g.max_degree, strict=True)
    tracemalloc.start()
    try:
        r1 = resample_until_valid(g, p, 0, 200)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert r1.valid and r1.rounds == 0
    assert peak <= 149, peak
