"""Randomized invariant suites.

Each suite runs a large number of generated cases against an invariant the
pipeline relies on: the derived-edge-target identity, verifier sensitivity to
injected clashes, resampling scope discipline, band confinement after
properisation, locality of the sum-shifting passes, and independence of the
vertex scores from the auxiliary colourings.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nsdcolour import (Graph, LemmaParams, RiskParams, TotalColouring,
                       check_nsd, check_proper, compute_risky,
                       event_scope, properize, recolour_H,
                       repair_small_degree, resample_event, sample_stage_one,
                       select_H, stage_two, weighted_degrees)
from nsdcolour.colouring import vertex_sums
from nsdcolour.construct import greedy_nsd
from nsdcolour.lemma import STAGE_ONE_PROPERTIES

CASES = 1000


@st.composite
def graphs(draw, min_n=2, max_n=10, min_m=0):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          min_size=min(min_m, len(pairs))))
    return Graph(n, edges)


def params_for(g, slack=1.0):
    p = LemmaParams(max(g.max_degree, 1), slack=slack)
    return p


# ---------------------------------------------------------------------------
# suite 1: derived edge targets always equal endpoint-attractor + auxiliary


@settings(max_examples=CASES)
@given(g=graphs(min_m=1), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_edge_target_identity(g, seed, data):
    p = params_for(g)
    st1 = sample_stage_one(g, p, seed)
    expect = st1.c1[g.edge_u] + st1.c1[g.edge_v] + st1.c2
    assert np.array_equal(st1.c3e, expect)
    assert st1.c3e.min() >= 3 and st1.c3e.max() <= p.r3
    # identity survives any sequence of event resamples
    rng = np.random.default_rng(seed)
    for _ in range(data.draw(st.integers(1, 3))):
        v = data.draw(st.integers(0, g.n - 1))
        prop = data.draw(st.sampled_from(STAGE_ONE_PROPERTIES))
        resample_event(g, st1, v, prop, rng, p)
    expect = st1.c1[g.edge_u] + st1.c1[g.edge_v] + st1.c2
    assert np.array_equal(st1.c3e, expect)


# ---------------------------------------------------------------------------
# suite 2: the verifier notices any injected clash


@settings(max_examples=CASES)
@given(g=graphs(min_m=1), data=st.data())
def test_verifier_detects_injected_clash(g, data):
    col = greedy_nsd(g)
    assert check_proper(g, col) == []
    vc = col.vertex_colours.copy()
    ec = col.edge_colours.copy()
    eid = data.draw(st.integers(0, g.m - 1))
    u, v = g.edges[eid]
    kinds = ["vertex-vertex", "vertex-edge"]
    # an edge-edge clash needs a second edge at a shared endpoint
    other = [j for j in list(g.incident_edges(u)) + list(g.incident_edges(v))
             if j != eid]
    if other:
        kinds.append("edge-edge")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "vertex-vertex":
        vc[u] = vc[v]
        expect_witness = (u, v)
    elif kind == "vertex-edge":
        ec[eid] = vc[u]
        expect_witness = (u, tuple(g.edges[eid]))
    else:
        j = data.draw(st.sampled_from(other))
        ec[eid] = ec[j]
        expect_witness = None  # pair order depends on scan order
    mutated = TotalColouring(vc, ec, col.span)
    found = check_proper(g, mutated)
    assert any(f.kind == kind for f in found)
    if expect_witness is not None:
        assert any(f.witnesses == expect_witness for f in found
                   if f.kind == kind)


@settings(max_examples=CASES)
@given(g=graphs(min_m=1), data=st.data())
def test_verifier_detects_forced_sum_tie(g, data):
    # raising one pendant-ish edge until two adjacent sums collide must
    # always be reported, whatever else it breaks
    col = greedy_nsd(g)
    s = weighted_degrees(g, col)
    eid = data.draw(st.integers(0, g.m - 1))
    u, v = g.edges[eid]
    gap = int(s[u] - s[v])
    if gap == 0:
        return  # greedy output is distinct; unreachable, guard anyway
    vc = col.vertex_colours.copy()
    # shift one endpoint's own colour so the two sums meet; a vertex colour
    # change moves only that vertex's sum
    if col.vertex_colours[v] + gap >= 1:
        vc[v] = col.vertex_colours[v] + gap
    elif col.vertex_colours[u] - gap >= 1:
        vc[u] = col.vertex_colours[u] - gap
    else:
        return
    k = max(col.span, int(vc.max()))
    mutated = TotalColouring(vc, col.edge_colours, k)
    found = check_nsd(g, mutated)
    assert any(f.kind == "sum-conflict" and
               f.witnesses == (min(u, v), max(u, v)) for f in found)


# ---------------------------------------------------------------------------
# suite 3: resampling one event touches nothing outside its scope


@settings(max_examples=CASES)
@given(g=graphs(min_m=1), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_resample_scope_discipline(g, seed, data):
    p = params_for(g)
    st1 = sample_stage_one(g, p, seed)
    before = st1.copy()
    v = data.draw(st.integers(0, g.n - 1))
    prop = data.draw(st.sampled_from(STAGE_ONE_PROPERTIES))
    scope = event_scope(g, v, prop)
    rng = np.random.default_rng(seed + 1)
    resample_event(g, st1, v, prop, rng, p)
    for arr_new, arr_old, allowed in ((st1.c1, before.c1, scope[0]),
                                      (st1.c2, before.c2, scope[1]),
                                      (st1.c3v, before.c3v, scope[2])):
        changed = np.nonzero(arr_new != arr_old)[0]
        assert set(changed.tolist()) <= set(allowed)
    # derived targets change only where an input changed
    c1_moved = np.nonzero(st1.c1 != before.c1)[0]
    for i in np.nonzero(st1.c3e != before.c3e)[0]:
        u, w = g.edges[int(i)]
        assert (u in c1_moved or w in c1_moved
                or st1.c2[i] != before.c2[i])


# ---------------------------------------------------------------------------
# suite 4: properisation keeps every element inside its class band


@settings(max_examples=CASES)
@given(g=graphs(min_m=1), seed=st.integers(0, 2**32 - 1))
def test_properize_band_confinement(g, seed):
    p = params_for(g, slack=2.0)
    st1 = sample_stage_one(g, p, seed)
    res = stage_two(g, st1, p, seed + 1, 50)
    cs = properize(g, res.state, None)
    B = cs.width
    for v in range(g.n):
        beta = int(cs.class_of_vertex[v])
        assert beta == int(res.state.c3v[v])
        assert B * (beta - 1) < int(cs.vertex_colours[v]) <= B * beta
    for i in range(g.m):
        beta = int(cs.class_of_edge[i])
        assert beta == int(res.state.c3e[i])
        assert B * (beta - 1) < int(cs.edge_colours[i]) <= B * beta
    col = TotalColouring(cs.vertex_colours, cs.edge_colours, cs.span)
    assert check_proper(g, col) == []


# ---------------------------------------------------------------------------
# suite 5: the two sum-shifting passes move only the sums they claim


@settings(max_examples=CASES)
@given(g=graphs(min_m=1, max_n=8), seed=st.integers(0, 2**32 - 1))
def test_sum_shift_locality(g, seed):
    p = params_for(g, slack=2.0)
    st1 = sample_stage_one(g, p, seed)
    res = stage_two(g, st1, p, seed + 1, 50)
    cs = properize(g, res.state, None)
    risky = compute_risky(g, res.state, p, RiskParams(p))
    sel = select_H(g, p, seed + 2)
    before = vertex_sums(g, cs.vertex_colours, cs.edge_colours)
    cs2, _ = recolour_H(g, cs, sel.edge_ids, risky)
    assert np.array_equal(cs2.vertex_colours, cs.vertex_colours)
    moved_edges = np.nonzero(cs2.edge_colours != cs.edge_colours)[0]
    assert set(moved_edges.tolist()) <= set(sel.edge_ids)
    after = vertex_sums(g, cs2.vertex_colours, cs2.edge_colours)
    touched = set()
    for i in moved_edges:
        u, v = g.edges[int(i)]
        touched.update((u, v))
    for v in range(g.n):
        if v not in touched:
            assert after[v] == before[v]
    # repair moves a vertex's own sum and nothing else
    cs3, _ = repair_small_degree(g, cs2)
    assert np.array_equal(cs3.edge_colours, cs2.edge_colours)
    final = vertex_sums(g, cs3.vertex_colours, cs3.edge_colours)
    delta_c = cs3.vertex_colours - cs2.vertex_colours
    assert np.array_equal(final - after, delta_c)


# ---------------------------------------------------------------------------
# suite 6: vertex scores read only the attractor colour and the degree


@settings(max_examples=CASES)
@given(g=graphs(min_m=1), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_score_ignores_auxiliary_colours(g, seed, data):
    p = params_for(g)
    st1 = sample_stage_one(g, p, seed)
    before = p.score2_array(g.degrees, st1.c1)
    rng = np.random.default_rng(seed + 1)
    v = data.draw(st.integers(0, g.n - 1))
    # these two event kinds redraw only c2 / c3v respectively
    resample_event(g, st1, v, "II", rng, p)
    resample_event(g, st1, v, "2°", rng, p)
    st1.c2[:] = rng.integers(1, p.r2 + 1, size=g.m)
    st1.c3v[:] = rng.integers(1, p.r2 + 1, size=g.n)
    assert np.array_equal(p.score2_array(g.degrees, st1.c1), before)
