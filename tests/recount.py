"""Independent recount of the engine's counting properties.

Deliberately written with plain Python loops and Counter, sharing no code
with the vectorised checker beyond the cap values themselves, so the two
implementations cross-validate each other.
"""

import math
from collections import Counter
from fractions import Fraction


def recount(g, st, p, h3_edge_ids=None):
    """Return {property id: holds} for every evaluable property."""
    n = g.n
    c1 = [int(x) for x in st.c1]
    c2 = [int(x) for x in st.c2]
    c3v = [int(x) for x in st.c3v]
    c3e = [int(x) for x in st.c3e]
    edges = list(g.edges)
    deg = [g.degree(v) for v in range(n)]
    large = [3 * deg[v] >= p.delta for v in range(n)]
    nbrs = [list(g.adjacency[v]) for v in range(n)]
    inc = [list(g.incident_edges(v)) for v in range(n)]
    sums = [c1[a] + c1[b] + c2[e] for e, (a, b) in enumerate(edges)]
    caps = p.caps
    out = {}

    ok = True
    for v in range(n):
        if not large[v]:
            continue
        cnt = Counter(c1[w] for w in nbrs[v])
        for col in range(1, p.r1 + 1):
            if abs(p.r1 * cnt.get(col, 0) - deg[v]) > caps["I"]:
                ok = False
    out["I"] = ok

    ok = True
    for v in range(n):
        if not large[v]:
            continue
        cnt = Counter(c2[e] for e in inc[v])
        for col in range(1, p.r2 + 1):
            if abs(p.r2 * cnt.get(col, 0) - deg[v]) > caps["II"]:
                ok = False
    out["II"] = ok

    ok = True
    if p.interval_len > 0:
        cache = {}

        def alpha(w):
            if w not in cache:
                s = Fraction(p.b_unit * deg[w], 1) * (
                    Fraction(c1[w], 1) + Fraction(p.r1 + 1, 2)
                    + Fraction(p.r2 + 1, 2))
                cache[w] = math.ceil(s / p.interval_len)
            return cache[w]

        for v in range(n):
            if not large[v]:
                continue
            cnt = Counter(alpha(w) for w in nbrs[v] if large[w])
            if cnt and max(cnt.values()) > caps["VI"]:
                ok = False
    out["VI"] = ok

    ok = True
    for v in range(n):
        cnt = Counter(sums[e] for e in inc[v])
        if cnt and max(cnt.values()) > caps["1°a"]:
            ok = False
    out["1°a"] = ok

    ok = True
    for v in range(n):
        hits = 0
        for e in inc[v]:
            a, b = edges[e]
            if sums[e] == c3v[a] or sums[e] == c3v[b]:
                hits += 1
        if hits > caps["1°b"]:
            ok = False
    out["1°b"] = ok
    out["1°"] = out["1°a"] and out["1°b"]

    ok = True
    for v in range(n):
        cnt = Counter(c3v[w] for w in nbrs[v])
        if cnt and max(cnt.values()) > caps["2°"]:
            ok = False
    out["2°"] = ok

    ok = True
    for v in range(n):
        exceptions = sum(1 for e in inc[v] if c3e[e] != sums[e])
        if exceptions > caps["III"]:
            ok = False
    out["III"] = ok

    ok = True
    for v in range(n):
        cnt = Counter(c3e[e] for e in inc[v] if c3e[e] >= 1)
        if cnt and max(cnt.values()) > caps["IV"]:
            ok = False
    out["IV"] = ok

    ok = True
    for e, (a, b) in enumerate(edges):
        if c3v[a] == c3v[b] and c3e[e] != c3v[a]:
            ok = False
    out["V"] = ok

    if h3_edge_ids is not None:
        h3 = {int(e) for e in h3_edge_ids}
        ok3 = ok4 = True
        for v in range(n):
            cold = Counter(c3e[e] for e in inc[v]
                           if e not in h3 and c3e[e] >= 1)
            if cold and max(cold.values()) > caps["3°"]:
                ok3 = False
            chot = Counter(c3e[e] for e in inc[v]
                           if e in h3 and c3e[e] >= 1)
            if chot and max(chot.values()) > caps["4°"]:
                ok4 = False
        out["3°"] = ok3
        out["4°"] = ok4
    return out


def recount_sums(g, vertex_colours, edge_colours):
    """Weighted degree of every vertex, by direct loops."""
    vc = [int(x) for x in vertex_colours]
    ec = [int(x) for x in edge_colours]
    sums = list(vc)
    for e, (a, b) in enumerate(g.edges):
        sums[a] += ec[e]
        sums[b] += ec[e]
    return sums


def recount_proper_and_distinct(g, vertex_colours, edge_colours):
    """(proper?, all adjacent sums distinct?) by direct loops."""
    vc = [int(x) for x in vertex_colours]
    ec = [int(x) for x in edge_colours]
    for a, b in g.edges:
        if vc[a] == vc[b]:
            return False, False
    by_vertex = {}
    for e, (a, b) in enumerate(g.edges):
        if ec[e] == vc[a] or ec[e] == vc[b]:
            return False, False
        for w in (a, b):
            for f in by_vertex.get(w, ()):
                if ec[f] == ec[e]:
                    return False, False
            by_vertex.setdefault(w, []).append(e)
    sums = recount_sums(g, vertex_colours, edge_colours)
    for a, b in g.edges:
        if sums[a] == sums[b]:
            return True, False
    return True, True
