"""The array-built ``Graph``, the tokenising parsers and the sorted clash
grouping of ``check_proper`` give exactly what the pure-Python originals in
reference_graph.py give.

Graphs come from hypothesis: edge lists with repeats in both orientations,
isolated vertices and n = 0, passed as pairs and as arrays. Compared are
every lookup, the runs of Graph.incidences against the frozen tuple views
(for all vertices and for vertex lists in any order, with repeats), the
error text on planted bad edges, the full ordered violation list on
colourings with planted clash groups, the result or error text of both
parsers on regular files with planted faults and on the fuzz texts of
test_parsers_fuzz.py, the text write_colouring writes (n = 0, m = 0 and
colours up to 2^63 - 1 included), and the graphs random_graph draws on the
ten acceptance grid points, the four construct-verify graphs, on n <= 3, at
p = 0 and p = 1, and on stream lengths that end inside or just past a draw
block; those graphs also equal, in every field, the graph Graph builds from
their edges. The byte-level layout check of int_rows is compared with the
regex check it replaced on mutated layout texts, and both writers with
plain per-line formatting at every digit width and at row counts on both
sides of a row block's end.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_graph as ref
from nsdcolour import (ColouringParseError, GraphError, GraphParseError,
                       TotalColouring, check_proper, greedy_nsd,
                       parse_colouring, parse_graph, path_graph,
                       random_graph, write_colouring, write_graph)
from nsdcolour.graph import _ROW_BLOCK, Graph, int_rows
from test_acceptance import GRID
from test_parsers_fuzz import (C4_TEXT, COLOURING_TEXTS, GRAPH_TEXTS,
                               declares_small_graph)


@st.composite
def edge_lists(draw, max_n=12):
    # loop-free pairs in either orientation, some repeated reversed or as is;
    # n may be 0 or 1, and vertices may be left isolated
    n = draw(st.integers(0, max_n))
    if n < 2:
        return n, []
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]),
                          max_size=40))
    again = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(again),
                          max_size=len(again)))
    again = [(v, u) if f else (u, v) for (u, v), f in zip(again, flips)]
    mixed = pairs + again
    order = draw(st.permutations(range(len(mixed))))
    return n, [mixed[i] for i in order]


def as_input(pairs, array: bool):
    return np.array(pairs, dtype=np.int64).reshape(-1, 2) if array else pairs


def outcome(fn, *args, errors=(GraphError,)):
    """('ok', value) or ('error', type name, message)."""
    try:
        return ("ok", fn(*args))
    except errors as exc:
        return ("error", type(exc).__name__, str(exc))


def assert_same_graph(new, old):
    assert (new.n, new.m, new.max_degree) == (old.n, old.m, old.max_degree)
    assert new.edges == old.edges
    assert runs(new) == views(old, range(old.n))
    for name in ("degrees", "edge_u", "edge_v"):
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for u in range(-1, new.n + 1):
        for v in range(-1, new.n + 1):
            assert outcome(new.edge_id, u, v) == outcome(old.edge_id, u, v)


def runs(g, verts=None):
    """Graph.incidences cut into one (neighbours, edge ids) pair per run."""
    far, ids, ends = g.incidences(verts)
    assert len(far) == len(ids) == (ends[-1] if ends.size else 0)
    bounds = [0, *ends.tolist()]
    return [(tuple(far[a:b].tolist()), tuple(ids[a:b].tolist()))
            for a, b in zip(bounds, bounds[1:])]


def views(old, verts):
    """The frozen Graph's tuple views of each of verts."""
    return [(old.adjacency[v], old.incident_edges(v)) for v in verts]


@given(edge_lists(), st.booleans())
def test_graph_matches_reference(drawn, array):
    n, pairs = drawn
    assert_same_graph(Graph(n, as_input(pairs, array)), ref.Graph(n, pairs))


@given(edge_lists(), st.data())
def test_incidences_match_reference_views(drawn, data):
    # verts in any order, repeats allowed, and empty; isolated vertices
    # give empty runs
    n, pairs = drawn
    new, old = Graph(n, pairs), ref.Graph(n, pairs)
    verts = data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n + 2)
                      if n else st.just([]))
    assert runs(new, verts) == views(old, verts)
    assert runs(new, np.array(verts, dtype=np.int64)) == views(old, verts)


@pytest.mark.parametrize("n,pairs,verts", [
    (0, [], []), (3, [], [2, 0, 2]), (5, [(3, 1)], [4, 1, 3, 1, 0])])
def test_incidences_on_empty_graphs_and_isolated_vertices(n, pairs, verts):
    new, old = Graph(n, pairs), ref.Graph(n, pairs)
    assert runs(new) == views(old, range(n))
    assert runs(new, verts) == views(old, verts)


BAD = [lambda n: (0, 0), lambda n: (n - 1, n - 1), lambda n: (0, n),
       lambda n: (n, 0), lambda n: (-1, 1), lambda n: (1, -3),
       lambda n: (2 ** 70, 0), lambda n: (0, -2 ** 64), lambda n: (2 ** 63, 2 ** 63)]


@given(edge_lists(), st.lists(st.tuples(st.integers(0, 40), st.sampled_from(BAD)),
                              min_size=1, max_size=3), st.booleans())
def test_bad_edge_error_text_matches_reference(drawn, planted, array):
    n, pairs = drawn
    n = max(n, 2)
    for at, bad in planted:
        pairs.insert(min(at, len(pairs)), bad(n))
    fits = all(-2 ** 63 <= x < 2 ** 63 for pair in pairs for x in pair)
    got = outcome(Graph, n, as_input(pairs, array and fits))
    want = outcome(ref.Graph, n, pairs)
    assert got[0] == want[0] == "error"
    assert got[1:] == want[1:]


# ---------------------------------------------------------------------------
# check_proper


@st.composite
def clashing_colourings(draw):
    """A graph and a colouring from a small palette, so that vertex-vertex,
    vertex-edge and edge-edge clashes abound, with whole stars planted in
    one colour so that groups of three and more edges clash."""
    n, pairs = draw(edge_lists())
    old = ref.Graph(n, pairs)
    palette = draw(st.integers(1, 4))
    colours = st.integers(1, palette)
    vc = draw(st.lists(colours, min_size=n, max_size=n))
    ec = draw(st.lists(colours, min_size=old.m, max_size=old.m))
    for v in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=3)) if n else []:
        same = draw(colours)
        for e in old.incident_edges(v):
            ec[e] = same
    return n, pairs, TotalColouring(vc, ec, palette)


@settings(max_examples=300)
@given(clashing_colourings())
def test_check_proper_matches_reference(drawn):
    n, pairs, c = drawn
    assert check_proper(Graph(n, pairs), c) == \
        ref.check_proper(ref.Graph(n, pairs), c)


@settings(max_examples=200)
@given(edge_lists(), st.sampled_from([1, 9, 2**62, 2**63 - 1]), st.data())
def test_write_colouring_matches_reference(drawn, k, data):
    # colours up to k, so near 2^63 for the largest k; n = 0 and m = 0 occur
    n, pairs = drawn
    g = Graph(n, pairs)
    colours = st.integers(max(1, k - 5), k) | st.integers(1, k)
    c = TotalColouring(data.draw(st.lists(colours, min_size=n, max_size=n)),
                       data.draw(st.lists(colours, min_size=g.m, max_size=g.m)),
                       k)
    assert write_colouring(g, c) == ref.write_colouring(g, c)


@pytest.mark.parametrize("g", [Graph(0, []), Graph(3, []), random_graph(40, 0.2, seed=1)],
                         ids=repr)
def test_write_colouring_edge_cases_match_reference(g):
    c = greedy_nsd(g)
    assert write_colouring(g, c) == ref.write_colouring(g, c)
    top = TotalColouring(np.full(g.n, 2**63 - 1), np.full(g.m, 2**63 - 2), 2**63 - 1)
    assert write_colouring(g, top) == ref.write_colouring(g, top)


def graph_fields(g):
    # __eq__ compares only n and the keys, so every field is compared here
    arrays = (g._keys, g.edge_u, g.edge_v, g.degrees)
    return (g.n, g.m, g.max_degree, type(g.max_degree),
            [(a.dtype, a.shape, a.flags.writeable, a.tobytes())
             for a in arrays])


def same_random_graph(n, p, seed):
    # random_graph adopts its keys unchecked: the graph Graph's checks and
    # sort build from its edges must be the same in every field
    g = random_graph(n, p, seed)
    assert g == ref.random_graph(n, p, seed)
    assert graph_fields(g) == graph_fields(Graph(n, g.edges))


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5])
@pytest.mark.parametrize("n,mean", GRID)
def test_random_graph_on_grid_points_matches_reference(n, mean, seed):
    same_random_graph(n, float(f"{mean / (n - 1):.6f}"), seed)
    same_random_graph(n, mean / (n - 1), seed)


# the four graphs of the construct-verify benchmark workload
@pytest.mark.parametrize("n,p,seed", [(500, 0.05, 1), (2000, 150 / 1999, 0),
                                      (3000, 100 / 2999, 0),
                                      (5000, 50 / 4999, 0)])
def test_random_graph_on_construct_verify_graphs_matches_reference(n, p, seed):
    same_random_graph(n, p, seed)


# 363 and 364 vertices make 65,703 and 66,066 pairs, streams that end just
# past one draw block of 2^16; 512 vertices make 130,816, inside the second
@pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 1.0])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 363, 364, 512])
def test_random_graph_small_and_extreme_match_reference(n, p):
    for seed in (0, 7, 123456789):
        same_random_graph(n, p, seed)


def test_check_proper_on_a_large_corrupted_colouring():
    g = random_graph(300, 0.05, seed=3)
    old = ref.Graph(g.n, g.edges)
    rng = np.random.default_rng(4)
    ec = greedy_nsd(g).edge_colours.copy()
    vc = greedy_nsd(g).vertex_colours.copy()
    for e in rng.choice(g.m, size=40, replace=False):
        ec[e] = rng.integers(1, 4)
    vc[rng.choice(g.n, size=30, replace=False)] = 1
    c = TotalColouring(vc, ec, int(max(ec.max(), vc.max())))
    got = check_proper(g, c)
    assert got == ref.check_proper(old, c)
    assert {v.kind for v in got} == {"vertex-vertex", "vertex-edge", "edge-edge"}


# ---------------------------------------------------------------------------
# parsers


def same_parse_graph(text):
    got = outcome(parse_graph, text, errors=(GraphParseError,))
    want = outcome(ref.parse_graph, text, errors=(GraphParseError,))
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert_same_graph(got[1], want[1])
    else:
        assert got == want


def same_parse_colouring(text, g):
    errors = (ColouringParseError,)
    got = outcome(parse_colouring, text, g, errors=errors)
    want = outcome(ref.parse_colouring, text, ref.Graph(g.n, g.edges),
                   errors=errors)
    assert got == want


G30 = random_graph(30, 0.2, seed=11)
G30_TEXT = write_graph(G30)
G30_COLOURING = write_colouring(G30, greedy_nsd(G30))

# (line index or None for the end, replacement line or None to delete)
GRAPH_FAULTS = [(0, "p edge 30"), (0, "p edge 31 3"), (0, "p edge 29 3"),
                (0, "p edge 30 -1"), (1, "e 1 1"), (1, "e 0 2"),
                (1, "e 1 31"), (1, "e 1 2 3"), (1, "c a comment"),
                (1, "  e 1 2"), (1, "e 1  2"), (1, "e 01 2"),
                (1, "e 1 99999999999999999999"), (None, "p edge 30 1"),
                (None, "x"), (None, ""), (2, "e 2 1")]
COLOURING_FAULTS = [(0, "k 0"), (0, "k 99999999999999999999"), (0, None),
                    (1, None), (1, "v 2 1"), (1, "v 31 1"), (1, "v 1 0"),
                    (1, "v 1 99999999999999999999"), (31, "e 1 1 1"),
                    (31, None), (31, "e 30 29 1"), (32, G30_COLOURING.split("\n")[31]),
                    (31, "e 1 2"), (None, "k 5"), (None, "v 1 1"),
                    (31, "v 1 1"), (1, "c x"), (None, "")]


def plant(text, at, line):
    lines = text.split("\n")[:-1]
    if at is None:
        lines.append(line)
    elif line is None:
        del lines[at]
    else:
        lines[at] = line
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("at,line", GRAPH_FAULTS)
def test_parse_graph_faults_match_reference(at, line):
    same_parse_graph(plant(G30_TEXT, at, line))


@pytest.mark.parametrize("at,line", COLOURING_FAULTS)
def test_parse_colouring_faults_match_reference(at, line):
    same_parse_colouring(plant(G30_COLOURING, at, line), G30)


@pytest.mark.parametrize("text", ["", "p edge 0 0", "p edge 0 0\n",
                                  "p edge 3 0", G30_TEXT, G30_TEXT[:-1],
                                  G30_TEXT.replace("\n", "\r\n")])
def test_parse_graph_layouts_match_reference(text):
    same_parse_graph(text)


@given(GRAPH_TEXTS)
def test_parse_graph_fuzz_matches_reference(text):
    if declares_small_graph(text):
        same_parse_graph(text)


@given(COLOURING_TEXTS)
def test_parse_colouring_fuzz_matches_reference(text):
    same_parse_colouring(text, parse_graph(C4_TEXT))


def test_regular_files_take_the_tokenising_path(monkeypatch):
    import nsdcolour.colouring as colouring_mod
    import nsdcolour.graph as graph_mod

    def refuse(*args):
        raise AssertionError("line parser used on a regular file")
    monkeypatch.setattr(graph_mod, "_parse_graph_lines", refuse)
    monkeypatch.setattr(colouring_mod, "_parse_colouring_lines", refuse)
    g = parse_graph(G30_TEXT)
    assert g == G30
    assert parse_colouring(G30_COLOURING, g) == greedy_nsd(G30)


# ---------------------------------------------------------------------------
# layout check and row writer


def _at(data, text, spots):
    """One index drawn from spots, or None when there is none."""
    return data.draw(st.sampled_from(spots)) if spots else None


def _spots(text, pred):
    return [i for i, ch in enumerate(text) if pred(i, ch)]


def _spaces(text):
    return _spots(text, lambda i, ch: ch == " ")


def _newlines(text):
    return _spots(text, lambda i, ch: ch == "\n")


def _line_starts(text):
    return _spots(text, lambda i, ch: i == 0 or text[i - 1] == "\n")


def _digit_starts(text):
    return _spots(text, lambda i, ch: ch.isdigit() and not text[i - 1].isdigit())


def _digit_ends(text):
    return _spots(text, lambda i, ch: ch.isdigit()
                  and (i + 1 == len(text) or not text[i + 1].isdigit()))


def _insert(data, text, spots, what):
    i = _at(data, text, spots)
    return text if i is None else text[:i] + what + text[i:]


def _replace(data, text, spots, what):
    i = _at(data, text, spots)
    return text if i is None else text[:i] + what + text[i + 1:]


def _drop_field(data, text):
    # the last number of a line, with the space before it
    i = _at(data, text, _newlines(text))
    if i is None:
        return text
    cut = text.rfind(" ", 0, i)
    return text if cut < 0 else text[:cut] + text[i:]


def _swap_number(data, text, new):
    """text with one drawn number replaced by new."""
    i = _at(data, text, _digit_starts(text))
    if i is None:
        return text
    j = i
    while j < len(text) and text[j].isdigit():
        j += 1
    return text[:i] + new + text[j:]


LAYOUT_MUTATIONS = {
    "doubled space": lambda d, t: _insert(d, t, _spaces(t), " "),
    "trailing space": lambda d, t: _insert(d, t, _newlines(t), " "),
    "tab": lambda d, t: _replace(d, t, _spaces(t), "\t"),
    "carriage return": lambda d, t: _insert(d, t, _newlines(t), "\r"),
    "empty line": lambda d, t: _insert(d, t, _line_starts(t), "\n"),
    "missing final newline": lambda d, t: t[:-1] if t.endswith("\n") else t,
    "wrong letter": lambda d, t: _replace(d, t, _line_starts(t),
                                          d.draw(st.sampled_from("evkpcxE"))),
    "doubled letter": lambda d, t: _insert(d, t, _line_starts(t), t[0]),
    "digit after letter": lambda d, t: _insert(d, t, [i + 1 for i in _line_starts(t)],
                                               "7"),
    "number deleted": lambda d, t: _swap_number(d, t, ""),
    "digits after the last newline": lambda d, t: t + "7",
    "field too many": lambda d, t: _insert(d, t, _newlines(t), " 7"),
    "field too few": _drop_field,
    # 19 digits, or exactly 18
    "19 digits": lambda d, t: _swap_number(d, t, d.draw(st.sampled_from(
        ["1" + "0" * 18, "9" * 19, "9" * 18]))),
    "leading zeros": lambda d, t: _insert(d, t, _digit_starts(t),
                                          "0" * d.draw(st.integers(1, 3))),
    "sign before digits": lambda d, t: _insert(d, t, _digit_starts(t),
                                               d.draw(st.sampled_from("-/:"))),
    "sign after digits": lambda d, t: _insert(d, t, [i + 1 for i in _digit_ends(t)],
                                              d.draw(st.sampled_from("-/:"))),
    "non-ASCII digit": lambda d, t: _replace(d, t, _spots(t, lambda i, ch: ch.isdigit()),
                                             d.draw(st.sampled_from("²٣"))),
}
NUMBERS = st.integers(0, 10**18 - 1) | st.sampled_from([0, 9, 10, 10**17, 10**18 - 1])
HEAD = "p edge 9 9\n"


@settings(max_examples=300)
@given(data=st.data())
@pytest.mark.parametrize("letter,width", [("e", 2), ("v", 2), ("e", 3), ("v", 3)])
def test_layout_check_accepts_what_the_regex_accepted(letter, width, data):
    rows = data.draw(st.lists(st.lists(NUMBERS, min_size=width, max_size=width),
                              min_size=1, max_size=6))
    body = "".join(f"{letter} {' '.join(map(str, row))}\n" for row in rows)
    for kind in data.draw(st.lists(st.sampled_from(sorted(LAYOUT_MUTATIONS)),
                                   min_size=1, max_size=3)):
        body = LAYOUT_MUTATIONS[kind](data, body)
    text = HEAD + body
    if not text.endswith("\n"):
        # the regex check reads past a last line with no newline; no parser
        # passes one, because both add the newline first
        assert int_rows(text, len(HEAD), len(text), letter, width) is None
        text += "\n"
    got = int_rows(text, len(HEAD), len(text), letter, width)
    want = ref.int_rows(text, len(HEAD), len(text), ref.ODD_LINES[letter, width],
                        width)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.dtype == np.int64
        assert np.array_equal(got, want)


def per_line_graph_text(g):
    return f"p edge {g.n} {g.m}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in g.edges)


# 1, 9, 10, 99, 100, ..., 10^18 - 1, 10^18 and 2^63 - 1: every digit width
# and both ends of each
DIGIT_WIDTHS = [c for j in range(19) for c in (10**j - 1, 10**j) if c] + [2**63 - 1]


@pytest.mark.parametrize("g", [Graph(0, []), Graph(5, []),
                               path_graph(len(DIGIT_WIDTHS)),
                               random_graph(2000, 150 / 1999, 0)], ids=repr)
def test_writers_match_per_line_formatting_at_every_digit_width(g):
    assert write_graph(g) == per_line_graph_text(g)
    widths = np.array(DIGIT_WIDTHS, dtype=np.int64)
    c = TotalColouring(np.resize(widths, g.n), np.resize(widths[::-1], g.m),
                       2**63 - 1)
    assert write_colouring(g, c) == ref.write_colouring(g, c)


@pytest.mark.parametrize("rows", [_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1,
                                  2 * _ROW_BLOCK + 1])
def test_writers_match_per_line_formatting_across_row_blocks(rows):
    # rows edge lines (a path on rows + 1 vertices) and rows vertex lines (no
    # edges); colours have one digit in the first block and thirteen after
    # it, so a block's largest number can be narrower than the next block's
    g = path_graph(rows + 1)
    assert write_graph(g) == per_line_graph_text(g)
    colours = np.where(np.arange(rows + 1) < _ROW_BLOCK, 7, 10**12 + 1)
    c = TotalColouring(colours, colours[1:], 10**12 + 1)
    assert write_colouring(g, c) == ref.write_colouring(g, c)
    h = Graph(rows, [])
    c = TotalColouring(colours[:rows], [], 10**12 + 1)
    assert write_colouring(h, c) == ref.write_colouring(h, c)
