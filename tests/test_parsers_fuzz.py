"""Hypothesis fuzzing of the two text parsers and of ``nsdcolour verify``.

Any text either parses or raises the parser's own error, with the same
result or message as the line-by-line parser alone, and ``verify`` exits
0, 1 or 2 instead of escaping with an exception. Integer tokens reach
past the int64 range (to +-2**70). Problem lines declare at most MAX_N
vertices, because ``Graph`` allocates per declared vertex.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import assume, example, given
from hypothesis import strategies as st

from nsdcolour import (ColouringError, ColouringParseError, Graph,
                       GraphError, GraphParseError, TotalColouring,
                       cycle_graph, parse_colouring, parse_graph)
from nsdcolour.cli import main
from nsdcolour.colouring import _parse_colouring_lines
from nsdcolour.graph import _parse_graph_lines

MAX_N = 50
BIG = [2**31, 2**63 - 1, 2**63, -2**63, -2**63 - 1, 2**70, -2**70]
INTS = st.one_of(st.integers(-2, 8), st.sampled_from(BIG)).map(str)
WORDS = st.sampled_from(["p", "e", "v", "k", "c", "edge", "x", "1.5", "-",
                         "0x1", "1_0"])
TOKENS = st.one_of(INTS, WORDS, st.text(min_size=1, max_size=4))


def _line(first):
    return st.builds(lambda head, rest: " ".join([head, *rest]),
                     first, st.lists(TOKENS, max_size=4))


def _text(lines):
    return st.lists(lines, max_size=12).map("\n".join)


@st.composite
def _mutated(draw, base: str, lines):
    """base with up to three numbers swapped for drawn integer tokens and
    possibly one drawn line inserted, so that most lines still parse."""
    out = [line.split() for line in base.splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        parts = draw(st.sampled_from(out))
        parts[draw(st.integers(1, len(parts) - 1))] = draw(INTS)
    for at, line in draw(st.lists(st.tuples(st.integers(0, len(out)), lines),
                                  max_size=1)):
        out.insert(at, [line])
    return "\n".join(" ".join(parts) for parts in out)


GRAPH_LINES = st.one_of(
    st.builds("p edge {} {}".format, st.integers(-2, MAX_N), INTS),
    st.builds("e {} {}".format, INTS, INTS),
    _line(st.sampled_from(["p", "e", "c", "x"])),
    st.text(max_size=12),
)
COLOURING_LINES = st.one_of(
    st.builds("k {}".format, INTS),
    st.builds("v {} {}".format, INTS, INTS),
    st.builds("e {} {} {}".format, INTS, INTS, INTS),
    _line(st.sampled_from(["k", "v", "e", "c", "x"])),
    st.text(max_size=12),
)
# a colour past int64 once escaped parse_colouring as OverflowError
HUGE_COLOUR = "k 3\nv 1 99999999999999999999\nv 2 2\ne 1 2 3\n"
C4 = cycle_graph(4)
C4_TEXT = "p edge 4 4\ne 1 2\ne 1 4\ne 2 3\ne 3 4\n"
C4_COLOURING = ("k 5\nv 1 1\nv 2 2\nv 3 1\nv 4 2\n"
                "e 1 2 3\ne 1 4 4\ne 2 3 4\ne 3 4 5\n")
GRAPH_TEXTS = st.one_of(_mutated(C4_TEXT, GRAPH_LINES), _text(GRAPH_LINES))
COLOURING_TEXTS = st.one_of(_mutated(C4_COLOURING, COLOURING_LINES),
                            _text(COLOURING_LINES))


def outcome(parse, text, error):
    """What parse(text) returns, or the message of the error it raises."""
    try:
        return parse(text)
    except error as exc:
        return str(exc)


def declares_small_graph(text: str) -> bool:
    for raw in text.splitlines():
        parts = raw.split()
        if len(parts) == 4 and parts[:2] == ["p", "edge"]:
            try:
                if int(parts[2]) > MAX_N:
                    return False
            except ValueError:
                pass
    return True


@given(GRAPH_TEXTS)
def test_parse_graph_parses_or_raises_parse_error(text):
    assume(declares_small_graph(text))
    # the layout path agrees with the line parser, the one source of errors
    assert (outcome(parse_graph, text, GraphError)
            == outcome(_parse_graph_lines, text, GraphError))
    try:
        g = parse_graph(text)
    except GraphParseError:
        return
    assert isinstance(g, Graph) and g.n <= MAX_N


@given(COLOURING_TEXTS)
@example(HUGE_COLOUR)
def test_parse_colouring_parses_or_raises_parse_error(text):
    def by_lines(text):
        k, vc, ec = _parse_colouring_lines(text, C4)
        return TotalColouring(vc, ec, k)

    assert (outcome(lambda t: parse_colouring(t, C4), text, ColouringError)
            == outcome(by_lines, text, ColouringError))
    try:
        c = parse_colouring(text, C4)
    except ColouringParseError:
        return
    assert isinstance(c, TotalColouring)


@given(GRAPH_TEXTS, COLOURING_TEXTS, st.booleans())
@example(C4_TEXT, HUGE_COLOUR, False)
def test_verify_exits_with_a_code(graph_text, colouring_text, as_json):
    assume(declares_small_graph(graph_text))
    with tempfile.TemporaryDirectory() as tmp:
        gpath = os.path.join(tmp, "g.graph")
        cpath = os.path.join(tmp, "g.col")
        with open(gpath, "w", encoding="utf-8") as fh:
            fh.write(graph_text)
        with open(cpath, "w", encoding="utf-8") as fh:
            fh.write(colouring_text)
        argv = ["verify", gpath, cpath] + (["--json"] if as_json else [])
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    assert rc in (0, 1, 2)
