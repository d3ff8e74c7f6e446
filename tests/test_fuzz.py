"""Hypothesis fuzzing of the edge-list and cover loaders and of the CLI's
exit-code contract: bad input is reported as an input error (exit 1 with an
`error:` line), never as a traceback. The edge-list and cover loaders are
also checked against the loops they replaced (`oracles.loop_edge_list`,
`oracles.loop_cover`)."""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covereval.cli import EXIT_OK, EXIT_VALIDATION, main
from covereval.cover import CoverError, load_cover
from covereval.graph import Graph, GraphError, load_edge_list

from oracles import loop_cover, loop_edge_list

# labels that a small network defines, mixed with ones it does not and with
# comment markers; most generated files are well-formed over the labels 0-5,
# so that they get past the loaders into the metrics
NODES = st.sampled_from(["0", "1", "2", "3", "4", "5"])
LABELS = st.sampled_from(["0", "1", "2", "3", "4", "5", "-1", "99", "#", "é"])
TOKENS = LABELS | st.text(min_size=1, max_size=3)
TEXTS = st.text() | st.lists(st.lists(TOKENS, max_size=5).map(" ".join),
                             max_size=12).map("\n".join)
# every well-formed network defines the labels 0-5
EDGE_LISTS = st.lists(st.tuples(LABELS, LABELS), max_size=10).map(
    lambda edges: "0 1\n2 3\n4 5\n" + "".join(f"{u} {v}\n" for u, v in edges))
COVERS = st.lists(st.lists(NODES, min_size=1, max_size=6).map(" ".join),
                  min_size=1, max_size=6).map("\n".join)


def files(well_formed):
    """File contents: mostly well-formed text, else arbitrary text or bytes
    (one_of picks its branches about equally often)."""
    text = st.one_of(well_formed, well_formed, well_formed, TEXTS).map(str.encode)
    return st.one_of(text, text, text, st.binary(max_size=64))


@settings(max_examples=300, deadline=None)
@given(text=TEXTS | EDGE_LISTS)
def test_load_edge_list_returns_or_raises_graph_error(text):
    try:
        g = load_edge_list(text)
    except GraphError:
        return
    assert g.n >= 1 and g.edge_count == len(list(g.edges()))


# every line break of str.splitlines ("\r\n" is one), and whitespace that
# is not one
BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                          "\x85", "\u2028", "\u2029"])
GAPS = st.text(alphabet=" \t\x1f\xa0\u3000", min_size=1, max_size=2)
LEAD = GAPS | st.just("")
WORDS = st.text(alphabet="ab#\u00e9", min_size=1, max_size=3)
# an edge (its first token not a comment), a comment, a blank line, or any
# tokens at all; most lines are good, so that many texts parse
GOOD_LINES = st.one_of(
    st.tuples(LEAD, WORDS.filter(lambda w: w[0] != "#"), GAPS, WORDS, LEAD).map("".join),
    st.tuples(LEAD, st.just("#"), st.text(alphabet="ab# \t\x1f", max_size=4)).map("".join),
    LEAD)
LINES = GOOD_LINES | GOOD_LINES | GOOD_LINES | st.tuples(
    LEAD, st.lists(WORDS, max_size=4), GAPS, LEAD).map(lambda p: p[0] + p[2].join(p[1]) + p[3])
EDGE_TEXTS = st.one_of(
    st.tuples(st.lists(st.tuples(LINES, BREAKS), max_size=8), LINES | st.just("")).map(
        lambda p: "".join(line + br for line, br in p[0]) + p[1]),
    st.text(alphabet="ab# \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029"))


def load_outcome(load, text):
    """The graph's arrays and labels, or the error's type, line and message."""
    try:
        g = load(text)
    except GraphError as exc:
        return type(exc), getattr(exc, "lineno", None), str(exc)
    return g.indptr.tolist(), g.indices.tolist(), g.original_labels


@settings(max_examples=500, deadline=None)
@given(text=EDGE_TEXTS, as_bytes=st.booleans())
@example(text="  # indented\na #b\n", as_bytes=False)
@example(text="a b\r\n\r\nc\r\nd e", as_bytes=False)
@example(text="a b\x85c d e\u2029", as_bytes=True)
@example(text="a\x1fb\n\xa0\nb\xa0c", as_bytes=False)
@example(text="a b\r", as_bytes=False)
@example(text="abcdefghijklmnop abcdefghijklmnopq\nabcdefghijklmnopq abcdefgh\n", as_bytes=False)
@example(text="\u00e9\u00e9\u00fc \u00fc\n\u0430\u0431\u0432 \U0001f600\n", as_bytes=True)
@example(text="a a\x00\na\x00\x00 a\x00\nabcdefg\x00 abcdefg\n", as_bytes=False)
@example(text="x #\n# y\n#\ty #z\n", as_bytes=False)
def test_load_edge_list_equals_the_line_loop(text, as_bytes):
    if as_bytes:
        text = text.encode()
    assert load_outcome(load_edge_list, text) == load_outcome(loop_edge_list, text)


# network labels: past one 7-byte key word, multi-byte, differing only in
# length or by a trailing NUL, '#' labels, and now and then one that no
# token can equal (empty, or holding whitespace); a label may repeat
LONG_WORDS = st.text(alphabet="ab#\x00\u00e9\U0001f600", min_size=1, max_size=18)
NETWORK_LABELS = st.lists(LONG_WORDS | WORDS | st.text(max_size=3), min_size=1, max_size=8)


@st.composite
def labelled_covers(draw):
    """A network's labels and a cover text over them and other words,
    its lines, gaps and breaks as in EDGE_TEXTS."""
    labels = draw(NETWORK_LABELS)
    tokens = st.sampled_from([lab for lab in labels if lab.split() == [lab]] or ["a"])
    token_lines = st.tuples(LEAD, st.lists(tokens | tokens | LONG_WORDS, max_size=4), GAPS,
                            LEAD).map(lambda p: p[0] + p[2].join(p[1]) + p[3])
    lines = token_lines | token_lines | token_lines | LINES
    text = draw(st.tuples(st.lists(st.tuples(lines, BREAKS), max_size=6), lines | st.just(""))
                .map(lambda p: "".join(line + br for line, br in p[0]) + p[1]))
    return labels, text


def cover_outcome(load, text, network):
    """The cover's arrays, or the error's type and message."""
    try:
        c = load(text, network)
    except CoverError as exc:
        return type(exc), str(exc)
    return c.nodes.tolist(), c.indptr.tolist(), c.indices.tolist()


@settings(max_examples=500, deadline=None)
@given(case=labelled_covers(), as_bytes=st.booleans())
@example(case=(["abcdefghijklmnop", "abcdefghijklmnopq", "abcdefgh"],
               "abcdefghijklmnopq abcdefgh\nabcdefghijklmnop abcdefghijklmnopqr\n"), as_bytes=False)
@example(case=(["\u00e9\u00e9\u00fc", "\u00fc", "\U0001f600"],
               "\u00fc \u00e9\u00e9\u00fc\n\U0001f600 \u00e9\n"), as_bytes=True)
@example(case=(["a", "a\x00", "abcdefg\x00", "abcdefg"],
               "a a\x00\nabcdefg\x00 abcdefg a\x00\x00\n"), as_bytes=False)
@example(case=(["x", "#", "#z"], "x #\n# x\n x #z\n"), as_bytes=False)
@example(case=(["a", "b c", "", "a"], "a\nb c\n"), as_bytes=False)
@example(case=(["aaaaaaa1", "bbbbbbb2"], "aaaaaaa2 bbbbbbb1\n"), as_bytes=False)
def test_load_cover_equals_the_token_loop(case, as_bytes):
    labels, text = case
    network = Graph(len(labels), [], labels)
    if as_bytes:
        text = text.encode()
    assert cover_outcome(load_cover, text, network) == cover_outcome(loop_cover, text, network)


@settings(max_examples=300, deadline=None)
@given(text=TEXTS)
def test_load_cover_returns_or_raises_cover_error(text):
    try:
        c = load_cover(text, Graph(6, []))  # the labels 0-5
    except CoverError:
        return
    assert set(c.nodes.tolist()) <= set(range(6))


@pytest.mark.filterwarnings("ignore:covers restricted to common universe")
@settings(max_examples=150, deadline=None)
@given(network=files(EDGE_LISTS), truth=files(COVERS), cover=files(COVERS))
def test_cli_exits_0_or_1_on_arbitrary_files(network, truth, cover):
    with tempfile.TemporaryDirectory() as d:
        paths = {}
        for name, data in (("net", network), ("truth", truth), ("cover", cover)):
            paths[name] = str(Path(d) / f"{name}.txt")
            Path(paths[name]).write_bytes(data)
        for argv in (
            ["community-graph", "--network", paths["net"], "--cover", paths["cover"]],
            ["clustering", "--network", paths["net"], "--truth", paths["truth"],
             "--cover", paths["cover"]],
        ):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                rc = main(argv)
            assert rc in (EXIT_OK, EXIT_VALIDATION)
            if rc == EXIT_VALIDATION:
                assert err.getvalue().splitlines()[-1].startswith("error: ")
