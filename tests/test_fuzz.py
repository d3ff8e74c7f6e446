"""Hypothesis fuzzing of the edge-list and cover loaders and of the CLI's
exit-code contract: bad input is reported as an input error (exit 1 with an
`error:` line), never as a traceback."""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covereval.cli import EXIT_OK, EXIT_VALIDATION, main
from covereval.cover import CoverError, load_cover
from covereval.graph import GraphError, load_edge_list

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


@settings(max_examples=300, deadline=None)
@given(text=TEXTS)
def test_load_cover_returns_or_raises_cover_error(text):
    try:
        c = load_cover(text, {str(i): i for i in range(6)})
    except CoverError:
        return
    assert c.universe <= set(range(6))


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
