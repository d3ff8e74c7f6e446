import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covereval import graph
from covereval.cover import build_community_graph, load_cover
from covereval.graph import (
    EXACT_HOP_LIMIT, EdgeListParseError, EmpiricalDistribution, Graph, GraphError,
    basic_properties, clustering_by_degree, degree_assortativity, degree_distribution,
    giant_component, hop_distribution, load_edge_list, transitivity, triangles_per_node,
)
from covereval.synthetic import perturb_cover, planted_cover_network

from gen import graphs, random_graph
from oracles import (
    brute_basic_properties, brute_clustering_by_degree, brute_sampled_hops, loop_edge_list,
    scalar_assortativity, union_find_components,
)


def samples(d) -> list[float]:
    """Every sample of an EmpiricalDistribution, in increasing order."""
    return np.repeat(d.values, d.counts).tolist()


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestLoadEdgeList:
    def test_path(self):
        g = load_edge_list("1 2\n2 3\n")
        assert g.n == 3 and g.edge_count == 2

    def test_dedup_and_self_loop(self):
        g = load_edge_list("a b\nb a\na a\n")
        assert g.n == 2 and g.edge_count == 1

    def test_comments_and_blank_lines(self):
        g = load_edge_list("# header\n\n1 2\n")
        assert g.n == 2 and g.edge_count == 1

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(EdgeListParseError) as e:
            load_edge_list("1 2\n1 2 3\n")
        assert e.value.lineno == 2

    def test_empty_input(self):
        with pytest.raises(GraphError):
            load_edge_list("# only a comment\n")

    def test_random_lines_match_set_oracle(self):
        rng = random.Random(5)
        for _ in range(20):
            lines = [f"{rng.randint(0, 8)} {rng.randint(0, 8)}" for _ in range(10)]
            g = load_edge_list("\n".join(lines) + "\n")
            labels = set()
            pairs = set()
            for ln in lines:
                a, b = ln.split()
                labels.update((a, b))
                if a != b:
                    pairs.add(frozenset((a, b)))
            assert g.n == len(labels)
            assert g.edge_count == len(pairs)

    @pytest.mark.parametrize("bad", [None, 512, 513, 1300])
    def test_long_texts_equal_the_line_loop(self, bad):
        """Texts longer than one 512-line match: a malformed line after the
        first block is found at its line, a comment or '\\r\\n' at a
        block's edge is parsed as the loop parses it."""
        rng = random.Random(bad)
        lines = [f"{rng.randrange(300)} {rng.randrange(300)}" for _ in range(1500)]
        for at in (0, 511, 512, 1023, 1499):
            lines[at] = "  # comment " + lines[at]
        if bad is not None:
            lines[bad - 1] = "7 8 9"
        for text in ("\n".join(lines), "\r\n".join(lines) + "\r\n"):
            try:
                g = load_edge_list(text)
            except EdgeListParseError as exc:
                with pytest.raises(EdgeListParseError) as want:
                    loop_edge_list(text)
                assert (exc.lineno, str(exc)) == (want.value.lineno, str(want.value)) \
                    and exc.lineno == bad
                continue
            want = loop_edge_list(text)
            assert bad is None and g.original_labels == want.original_labels
            assert np.array_equal(g.indptr, want.indptr)
            assert np.array_equal(g.indices, want.indices)

    def test_other_breaks_are_the_rest_of_splitlines_breaks(self):
        # a text without them is matched as it is, with "\n" its only break
        breaks = {c for c in map(chr, range(sys.maxunicode + 1))
                  if len(f"a{c}b".splitlines()) == 2}
        assert breaks == set(graph._OTHER_BREAKS) | {"\n"}

    def test_label_index_is_the_one_of_its_labels(self):
        # the edge list keeps the key table of its tokens; a graph built from
        # the same labels builds the same table on first use
        for text in ("1 2\n2 3\n", "abcdefghijklmnop abcdefghijklmnopq\nabcdefgh x\n",
                     "\u00e9 \u00fc\na a\x00\n" + "y" * 40 + " z\n"):
            g = load_edge_list(text)
            table, node = g.label_index
            want_table, want_node = Graph(g.n, g.edges(), g.original_labels).label_index
            assert np.array_equal(node, want_node) and len(table) == len(want_table)
            for got, want in zip(table, want_table):
                assert all(a is b is None or np.array_equal(a, b) for a, b in zip(got, want))
            assert g.label_index[1] is node and not node.flags.writeable

    def test_label_round_trip(self):
        g = load_edge_list("x y\ny z\n")
        assert g.original_labels == ("x", "y", "z")


class TestGraphConstructor:
    def test_first_outside_edge_named(self):
        # self-loops are dropped before the range check, even outside it
        with pytest.raises(GraphError) as e:
            Graph(3, [(0, 1), (9, 9), (1, 4), (7, 0)])
        assert str(e.value) == "edge (1, 4) outside node range 0..2"
        with pytest.raises(GraphError, match=r"edge \(-1, 2\)"):
            Graph(3, [(-1, 2)])

    def test_outside_self_loop_dropped(self):
        g = Graph(3, [(0, 1), (9, 9), (2, 2)])
        assert g.n == 3 and g.edge_count == 1 and g.edges().tolist() == [[0, 1]]

    def test_duplicates_merged(self):
        g = Graph(4, [(0, 1), (1, 0), (0, 1), (1, 2), (2, 1)])
        assert g.edge_count == 2
        assert g.degrees.tolist() == [1, 2, 1, 0]
        assert g.edges().tolist() == [[0, 1], [1, 2]]
        # a repeated edge counts once in the adjacency products too
        triangle = Graph(3, [(0, 1), (1, 0), (1, 2), (2, 0), (0, 2), (0, 2)])
        assert triangles_per_node(triangle).tolist() == [1, 1, 1]

    def test_edges_row_major(self):
        rng = random.Random(19)
        for _ in range(10):
            n = rng.randint(2, 30)
            _, edges = random_graph(rng, n, 0.3)
            flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            rng.shuffle(flipped)
            g = Graph(n, flipped)
            assert g.edges().tolist() == [list(e) for e in sorted(edges)]
            assert g.edge_count == len(edges)
            assert g.degrees.tolist() == [sum(u in e for e in edges) for u in range(n)]

    def test_empty_graph(self):
        g = Graph(0, [])
        assert (g.n, g.edge_count, g.edges().shape, g.degrees.tolist()) == (0, 0, (0, 2), [])
        assert g.original_labels == ()

    def test_csr_arrays_are_read_only(self):
        """What the kept degrees derive from cannot change under them, in
        a graph built from edges and in a giant component cut out of one."""
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        for h in (g, giant_component(g)):
            for a in (h.indptr, h.indices, h.degrees, h.upper_degrees):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0

    def test_only_state_is_the_adjacency(self, monkeypatch):
        """A graph holds its CSR arrays, its labels and whether it is known
        to be connected, and each cached part only from its first read on,
        the same object on every later read. A loaded graph also holds its
        labels' keys, which a cover loaded against it reads as they are."""
        g = Graph(4, [(0, 1), (1, 2)])
        held = ["indptr", "indices", "original_labels", "_connected"]
        assert list(vars(g)) == held
        for part in ("degrees", "upper_degrees", "label_index"):
            assert part not in vars(g)
            first = getattr(g, part)
            held.append(part)
            assert list(vars(g)) == held and getattr(g, part) is first
        loaded = load_edge_list("a b\nb c\n")
        assert list(vars(loaded)) == held[:4] + ["label_index"]
        preset = loaded.label_index
        label_ids, tables = graph._label_ids, []

        def counting_label_ids(data, starts, lens, table=None):
            tables.append(table)
            return label_ids(data, starts, lens, table)

        monkeypatch.setattr(graph, "_label_ids", counting_label_ids)
        assert load_cover("c b\na\n", loaded).communities == (frozenset({1, 2}), frozenset({0}))
        assert len(tables) == 1 and tables[0] is preset[0] and loaded.label_index is preset

    def test_labels_length_checked(self):
        with pytest.raises(GraphError, match="original_labels length"):
            Graph(2, [(0, 1)], ["a"])
        assert Graph(2, [(0, 1)]).original_labels == ("0", "1")


class TestBasicProperties:
    def test_k5(self):
        p, _ = basic_properties(complete_graph(5))
        assert p["rho"] == 1.0 and p["d"] == 1 and p["l_G"] == 1.0
        assert p["C"] == 1.0 and p["avg_deg"] == 4.0 and p["max_deg"] == 4

    def test_star(self):
        p, _ = basic_properties(star_graph(5))
        assert p["C"] == 0.0 and p["d"] == 2 and p["max_deg"] == 5
        assert p["tau"] < 0

    def test_er_graph_matches_brute_force(self):
        rng = random.Random(42)
        g, edges = random_graph(rng, 50, 0.1)
        got, _ = basic_properties(g)
        want = brute_basic_properties(50, edges)
        for key in ("V", "E", "d", "max_deg"):
            assert got[key] == want[key]
        for key in ("rho", "l_G", "avg_deg", "tau", "C"):
            assert got[key] == pytest.approx(want[key], abs=1e-9)

    def test_too_small(self):
        with pytest.raises(GraphError):
            basic_properties(Graph(1, []))

    def test_no_edges(self):
        with pytest.raises(GraphError):
            basic_properties(Graph(3, []))

    def test_exact_mode_above_the_limit_samples_with_a_seed(self):
        # a binary tree: few BFS levels and few neighbour pairs
        n = EXACT_HOP_LIMIT + 1
        _, hops = basic_properties(Graph(n, [(i, (i - 1) // 2) for i in range(1, n)]),
                                   sources=2, seed=1)
        # the pairs that hold one of the two roots
        assert hops.distribution.n == 2 * n - 3

    def test_hops_are_the_hop_distribution(self):
        rng = random.Random(44)
        g, _ = random_graph(rng, 30, 0.12)
        assert basic_properties(g)[1] == hop_distribution(g)
        _, sampled = basic_properties(g, exact_paths=False, sources=6, seed=5)
        assert sampled == hop_distribution(g, exact=False, sources=6, seed=5)
        size = giant_component(g).n
        assert sampled.distribution.n == 6 * (size - 1) - 15


def bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


class TestDegreeAssortativity:
    def test_equals_scalar_loop_exactly(self):
        # bit for bit: tau is written to report.json. The oracle is the
        # Pearson correlation over both orientations, in Fractions
        rng = random.Random(47)
        for i in range(80):
            n = rng.randint(2, 60)
            _, edges = random_graph(rng, n, rng.choice((0.05, 0.15, 0.4)))
            hubs = rng.sample(range(n), rng.randint(0, min(3, n)))
            edges |= {(min(h, v), max(h, v)) for h in hubs for v in range(n)
                      if v != h and rng.random() < 0.7}
            g = Graph(n, sorted(edges))
            want = scalar_assortativity(n, edges)
            got = degree_assortativity(g)
            assert bits(got) == bits(want), (i, got, want)
            if len(edges) and n > 1:
                assert bits(basic_properties(g)[0]["tau"]) == bits(want)

    @given(graphs())
    @settings(max_examples=150, deadline=None)
    def test_is_the_correctly_rounded_quotient(self, case):
        g, edges = case
        assert bits(degree_assortativity(g)) == bits(scalar_assortativity(g.n, edges))

    def test_large_star_does_not_overflow(self):
        # the degree cubes sum to (2.2e6)^3 ~ 1.06e19, past int64; tau is -1
        # exactly, as every edge joins the hub to a leaf of degree 1
        n = 2_200_000
        g = Graph._from_csr(np.concatenate(([0, n], np.arange(n + 1, 2 * n + 1))),
                            np.concatenate((np.arange(1, n + 1), np.zeros(n, np.int64))),
                            [""] * (n + 1))
        assert degree_assortativity(g) == -1.0

    @pytest.mark.parametrize("n, edges", [
        (5, {(u, v) for u in range(5) for v in range(u + 1, 5)}),   # K5
        (6, {(i, i + 1) for i in range(5)} | {(0, 5)}),            # 6-cycle
        (4, {(0, 1), (2, 3)}),                                      # perfect matching
        (3, set()),                                                 # no edges
        (0, set()),
    ])
    def test_nan_on_regular_and_edgeless_graphs(self, n, edges):
        assert math.isnan(degree_assortativity(Graph(n, sorted(edges))))
        assert math.isnan(scalar_assortativity(n, edges))


class TestDegreeDistribution:
    def test_k4(self):
        assert samples(degree_distribution(complete_graph(4))) == [3, 3, 3, 3]

    def test_p3(self):
        assert samples(degree_distribution(path_graph(3))) == [1, 1, 2]

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_handshake(self, seed):
        rng = random.Random(seed)
        g, edges = random_graph(rng, rng.randint(2, 30), rng.random())
        d = degree_distribution(g)
        assert d.values @ d.counts == 2 * len(edges)


class TestClusteringByDegree:
    def test_k4(self):
        k, mean = clustering_by_degree(complete_graph(4))
        assert (k.tolist(), mean.tolist()) == ([3], [1.0])

    def test_star(self):
        k, mean = clustering_by_degree(star_graph(5))
        assert (k.tolist(), mean.tolist()) == ([1, 5], [0.0, 0.0])

    def test_matches_triangle_oracle(self):
        # bit for bit: each class mean is one division of exact integers
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(4, 60)
            g, edges = random_graph(rng, n, rng.choice((0.1, 0.3, 0.6)))
            want = brute_clustering_by_degree(n, edges)
            k, mean = clustering_by_degree(g)
            assert k.tolist() == list(want)
            assert [bits(m) for m in mean.tolist()] == [bits(m) for m in want.values()]

    @given(graphs(min_nodes=3))
    @settings(max_examples=100, deadline=None)
    def test_class_means_are_correctly_rounded(self, case):
        g, edges = case
        k, mean = clustering_by_degree(g)
        want = brute_clustering_by_degree(g.n, edges)
        assert dict(zip(k.tolist(), map(bits, mean.tolist()))) == {
            d: bits(m) for d, m in want.items()}

    def test_golden_near_community_graph(self):
        # the community graph of the golden `near` cover: its degree 19 and
        # 20 classes both have mean 29/57, which averaging the rounded c(u)
        # gave two values one ulp apart; 7 of its 21 class means were off
        _, truth = planted_cover_network(n_nodes=400, n_communities=60, seed=7)
        g = build_community_graph(perturb_cover(truth, 0.10, seed=2)).graph
        k, mean = clustering_by_degree(g)
        want = brute_clustering_by_degree(g.n, {tuple(e) for e in g.edges().tolist()})
        assert [bits(m) for m in mean.tolist()] == [bits(want[d]) for d in k.tolist()]
        assert mean[k.tolist().index(19)] == mean[k.tolist().index(20)] == 29 / 57
        assert (len(k), len(set(mean[mean > 0].tolist()))) == (21, 20)


class TestTransitivity:
    def test_complete_is_one(self):
        for n in range(3, 8):
            assert transitivity(complete_graph(n)) == 1.0

    def test_tree_is_zero(self):
        assert transitivity(star_graph(6)) == 0.0
        assert transitivity(path_graph(6)) == 0.0

    def test_bounds(self):
        rng = random.Random(11)
        for _ in range(10):
            g, _ = random_graph(rng, rng.randint(3, 20), rng.random())
            assert 0.0 <= transitivity(g) <= 1.0


class TestHopDistribution:
    def test_p5(self):
        h = hop_distribution(path_graph(5))
        assert samples(h.distribution) == [1, 1, 1, 1, 2, 2, 2, 3, 3, 4]
        assert h.distribution.values.tolist() == [1, 2, 3, 4]
        assert h.distribution.counts.tolist() == [4, 3, 2, 1]

    def test_k6(self):
        h = hop_distribution(complete_graph(6))
        assert samples(h.distribution) == [1] * 15

    def test_sampled_all_sources_equals_exact(self):
        rng = random.Random(3)
        g, _ = random_graph(rng, 20, 0.2)
        exact = hop_distribution(g, exact=True)
        sampled = hop_distribution(g, exact=False, sources=g.n, seed=1)
        assert sampled == exact

    def test_sampled_requires_seed(self):
        g = path_graph(10)
        with pytest.raises(GraphError):
            hop_distribution(g, exact=False, sources=3, seed=None)

    def test_sampled_subset_is_subset_of_exact(self):
        rng = random.Random(4)
        g, _ = random_graph(rng, 25, 0.15)
        exact = hop_distribution(g, exact=True).distribution
        sampled = hop_distribution(g, exact=False, sources=5, seed=9).distribution
        assert set(sampled.values.tolist()) <= set(exact.values.tolist())
        assert sampled.n == 5 * (giant_component(g).n - 1) - 10

    def test_sampled_matches_floyd_warshall_oracle(self):
        # disconnected graphs too: the roots are drawn on the giant component
        rng = random.Random(5)
        for i in range(30):
            g, edges = random_graph(rng, rng.randint(3, 30), rng.choice([0.08, 0.15, 0.4]))
            gn = max(len(c) for c in union_find_components(g.n, edges))
            if gn < 2:
                continue
            sources = rng.randint(1, gn)
            got = hop_distribution(g, exact=False, sources=sources, seed=i)
            assert samples(got.distribution) == brute_sampled_hops(
                g.n, edges, sources, seed=i)

    def test_pair_count(self):
        g = path_graph(7)
        h = hop_distribution(g)
        assert h.distribution.n == 7 * 6 // 2


class TestGiantComponent:
    def test_tie_picks_component_with_node_zero(self):
        # two triangles + isolated node; equal sizes -> smallest id wins
        g = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        gc = giant_component(g)
        assert gc.n == 3 and gc.edge_count == 3
        assert gc.original_labels == ("0", "1", "2")

    def test_connected_identity(self):
        g = path_graph(6)
        assert giant_component(g) is g

    def test_sliced_component_matches_oracle(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(2, 40)
            g, edges = random_graph(rng, n, 1.5 / n)
            labels = [f"v{u}" for u in range(n)]
            g = Graph(n, sorted(edges), labels)
            giant = sorted(max(union_find_components(n, edges), key=lambda c: (len(c), -min(c))))
            gc = giant_component(g)
            new = {u: i for i, u in enumerate(giant)}
            assert gc.original_labels == tuple(labels[u] for u in giant)
            assert gc.edges().tolist() == sorted([new[u], new[v]] for u, v in edges if u in new)

    def test_sizes_match_union_find(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(10, 100)
            g, edges = random_graph(rng, n, 1.2 / n)
            comps = union_find_components(n, edges)
            assert giant_component(g).n == max(len(c) for c in comps)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 40)
        g, _ = random_graph(rng, n, 2.0 / n)
        gc = giant_component(g)
        gc2 = giant_component(gc)
        assert gc2.n == gc.n and gc2.edge_count == gc.edge_count

    def test_components_labelled_once(self, monkeypatch):
        """A graph that `giant_component` returned, sliced or as is, is not
        labelled again: not by a second call, nor by the hop search on a
        community graph."""
        calls = []
        labelling = graph.connected_components
        monkeypatch.setattr(graph, "connected_components",
                            lambda g: calls.append(g.n) or labelling(g))
        two = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        gc = giant_component(two)
        assert giant_component(gc) is gc and calls == [7]
        path = path_graph(5)
        assert giant_component(path) is path and giant_component(path) is path
        assert calls == [7, 5]
        _, truth = planted_cover_network(n_nodes=60, n_communities=8, seed=1)
        cg = build_community_graph(truth).graph
        calls.clear()
        assert hop_distribution(cg) == hop_distribution(Graph(cg.n, cg.edges()))
        assert calls == [cg.n]  # the rebuilt graph's, not the community graph's


class TestEmpiricalDistribution:
    def test_ecdf_right_continuous(self):
        # right-continuous: at each value it counts the samples up to and including it
        d = EmpiricalDistribution([3, 2, 1, 2])
        assert d.values.tolist() == [1, 2, 3]
        assert d.cdf.tolist() == [0.25, 0.75, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(())

    def test_sorted_arrays_are_read_only(self):
        given = np.array([3.0, 1.0, 2.0, 2.0])
        d = EmpiricalDistribution(given)
        assert d.values.tolist() == [1.0, 2.0, 3.0] and d.counts.tolist() == [1, 2, 1]
        assert d.cdf.tolist() == [0.25, 0.75, 1.0]
        for a in (d.values, d.counts, d.cdf):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        given[1] = 9.0  # the caller's array is copied, not kept
        assert d.values.tolist() == [1.0, 2.0, 3.0]

    def test_signed_zeros_merge(self):
        # 0.0 and -0.0 are equal, so they are one value holding every zero
        x = np.random.default_rng(5).choice([0.0, -0.0, 1.0], 300)
        d = EmpiricalDistribution(x)
        assert d.values.tolist() == [0.0, 1.0]
        assert d.counts.tolist() == [int((x == 0).sum()), int((x == 1).sum())]

    def test_from_counts_equals_the_samples(self):
        x = [3.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        d = EmpiricalDistribution.from_counts(np.array([1, 2, 3]), np.array([1, 2, 3]))
        assert d == EmpiricalDistribution(x) and d.n == 6
        assert d.cdf.tolist() == EmpiricalDistribution(x).cdf.tolist()
        assert d.values.dtype == np.float64 and samples(d) == sorted(x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            EmpiricalDistribution([1.0, 2.0, bad, 4.0, 5.0])
