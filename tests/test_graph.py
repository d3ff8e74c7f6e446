import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covereval import graph
from covereval.graph import (
    EXACT_HOP_LIMIT, EdgeListParseError, EmpiricalDistribution, Graph, GraphError,
    basic_properties, clustering_by_degree, degree_assortativity, degree_distribution,
    giant_component, group_sums, hop_distribution, load_edge_list, local_clustering,
    transitivity,
)

from gen import random_graph
from oracles import (
    brute_basic_properties, brute_local_clustering, brute_sampled_hops, loop_edge_list,
    scalar_assortativity, sorted_sum, union_find_components,
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
            table, node = g.label_index()
            want_table, want_node = Graph(g.n, g.edges(), g.original_labels).label_index()
            assert np.array_equal(node, want_node) and len(table) == len(want_table)
            for got, want in zip(table, want_table):
                assert all(a is b is None or np.array_equal(a, b) for a, b in zip(got, want))
            assert g.label_index()[1] is node and not node.flags.writeable

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
        assert g.degrees().tolist() == [1, 2, 1, 0]
        assert g.edges().tolist() == [[0, 1], [1, 2]]
        # a repeated edge counts once in the adjacency products too
        triangle = Graph(3, [(0, 1), (1, 0), (1, 2), (2, 0), (0, 2), (0, 2)])
        assert local_clustering(triangle).tolist() == [1.0, 1.0, 1.0]

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
            assert g.degrees().tolist() == [sum(u in e for e in edges) for u in range(n)]

    def test_empty_graph(self):
        g = Graph(0, [])
        assert (g.n, g.edge_count, g.edges().shape, g.degrees().tolist()) == (0, 0, (0, 2), [])
        assert g.original_labels == ()

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
        # bit for bit: tau is written to report.json. The oracle keeps both
        # orientations and divides by sqrt(sxx * syy), so this also checks
        # that one variance and twice the edge sum give the same bits
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

    @pytest.mark.parametrize("seed", [649, 726, 907])
    def test_squares_are_pythons_pow(self, seed):
        # graphs where Python's (k - mean) ** 2 differs from (k - mean) *
        # (k - mean) in the last bit for some degree k
        rng = random.Random(seed)
        n = rng.randint(5, 40)
        g, edges = random_graph(rng, n, rng.choice((0.1, 0.2, 0.4)))
        deg = g.degrees()
        mean = sum(d * d for d in deg) / (2 * len(edges))
        assert any((k - mean) ** 2 != (k - mean) * (k - mean) for k in deg if k)
        assert bits(degree_assortativity(g)) == bits(scalar_assortativity(n, edges))

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
        # bit for bit: each c(u) is one division of exact integers, and each
        # class mean the sum of the class's values in increasing order
        # divided by their count
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(4, 60)
            g, edges = random_graph(rng, n, rng.choice((0.1, 0.3, 0.6)))
            want = brute_local_clustering(n, edges)
            assert [bits(c) for c in local_clustering(g).tolist()] == [bits(c) for c in want]
            classes: dict[int, list[float]] = {}
            for u, c in enumerate(want):
                classes.setdefault(int(g.degrees()[u]), []).append(c)
            k, mean = clustering_by_degree(g)
            assert k.tolist() == sorted(classes)
            assert [bits(m) for m in mean.tolist()] == [
                bits(sorted_sum(classes[d]) / len(classes[d])) for d in sorted(classes)]

    def test_group_sums(self):
        # each group's terms added in increasing order, whatever their order
        # in the input; equal values (0.0 and -0.0 among them) in any order
        rng = random.Random(53)
        for size in (0, 1, 7, 8, 100, 1000):
            k = rng.randint(1, 12)
            groups = [rng.randrange(k) for _ in range(size)]
            terms = [rng.choice((0.0, -0.0, 1.5, rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8)))
                     for _ in range(size)]
            want = [bits(sorted_sum(t for g, t in zip(groups, terms) if g == i))
                    for i in range(k)]
            for _ in range(3):
                got = group_sums(np.array(groups, dtype=np.int64), np.array(terms), k)
                assert [bits(x) for x in got.tolist()] == want
                order = rng.sample(range(size), size)
                groups, terms = [groups[i] for i in order], [terms[i] for i in order]


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
