import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covereval.graph import (
    EdgeListParseError, EmpiricalDistribution, Graph, GraphError,
    basic_properties, clustering_by_degree, degree_distribution,
    giant_component, hop_distribution, load_edge_list, local_clustering,
    transitivity,
)

from gen import random_graph
from oracles import (
    brute_basic_properties, brute_local_clustering, brute_sampled_hops,
    union_find_components,
)


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

    def test_label_round_trip(self):
        g = load_edge_list("x y\ny z\n")
        assert g.original_labels == ("x", "y", "z")
        assert g.label_map() == {"x": 0, "y": 1, "z": 2}


class TestBasicProperties:
    def test_k5(self):
        p = basic_properties(complete_graph(5))
        assert p.rho == 1.0 and p.d == 1 and p.l_g == 1.0
        assert p.c == 1.0 and p.avg_deg == 4.0 and p.max_deg == 4

    def test_star(self):
        p = basic_properties(star_graph(5))
        assert p.c == 0.0 and p.d == 2 and p.max_deg == 5
        assert p.tau < 0

    def test_er_graph_matches_brute_force(self):
        rng = random.Random(42)
        g, edges = random_graph(rng, 50, 0.1)
        got = basic_properties(g).as_dict()
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

    def test_hops_are_the_hop_distribution(self):
        rng = random.Random(44)
        g, _ = random_graph(rng, 30, 0.12)
        assert basic_properties(g).hops == hop_distribution(g)
        sampled = basic_properties(g, exact_paths=False, sources=6, seed=5).hops
        assert sampled == hop_distribution(g, exact=False, sources=6, seed=5)
        assert sampled.sampled and sampled.source_count == 6


class TestDegreeDistribution:
    def test_k4(self):
        assert degree_distribution(complete_graph(4)).samples == (3, 3, 3, 3)

    def test_p3(self):
        assert degree_distribution(path_graph(3)).samples == (1, 1, 2)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_handshake(self, seed):
        rng = random.Random(seed)
        g, edges = random_graph(rng, rng.randint(2, 30), rng.random())
        assert sum(degree_distribution(g).samples) == 2 * len(edges)


class TestClusteringByDegree:
    def test_k4(self):
        assert clustering_by_degree(complete_graph(4)) == [(3, 1.0)]

    def test_star(self):
        assert clustering_by_degree(star_graph(5)) == [(1, 0.0), (5, 0.0)]

    def test_matches_triangle_oracle(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(4, 25)
            g, edges = random_graph(rng, n, 0.3)
            want = brute_local_clustering(n, edges)
            assert local_clustering(g) == pytest.approx(want, abs=1e-12)
            by_k = {}
            for u, c in enumerate(want):
                by_k.setdefault(g.degree(u), []).append(c)
            expect = [(k, sum(v) / len(v)) for k, v in sorted(by_k.items())]
            got = clustering_by_degree(g)
            assert [k for k, _ in got] == [k for k, _ in expect]
            for (_, a), (_, b) in zip(got, expect):
                assert a == pytest.approx(b, abs=1e-12)


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
        assert sorted(h.distribution.samples) == [1, 1, 1, 1, 2, 2, 2, 3, 3, 4]
        assert h.diameter == 4 and h.median_path == 2

    def test_k6(self):
        h = hop_distribution(complete_graph(6))
        assert h.median_path == h.effective_diameter == h.diameter == 1

    def test_sampled_all_sources_equals_exact(self):
        rng = random.Random(3)
        g, _ = random_graph(rng, 20, 0.2)
        exact = hop_distribution(g, exact=True)
        sampled = hop_distribution(g, exact=False, sources=g.n, seed=1)
        assert sampled.distribution.samples == exact.distribution.samples

    def test_sampled_requires_seed(self):
        g = path_graph(10)
        with pytest.raises(GraphError):
            hop_distribution(g, exact=False, sources=3, seed=None)

    def test_sampled_subset_is_subset_of_exact(self):
        rng = random.Random(4)
        g, _ = random_graph(rng, 25, 0.15)
        exact = list(hop_distribution(g, exact=True).distribution.samples)
        sampled = hop_distribution(g, exact=False, sources=5, seed=9)
        assert sampled.sampled and sampled.source_count == 5
        for h in sampled.distribution.samples:
            assert h in exact

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
            assert list(got.distribution.samples) == brute_sampled_hops(
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
        gc = giant_component(g)
        assert gc.n == g.n and gc.edge_count == g.edge_count

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
        d = EmpiricalDistribution.from_values([1, 2, 2, 3])
        assert d.ecdf(0.5) == 0.0
        assert d.ecdf(2) == 0.75
        assert d.ecdf(1.99) == 0.25
        assert d.ecdf(3) == 1.0

    def test_percentile_nearest_rank(self):
        d = EmpiricalDistribution.from_values([10, 20, 30, 40])
        assert d.percentile(25) == 10
        assert d.percentile(50) == 20
        assert d.percentile(90) == 40
        assert d.percentile(100) == 40

    def test_percentile_domain(self):
        d = EmpiricalDistribution.from_values([1])
        with pytest.raises(ValueError):
            d.percentile(0)
        with pytest.raises(ValueError):
            d.percentile(101)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            EmpiricalDistribution.from_values([1.0, 2.0, bad, 4.0, 5.0])
