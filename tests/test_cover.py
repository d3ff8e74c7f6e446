import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covereval.clustering import omega_index
from covereval.cover import (
    Cover, CoverError, build_community_graph, community_graph_edges,
    load_cover, mesoscopic_profile,
)
from covereval.graph import load_edge_list

from gen import arbitrary_ids, random_cover_sets
from oracles import algorithm1_community_graph, brute_mesoscopic


def samples(d) -> list[float]:
    """Every sample of an EmpiricalDistribution, in increasing order."""
    return np.repeat(d.values, d.counts).tolist()


def four_node_graph():
    return load_edge_list("1 2\n2 3\n3 4\n")


class TestLoadCover:
    def test_basic(self):
        g = four_node_graph()
        c = load_cover("1 2 3\n3 4\n", g)
        assert len(c.communities) == 2
        node3 = g.original_labels.index("3")
        assert sum(node3 in comm for comm in c.communities) == 2

    def test_dedup_within_line(self):
        g = four_node_graph()
        c = load_cover("1 1 2\n", g)
        assert c.communities == (frozenset({0, 1}),)

    def test_unknown_labels_listed(self):
        g = four_node_graph()
        with pytest.raises(CoverError) as e:
            load_cover("1 99\n2 98\n", g)
        assert "98" in str(e.value) and "99" in str(e.value)

    def test_zero_communities(self):
        g = four_node_graph()
        with pytest.raises(CoverError):
            load_cover("# nothing\n", g)


class TestMesoscopicProfile:
    def test_example(self):
        c = Cover.from_sets([{1, 2, 3}, {3, 4}])
        p = mesoscopic_profile(c)
        assert samples(p["CS"]) == [2, 3]
        assert samples(p["M"]) == [1, 1, 1, 2]
        assert samples(p["OS"]) == [1]

    def test_disjoint_partition(self):
        c = Cover.from_sets([{0, 1}, {2, 3}, {4}])
        p = mesoscopic_profile(c)
        assert p["OS"] is None
        assert p["M"].values.tolist() == [1]

    def test_random_matches_pairwise_oracle(self):
        rng = random.Random(23)
        for _ in range(10):
            sets = random_cover_sets(rng, 100, 30)
            p = mesoscopic_profile(Cover.from_sets(sets))
            sizes, members, overlaps = brute_mesoscopic([frozenset(s) for s in sets])
            assert samples(p["CS"]) == sizes
            assert samples(p["M"]) == members
            got_overlaps = samples(p["OS"]) if p["OS"] else []
            assert got_overlaps == overlaps

    def test_arbitrary_ids_match_pairwise_oracle(self):
        rng = random.Random(29)
        for _ in range(10):
            sets = arbitrary_ids(rng, random_cover_sets(rng, 100, 30))
            p = mesoscopic_profile(Cover.from_sets(sets))
            sizes, members, overlaps = brute_mesoscopic([frozenset(s) for s in sets])
            assert samples(p["CS"]) == sizes
            assert samples(p["M"]) == members
            got_overlaps = samples(p["OS"]) if p["OS"] else []
            assert got_overlaps == overlaps

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_size_membership_balance(self, seed):
        rng = random.Random(seed)
        sets = random_cover_sets(rng, rng.randint(3, 50), rng.randint(1, 20))
        p = mesoscopic_profile(Cover.from_sets(sets))
        assert p["CS"].values @ p["CS"].counts == p["M"].values @ p["M"].counts


class TestCommunityGraph:
    def test_chain_example(self):
        c = Cover.from_sets([{1, 2, 3}, {3, 4, 5}, {5, 6}])
        cg = build_community_graph(c)
        assert not cg.degenerate
        assert cg.graph.n == 3 and cg.graph.edge_count == 2
        assert community_graph_edges(c).tolist() == [[0, 1], [1, 2]]

    def test_disjoint_partition_degenerates(self):
        c = Cover.from_sets([{0, 1}, {2, 3}, {4, 5}])
        cg = build_community_graph(c)
        assert cg.degenerate
        assert cg.graph.n == 1 and cg.graph.edge_count == 0
        assert cg.graph.original_labels == ("0",)
        assert cg.n_communities == 3

    def test_giant_component_applied(self):
        # two separate overlapping pairs + one bigger overlapping triple
        c = Cover.from_sets([{0, 1}, {1, 2}, {2, 9}, {4, 5}, {5, 6}])
        cg = build_community_graph(c)
        assert cg.graph.n == 3  # the 0-1-2 chain of communities
        assert len(community_graph_edges(c)) == 3

    def test_matches_algorithm1_oracle(self):
        rng = random.Random(31)
        for _ in range(20):
            sets = random_cover_sets(rng, 60, rng.randint(2, 40))
            c = Cover.from_sets(sets)
            got = community_graph_edges(c)
            want = algorithm1_community_graph([set(s) for s in sets])
            assert got.tolist() == [list(e) for e in sorted(want)]

    def test_arbitrary_ids_match_algorithm1_oracle(self):
        rng = random.Random(33)
        for _ in range(20):
            sets = arbitrary_ids(rng, random_cover_sets(rng, 60, rng.randint(2, 40)))
            got = community_graph_edges(Cover.from_sets(sets))
            assert got.tolist() == [list(e) for e in sorted(algorithm1_community_graph(sets))]

    def test_overlap_count_equals_pre_pruning_edges(self):
        rng = random.Random(37)
        for _ in range(10):
            sets = random_cover_sets(rng, 50, 15)
            c = Cover.from_sets(sets)
            p = mesoscopic_profile(c)
            n_overlaps = p["OS"].n if p["OS"] else 0
            assert n_overlaps == len(community_graph_edges(c))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_edges_loop_free_and_bounded(self, seed):
        rng = random.Random(seed)
        k = rng.randint(1, 20)
        sets = random_cover_sets(rng, 30, k)
        c = Cover.from_sets(sets)
        edges = community_graph_edges(c)
        assert all(i < j for i, j in edges)
        assert all(0 <= i < k and 0 <= j < k for i, j in edges)
        cg = build_community_graph(c)
        assert cg.graph.n <= k


class TestCoverMatrix:
    def test_nodes_and_matrix(self):
        c = Cover.from_sets([[2**45, -3, 2**45], [7], [-3, 7]])
        assert c.nodes.dtype == np.int64
        assert c.nodes.tolist() == [-3, 7, 2**45]
        # the incidence [[1, 0, 1], [0, 1, 0], [1, 1, 0]] in CSR form
        assert c.indptr.dtype == np.int64 and c.indices.dtype == np.int64
        assert c.indptr.tolist() == [0, 2, 3, 5]
        assert c.indices.tolist() == [0, 2, 1, 0, 1]
        rng = random.Random(31)
        for _ in range(10):
            r = Cover.from_sets(arbitrary_ids(rng, random_cover_sets(rng, 60, 12)))
            for lo, hi in zip(r.indptr[:-1], r.indptr[1:]):
                assert (np.diff(r.indices[lo:hi]) > 0).all()
        assert c.communities == (frozenset({-3, 2**45}), frozenset({7}), frozenset({-3, 7}))

    def test_only_state_is_the_matrix(self):
        """Besides the incidence, a cover holds only what is derived from
        it: its sizes and each incidence's community from construction,
        and each cached part only from its first read on: the transpose,
        the overlaps, the size classes, the heavy pairs and the codes, each
        the same read-only object on every later read."""
        c = Cover.from_sets([{0, 1, 2}, {1, 2}])
        held = ["nodes", "indptr", "indices", "sizes", "rows"]
        assert list(vars(c)) == held
        assert (c.sizes.tolist(), c.rows.tolist()) == ([3, 2], [0, 0, 0, 1, 1])
        for part in ("transposed", "overlaps", "size_classes", "heavy_pairs", "codes"):
            assert part not in vars(c)
            first = getattr(c, part)
            held.append(part)
            assert list(vars(c)) == held and getattr(c, part) is first
            for a in first if isinstance(first, tuple) else (first,):
                assert not a.flags.writeable

    def test_incidence_is_read_only(self):
        """What every cached part derives from cannot change under it."""
        c = Cover.from_sets([{0, 1, 2}, {1, 2}])
        for a in (c.nodes, c.indptr, c.indices, c.sizes, c.rows):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_transpose_and_overlaps_built_once(self):
        """The community graph, the overlap sizes, omega and every other
        clustering metric read the same read-only arrays: the overlaps are
        the pair codes and the members of each overlap set, in CSR form."""
        c = Cover.from_sets([{0, 1, 2}, {1, 2}, {2, 3}])
        ptr, comm = c.transposed
        assert c.transposed[1] is comm and vars(c)["transposed"][0] is ptr
        assert (ptr.tolist(), comm.tolist()) == ([0, 1, 3, 6, 7], [0, 0, 1, 0, 1, 2, 2])
        assert "overlaps" not in vars(c)
        community_graph_edges(c)
        codes, starts, members = overlaps = vars(c)["overlaps"]
        mesoscopic_profile(c)
        omega_index(c, c)
        assert c.overlaps is overlaps and len(overlaps) == 3
        # C_0 & C_1 = {1, 2}, C_0 & C_2 = {2}, C_1 & C_2 = {2}
        assert (codes.tolist(), starts.tolist(), members.tolist()) == (
            [1, 2, 5], [0, 2, 3, 4], [1, 2, 2, 2])
        for a in (ptr, comm, codes, starts, members):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_load_cover_equals_from_sets(self):
        g = load_edge_list("a b\nb c\nc d\nd e\n")
        loaded = load_cover("e d d\n# skip\n\n  b a\n", g)
        built = Cover.from_sets([{4, 3}, {1, 0}])
        assert np.array_equal(loaded.nodes, built.nodes)
        assert np.array_equal(loaded.indptr, built.indptr)
        assert np.array_equal(loaded.indices, built.indices)


class TestCoverValidation:
    def test_empty_community_rejected(self):
        with pytest.raises(CoverError):
            Cover.from_sets([set()])

    def test_no_communities_rejected(self):
        with pytest.raises(CoverError):
            Cover.from_sets([])

    def test_restricted_to(self):
        c = Cover.from_sets([{0, 1, 2}, {3, 4}])
        r = c.restricted_to(np.array([0, 1, 3]))
        assert r.communities == (frozenset({0, 1}), frozenset({3}))
        assert r.nodes.tolist() == [0, 1, 3]
        with pytest.raises(CoverError):
            c.restricted_to(np.array([99]))
