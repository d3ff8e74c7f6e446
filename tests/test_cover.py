import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covereval.cover import (
    Cover, CoverError, build_community_graph, community_graph_edges,
    load_cover, mesoscopic_profile,
)
from covereval.graph import load_edge_list

from gen import arbitrary_ids, random_cover_sets
from oracles import algorithm1_community_graph, brute_mesoscopic


def four_node_graph():
    return load_edge_list("1 2\n2 3\n3 4\n")


class TestLoadCover:
    def test_basic(self):
        g = four_node_graph()
        c = load_cover("1 2 3\n3 4\n", g.label_map())
        assert len(c.communities) == 2
        node3 = g.label_map()["3"]
        assert len(c.membership_index[node3]) == 2

    def test_dedup_within_line(self):
        g = four_node_graph()
        c = load_cover("1 1 2\n", g.label_map())
        assert c.communities == (frozenset({0, 1}),)

    def test_unknown_labels_listed(self):
        g = four_node_graph()
        with pytest.raises(CoverError) as e:
            load_cover("1 99\n2 98\n", g.label_map())
        assert "98" in str(e.value) and "99" in str(e.value)

    def test_zero_communities(self):
        g = four_node_graph()
        with pytest.raises(CoverError):
            load_cover("# nothing\n", g.label_map())

    def test_membership_index_inverse_consistency(self):
        rng = random.Random(17)
        for _ in range(10):
            sets = random_cover_sets(rng, 40, 50)
            c = Cover.from_sets(sets)
            idx = c.membership_index
            # full re-scan: node u in community ci iff ci in idx[u]
            for ci, comm in enumerate(c.communities):
                for u in range(40):
                    assert (u in comm) == (ci in idx.get(u, frozenset()))


class TestMesoscopicProfile:
    def test_example(self):
        c = Cover.from_sets([{1, 2, 3}, {3, 4}])
        p = mesoscopic_profile(c)
        assert sorted(p.community_sizes.samples) == [2, 3]
        assert sorted(p.memberships.samples) == [1, 1, 1, 2]
        assert p.overlap_sizes.samples == (1,)
        assert p.community_count == 2 and p.max_size == 3
        assert p.avg_size == 2.5

    def test_disjoint_partition(self):
        c = Cover.from_sets([{0, 1}, {2, 3}, {4}])
        p = mesoscopic_profile(c)
        assert p.overlap_sizes is None
        assert set(p.memberships.samples) == {1}

    def test_random_matches_pairwise_oracle(self):
        rng = random.Random(23)
        for _ in range(10):
            sets = random_cover_sets(rng, 100, 30)
            p = mesoscopic_profile(Cover.from_sets(sets))
            sizes, members, overlaps = brute_mesoscopic([frozenset(s) for s in sets])
            assert sorted(p.community_sizes.samples) == sizes
            assert sorted(p.memberships.samples) == members
            got_overlaps = sorted(p.overlap_sizes.samples) if p.overlap_sizes else []
            assert got_overlaps == overlaps

    def test_arbitrary_ids_match_pairwise_oracle(self):
        rng = random.Random(29)
        for _ in range(10):
            sets = arbitrary_ids(rng, random_cover_sets(rng, 100, 30))
            p = mesoscopic_profile(Cover.from_sets(sets))
            sizes, members, overlaps = brute_mesoscopic([frozenset(s) for s in sets])
            assert sorted(p.community_sizes.samples) == sizes
            assert sorted(p.memberships.samples) == members
            got_overlaps = sorted(p.overlap_sizes.samples) if p.overlap_sizes else []
            assert got_overlaps == overlaps

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_size_membership_balance(self, seed):
        rng = random.Random(seed)
        sets = random_cover_sets(rng, rng.randint(3, 50), rng.randint(1, 20))
        p = mesoscopic_profile(Cover.from_sets(sets))
        assert sum(p.community_sizes.samples) == sum(p.memberships.samples)


class TestCommunityGraph:
    def test_chain_example(self):
        c = Cover.from_sets([{1, 2, 3}, {3, 4, 5}, {5, 6}])
        cg = build_community_graph(c)
        assert not cg.degenerate
        assert cg.graph.n == 3 and cg.graph.edge_count == 2
        assert cg.full_edges == {(0, 1), (1, 2)}

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
        assert len(cg.full_edges) == 3

    def test_matches_algorithm1_oracle(self):
        rng = random.Random(31)
        for _ in range(20):
            sets = random_cover_sets(rng, 60, rng.randint(2, 40))
            c = Cover.from_sets(sets)
            got = community_graph_edges(c)
            want = algorithm1_community_graph([set(s) for s in sets])
            assert set(got) == want

    def test_arbitrary_ids_match_algorithm1_oracle(self):
        rng = random.Random(33)
        for _ in range(20):
            sets = arbitrary_ids(rng, random_cover_sets(rng, 60, rng.randint(2, 40)))
            got = community_graph_edges(Cover.from_sets(sets))
            assert set(got) == algorithm1_community_graph(sets)

    def test_overlap_count_equals_pre_pruning_edges(self):
        rng = random.Random(37)
        for _ in range(10):
            sets = random_cover_sets(rng, 50, 15)
            c = Cover.from_sets(sets)
            p = mesoscopic_profile(c)
            n_overlaps = p.overlap_sizes.n if p.overlap_sizes else 0
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


class TestCoverValidation:
    def test_empty_community_rejected(self):
        with pytest.raises(CoverError):
            Cover.from_sets([set()])

    def test_no_communities_rejected(self):
        with pytest.raises(CoverError):
            Cover.from_sets([])

    def test_restricted_to(self):
        c = Cover.from_sets([{0, 1, 2}, {3, 4}])
        r = c.restricted_to(frozenset({0, 1, 3}))
        assert r.communities == (frozenset({0, 1}), frozenset({3}))
        with pytest.raises(CoverError):
            c.restricted_to(frozenset({99}))
