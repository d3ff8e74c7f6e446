import random

import numpy as np
import pytest

from covereval.cover import Cover, CoverError
from covereval.graph import Graph, GraphError
from covereval.quality import _mean, overlapping_modularity, quality_report

from gen import random_graph, random_partition
from oracles import exact_sum, newman_modularity, scan_quality


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def two_triangles():
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def one_community(g, s):
    return quality_report(g, Cover.from_sets([s]))


class TestCommunityStats:
    """A community's counts, read through a one-community `quality_report`:
    AD is 2 m_s / n_s and OM is m_s/|E| - ((2 m_s + e_out) / (2|E|))^2."""

    def test_k4_whole(self):
        qr = one_community(complete_graph(4), {0, 1, 2, 3})
        assert qr["AD"] == 2 * 6 / 4  # n_s = 4, m_s = 6
        assert qr["MO"] == qr["AO"] == 0.0  # every out fraction is 0
        assert qr["OM"] == 6 / 6 - ((2 * 6 + 0) / 12) ** 2  # e_out = 0

    def test_triangle_in_k4(self):
        qr = one_community(complete_graph(4), {0, 1, 2})
        assert qr["AD"] == 2 * 3 / 3  # n_s = 3, m_s = 3
        assert qr["MO"] == 1 / 3  # every out fraction is 1/3
        assert qr["OM"] == 3 / 6 - ((2 * 3 + 3) / 12) ** 2  # e_out = 3

    def test_outside_node_rejected(self):
        with pytest.raises(GraphError):
            one_community(complete_graph(4), {0, 7})
        with pytest.raises(CoverError):
            one_community(complete_graph(4), set())

    def test_random_matches_edge_scan(self):
        rng = random.Random(41)
        for _ in range(15):
            n = rng.randint(4, 25)
            g, edges = random_graph(rng, n, 0.3)
            if g.edge_count == 0:
                continue
            s = set(rng.sample(range(n), rng.randint(1, n)))
            qr = one_community(g, s)
            m_s = sum(1 for u, v in edges if u in s and v in s)
            e_out = sum((u in s) + (v in s)
                        for u, v in edges if (u in s) != (v in s))
            m = len(edges)
            assert qr["AD"] == 2 * m_s / len(s)
            assert qr["OM"] == m_s / m - ((2 * m_s + e_out) / (2 * m)) ** 2


class TestScoreFunctions:
    """Each of the five scores of a one-community cover, which is its
    cover-level mean."""

    def test_k4(self):
        qr = one_community(complete_graph(4), {0, 1, 2, 3})
        assert qr["AD"] == 3.0
        assert qr["ID"] == 1.0
        assert qr["MO"] == qr["AO"] == qr["FO"] == 0.0

    def test_triangle_in_k4(self):
        qr = one_community(complete_graph(4), {0, 1, 2})
        assert qr["AD"] == 2.0
        assert qr["ID"] == 1.0
        assert qr["MO"] == pytest.approx(1 / 3)
        assert qr["AO"] == pytest.approx(1 / 3)
        assert qr["FO"] == 0.0  # intra 2 > 3/2 for every member

    def test_single_node_of_k4(self):
        qr = one_community(complete_graph(4), {0})
        assert qr["AD"] == 0.0
        assert qr["ID"] == 0.0
        assert qr["MO"] == 1.0 and qr["FO"] == 1.0

    def test_avg_degree_complete(self):
        for n in range(2, 21):
            assert one_community(complete_graph(n), set(range(n)))["AD"] == n - 1


class TestOverlappingModularity:
    def test_whole_graph_cover_is_zero(self):
        rng = random.Random(43)
        for _ in range(5):
            g, _ = random_graph(rng, rng.randint(3, 15), 0.5)
            if g.edge_count == 0:
                continue
            c = Cover.from_sets([set(range(g.n))])
            assert overlapping_modularity(g, c) == 0.0

    def test_two_disjoint_triangles(self):
        g = two_triangles()
        c = Cover.from_sets([{0, 1, 2}, {3, 4, 5}])
        assert overlapping_modularity(g, c) == pytest.approx(0.5, abs=1e-12)

    def test_partition_equals_newman(self):
        rng = random.Random(47)
        done = 0
        while done < 20:
            n = rng.randint(4, 20)
            g, edges = random_graph(rng, n, 0.4)
            if g.edge_count == 0:
                continue
            blocks = random_partition(rng, n, rng.randint(2, 4))
            cover = Cover.from_sets(blocks)
            labels = {u: bi for bi, b in enumerate(blocks) for u in b}
            want = newman_modularity(n, edges, labels)
            assert overlapping_modularity(g, cover) == pytest.approx(want, abs=1e-12)
            done += 1

    def test_edgeless_rejected(self):
        with pytest.raises(GraphError):
            overlapping_modularity(Graph(3, []), Cover.from_sets([{0}]))

    def test_quality_report_reuses_it_exactly(self):
        rng = random.Random(61)
        for _ in range(10):
            n = rng.randint(5, 25)
            g, _ = random_graph(rng, n, 0.3)
            if g.edge_count == 0:
                continue
            cover = Cover.from_sets([set(rng.sample(range(n), rng.randint(1, n)))
                                     for _ in range(rng.randint(1, 6))])
            assert quality_report(g, cover)["OM"] == overlapping_modularity(g, cover)

    def test_quality_report_edgeless_rejected(self):
        with pytest.raises(GraphError):
            quality_report(Graph(3, []), Cover.from_sets([{0}]))


class TestQualityReport:
    def test_duplicate_community_equals_single(self):
        g = complete_graph(4)
        single = quality_report(g, Cover.from_sets([{0, 1, 2}]))
        double = quality_report(g, Cover.from_sets([{0, 1, 2}, {0, 1, 2}]))
        for key in ("AD", "AO", "FO", "ID", "MO"):
            assert single[key] == double[key]

    def test_schema(self):
        g = complete_graph(4)
        d = quality_report(g, Cover.from_sets([{0, 1}, {2, 3}]))
        assert sorted(d) == ["AD", "AO", "FO", "ID", "MO", "OM"]

    def test_random_matches_recomputation(self):
        rng = random.Random(53)
        for _ in range(10):
            n = rng.randint(5, 20)
            g, edges = random_graph(rng, n, 0.4)
            if g.edge_count == 0:
                continue
            sets = [set(rng.sample(range(n), rng.randint(1, n)))
                    for _ in range(rng.randint(1, 5))]
            rep = quality_report(g, Cover.from_sets(sets))
            # independent recomputation from the raw edge set
            ad = ao = fo = idn = mo = 0.0
            for s in sets:
                m_s = sum(1 for u, v in edges if u in s and v in s)
                fracs, bad = [], 0
                for u in s:
                    nbrs = [v for a, b in edges for u2, v in ((a, b), (b, a))
                            if u2 == u]
                    d = len(nbrs)
                    din = sum(1 for v in nbrs if v in s)
                    fracs.append((d - din) / d if d else 0.0)
                    bad += din < d / 2
                ad += 2 * m_s / len(s)
                idn += m_s / (len(s) * (len(s) - 1) / 2) if len(s) > 1 else 0.0
                mo += max(fracs)
                ao += sum(fracs) / len(s)
                fo += bad / len(s)
            k = len(sets)
            assert rep["AD"] == pytest.approx(ad / k, abs=1e-12)
            assert rep["ID"] == pytest.approx(idn / k, abs=1e-12)
            assert rep["MO"] == pytest.approx(mo / k, abs=1e-12)
            assert rep["AO"] == pytest.approx(ao / k, abs=1e-12)
            assert rep["FO"] == pytest.approx(fo / k, abs=1e-12)

    def test_equals_member_scan_exactly(self):
        # isolated nodes, singletons, duplicate and whole-graph communities; a
        # member of many communities, a community without an inner edge and a
        # hub adjacent to every node, so that each inner edge, found from its
        # lower end, is counted at both ends
        rng = random.Random(67)
        done = 0
        while done < 40:
            n = rng.randint(2, 40)
            g, edges = random_graph(rng, n, rng.choice([0.05, 0.2, 0.6]))
            if rng.random() < 0.5:
                hub = rng.randrange(n)
                edges |= {(min(hub, v), max(hub, v)) for v in range(n) if v != hub}
                g = Graph(n, sorted(edges))
            if g.edge_count == 0:
                continue
            sets = [set(rng.sample(range(n), rng.randint(1, n)))
                    for _ in range(rng.randint(1, 8))]
            shared = rng.randrange(n)
            sets += [s | {shared} for s in sets]
            apart: set[int] = set()
            for u in rng.sample(range(n), n):
                if all((min(u, v), max(u, v)) not in edges for v in apart):
                    apart.add(u)
            sets += [set(sets[0]), set(range(n)), {rng.randrange(n)}, apart]
            assert quality_report(g, Cover.from_sets(sets)) == scan_quality(
                n, edges, sets)
            for s in sets:
                assert quality_report(g, Cover.from_sets([s])) == scan_quality(
                    n, edges, [s])
            done += 1

    def test_relabeling_invariance(self):
        rng = random.Random(59)
        g, edges = random_graph(rng, 12, 0.4)
        perm = list(range(12))
        rng.shuffle(perm)
        g2 = Graph(12, [(perm[u], perm[v]) for u, v in edges])
        sets = [set(rng.sample(range(12), 5)) for _ in range(3)]
        sets2 = [{perm[u] for u in s} for s in sets]
        a = quality_report(g, Cover.from_sets(sets))
        b = quality_report(g2, Cover.from_sets(sets2))
        for key in a:
            assert a[key] == pytest.approx(b[key], abs=1e-12)


def test_mean_is_correctly_rounded():
    # the exact sum 1.0 in every order; left to right gives 0.0 or 1.0
    for terms in ([1e16, 1.0, -1e16], [1e16, -1e16, 1.0], [1.0, -1e16, 1e16]):
        assert _mean(np.array(terms)) == exact_sum(terms) / 3 == 1 / 3
