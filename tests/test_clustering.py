import itertools
import math
import random
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covereval import clustering, cover as cover_module, graph as graph_module
from covereval.clustering import (
    _best_f1, _entropies, _entropy_table, clustering_scores, common_universe,
    f1_best_match, omega_index, onmi_max,
)
from covereval.cover import Cover, CoverError, _heavy_pairs
from covereval.graph import _triangles, row_pairs
from covereval.pipeline import RunConfig, run
from covereval.synthetic import planted_cover_network

from gen import arbitrary_ids, random_cover_sets, random_partition
from oracles import (
    adjusted_rand_index, brute_f1, brute_omega, brute_onmi, exact_sum, scalar_best_f1,
    scalar_onmi,
)
from test_golden import emitted_digests, perturbed, split_and_partial


def cover(*sets):
    return Cover.from_sets([set(s) for s in sets])


def restricted(sets, ids):
    """The non-empty parts of `sets` inside `ids`, as `common_universe` keeps them."""
    return [s & ids for s in sets if s & ids]


class TestOmegaIndex:
    def test_identical_covers(self):
        c = cover({0, 1, 2}, {2, 3})
        assert omega_index(c, c) == 1.0

    def test_singletons_vs_one_block(self):
        c1 = cover({0, 1, 2, 3})
        c2 = cover({0}, {1}, {2}, {3})
        want = brute_omega([{0, 1, 2, 3}], [{0}, {1}, {2}, {3}])
        assert omega_index(c1, c2) == want == 0.0
        # the cover with no co-member pairs on the other side
        assert omega_index(c2, c1) == brute_omega([{0}, {1}, {2}, {3}], [{0, 1, 2, 3}]) == 0.0

    def test_many_singletons_match_brute_force(self):
        # covers with few or no co-member pairs: a pair of one cover past the
        # last pair of the other, or with none to be found in
        rng = random.Random(131)
        for i in range(60):
            n = rng.randint(2, 20)
            covers = []
            for _ in range(2):
                sets = [{u} for u in range(n)]
                if rng.random() < 0.7:
                    sets += random_cover_sets(rng, n, rng.randint(1, 3), max_size=3)
                rng.shuffle(sets)
                covers.append(sets)
            assert omega_index(*map(Cover.from_sets, covers)) == brute_omega(*covers), i

    def test_random_matches_brute_force(self):
        # covers over one universe; pairs that three or more communities of
        # both covers hold; a community repeated verbatim; one node in every
        # community; partitions, which no pair is held twice in; covers over
        # different ids, restricted to the ones they share; and pairs of
        # nodes in many communities each that share exactly two, or one
        rng = random.Random(61)
        for i in range(105):
            n = rng.randint(4, 25)
            s1 = random_cover_sets(rng, n, rng.randint(1, 8)) + [set(range(n))]
            s2 = random_cover_sets(rng, n, rng.randint(1, 8)) + [set(range(n))]
            kind = i % 7
            if kind == 1:
                block = set(rng.sample(range(n), rng.randint(2, 4)))
                for s in (s1, s2):
                    s += [block | set(rng.sample(range(n), rng.randint(0, 4)))
                          for _ in range(rng.randint(3, 5))]
            elif kind == 2:
                s1 += [set(s1[0])] * rng.randint(1, 3)
                s2.append(set(s2[-2]))
            elif kind == 3:
                hub = rng.randrange(n)
                s1, s2 = ([c | {hub} for c in s] for s in (s1, s2))
            elif kind == 4:
                s1, s2 = (random_partition(rng, n, rng.randint(1, 5)) for _ in range(2))
            elif kind == 5:
                s2 = [{u + 2 for u in c} for c in s2]
            elif kind == 6:
                ends = rng.sample(range(n), 4)
                others = [u for u in range(n) if u not in ends]
                s1, s2 = ([c - set(ends) for c in s if c - set(ends)] for s in (s1, s2))
                for s in (s1, s2):
                    for a, b in (ends[:2], ends[2:]):
                        s += [{a, b} | set(rng.sample(others, min(len(others), 3)))
                              for _ in range(rng.randint(1, 2))]
                        s += [{u} | set(rng.sample(others, min(len(others), 3)))
                              for u in (a, b) for _ in range(rng.randint(2, 5))]
            ids = set().union(*s1) & set().union(*s2)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the restriction to shared ids
                got = omega_index(Cover.from_sets(s1), Cover.from_sets(s2))
            assert got == brute_omega(restricted(s1, ids), restricted(s2, ids)), i

    def test_symmetry(self):
        rng = random.Random(67)
        for _ in range(20):
            n = rng.randint(4, 20)
            s1 = random_cover_sets(rng, n, 4) + [set(range(n))]
            s2 = random_cover_sets(rng, n, 4) + [set(range(n))]
            c1, c2 = Cover.from_sets(s1), Cover.from_sets(s2)
            assert abs(omega_index(c1, c2) - omega_index(c2, c1)) <= 1e-12

    def test_equals_ari_on_partitions(self):
        rng = random.Random(71)
        for _ in range(15):
            n = rng.randint(5, 20)
            b1 = random_partition(rng, n, rng.randint(2, 4))
            b2 = random_partition(rng, n, rng.randint(2, 4))
            l1 = [next(i for i, b in enumerate(b1) if u in b) for u in range(n)]
            l2 = [next(i for i, b in enumerate(b2) if u in b) for u in range(n)]
            got = omega_index(Cover.from_sets(b1), Cover.from_sets(b2))
            assert got == pytest.approx(adjusted_rand_index(l1, l2), abs=1e-12)

    def test_arbitrary_ids_match_brute_force(self):
        # negative ids and ids >= 2**40 are columns found by search, never indices
        rng = random.Random(101)
        for _ in range(30):
            n = rng.randint(4, 25)
            s1 = random_cover_sets(rng, n, rng.randint(1, 8)) + [set(range(n))]
            s2 = random_cover_sets(rng, n, rng.randint(1, 8)) + [set(range(n))]
            renamed = arbitrary_ids(rng, s1 + s2)
            r1, r2 = renamed[:len(s1)], renamed[len(s1):]
            got = omega_index(Cover.from_sets(r1), Cover.from_sets(r2))
            assert got == brute_omega(r1, r2)
            assert got == omega_index(Cover.from_sets(s1), Cover.from_sets(s2))

    def test_run_scores_candidates_against_restricted_truths(self, tmp_path):
        # three candidates over the truth's ids, one over fewer
        rng = random.Random(41)
        n = 40
        truth = random_cover_sets(rng, n, 6) + [set(range(n))]
        candidates = {f"c{i}": random_cover_sets(rng, n, 5) + [set(range(n))]
                      for i in range(3)}
        candidates["fewer"] = restricted(random_cover_sets(rng, n, 5), set(range(5, n)))
        edges = [(u, u + 1) for u in range(n - 1)] + [(u, (7 * u + 3) % n) for u in range(n)]
        (tmp_path / "net.txt").write_text("".join(f"{u} {v}\n" for u, v in edges))
        for name, sets in [("truth", truth), *candidates.items()]:
            (tmp_path / f"{name}.txt").write_text(
                "".join(" ".join(map(str, sorted(s))) + "\n" for s in sets))
        cfg = RunConfig(network_path=str(tmp_path / "net.txt"),
                        ground_truth_path=str(tmp_path / "truth.txt"),
                        candidates=tuple((name, str(tmp_path / f"{name}.txt"))
                                         for name in candidates),
                        property_groups=("clustering",))
        oi = {name: scores["OI"] for name, scores in run(cfg).data["clustering"].items()}
        for name, sets in candidates.items():
            ids = set().union(*sets) & set(range(n))
            assert oi[name] == brute_omega(sets, restricted(truth, ids))

    def test_restricted_reference_matches_brute_force(self):
        # the same truth scored whole, then restricted to a candidate's ids
        rng = random.Random(43)
        n = 30
        sets = random_cover_sets(rng, n, 5) + [set(range(n))]
        truth = Cover.from_sets(sets)
        full = random_cover_sets(rng, n, 4) + [set(range(n))]
        assert omega_index(Cover.from_sets(full), truth) == brute_omega(full, sets)
        ids = set(range(4, n))
        fewer = restricted(random_cover_sets(rng, n, 4), ids) + [ids]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the restriction to shared ids
            got = omega_index(Cover.from_sets(fewer), truth)
            scores = clustering_scores(Cover.from_sets(fewer), truth)
        assert got == scores["OI"] == brute_omega(fewer, restricted(sets, ids))

    def test_partitions_list_no_pair(self):
        # no pair of a partition is held twice, so no node pair is listed;
        # a list of every co-member pair of both, as int64 codes, would take
        # tens of MB here
        n = 2000
        halves = Cover([n // 2] * 2, np.arange(n))
        residues = Cover([n // 4] * 4, np.arange(n).reshape(-1, 4).T.ravel())
        tracemalloc.start()
        try:
            got = omega_index(halves, residues)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        labels = np.arange(n)
        assert got == pytest.approx(adjusted_rand_index((labels >= n // 2).tolist(),
                                                        (labels % 4).tolist()), abs=1e-12)
        assert peak < 2 * 2**20

    def test_heavy_pairs_list_no_more_than_multi_member_pairs(self, monkeypatch):
        # no more pair entries than among each community's nodes of two or
        # more communities: 100 identical 100-node communities, whose
        # overlap sets hold each pair C(100, 2) times, and a hub in every
        # community, over disjoint blocks that ten more communities cross
        listed = []

        def counting_row_pairs(indptr, indices):
            pairs = row_pairs(indptr, indices)
            listed.append(len(pairs[0]))
            return pairs

        monkeypatch.setattr(cover_module, "row_pairs", counting_row_pairs)
        rng = random.Random(79)
        identical = [set(range(100))] * 100
        hub = [{0} | set(range(1 + 20 * k, 21 + 20 * k)) for k in range(40)]
        hub += [{0} | set(rng.sample(range(1, 801), 20)) for _ in range(10)]
        for sets in (identical, hub):
            c = Cover.from_sets(sets)
            c.overlaps  # built first: its pairs of communities are not the ones counted
            listed.clear()
            heavy = _heavy_pairs(c)
            multi = {u for u in set().union(*sets) if sum(u in c for c in sets) >= 2}
            assert 0 < len(listed) and sum(listed) <= sum(math.comb(len(c & multi), 2)
                                                          for c in sets)
            held = Counter(p for c in sets for p in itertools.combinations(sorted(c), 2))
            n = len(set().union(*sets))  # ids 0..n-1, their own positions
            assert heavy.tolist() == sorted(u * n + v for (u, v), m in held.items() if m >= 2)

    def test_tiny_universe_rejected(self):
        with pytest.raises(CoverError):
            omega_index(cover({0}), cover({0}))


class TestOnmiMax:
    def test_identity(self):
        c = cover({0, 1}, {2, 3, 4})
        assert onmi_max(c, c) == 1.0

    def test_all_in_one_reference(self):
        c1 = cover({0, 1}, {2, 3})
        c2 = cover({0, 1, 2, 3})
        assert onmi_max(c1, c2) == 0.0
        assert onmi_max(c2, c1) == 0.0

    def test_crossed_halves_contingency_oracle(self):
        # X = {0,1},{2,3}; Y = {0,2},{1,3} over 4 nodes: every 2x2 table is
        # uniform (a=b=c=d=1), so H*(X|Y) = H(X) for every pair and the
        # mutual information vanishes.
        c1 = cover({0, 1}, {2, 3})
        c2 = cover({0, 2}, {1, 3})
        h = lambda w: -w / 4 * math.log2(w / 4) if w else 0.0
        joint = 4 * h(1)
        hx = h(2) + h(2)
        assert joint - hx == pytest.approx(hx)  # conditional = H(X): no info
        assert onmi_max(c1, c2) == 0.0

    def test_symmetry(self):
        rng = random.Random(73)
        for _ in range(30):
            n = rng.randint(4, 20)
            s1 = random_cover_sets(rng, n, rng.randint(1, 5)) + [set(range(n))]
            s2 = random_cover_sets(rng, n, rng.randint(1, 5)) + [set(range(n))]
            c1, c2 = Cover.from_sets(s1), Cover.from_sets(s2)
            assert abs(onmi_max(c1, c2) - onmi_max(c2, c1)) <= 1e-12

    def test_range(self):
        rng = random.Random(79)
        for _ in range(20):
            n = rng.randint(4, 15)
            s1 = random_cover_sets(rng, n, 4) + [set(range(n))]
            s2 = random_cover_sets(rng, n, 4) + [set(range(n))]
            v = onmi_max(Cover.from_sets(s1), Cover.from_sets(s2))
            assert 0.0 <= v <= 1.0 + 1e-12

    def test_matches_set_definition_oracle(self):
        # duplicate communities, universes that differ, arbitrary ids
        rng = random.Random(103)
        for i in range(40):
            n = rng.randint(4, 25)
            s1 = random_cover_sets(rng, n, rng.randint(1, 6))
            s2 = random_cover_sets(rng, n, rng.randint(1, 6))
            s1.append(set(s1[0]))
            s2.append(set(s2[-1]))
            if i % 2:
                renamed = arbitrary_ids(rng, s1 + s2)
                s1, s2 = renamed[:len(s1)], renamed[len(s1):]
            want = brute_onmi(s1, s2)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the common-universe restriction
                got = onmi_max(Cover.from_sets(s1), Cover.from_sets(s2))
            assert got == pytest.approx(want, abs=1e-12)

    def test_equals_scalar_formulas_exactly(self):
        # bit for bit, on partitions, duplicates and differing universes
        rng = random.Random(109)
        for i in range(150):
            n = rng.randint(2, 40)
            if i % 3 == 0:
                s1 = random_partition(rng, n, rng.randint(1, 5))
                s2 = random_partition(rng, n, rng.randint(1, 5))
            else:
                s1 = random_cover_sets(rng, n, rng.randint(1, 8))
                s2 = random_cover_sets(rng, n, rng.randint(1, 8))
                s1.append(set(s1[0]))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the common-universe restriction
                try:
                    got = onmi_max(Cover.from_sets(s1), Cover.from_sets(s2))
                except CoverError:
                    continue  # no common node, or the restriction emptied a cover
            assert got == scalar_onmi(s1, s2)

    def test_entropy_table_bit_for_bit(self):
        for n in (1, 2, 3, 7, 60, 997, 2000):
            want = [0.0] + [-(w / n) * math.log2(w / n) for w in range(1, n + 1)]
            got = _entropy_table(n)
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))

    @pytest.mark.parametrize("entries", [1, 7])
    def test_blocks_equal_scalar_formulas_exactly(self, entries):
        # covers of unequal community counts, each with the whole universe,
        # in both orders; each pair is checked as is and again with a block
        # of `entries` communities of one size added to the second cover, so
        # that with 7 a row meets some but not all communities of that size
        rng = random.Random(137)
        cases = []
        for i in range(40):
            n = rng.randint(4, 30)
            s1 = random_cover_sets(rng, n, 4) + [set(range(n))]
            s2 = random_cover_sets(rng, n, 2) + [set(range(n))]
            cases.append((s1, s2) if i % 2 else (s2, s1))
        for i in range(20):
            n = rng.randint(4, 30)
            cases.append((random_cover_sets(rng, n, rng.randint(1, 9)) + [set(range(n))],
                          random_cover_sets(rng, n, rng.randint(1, 9)) + [set(range(n))]))
        for s1, s2 in cases:
            assert onmi_max(Cover.from_sets(s1), Cover.from_sets(s2)) == scalar_onmi(s1, s2)
            n = len(s1[-1])
            size = rng.randint(1, n)
            s2 = s2 + [set(rng.sample(range(n), size)) for _ in range(entries)]
            assert onmi_max(Cover.from_sets(s1), Cover.from_sets(s2)) == scalar_onmi(s1, s2)

    def test_disjoint_pairs_equal_scalar_formulas_exactly(self):
        # a disjoint pair's term is computed once per pair of sizes and
        # taken only where the row misses a community of that size: a few
        # small sizes with several communities each, so rows meet some but
        # not all communities of one size, and some rows' minima come from
        # a disjoint pair; sometimes a size up to n, a repeat and the
        # universe, and the nodes left over as singletons
        def sized_cover(rng, n):
            sizes = rng.sample(range(1, n // 4), min(n // 4 - 1, rng.randint(1, 4)))
            sizes += [rng.randint(1, n)] * (rng.random() < 0.5)
            sets = [set(rng.sample(range(n), size))
                    for size in sizes for _ in range(rng.randint(1, 4))]
            sets += [set(rng.choice(sets))] + [set(range(n))] * (rng.random() < 0.3)
            return sets + [{u} for u in set(range(n)).difference(*sets)]

        def disjoint_minima(xs, ys):
            # rows whose minimum comes from a disjoint pair alone
            n = len(set().union(*xs))
            h = _entropy_table(n)
            count = 0
            for x in xs:
                terms = {True: [], False: [h[len(x)] + h[n - len(x)]]}
                for y in ys:
                    a, b, c, d = n - len(x | y), len(y - x), len(x - y), len(x & y)
                    if h[a] + h[d] >= h[b] + h[c]:
                        terms[d == 0].append(h[a] + h[b] + h[c] + h[d] - h[b + d] - h[a + c])
                count += min(terms[True], default=np.inf) < min(terms[False])
            return count

        rng = random.Random(149)
        decided = 0
        for _ in range(300):
            n = rng.randint(8, 40)
            s1, s2 = sized_cover(rng, n), sized_cover(rng, n)
            got = onmi_max(Cover.from_sets(s1), Cover.from_sets(s2))
            assert got == scalar_onmi(s1, s2)
            assert got == pytest.approx(brute_onmi(s1, s2), abs=1e-12)
            decided += disjoint_minima(s1, s2) + disjoint_minima(s2, s1)
        assert decided >= 50

    def test_many_communities_build_no_dense_table(self):
        # 3 000 communities a side over 6 000 nodes, each node in one pair
        # and one random community: a dense int64 K1 x K2 contingency would
        # take 72 MB
        n, k = 6000, 3000
        rng = np.random.default_rng(151)
        covers = []
        for _ in range(2):
            comm = np.concatenate((np.arange(n) // 2, rng.integers(k, size=n)))
            order = np.argsort(comm, kind="stable")
            covers.append(Cover(np.bincount(comm, minlength=k), np.tile(np.arange(n), 2)[order]))
        tracemalloc.start()
        try:
            got = onmi_max(*covers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < got < 1.0
        assert got == pytest.approx(onmi_max(*covers[::-1]), abs=1e-12)
        assert peak < 8 * 2**20


class TestF1BestMatch:
    def test_identity(self):
        c = cover({0, 1}, {2, 3})
        assert f1_best_match(c, c) == 1.0

    def test_whole_universe_vs_two_halves(self):
        detected = cover(set(range(8)))
        truth = cover(set(range(4)), set(range(4, 8)))
        # detected side: F1 2/3 (precision 1/2, recall 1); truth side: 2/3 each
        assert f1_best_match(detected, truth) == pytest.approx(2 / 3, abs=1e-12)

    def test_random_matches_brute_force(self):
        rng = random.Random(83)
        for _ in range(20):
            n = rng.randint(4, 25)
            s1 = random_cover_sets(rng, n, rng.randint(1, 6)) + [set(range(n))]
            s2 = random_cover_sets(rng, n, rng.randint(1, 6)) + [set(range(n))]
            got = f1_best_match(Cover.from_sets(s1), Cover.from_sets(s2))
            want = brute_f1([set(x) for x in s1], [set(x) for x in s2])
            assert got == pytest.approx(want, abs=1e-12)

    def test_arbitrary_ids_match_brute_force(self):
        rng = random.Random(107)
        for _ in range(20):
            n = rng.randint(4, 25)
            s1 = random_cover_sets(rng, n, rng.randint(1, 6)) + [set(range(n))]
            s2 = random_cover_sets(rng, n, rng.randint(1, 6)) + [set(range(n))]
            renamed = arbitrary_ids(rng, s1 + s2)
            r1, r2 = renamed[:len(s1)], renamed[len(s1):]
            got = f1_best_match(Cover.from_sets(r1), Cover.from_sets(r2))
            assert got == pytest.approx(brute_f1(r1, r2), abs=1e-12)

    def test_equals_scalar_loop_exactly(self):
        # bit for bit, on covers with duplicate communities and on differing
        # universes
        rng = random.Random(227)
        for i in range(150):
            n = rng.randint(2, 40)
            s1 = random_cover_sets(rng, n, rng.randint(1, 8))
            s2 = random_cover_sets(rng, n, rng.randint(1, 8))
            s1.append(set(s1[0]))
            s2 += [set(s2[-1])] * (i % 3)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the common-universe restriction
                try:
                    got = f1_best_match(Cover.from_sets(s1), Cover.from_sets(s2))
                except CoverError:
                    continue  # no common node
            common = set().union(*s1) & set().union(*s2)
            d = [c & common for c in s1 if c & common]
            t = [c & common for c in s2 if c & common]
            overlap = [[len(x & y) for y in t] for x in d]
            f_d = scalar_best_f1([len(x) for x in d], [len(y) for y in t], overlap)
            f_t = scalar_best_f1([len(y) for y in t], [len(x) for x in d],
                                 [list(col) for col in zip(*overlap)])
            assert got == 0.5 * (f_d + f_t)

    def test_best_match_equals_scalar_loop_on_tables(self):
        # contingencies with empty rows, repeated rows and columns and tied
        # F1s (small counts), the nonzeros passed in shuffled order
        rng = random.Random(229)
        for _ in range(300):
            k1, k2 = rng.randint(1, 9), rng.randint(1, 9)
            sizes_s = [rng.randint(1, 6) for _ in range(k1)]
            sizes_t = [rng.randint(1, 6) for _ in range(k2)]
            table = [[rng.randint(0, min(a, b)) if rng.random() < 0.6 else 0
                      for b in sizes_t] for a in sizes_s]
            if k1 > 1:
                table[-1] = list(table[0])
                sizes_s[-1] = sizes_s[0]
            table[rng.randrange(k1)] = [0] * k2
            cells = np.array([(r, c, tp) for r, row in enumerate(table)
                              for c, tp in enumerate(row) if tp], dtype=np.int64).reshape(-1, 3)
            rows, cols, tp = cells[rng.sample(range(len(cells)), len(cells))].T
            got = _best_f1(np.array(sizes_s), np.array(sizes_t), rows, cols, tp)
            assert got == scalar_best_f1(sizes_s, sizes_t, table)

    def test_f1_bounds(self):
        rng = random.Random(89)
        for _ in range(10):
            n = rng.randint(4, 15)
            s1 = random_cover_sets(rng, n, 3) + [set(range(n))]
            s2 = random_cover_sets(rng, n, 3) + [set(range(n))]
            assert 0.0 <= f1_best_match(Cover.from_sets(s1), Cover.from_sets(s2)) <= 1.0


@st.composite
def cover_pairs(draw) -> tuple[list[set[int]], list[set[int]]]:
    """Two covers drawn by Hypothesis over nodes 0..n-1, each of up to 8
    communities, which may repeat; their universes may differ."""
    node = st.integers(min_value=0, max_value=draw(st.integers(min_value=1, max_value=20)))
    community = st.sets(node, min_size=1)
    return tuple(draw(st.lists(community, min_size=1, max_size=8)) for _ in range(2))


class TestExactQuotients:
    """OI and every best-match F1 term are one division of exact integers,
    so they equal the Fraction oracles' values rounded once, bit for bit."""

    @given(cover_pairs())
    @settings(max_examples=150, deadline=None)
    def test_omega(self, case):
        s1, s2 = case
        ids = set().union(*s1) & set().union(*s2)
        assume(len(ids) >= 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the common-universe restriction
            got = omega_index(Cover.from_sets(s1), Cover.from_sets(s2))
        assert got == brute_omega(restricted(s1, ids), restricted(s2, ids))

    @given(cover_pairs())
    @settings(max_examples=150, deadline=None)
    def test_best_f1(self, case):
        s1, s2 = case
        ids = set().union(*s1) & set().union(*s2)
        assume(ids)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = f1_best_match(Cover.from_sets(s1), Cover.from_sets(s2))
        d, t = restricted(s1, ids), restricted(s2, ids)
        overlap = [[len(x & y) for y in t] for x in d]
        assert got == 0.5 * (scalar_best_f1([len(x) for x in d], [len(y) for y in t], overlap)
                             + scalar_best_f1([len(y) for y in t], [len(x) for x in d],
                                              [list(col) for col in zip(*overlap)]))


class TestUniverseHandling:
    def test_restriction_warns(self):
        c1 = cover({0, 1, 2})
        c2 = cover({1, 2, 3})
        with pytest.warns(UserWarning):
            v = omega_index(c1, c2)
        assert v == 1.0  # on {1, 2} both covers agree completely

    def test_restriction_warning_names_labels_sorted(self):
        # nodes 0, 2 and 3 are dropped; by id they would read d, b, a
        with pytest.warns(UserWarning, match=r"dropped nodes \['a', 'b', 'd'\]$"):
            common_universe(cover({0, 1, 2}), cover({1, 3}), ["d", "c", "b", "a"])
        with pytest.warns(UserWarning, match=r"dropped nodes \[0, 2, 3\]$"):
            common_universe(cover({0, 1, 2}), cover({1, 3}))

    def test_disjoint_universes_rejected(self):
        with pytest.raises(CoverError):
            omega_index(cover({0, 1}), cover({5, 6}))


def left_to_right(terms) -> float:
    """0.0 + terms[0] + terms[1] + ..., one addition at a time."""
    return float(np.cumsum([0.0, *terms])[-1])


class TestOrderFreeSums:
    """Each float sum over communities is the exact sum rounded once
    (`math.fsum`), so it depends neither on the order of the communities nor
    on the interpreter (`sum` compensates from Python 3.12). Most cases here
    are ones where a left-to-right sum would round differently."""

    def test_cover_entropies(self):
        rng = random.Random(251)
        differ = 0
        for _ in range(30):
            n = rng.randint(20, 60)
            s1 = random_cover_sets(rng, n, rng.randint(5, 30)) + [set(range(n))]
            s2 = random_cover_sets(rng, n, rng.randint(5, 30)) + [set(range(n))]
            h = _entropy_table(n)
            for s in (s1, s2):
                terms = _entropies(h, Cover.from_sets(s).sizes).tolist()
                differ += exact_sum(terms) != left_to_right(terms)
            want = scalar_onmi(s1, s2)
            assert onmi_max(Cover.from_sets(s1), Cover.from_sets(s2)) == want
            shuffled = [rng.sample(s, len(s)) for s in (s1, s2)]
            assert onmi_max(*(Cover.from_sets(s) for s in shuffled)) == want
        assert differ >= 10

    def test_best_f1(self):
        rng = random.Random(257)
        differ = 0
        for _ in range(30):
            k = rng.randint(10, 40)
            sizes_s = np.array([rng.randint(1, 50) for _ in range(k)])
            sizes_t = np.array([rng.randint(1, 50) for _ in range(k)])
            rows = np.arange(k)
            cols = np.array(rng.sample(range(k), k))
            tp = np.minimum(sizes_s[rows], sizes_t[cols])
            tp = np.array([rng.randint(1, t) for t in tp.tolist()])
            terms = [float(Fraction(2 * t, a + b)) for t, a, b in zip(
                tp.tolist(), sizes_s[rows].tolist(), sizes_t[cols].tolist())]
            differ += exact_sum(terms) != left_to_right(terms)
            assert _best_f1(sizes_s, sizes_t, rows, cols, tp) == exact_sum(terms) / k
            # the source communities in another order
            perm = np.array(rng.sample(range(k), k))
            moved = np.empty_like(sizes_s)
            moved[perm] = sizes_s
            assert _best_f1(moved, sizes_t, perm[rows], cols, tp) == exact_sum(terms) / k
        assert differ >= 10


class TestBuiltOnce:
    """What every candidate reads of the truth, the network or the universe
    is built once per run, and what a cover or graph keeps is built once,
    read-only, and equal to a fresh recomputation."""

    def test_run_builds_the_truths_parts_once(self, tmp_path, monkeypatch):
        # the golden instance: the truth, its copy and two perturbed covers,
        # all over the same ids; the entropy table is counted by its cache
        built = []

        def counting_heavy_pairs(c):
            built.append(c)
            return _heavy_pairs(c)

        monkeypatch.setattr(cover_module, "_heavy_pairs", counting_heavy_pairs)
        clustering._entropy_table.cache_clear()
        monkeypatch.chdir(tmp_path)
        emitted_digests(tmp_path, perturbed)
        assert len(built) == 4 and len({id(c) for c in built}) == 4
        assert clustering._entropy_table.cache_info()[:2] == (2, 1)  # hits, misses

    def test_run_counts_each_community_graphs_triangles_once(self, tmp_path, monkeypatch):
        # the transitivity (basic) and the clustering by degree (microscopic)
        # of each of the four community graphs read one triangle count
        counted = []

        def counting_triangles(g):
            counted.append(g)
            return _triangles(g)

        monkeypatch.setattr(graph_module, "_triangles", counting_triangles)
        monkeypatch.chdir(tmp_path)
        emitted_digests(tmp_path, perturbed, property_groups=("basic", "microscopic"))
        assert len(counted) == 4 and len({id(g) for g in counted}) == 4

    def test_kept_parts_equal_fresh_ones(self):
        def kept(read, *want):
            # two reads give the same read-only arrays, equal to `want`
            first, again = (x if isinstance(x, tuple) else (x,) for x in (read(), read()))
            assert all(a is b and not a.flags.writeable for a, b in zip(first, again))
            assert [a.tolist() for a in first] == [w.tolist() for w in want]

        graph, truth = planted_cover_network(n_nodes=400, n_communities=60, seed=7)
        kept(lambda: graph.degrees, np.diff(graph.indptr))
        kept(lambda: graph.upper_degrees, np.bincount(graph.edges()[:, 0], minlength=graph.n))
        adjacent = {tuple(e) for e in graph.edges().tolist()}
        neighbours = [graph.indices[lo:hi].tolist()
                      for lo, hi in zip(graph.indptr[:-1], graph.indptr[1:])]
        kept(lambda: graph.triangles, np.array([
            sum(pair in adjacent for pair in itertools.combinations(nb, 2)) for nb in neighbours]))
        kept(lambda: graph.degree_classes,
             *np.unique(np.diff(graph.indptr), return_inverse=True, return_counts=True))
        for c in (truth, *perturbed(truth).values(), *split_and_partial(truth).values()):
            n = len(c.nodes)
            sizes = np.diff(c.indptr)
            rows = np.repeat(np.arange(len(sizes)), sizes)
            kept(lambda: c.sizes, sizes)
            kept(lambda: c.rows, rows)
            kept(lambda: c.size_classes, *np.unique(sizes, return_inverse=True, return_counts=True))
            kept(lambda: c.codes, np.sort(rows * n + c.indices))
            b = np.zeros((len(sizes), n), dtype=np.int64)
            b[rows, c.indices] = 1
            co = b.T @ b  # each node pair's multiplicity
            u, v = np.triu_indices(n, k=1)
            heavy = co[u, v] >= 2
            kept(lambda: c.heavy_pairs, u[heavy] * n + v[heavy])
