import math
import random
import warnings

import numpy as np
import pytest

from covereval import cover as cover_module, pipeline
from covereval.clustering import (
    _best_f1, _entropies, _entropy_table, clustering_scores, f1_best_match, omega_index,
    onmi_max,
)
from covereval.cover import Cover, CoverError
from covereval.pipeline import RunConfig, run

from gen import arbitrary_ids, random_cover_sets, random_partition
from oracles import (
    adjusted_rand_index, brute_f1, brute_omega, brute_onmi, exact_sum, scalar_best_f1,
    scalar_onmi,
)


def cover(*sets):
    return Cover.from_sets([set(s) for s in sets])


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
            want = brute_omega(*covers)
            if math.isnan(want):
                with pytest.raises(CoverError):
                    omega_index(*map(Cover.from_sets, covers))
            else:
                assert omega_index(*map(Cover.from_sets, covers)) == want, i

    def test_random_matches_brute_force(self):
        rng = random.Random(61)
        for _ in range(30):
            n = rng.randint(4, 25)
            s1 = random_cover_sets(rng, n, rng.randint(1, 8))
            s2 = random_cover_sets(rng, n, rng.randint(1, 8))
            s1.append(set(range(n)))  # force the same universe
            s2.append(set(range(n)))
            got = omega_index(Cover.from_sets(s1), Cover.from_sets(s2))
            assert got == brute_omega([set(x) for x in s1], [set(x) for x in s2])

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

    def test_tiny_universe_rejected(self):
        with pytest.raises(CoverError):
            omega_index(cover({0}), cover({0}))


def restricted(sets, ids):
    """The non-empty parts of `sets` inside `ids`, as `common_universe` keeps them."""
    return [s & ids for s in sets if s & ids]


class TestReferencePairs:
    """`omega_index` builds the reference's co-member pairs once and keeps
    them on it; a restricted reference is a new cover with its own."""

    def test_truth_pairs_built_once_per_run(self, tmp_path, monkeypatch):
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

        pair_lists = []  # the indptr of each cover whose pairs are listed
        real_row_pairs = cover_module.row_pairs
        monkeypatch.setattr(cover_module, "row_pairs", lambda indptr, indices: (
            pair_lists.append(indptr), real_row_pairs(indptr, indices))[1])
        loaded = []
        real_load_cover = pipeline.load_cover
        monkeypatch.setattr(pipeline, "load_cover", lambda *args: (
            loaded.append(real_load_cover(*args)), loaded[-1])[1])
        oi = {name: scores["OI"] for name, scores in run(cfg).data["clustering"].items()}

        # three candidates over the truth's ids, one over fewer
        assert sum(p is loaded[0].indptr for p in pair_lists) == 1
        for name, sets in candidates.items():
            ids = set().union(*sets) & set(range(n))
            assert oi[name] == brute_omega(sets, restricted(truth, ids))

    def test_restricted_reference_has_its_own_pairs(self):
        rng = random.Random(43)
        n = 30
        sets = random_cover_sets(rng, n, 5) + [set(range(n))]
        truth = Cover.from_sets(sets)
        full = random_cover_sets(rng, n, 4) + [set(range(n))]
        assert omega_index(Cover.from_sets(full), truth) == brute_omega(full, sets)
        kept = truth.reference_pairs()
        ids = set(range(4, n))
        fewer = restricted(random_cover_sets(rng, n, 4), ids) + [ids]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the restriction to shared ids
            got = omega_index(Cover.from_sets(fewer), truth)
            scores = clustering_scores(Cover.from_sets(fewer), truth)
        assert got == scores["OI"] == brute_omega(fewer, restricted(sets, ids))
        assert truth.reference_pairs() is kept


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
    def test_blocks_equal_scalar_formulas_exactly(self, monkeypatch, entries):
        # one row per block, and 7 // 3 = 2 rows of a 5 x 3 table per block:
        # blocks of 2, 2 and 1 rows (the transposed table: 7 // 5 = 1 row)
        from covereval import clustering
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
        monkeypatch.setattr(clustering, "ONMI_BLOCK_ENTRIES", entries)
        for s1, s2 in cases:
            assert onmi_max(Cover.from_sets(s1), Cover.from_sets(s2)) == scalar_onmi(s1, s2)


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


class TestUniverseHandling:
    def test_restriction_warns(self):
        c1 = cover({0, 1, 2})
        c2 = cover({1, 2, 3})
        with pytest.warns(UserWarning):
            v = omega_index(c1, c2)
        assert v == 1.0  # on {1, 2} both covers agree completely

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
            prec, rec = tp / sizes_s[rows], tp / sizes_t[cols]
            terms = (2 * prec * rec / (prec + rec)).tolist()
            differ += exact_sum(terms) != left_to_right(terms)
            assert _best_f1(sizes_s, sizes_t, rows, cols, tp) == exact_sum(terms) / k
            # the source communities in another order
            perm = np.array(rng.sample(range(k), k))
            moved = np.empty_like(sizes_s)
            moved[perm] = sizes_s
            assert _best_f1(moved, sizes_t, perm[rows], cols, tp) == exact_sum(terms) / k
        assert differ >= 10
