import math
import random
import warnings

import pytest

from covereval.clustering import f1_best_match, omega_index, onmi_max
from covereval.cover import Cover, CoverError

from gen import arbitrary_ids, random_cover_sets, random_partition
from oracles import adjusted_rand_index, brute_f1, brute_omega, brute_onmi


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

    @pytest.mark.parametrize("variant", ["mcdaid", "lfk"])
    def test_matches_set_definition_oracle(self, variant):
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
            want = brute_onmi(s1, s2, variant)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the common-universe restriction
                got = onmi_max(Cover.from_sets(s1), Cover.from_sets(s2), variant)
            assert got == pytest.approx(want, abs=1e-12)

    def test_lfk_variant_identity(self):
        c = cover({0, 1}, {2, 3, 4})
        assert onmi_max(c, c, variant="lfk") == 1.0
        with pytest.raises(ValueError):
            onmi_max(c, c, variant="bogus")


class TestF1BestMatch:
    def test_identity(self):
        c = cover({0, 1}, {2, 3})
        m = f1_best_match(c, c)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_whole_universe_vs_two_halves(self):
        detected = cover(set(range(8)))
        truth = cover(set(range(4)), set(range(4, 8)))
        m = f1_best_match(detected, truth)
        assert m.precision == 0.5 and m.recall == 1.0
        assert m.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_random_matches_brute_force(self):
        rng = random.Random(83)
        for _ in range(20):
            n = rng.randint(4, 25)
            s1 = random_cover_sets(rng, n, rng.randint(1, 6)) + [set(range(n))]
            s2 = random_cover_sets(rng, n, rng.randint(1, 6)) + [set(range(n))]
            got = f1_best_match(Cover.from_sets(s1), Cover.from_sets(s2)).f1
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
            got = f1_best_match(Cover.from_sets(r1), Cover.from_sets(r2)).f1
            assert got == pytest.approx(brute_f1(r1, r2), abs=1e-12)

    def test_f1_bounds(self):
        rng = random.Random(89)
        for _ in range(10):
            n = rng.randint(4, 15)
            s1 = random_cover_sets(rng, n, 3) + [set(range(n))]
            s2 = random_cover_sets(rng, n, 3) + [set(range(n))]
            m = f1_best_match(Cover.from_sets(s1), Cover.from_sets(s2))
            assert 0.0 <= m.f1 <= 1.0


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
