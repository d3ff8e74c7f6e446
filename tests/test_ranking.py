import math
import random
import re

import numpy as np
import pytest

from covereval.graph import EmpiricalDistribution
from covereval.ranking import (
    KEMENY_EXACT_LIMIT, RankingError, RankingTable, competition_ranks,
    kemeny_consensus, rank_distribution, rank_scalar, spearman_matrix, topsis,
)

from oracles import brute_kemeny, full_rescore_climb, per_pair_spearman, spreadsheet_topsis


def table(alts, cols):
    return RankingTable.from_columns(alts, cols)


class TestCompetitionRanks:
    def test_plain(self):
        assert competition_ranks([3.0, 1.0, 2.0]) == [3, 1, 2]

    def test_ties_share_min_and_skip(self):
        assert competition_ranks([1.0, 2.0, 2.0, 4.0]) == [1, 2, 2, 4]

    def test_descending(self):
        assert competition_ranks([3.0, 1.0, 2.0], ascending=False) == [1, 3, 2]

    @pytest.mark.parametrize("ascending", [True, False])
    def test_equals_index_definition(self, ascending):
        # the rank is one plus the first position of the score in sorted order
        rng = random.Random(233)
        for _ in range(200):
            pool = [math.inf, -math.inf, 0.0, -0.0] + [rng.uniform(-5, 5) for _ in range(3)]
            scores = [rng.choice(pool) if rng.random() < 0.5 else rng.randint(-3, 3)
                      for _ in range(rng.randint(1, 12))]
            order = sorted(scores, reverse=not ascending)
            assert (competition_ranks(scores, ascending)
                    == [order.index(s) + 1 for s in scores])


class TestRankScalar:
    def test_example(self):
        ranks = rank_scalar({"p": 10.0}, {"A": {"p": 9.0}, "B": {"p": 12.0},
                                          "C": {"p": 10.0}})
        assert ranks == {"p": [2, 3, 1]}

    def test_all_equal_tie(self):
        assert rank_scalar({"p": 5.0}, {"A": {"p": 7.0}, "B": {"p": 7.0}}) == {"p": [1, 1]}

    def test_shift_invariance(self):
        cand = {"A": {"p": 3.0}, "B": {"p": 8.0}, "C": {"p": 5.5}}
        base = rank_scalar({"p": 6.0}, cand)
        shifted = rank_scalar(
            {"p": 106.0},
            {k: {"p": v["p"] + 100.0} for k, v in cand.items()})
        assert base == shifted

    def test_non_finite_rejected(self):
        with pytest.raises(RankingError):
            rank_scalar({"p": math.nan}, {"A": {"p": 1.0}})
        with pytest.raises(RankingError):
            rank_scalar({"p": 1.0}, {"A": {"p": math.inf}})

    def test_missing_value_ranks_last(self):
        ranks = rank_scalar({"p": 5.0, "q": 1.0},
                            {"A": {"p": None, "q": 1.0}, "B": {"p": 100.0, "q": None},
                             "C": {"p": None, "q": 2.0}, "D": {"p": 5.0, "q": 1.0}})
        assert list(ranks.items()) == [("p", [3, 2, 3, 1]), ("q", [1, 4, 3, 1])]


class TestRankDistribution:
    def test_reference_copy_ranks_first(self):
        rng = np.random.default_rng(163)
        u = rng.random(800)
        ref = (1 - u) ** (-1 / 1.4)
        cands = {
            "self": EmpiricalDistribution(ref),
            "noisy": EmpiricalDistribution(ref * rng.uniform(0.5, 2.0, 800)),
            "shifted": EmpiricalDistribution(ref + 5.0),
        }
        dr = rank_distribution(EmpiricalDistribution(ref), cands)
        assert dr.ranks["self"] == 1
        assert dr.family == dr.reference_fit.family.value

    def test_identical_candidates_tie(self):
        rng = np.random.default_rng(167)
        x = list(rng.exponential(1.0, 200))
        ref = EmpiricalDistribution(x)
        cands = {"a": ref, "b": ref}
        dr = rank_distribution(ref, cands)
        assert dr.ranks["a"] == dr.ranks["b"] == 1


    def test_missing_and_unfittable_rank_last(self):
        rng = np.random.default_rng(173)
        ref = EmpiricalDistribution(rng.exponential(1.0, 200))
        cands = {
            "none": None,
            "self": ref,
            "short": EmpiricalDistribution([1.0, 2.0, 3.0]),  # FitError
            "shifted": EmpiricalDistribution(rng.exponential(1.0, 200) + 3.0),
        }
        dr = rank_distribution(ref, cands)
        assert dr.candidate_ks["none"] is None and dr.candidate_ks["short"] is None
        assert dr.ranks == {"none": 3, "self": 1, "short": 3, "shifted": 2}


class TestKemeny:
    def test_unanimity(self):
        rt = table(["A", "B", "C"], {"c1": [1, 2, 3], "c2": [1, 2, 3],
                                     "c3": [1, 2, 3]})
        assert kemeny_consensus(rt).order == ("A", "B", "C")

    def test_condorcet_cycle_matches_brute_force(self):
        cols = {"c1": [1, 2, 3], "c2": [3, 1, 2], "c3": [2, 3, 1]}
        rt = table(["A", "B", "C"], cols)
        got = kemeny_consensus(rt)
        order, score = brute_kemeny(["A", "B", "C"], cols)
        assert got.order == order and got.score == score and got.exact

    def test_random_tables_match_brute_force(self):
        rng = random.Random(173)
        for _ in range(25):
            m = rng.randint(2, 6)
            alts = [f"a{i}" for i in range(m)]
            cols = {}
            for ci in range(rng.randint(1, 6)):
                perm = list(range(1, m + 1))
                rng.shuffle(perm)
                cols[f"c{ci}"] = perm
            got = kemeny_consensus(table(alts, cols))
            order, score = brute_kemeny(alts, cols)
            assert got.order == order and got.score == score

    def test_column_duplication_invariance(self):
        rng = random.Random(179)
        alts = ["A", "B", "C", "D"]
        cols = {}
        for ci in range(3):
            perm = [1, 2, 3, 4]
            rng.shuffle(perm)
            cols[f"c{ci}"] = perm
        doubled = {**cols, **{f"{k}_dup": v for k, v in cols.items()}}
        assert (kemeny_consensus(table(alts, cols)).order
                == kemeny_consensus(table(alts, doubled)).order)

    def test_score_lower_bound(self):
        rng = random.Random(181)
        alts = ["A", "B", "C", "D", "E"]
        cols = {}
        for ci in range(4):
            perm = [1, 2, 3, 4, 5]
            rng.shuffle(perm)
            cols[f"c{ci}"] = perm
        rt = table(alts, cols)
        res = kemeny_consensus(rt)
        # the consensus must score at least as well as any single column's
        # own ordering
        for name, col in cols.items():
            order = [a for _, a in sorted(zip(col, alts))]
            _, col_score = brute_kemeny(alts, cols)
            assert res.score == col_score  # brute optimum
            single = sum(
                sum(1 for j in range(i + 1, len(order))
                    if cols[c][alts.index(order[i])] < cols[c][alts.index(order[j])]
                    )
                for c in cols for i in range(len(order)))
            assert res.score >= single

    def test_heuristic_mode_flagged(self):
        rng = random.Random(191)
        m = KEMENY_EXACT_LIMIT + 2
        alts = [f"a{i:02d}" for i in range(m)]
        cols = {}
        for ci in range(3):
            perm = list(range(1, m + 1))
            rng.shuffle(perm)
            cols[f"c{ci}"] = perm
        res = kemeny_consensus(table(alts, cols))
        assert not res.exact
        assert sorted(res.order) == sorted(alts)

    def test_heuristic_equals_full_rescore_climb(self):
        # the swap test by score change makes the moves of re-scoring both
        # whole orders; half the columns hold tied ranks
        rng = random.Random(239)
        for m in range(KEMENY_EXACT_LIMIT + 1, KEMENY_EXACT_LIMIT + 9):
            alts = [f"a{rng.randrange(100):02d}{i}" for i in range(m)]
            cols = {}
            for ci in range(rng.randint(2, 6)):
                if ci % 2:
                    cols[f"c{ci}"] = [rng.randint(1, m) for _ in range(m)]
                else:
                    cols[f"c{ci}"] = rng.sample(range(1, m + 1), m)
            res = kemeny_consensus(table(alts, cols))
            assert not res.exact
            assert (res.order, res.score) == full_rescore_climb(alts, cols)


class TestTopsis:
    def test_cost_dominance(self):
        res = topsis(table(["A", "B"], {"c1": [1, 2], "c2": [1, 2]}))
        assert res.closeness["A"] == 1.0 and res.closeness["B"] == 0.0
        assert res.ranks == {"A": 1, "B": 2}

    def test_column_scaling_invariance(self):
        # doubling a column of ranks 1 and 2 keeps it a rank column
        rng = random.Random(193)
        for _ in range(10):
            cols = {c: [rng.randint(1, 4) for _ in range(4)] for c in ("y", "z")}
            halves = [rng.randint(1, 2) for _ in range(4)]
            small = topsis(table("ABCD", {"x": halves, **cols}))
            large = topsis(table("ABCD", {"x": [2 * r for r in halves], **cols}))
            assert large.ranks == small.ranks
            for name in "ABCD":
                assert large.closeness[name] == pytest.approx(small.closeness[name], abs=1e-15)

    def test_random_matches_spreadsheet_oracle(self):
        # tied ranks included: each column draws its ranks with replacement
        rng = random.Random(197)
        for _ in range(40):
            m, k = rng.randint(2, 9), rng.randint(1, 5)
            alts = [f"a{i}" for i in range(m)]
            cols = {f"c{j}": [rng.randint(1, m) for _ in range(m)] for j in range(k)}
            rt = table(alts, cols)
            got = topsis(rt)
            want = spreadsheet_topsis([list(row) for row in rt.ranks])
            for name, w in zip(alts, want):
                assert got.closeness[name] == pytest.approx(w, abs=1e-12)
            assert got.ranks == dict(zip(alts, competition_ranks(
                [got.closeness[a] for a in alts], ascending=False)))

    def test_all_tied_is_one_half(self):
        for m, k in ((2, 1), (5, 3)):
            alts = [f"a{i}" for i in range(m)]
            res = topsis(table(alts, {f"c{j}": [1] * m for j in range(k)}))
            assert spreadsheet_topsis([[1] * k] * m) == [0.5] * m
            assert res.closeness == dict.fromkeys(alts, 0.5)
            assert res.ranks == dict.fromkeys(alts, 1)

    def test_zero_norm_column_rejected(self):
        # ranks are at least 1, so no column that reaches topsis has norm 0
        with pytest.raises(RankingError):
            topsis(table(["A", "B"], {"c1": [0, 0]}))

    def test_needs_two_alternatives_and_a_criterion(self):
        for rt in (table(["A"], {"c1": [1]}), table(["A", "B"], {})):
            with pytest.raises(RankingError, match="at least 2 alternatives"):
                topsis(rt)

    def test_from_ranks_cost_orientation(self):
        rt = table(["A", "B", "C"], {"c1": [1, 2, 3], "c2": [1, 2, 3]})
        res = topsis(rt)
        assert res.ranks == {"A": 1, "B": 2, "C": 3}


class TestSpearman:
    def test_self_and_reversal(self):
        rt = table(["A", "B", "C", "D"],
                   {"c1": [1, 2, 3, 4], "c2": [1, 2, 3, 4],
                    "c3": [4, 3, 2, 1]})
        m = spearman_matrix(rt)
        assert m[0][1] == pytest.approx(1.0)
        assert m[0][2] == pytest.approx(-1.0)

    def test_symmetric_unit_diagonal(self):
        rng = random.Random(199)
        cols = {}
        for ci in range(4):
            perm = [1, 2, 3, 4, 5]
            rng.shuffle(perm)
            cols[f"c{ci}"] = perm
        m = spearman_matrix(table([f"a{i}" for i in range(5)], cols))
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 1.0)

    def test_constant_column_is_nan(self):
        rt = table(["A", "B", "C"], {"c1": [1, 2, 3], "c2": [1, 1, 1]})
        m = spearman_matrix(rt)
        assert math.isnan(m[0][1]) and math.isnan(m[1][1])

    def test_needs_three_alternatives(self):
        rt = table(["A", "B"], {"c1": [1, 2]})
        with pytest.raises(RankingError):
            spearman_matrix(rt)

    def test_equals_per_pair_loop_exactly(self):
        # bit for bit, NaN included, on tables with ties and constant
        # columns; numpy's pairwise sum unrolls from 8 terms on, so m runs
        # on both sides of it
        rng = random.Random(233)
        for _ in range(1000):
            m, k = rng.randint(3, 16), rng.randint(1, 25)
            cols = {}
            for j in range(k):
                kind = rng.random()
                if kind < 0.1:
                    cols[f"c{j}"] = [rng.randint(1, m)] * m
                elif kind < 0.5:
                    cols[f"c{j}"] = rng.sample(range(1, m + 1), m)
                else:
                    cols[f"c{j}"] = [rng.randint(1, m) for _ in range(m)]
            rt = table([f"a{i}" for i in range(m)], cols)
            want = per_pair_spearman([list(row) for row in rt.ranks])
            assert np.array_equal(spearman_matrix(rt), want, equal_nan=True)


class TestRankingTable:
    def test_rank_domain_enforced(self):
        with pytest.raises(RankingError):
            RankingTable(("A", "B"), ("c",), ((1,), (5,)))

    def test_shape_enforced(self):
        with pytest.raises(RankingError):
            RankingTable(("A", "B"), ("c",), ((1,),))

    @pytest.mark.parametrize("change, message", [
        ({"ranks": ((9,), (9,))}, "ranks must lie in [1, 2]"),
        ({"ranks": ((1,),)}, "rank row count must match alternatives"),
        ({"criteria": ("c", "d")}, "rank column count must match criteria"),
        ({"alternatives": ("A", "A")}, "repeated alternative names: ['A']"),
    ], ids=["domain", "rows", "columns", "repeated"])
    def test_make_and_replace_check_as_construction_does(self, change, message):
        # NamedTuple's `_replace` builds through `_make`, so neither gets
        # round the checks of `__new__`
        table = RankingTable(("A", "B"), ("c",), ((1,), (2,)))
        values = {**table._asdict(), **change}
        for build in (lambda: RankingTable(**values), lambda: RankingTable._make(values.values()),
                      lambda: table._replace(**change)):
            with pytest.raises(RankingError, match=re.escape(message)):
                build()
        swapped = table._replace(ranks=((2,), (1,)))
        assert type(swapped) is RankingTable and swapped.ranks == ((2,), (1,))
        assert RankingTable._make(swapped) == swapped

    def test_repeated_names_rejected(self):
        with pytest.raises(RankingError, match=r"repeated alternative names: \['A'\]"):
            RankingTable(("A", "B", "A"), ("c",), ((1,), (2,), (3,)))
        with pytest.raises(RankingError, match=r"repeated criterion names: \['c'\]"):
            RankingTable(("A", "B"), ("c", "d", "c"), ((1, 1, 2), (2, 2, 1)))
