"""Local per-property rankings and their aggregation: Kemeny consensus,
TOPSIS, and Spearman rank-correlation matrices."""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .distfit import FitError, FittedDistribution, best_fit, fit_mle
from .graph import EmpiricalDistribution

KEMENY_EXACT_LIMIT = 16  # an exact table at m = 16: ~0.05 s, ~25 MB (2-vCPU VM); x2-3 per +1


class RankingError(ValueError):
    pass


def competition_ranks(scores: Sequence[float], ascending: bool = True) -> list[int]:
    """Competition ('1224') ranking: ties share the minimum rank and the
    following ranks are skipped."""
    keys = list(scores) if ascending else [-s for s in scores]
    order = sorted(keys)
    return [bisect_left(order, k) + 1 for k in keys]


class _RankingTableFields(NamedTuple):
    alternatives: tuple[str, ...]
    criteria: tuple[str, ...]
    ranks: tuple[tuple[int, ...], ...]  # ranks[alt][criterion]


class RankingTable(_RankingTableFields):
    """A table of ranks, checked when it is constructed."""

    __slots__ = ()

    def __new__(cls, alternatives, criteria, ranks):
        self = super().__new__(cls, alternatives, criteria, ranks)
        m = len(self.alternatives)
        for kind, names in (("alternative", self.alternatives), ("criterion", self.criteria)):
            repeated = sorted({x for x in names if names.count(x) > 1})
            if repeated:
                raise RankingError(f"repeated {kind} names: {repeated}")
        if len(self.ranks) != m:
            raise RankingError("rank row count must match alternatives")
        for row in self.ranks:
            if len(row) != len(self.criteria):
                raise RankingError("rank column count must match criteria")
            if any(not 1 <= r <= m for r in row):
                raise RankingError(f"ranks must lie in [1, {m}]")
        return self

    @classmethod
    def _make(cls, iterable) -> "RankingTable":
        """The table of these values, checked; `_replace` builds through it."""
        return cls(*iterable)

    def matrix(self) -> np.ndarray:
        return np.array(self.ranks, dtype=float)

    @classmethod
    def from_columns(cls, alternatives: Sequence[str],
                     columns: Mapping[str, Sequence[int]]) -> "RankingTable":
        crits = tuple(columns)
        rows = tuple(
            tuple(int(columns[c][i]) for c in crits)
            for i in range(len(alternatives))
        )
        return cls(tuple(alternatives), crits, rows)


def rank_scalar(reference: Mapping[str, float],
                candidates: Mapping[str, Mapping[str, float | None]]) -> dict[str, list[int]]:
    """Per property, rank candidates by ascending Manhattan distance to the
    reference value: {property: the candidates' ranks, in candidate order},
    the properties in reference order. A missing value (None, a failed
    property) ranks last."""
    alternatives = tuple(candidates)
    columns: dict[str, list[int]] = {}
    for prop, ref in reference.items():
        if not math.isfinite(ref):
            raise RankingError(f"non-finite reference value for {prop!r}")
        dists = []
        for alt in alternatives:
            val = candidates[alt][prop]
            if val is None:
                dists.append(math.inf)
            elif not math.isfinite(val):
                raise RankingError(f"non-finite value for {alt!r} on {prop!r}")
            else:
                dists.append(abs(ref - val))
        columns[prop] = competition_ranks(dists, ascending=True)
    return columns


class DistributionRanking(NamedTuple):
    ranks: dict[str, int]
    family: str
    reference_fit: FittedDistribution
    candidate_ks: dict[str, float | None]  # None = family inapplicable


def rank_distribution(reference: EmpiricalDistribution,
                      candidates: Mapping[str, EmpiricalDistribution | None]
                      ) -> DistributionRanking:
    """Select the best-fitting family on the reference samples, fit that
    family to each candidate's own samples, and rank by ascending KS.
    Candidates without samples (None) or that the family cannot fit have
    KS None and are ranked last."""
    report = best_fit(reference)
    family = report.best.family
    ks: dict[str, float | None] = {}
    for name, samples in candidates.items():
        try:
            ks[name] = None if samples is None else fit_mle(family, samples).ks
        except FitError:
            ks[name] = None
    ranks = competition_ranks([math.inf if v is None else v for v in ks.values()],
                              ascending=True)
    return DistributionRanking(
        ranks=dict(zip(candidates, ranks)),
        family=family.value,
        reference_fit=report.best,
        candidate_ks=ks,
    )


class KemenyResult(NamedTuple):
    order: tuple[str, ...]   # best to worst
    ranks: dict[str, int]
    score: int
    exact: bool


def _pairwise_preference(rt: RankingTable) -> np.ndarray:
    """P[a][b] = number of criteria ranking a strictly above (better than) b."""
    r = np.array(rt.ranks)
    return (r[:, None, :] < r[None, :, :]).sum(axis=2)


def _order_score(order: Sequence[int], p: np.ndarray) -> int:
    return int(np.triu(p[np.ix_(order, order)], 1).sum())


def _exact_kemeny(p: np.ndarray) -> list[int]:
    """The lexicographically smallest order of maximum score, by dynamic
    programming over subsets (Betzler et al., "Fixed-parameter algorithms for
    Kemeny rankings", TCS 2009): best[S] is the highest score of the set S."""
    m = len(p)
    cols = np.arange(m)
    bits = (np.arange(1 << m)[:, None] >> cols) & 1
    gain = bits @ p.T  # gain[S, a]: a placed before every member of S
    level = bits.sum(axis=1)
    best = np.zeros(1 << m, dtype=np.int64)
    for k in range(1, m + 1):
        sets = np.flatnonzero(level == k)
        rest = sets[:, None] ^ (1 << cols)  # S without a, for each a in S
        best[sets] = np.where(bits[sets] == 1, gain[rest, cols] + best[rest], -1).max(axis=1)
    # from the front, the smallest a that keeps the optimum reachable
    order, s = [], (1 << m) - 1
    while s:
        a = next(a for a in range(m) if s >> a & 1
                 and gain[s ^ 1 << a, a] + best[s ^ 1 << a] == best[s])
        order.append(a)
        s ^= 1 << a
    return order


def kemeny_consensus(rt: RankingTable) -> KemenyResult:
    """Ordering maximizing total pairwise agreement with the criterion
    rankings. Exact up to KEMENY_EXACT_LIMIT alternatives, lexicographic name
    tiebreak; beyond that a deterministic adjacent-swap hill climb restarted
    from every cyclic rotation of the mean-rank order."""
    m = len(rt.alternatives)
    if m == 0:
        raise RankingError("empty ranking table")
    p = _pairwise_preference(rt)
    if m <= KEMENY_EXACT_LIMIT:
        by_name = sorted(range(m), key=lambda i: rt.alternatives[i])
        order = [by_name[a] for a in _exact_kemeny(p[np.ix_(by_name, by_name)])]
    else:
        mean_ranks = rt.matrix().mean(axis=1)
        start = sorted(range(m), key=lambda i: (mean_ranks[i], rt.alternatives[i]))
        climbs = []
        for rot in range(m):
            cur = start[rot:] + start[:rot]
            improved = True
            while improved:
                improved = False
                for i in range(m - 1):
                    a, b = cur[i], cur[i + 1]
                    if p[b, a] > p[a, b]:  # the swap adds p[b, a] - p[a, b]
                        cur[i], cur[i + 1] = b, a
                        improved = True
            climbs.append(cur)
        # the first best climb; the first climb starts at `start` and only goes up
        order = max(climbs, key=lambda o: _order_score(o, p))
    names = tuple(rt.alternatives[i] for i in order)
    return KemenyResult(order=names, ranks={name: pos + 1 for pos, name in enumerate(names)},
                        score=_order_score(order, p), exact=m <= KEMENY_EXACT_LIMIT)


class TopsisResult(NamedTuple):
    closeness: dict[str, float]
    ranks: dict[str, int]


def topsis(rt: RankingTable) -> TopsisResult:
    """The ranks as equal-weight cost criteria (a lower rank is better):
    vector-normalize, weight, and rank by relative closeness to the ideal
    solution, each column's minimum; its maximum is the anti-ideal. Ranks
    are at least 1, so no column norm is 0."""
    m, k = len(rt.alternatives), len(rt.criteria)
    if m < 2 or k < 1:
        raise RankingError("need at least 2 alternatives and 1 criterion")
    x = rt.matrix()
    y = x / np.sqrt((x ** 2).sum(axis=0)) * (1.0 / k)
    d_plus = np.sqrt(((y - y.min(axis=0)) ** 2).sum(axis=1))
    d_minus = np.sqrt(((y - y.max(axis=0)) ** 2).sum(axis=1))
    denom = d_plus + d_minus
    closeness = np.where(denom == 0, 0.5, d_minus / np.where(denom == 0, 1.0, denom))
    ranks = competition_ranks(list(closeness), ascending=False)
    return TopsisResult(
        closeness=dict(zip(rt.alternatives, (float(c) for c in closeness))),
        ranks=dict(zip(rt.alternatives, ranks)),
    )


def spearman_matrix(rt: RankingTable) -> np.ndarray:
    """Pairwise Spearman correlation of criterion rank columns (Pearson on
    ranks, tie-corrected); constant columns yield NaN entries."""
    if len(rt.alternatives) < 3:
        raise RankingError("need at least 3 alternatives")
    # criteria x alternatives, each row contiguous, so that every sum over
    # the alternatives is numpy's pairwise sum of one row
    r = np.ascontiguousarray(rt.matrix().T)
    c = r - r.mean(axis=1)[:, None]
    var = (c ** 2).sum(axis=1)
    with np.errstate(invalid="ignore"):  # 0 / 0 where a column is constant
        return (c[:, None] * c[None]).sum(axis=2) / np.sqrt(np.outer(var, var))
