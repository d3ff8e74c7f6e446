"""Ground-truth comparison metrics for covers: Omega index, overlapping
NMI (max-normalized), and best-match precision/recall/F1."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .cover import Cover, CoverError, incidence


def _common_universe(c1: Cover, c2: Cover) -> tuple[Cover, Cover, frozenset[int]]:
    u1, u2 = c1.universe, c2.universe
    if u1 == u2:
        return c1, c2, u1
    common = u1 & u2
    if not common:
        raise CoverError("covers share no nodes")
    dropped = sorted((u1 | u2) - common)
    warnings.warn(f"covers restricted to common universe; dropped nodes {dropped[:20]}"
                  + ("..." if len(dropped) > 20 else ""))
    return c1.restricted_to(common), c2.restricted_to(common), frozenset(common)


def _co_memberships(c: Cover, universe: frozenset[int]) -> sparse.csr_array:
    """Per node pair (i < j, columns of the sorted universe), the number of
    communities containing both; pairs that never co-occur are not stored."""
    b = incidence(c, universe)
    return sparse.triu(b.T @ b, k=1, format="csr")


def _contingency(c1: Cover, c2: Cover, universe: frozenset[int]) -> np.ndarray:
    """|X & Y| for every community X of c1 (rows) and Y of c2 (columns)."""
    return (incidence(c1, universe) @ incidence(c2, universe).T).toarray()


def omega_index(c1: Cover, c2: Cover) -> float:
    """Chance-corrected agreement on per-pair co-membership multiplicity.
    Pairs never co-clustered in either cover are handled by complement
    counting, never materializing all n(n-1)/2 pairs."""
    c1, c2, universe = _common_universe(c1, c2)
    n = len(universe)
    if n < 2:
        raise CoverError("need at least 2 nodes")
    m_pairs = n * (n - 1) // 2

    m1 = _co_memberships(c1, universe)
    m2 = _co_memberships(c2, universe)
    omega_u = (m_pairs - (m1 != m2).nnz) / m_pairs

    # pairs per multiplicity, the t_0 class by subtraction; Python ints,
    # because the products below overflow int64 on large universes
    size1 = np.bincount(m1.data, minlength=1).tolist()
    size2 = np.bincount(m2.data, minlength=1).tolist()
    size1[0] = m_pairs - m1.nnz
    size2[0] = m_pairs - m2.nnz
    omega_e = sum(a * b for a, b in zip(size1, size2)) / (m_pairs ** 2)

    if omega_e == 1.0:
        if omega_u == 1.0:
            return 1.0
        raise CoverError("degenerate covers: expected agreement is 1")
    return (omega_u - omega_e) / (1 - omega_e)


def _h(w: int, n: int) -> float:
    """Entropy contribution -w/n log2(w/n); 0 when w = 0."""
    if w <= 0:
        return 0.0
    p = w / n
    return -p * math.log2(p)


def _indicator_entropy(size: int, n: int) -> float:
    return _h(size, n) + _h(n - size, n)


def _cond_entropy_terms(size_x: int, size_y: int, d: int, n: int) -> float | None:
    """H*(X|Y) for two binary community indicators of sizes |X|, |Y| with
    |X & Y| = d, or None when the information-theoretic constraint
    h(a)+h(d) >= h(b)+h(c) is violated."""
    c = size_x - d          # only in x
    b = size_y - d          # only in y
    a = n - b - c - d       # in neither
    if _h(a, n) + _h(d, n) < _h(b, n) + _h(c, n):
        return None
    joint = _h(a, n) + _h(b, n) + _h(c, n) + _h(d, n)
    hy = _indicator_entropy(size_y, n)
    return joint - hy


def _conditional_entropy(sizes_x: list[int], sizes_y: list[int],
                         overlap: list[list[int]], n: int, normalized: bool) -> float:
    """Sum over communities X_k of min_l H*(X_k|Y_l), falling back to
    H(X_k); optionally each term is divided by H(X_k). `overlap[k][l]` is
    |X_k & Y_l|."""
    total = 0.0
    for size_x, row in zip(sizes_x, overlap):
        hx = _indicator_entropy(size_x, n)
        best = hx
        for size_y, d in zip(sizes_y, row):
            term = _cond_entropy_terms(size_x, size_y, d, n)
            if term is not None and term < best:
                best = term
        if normalized:
            total += best / hx if hx > 0 else 0.0
        else:
            total += best
    if normalized:
        total /= len(sizes_x)
    return total


def onmi_max(c1: Cover, c2: Cover, variant: str = "mcdaid") -> float:
    """Overlapping NMI normalized by the larger cover entropy. The default
    follows the max-normalization construction over binary community
    indicators; variant="lfk" uses per-community normalized conditional
    entropies inside the mutual information instead."""
    if variant not in ("mcdaid", "lfk"):
        raise ValueError("variant must be 'mcdaid' or 'lfk'")
    c1, c2, universe = _common_universe(c1, c2)
    n = len(universe)
    sizes1 = [len(x) for x in c1.communities]
    sizes2 = [len(y) for y in c2.communities]
    h1 = sum(_indicator_entropy(s, n) for s in sizes1)
    h2 = sum(_indicator_entropy(s, n) for s in sizes2)
    if h1 == 0.0 and h2 == 0.0:
        return 1.0 if set(c1.communities) == set(c2.communities) else 0.0

    table = _contingency(c1, c2, universe)
    overlap12, overlap21 = table.tolist(), table.T.tolist()
    if variant == "mcdaid":
        h1c2 = _conditional_entropy(sizes1, sizes2, overlap12, n, normalized=False)
        h2c1 = _conditional_entropy(sizes2, sizes1, overlap21, n, normalized=False)
        mutual = 0.5 * ((h1 - h1c2) + (h2 - h2c1))
        return mutual / max(h1, h2)
    # LFK-style: 1 - mean normalized conditional entropy, symmetrized by
    # the worse (max) direction
    n1 = _conditional_entropy(sizes1, sizes2, overlap12, n, normalized=True)
    n2 = _conditional_entropy(sizes2, sizes1, overlap21, n, normalized=True)
    return 1.0 - max(n1, n2)


@dataclass(frozen=True)
class MatchScores:
    precision: float
    recall: float
    f1: float


def _best_f1(sizes_s: list[int], sizes_t: list[int],
             overlap: list[list[int]]) -> tuple[float, float, float]:
    """Mean best-match precision, recall, F1 from source communities to
    target communities; `overlap[k][l]` is |S_k & T_l|."""
    ps, rs, fs = [], [], []
    for size_s, row in zip(sizes_s, overlap):
        best = (0.0, 0.0, 0.0)
        for size_t, tp in zip(sizes_t, row):
            if tp == 0:
                continue
            prec = tp / size_s
            rec = tp / size_t
            f1 = 2 * prec * rec / (prec + rec)
            if f1 > best[2]:
                best = (prec, rec, f1)
        ps.append(best[0])
        rs.append(best[1])
        fs.append(best[2])
    k = len(sizes_s)
    return sum(ps) / k, sum(rs) / k, sum(fs) / k


def f1_best_match(detected: Cover, truth: Cover) -> MatchScores:
    """Best-overlap matching of detected communities to truth communities.
    Precision and recall are the detected-side means; F1 averages both
    matching directions."""
    detected, truth, universe = _common_universe(detected, truth)
    sizes_d = [len(s) for s in detected.communities]
    sizes_t = [len(t) for t in truth.communities]
    table = _contingency(detected, truth, universe)
    p_d, r_d, f_d = _best_f1(sizes_d, sizes_t, table.tolist())
    _, _, f_t = _best_f1(sizes_t, sizes_d, table.T.tolist())
    return MatchScores(precision=p_d, recall=r_d, f1=0.5 * (f_d + f_t))
