"""Ground-truth comparison metrics for covers: Omega index, overlapping
NMI (max-normalized), and best-match F1."""

from __future__ import annotations

import functools
import math
import warnings
from typing import Sequence

import numpy as np

from .cover import Cover, CoverError
from .graph import expand, find_sorted, read_only

# overlapping NMI, omega index and best-match F1, by their report names
CLUSTERING_PROPS = ("NMI", "OI", "F1-score")


def common_universe(c1: Cover, c2: Cover, labels: Sequence[str] | None = None
                    ) -> tuple[Cover, Cover]:
    """The two covers over the same node ids: as given when their ids are
    equal, else both restricted to the ids they share, with a warning that
    names the dropped nodes, sorted, by their `labels` where given."""
    if np.array_equal(c1.nodes, c2.nodes):
        return c1, c2
    common = np.intersect1d(c1.nodes, c2.nodes, assume_unique=True)
    if not len(common):
        raise CoverError("covers share no nodes")
    dropped = np.setxor1d(c1.nodes, c2.nodes, assume_unique=True).tolist()
    if labels is not None:
        dropped = sorted(labels[u] for u in dropped)
    warnings.warn(f"covers restricted to common universe; dropped nodes {dropped[:20]}"
                  + ("..." if len(dropped) > 20 else ""))
    return c1.restricted_to(common), c2.restricted_to(common)


def _contingency(c1: Cover, c2: Cover) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair (k, l) of a community of `c1` and one of `c2` that share
    a node, by k, then l, and |C1_k & C2_l|: each incidence of `c1` paired
    with its node's communities in `c2`, counted. The covers' node ids must
    be equal."""
    ptr2, comm2 = c2.transposed
    first, second = expand(ptr2[c1.indices], np.diff(ptr2)[c1.indices])
    width = len(c2.sizes)
    codes, counts = np.unique(c1.rows[first] * width + comm2[second], return_counts=True)
    return codes // width, codes % width, counts


def _multiplicities(c: Cover, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """How many communities of `c` hold each node pair (i, j): how many of
    the communities of its node of fewer communities hold the other."""
    ptr, comm = c.transposed
    n = len(c.nodes)
    degree = np.diff(ptr)
    u = np.where(degree[j] < degree[i], j, i)
    v = i + j - u  # the other endpoint
    pair, at = expand(ptr[u], degree[u])
    _, held = find_sorted(c.codes, comm[at] * n + v[pair])
    return np.bincount(pair[held], minlength=len(i))


def _pair_classes(c: Cover, m: np.ndarray, m_pairs: int) -> list[int]:
    """How many of the `m_pairs` node pairs 0, 1, 2, ... communities of `c`
    hold, from `m`, the multiplicities of the heavy pairs: 2 or more
    counted among them, the co-member pairs as Sum_k C(|C_k|, 2) less the
    heavy pairs' surplus, and 0 by complement. Python ints, because the
    products of omega's expected agreement overflow int64 on large
    universes."""
    heavier = np.bincount(m)[2:].tolist()
    sizes = c.sizes
    members = int((sizes * (sizes - 1) // 2).sum()) - int(np.maximum(m - 1, 0).sum())
    return [m_pairs - members, members - sum(heavier), *heavier]


def omega_index(c1: Cover, c2: Cover) -> float:
    """Chance-corrected agreement on per-pair co-membership multiplicity:
    (P A - sum a_t b_t) / (P^2 - sum a_t b_t) of the P node pairs, A of them
    agreeing, and a_t, b_t of multiplicity t in each cover; 1.0 where the
    denominator is 0. The counts are sums over the communities and the
    contingency, corrected on the heavy pairs, those that two or more
    communities of either cover hold; every other pair is held by at most
    one community of each. Only the heavy pairs are listed, found inside
    the overlap sets, never all P pairs nor every co-member pair. Every sum
    is of int64 terms, exact below 2^63."""
    c1, c2 = common_universe(c1, c2)
    n = len(c1.nodes)
    if n < 2:
        raise CoverError("need at least 2 nodes")
    m_pairs = n * (n - 1) // 2

    heavy = np.sort(np.concatenate((c1.heavy_pairs, c2.heavy_pairs)))
    heavy = heavy[np.diff(heavy, prepend=-1) != 0]
    i, j = np.divmod(heavy, n)
    m1, m2 = _multiplicities(c1, i, j), _multiplicities(c2, i, j)
    size1, size2 = _pair_classes(c1, m1, m_pairs), _pair_classes(c2, m2, m_pairs)

    # Sum_p m1(p) m2(p) = Sum_kl C(|C1_k & C2_l|, 2); off the heavy pairs
    # each term is 1 where both covers hold the pair, once each, else 0
    _, _, cells = _contingency(c1, c2)
    light = int((cells * (cells - 1) // 2).sum()) - int((m1 * m2).sum())
    both = light + int(np.count_nonzero(m1 * m2))  # pairs both covers hold
    same = light + int(np.count_nonzero(m1 == m2))  # ... equally often
    # the pairs neither cover holds, by inclusion-exclusion, and `same`
    agree = size1[0] + size2[0] - m_pairs + both + same
    expected = sum(a * b for a, b in zip(size1, size2))
    # expected = m_pairs^2 only where every pair has one multiplicity in both
    # covers, and then agree = m_pairs
    spread = m_pairs * m_pairs - expected
    return (m_pairs * agree - expected) / spread if spread else 1.0


@functools.lru_cache(maxsize=1)
def _entropy_table(n: int) -> np.ndarray:
    """-w/n log2(w/n) for each count w = 0..n of n nodes, 0 at w = 0; by
    math.log2, which np.log2 need not match in the last bit. The last
    universe size's table is kept, read-only: every candidate of a run
    reads the same one."""
    p = np.arange(1, n + 1) / n
    return read_only(np.concatenate(
        ([0.0], -p * np.fromiter(map(math.log2, p.tolist()), float, n))))[0]


def _entropies(h: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """H(X) of each community indicator of the given sizes, from `h`."""
    return h[sizes] + h[len(h) - 1 - sizes]


def _terms(h: np.ndarray, size_x: np.ndarray, size_y: np.ndarray, d) -> np.ndarray:
    """H*(X|Y) of communities of sizes `size_x` and `size_y` sharing `d` nodes:
    their joint entropy minus H(Y) where h(a)+h(d) >= h(b)+h(c), else inf."""
    ha = h[len(h) - 1 - size_x - size_y + d]    # in neither
    hb = h[size_y - d]                          # only in y
    hc = h[size_x - d]                          # only in x
    hd = h[d]                                   # in both
    return np.where(ha + hd >= hb + hc, ha + hb + hc + hd - _entropies(h, size_y), np.inf)


def _conditional_entropy(h: np.ndarray, x: Cover, y: Cover, rows: np.ndarray,
                         cols: np.ndarray, overlap: np.ndarray) -> float:
    """Sum over communities X_k of `x` of min_l H*(X_k|Y_l) over those of
    `y`, falling back to H(X_k), by `math.fsum`. `overlap[i]` = |X_rows[i] &
    Y_cols[i]| > 0; any other pair is disjoint, its term set by the two
    sizes alone: one term per size pair, taken for each Y size with a
    community that X_k misses."""
    sizes_x, sizes_y = x.sizes, y.sizes
    best = _entropies(h, sizes_x)
    np.minimum.at(best, rows, _terms(h, sizes_x[rows], sizes_y[cols], overlap))
    xs, x_of, _ = x.size_classes
    ys, y_of, y_count = y.size_classes
    # |X| + |Y| > n wraps the index of h, but every Y of that size meets X
    disjoint = _terms(h, xs[:, None], ys, 0)[x_of]
    met = np.bincount(rows * len(ys) + y_of[cols], minlength=len(sizes_x) * len(ys))
    missed = met.reshape(len(sizes_x), len(ys)) < y_count
    np.minimum(best, np.where(missed, disjoint, np.inf).min(axis=1), out=best)
    return math.fsum(best.tolist())


def onmi_max(c1: Cover, c2: Cover) -> float:
    """Overlapping NMI normalized by the larger cover entropy (McDaid et
    al.'s max-normalization over binary community indicators)."""
    c1, c2 = common_universe(c1, c2)
    h = _entropy_table(len(c1.nodes))
    h1 = math.fsum(_entropies(h, c1.sizes).tolist())
    h2 = math.fsum(_entropies(h, c2.sizes).tolist())
    if h1 == 0.0 and h2 == 0.0:
        return 1.0  # every community of both covers is the whole universe

    rows, cols, counts = _contingency(c1, c2)
    mutual = 0.5 * ((h1 - _conditional_entropy(h, c1, c2, rows, cols, counts))
                    + (h2 - _conditional_entropy(h, c2, c1, cols, rows, counts)))
    return mutual / max(h1, h2)


def _best_f1(sizes_s: np.ndarray, sizes_t: np.ndarray, rows: np.ndarray,
             cols: np.ndarray, tp: np.ndarray) -> float:
    """Mean best-match F1 from source communities to target communities;
    `tp[i]` = |S_rows[i] & T_cols[i]| > 0, every other pair is disjoint. A
    pair's F1 is 2 tp / (|S| + |T|), one division of exact integers; a
    community's best match is its target of highest F1, and one that meets
    no target scores 0."""
    best = np.zeros(len(sizes_s))
    np.maximum.at(best, rows, 2 * tp / (sizes_s[rows] + sizes_t[cols]))
    return math.fsum(best.tolist()) / len(sizes_s)


def f1_best_match(detected: Cover, truth: Cover) -> float:
    """Best-overlap matching of detected communities to truth communities:
    the mean best-match F1 of both matching directions, averaged."""
    detected, truth = common_universe(detected, truth)
    sizes_d = detected.sizes
    sizes_t = truth.sizes
    rows, cols, tp = _contingency(detected, truth)
    return 0.5 * (_best_f1(sizes_d, sizes_t, rows, cols, tp)
                  + _best_f1(sizes_t, sizes_d, cols, rows, tp))


def clustering_scores(cover: Cover, truth: Cover) -> dict[str, float]:
    """The three metrics of `cover` against `truth`, keyed by
    `CLUSTERING_PROPS`. The pair is restricted to its common ids once, so
    each metric reads it as is."""
    cover, truth = common_universe(cover, truth)
    return dict(zip(CLUSTERING_PROPS, (onmi_max(cover, truth), omega_index(cover, truth),
                                       f1_best_match(cover, truth))))
