"""Ground-truth comparison metrics for covers: Omega index, overlapping
NMI (max-normalized), and best-match F1."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .cover import Cover, CoverError
from .graph import expand, find_sorted, row_of

# _conditional_entropy takes its K1 x K2 table this many entries at a time
ONMI_BLOCK_ENTRIES = 1 << 16
# overlapping NMI, omega index and best-match F1, by their report names
CLUSTERING_PROPS = ("NMI", "OI", "F1-score")


def common_universe(c1: Cover, c2: Cover) -> tuple[Cover, Cover]:
    """The two covers over the same node ids: as given when their ids are
    equal, else both restricted to the ids they share."""
    if np.array_equal(c1.nodes, c2.nodes):
        return c1, c2
    common = np.intersect1d(c1.nodes, c2.nodes, assume_unique=True)
    if not len(common):
        raise CoverError("covers share no nodes")
    dropped = np.setxor1d(c1.nodes, c2.nodes, assume_unique=True).tolist()
    warnings.warn(f"covers restricted to common universe; dropped nodes {dropped[:20]}"
                  + ("..." if len(dropped) > 20 else ""))
    return c1.restricted_to(common), c2.restricted_to(common)


def _contingency(c1: Cover, c2: Cover) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair (k, l) of a community of `c1` and one of `c2` that share
    a node, by k, then l, and |C1_k & C2_l|: the pairs of each node's
    communities in the two covers, counted. The covers' node ids must be
    equal."""
    ptr1, comm1 = c1.transposed()
    ptr2, comm2 = c2.transposed()
    node = row_of(ptr1)
    first, second = expand(ptr2[node], np.diff(ptr2)[node])
    width = len(c2.sizes)
    codes, counts = np.unique(comm1[first] * width + comm2[second], return_counts=True)
    return codes // width, codes % width, counts


def omega_index(c1: Cover, c2: Cover) -> float:
    """Chance-corrected agreement on per-pair co-membership multiplicity.
    Pairs never co-clustered in either cover are handled by complement
    counting, never materializing all n(n-1)/2 pairs. `c2` is the
    reference: its pairs are built once and kept for the next candidate."""
    c1, c2 = common_universe(c1, c2)
    n = len(c1.nodes)
    if n < 2:
        raise CoverError("need at least 2 nodes")
    m_pairs = n * (n - 1) // 2

    pairs1, m1 = c1.co_memberships()
    pairs2, m2 = c2.reference_pairs()
    at, found = find_sorted(pairs2, pairs1)  # each pair of c1 among c2's
    # a pair listed by one cover only has differing counts
    agree = int(np.count_nonzero(m1[found] == m2[at[found]]))
    omega_u = (m_pairs - (len(m1) + len(m2) - int(found.sum()) - agree)) / m_pairs

    # pairs per multiplicity, the t_0 class by subtraction; Python ints,
    # because the products below overflow int64 on large universes
    size1 = np.bincount(m1, minlength=1).tolist()
    size2 = np.bincount(m2, minlength=1).tolist()
    size1[0] = m_pairs - len(m1)
    size2[0] = m_pairs - len(m2)
    omega_e = sum(a * b for a, b in zip(size1, size2)) / (m_pairs ** 2)

    if omega_e == 1.0:
        if omega_u == 1.0:
            return 1.0
        raise CoverError("degenerate covers: expected agreement is 1")
    return (omega_u - omega_e) / (1 - omega_e)


def _entropy_table(n: int) -> np.ndarray:
    """-w/n log2(w/n) for each count w = 0..n of n nodes, 0 at w = 0; by
    math.log2, which np.log2 need not match in the last bit."""
    p = np.arange(1, n + 1) / n
    return np.concatenate(([0.0], -p * np.fromiter(map(math.log2, p.tolist()), float, n)))


def _entropies(h: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """H(X) of each community indicator of the given sizes, from `h`."""
    return h[sizes] + h[len(h) - 1 - sizes]


def _conditional_entropy(h: np.ndarray, sizes_x: np.ndarray, sizes_y: np.ndarray,
                         overlap: np.ndarray) -> float:
    """Sum over communities X_k of min_l H*(X_k|Y_l), falling back to
    H(X_k). `overlap[k, l]` is |X_k & Y_l|. H*(X|Y) is the joint entropy of
    the two binary indicators minus H(Y), admitted only when the
    information-theoretic constraint h(a)+h(d) >= h(b)+h(c) holds. Rows go in
    blocks of `ONMI_BLOCK_ENTRIES` entries, or one row; `math.fsum` adds the row minima."""
    n = len(h) - 1
    hy = _entropies(h, sizes_y)
    best = _entropies(h, sizes_x)
    block = max(1, ONMI_BLOCK_ENTRIES // len(sizes_y))
    for start in range(0, len(sizes_x), block):
        size_x = sizes_x[start:start + block, None]
        d = np.ascontiguousarray(overlap[start:start + block])  # table.T has strided rows
        ha = h[n - size_x - sizes_y + d]    # in neither
        hb = h[sizes_y - d]                 # only in y
        hc = h[size_x - d]                  # only in x
        hd = h[d]                           # in both
        terms = np.where(ha + hd >= hb + hc, ha + hb + hc + hd - hy, np.inf)
        np.minimum(best[start:start + block], terms.min(axis=1), out=best[start:start + block])
    return math.fsum(best.tolist())


def onmi_max(c1: Cover, c2: Cover) -> float:
    """Overlapping NMI normalized by the larger cover entropy (McDaid et
    al.'s max-normalization over binary community indicators)."""
    c1, c2 = common_universe(c1, c2)
    h = _entropy_table(len(c1.nodes))
    sizes1, sizes2 = c1.sizes, c2.sizes
    h1 = math.fsum(_entropies(h, sizes1).tolist())
    h2 = math.fsum(_entropies(h, sizes2).tolist())
    if h1 == 0.0 and h2 == 0.0:
        return 1.0  # every community of both covers is the whole universe

    rows, cols, counts = _contingency(c1, c2)
    table = np.zeros((len(sizes1), len(sizes2)), dtype=np.int64)
    table[rows, cols] = counts
    mutual = 0.5 * ((h1 - _conditional_entropy(h, sizes1, sizes2, table))
                    + (h2 - _conditional_entropy(h, sizes2, sizes1, table.T)))
    return mutual / max(h1, h2)


def _best_f1(sizes_s: np.ndarray, sizes_t: np.ndarray, rows: np.ndarray,
             cols: np.ndarray, tp: np.ndarray) -> float:
    """Mean best-match F1 from source communities to target communities;
    `tp[i]` = |S_rows[i] & T_cols[i]| > 0, every other pair is disjoint. A
    community's best match is its target of highest F1; one that meets no
    target scores 0."""
    prec = tp / sizes_s[rows]
    rec = tp / sizes_t[cols]
    best = np.zeros(len(sizes_s))
    np.maximum.at(best, rows, 2 * prec * rec / (prec + rec))
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
