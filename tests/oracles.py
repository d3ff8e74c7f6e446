"""Independent brute-force reference implementations used as test oracles.
These deliberately mirror definitions literally (nested loops, full
enumeration) rather than the library's optimized paths."""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations

import numpy as np
from scipy import stats


# ---------------------------------------------------------------- graphs

def floyd_warshall(n: int, edges: set[tuple[int, int]]) -> list[list[float]]:
    dist = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == math.inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def union_find_components(n: int, edges: set[tuple[int, int]]) -> list[set[int]]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    comps: dict[int, set[int]] = {}
    for x in range(n):
        comps.setdefault(find(x), set()).add(x)
    return list(comps.values())


def brute_basic_properties(n: int, edges: set[tuple[int, int]]) -> dict[str, float]:
    """All nine basic properties from first principles (Floyd-Warshall on
    the largest component, direct formulas elsewhere)."""
    deg = [0] * n
    adj = [set() for _ in range(n)]
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
        adj[u].add(v)
        adj[v].add(u)
    m = len(edges)
    comps = union_find_components(n, edges)
    giant = max(comps, key=lambda c: (len(c), -min(c)))
    gnodes = sorted(giant)
    gidx = {u: i for i, u in enumerate(gnodes)}
    gedges = {(gidx[u], gidx[v]) for u, v in edges if u in gidx and v in gidx}
    dist = floyd_warshall(len(gnodes), gedges)
    hops = [dist[i][j] for i in range(len(gnodes)) for j in range(i + 1, len(gnodes))
            if dist[i][j] < math.inf]
    # triangles / connected triples
    tri3 = 0
    for u in range(n):
        for v, w in combinations(sorted(adj[u]), 2):
            if w in adj[v]:
                tri3 += 1
    triples = sum(d * (d - 1) // 2 for d in deg)
    # assortativity: Pearson over both edge orientations
    xs, ys = [], []
    for u, v in edges:
        xs += [deg[u], deg[v]]
        ys += [deg[v], deg[u]]
    mx = sum(xs) / len(xs)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - mx) for x, y in zip(xs, ys))
    tau = sxy / sxx if sxx > 0 else float("nan")
    return {
        "V": n,
        "E": m,
        "rho": 2 * m / (n * (n - 1)),
        "d": max(hops),
        "l_G": sum(hops) / len(hops),
        "avg_deg": sum(deg) / n,
        "max_deg": max(deg),
        "tau": tau,
        "C": tri3 / triples if triples else 0.0,
    }


def brute_local_clustering(n: int, edges: set[tuple[int, int]]) -> list[float]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    out = []
    for u in range(n):
        d = len(adj[u])
        if d < 2:
            out.append(0.0)
            continue
        links = sum(1 for a, b in combinations(sorted(adj[u]), 2) if b in adj[a])
        out.append(2 * links / (d * (d - 1)))
    return out


# ---------------------------------------------------------------- covers

def algorithm1_community_graph(communities: list[set[int]]) -> set[tuple[int, int]]:
    """Literal nested-loop construction: one edge per overlapping pair."""
    edges = set()
    k = len(communities)
    for i in range(k):
        for j in range(i + 1, k):
            if communities[i] & communities[j]:
                edges.add((i, j))
    return edges


def brute_mesoscopic(communities: list[set[int]]):
    sizes = sorted(len(c) for c in communities)
    members: dict[int, int] = {}
    for c in communities:
        for u in c:
            members[u] = members.get(u, 0) + 1
    overlaps = sorted(
        len(a & b) for a, b in combinations(communities, 2) if a & b
    )
    return sizes, sorted(members.values()), overlaps


# ---------------------------------------------------------------- metrics

def brute_omega(c1: list[set[int]], c2: list[set[int]]) -> float:
    """Literal all-pairs multiplicity enumeration of the Omega index."""
    universe = sorted(set().union(*c1) | set().union(*c2))
    n = len(universe)
    m_pairs = n * (n - 1) // 2
    maxk = max(len(c1), len(c2))

    def mult(cover, u, v):
        return sum(1 for c in cover if u in c and v in c)

    t1 = [set() for _ in range(maxk + 1)]
    t2 = [set() for _ in range(maxk + 1)]
    for u, v in combinations(universe, 2):
        t1[mult(c1, u, v)].add((u, v))
        t2[mult(c2, u, v)].add((u, v))
    omega_u = sum(len(t1[j] & t2[j]) for j in range(maxk + 1)) / m_pairs
    omega_e = sum(len(t1[j]) * len(t2[j]) for j in range(maxk + 1)) / m_pairs ** 2
    if omega_e == 1.0:
        return 1.0 if omega_u == 1.0 else float("nan")
    return (omega_u - omega_e) / (1 - omega_e)


def adjusted_rand_index(labels1: list[int], labels2: list[int]) -> float:
    """Contingency-table ARI for disjoint partitions."""
    n = len(labels1)
    classes1 = sorted(set(labels1))
    classes2 = sorted(set(labels2))
    table = [[0] * len(classes2) for _ in classes1]
    for a, b in zip(labels1, labels2):
        table[classes1.index(a)][classes2.index(b)] += 1

    def c2(x):
        return x * (x - 1) // 2

    sum_ij = sum(c2(v) for row in table for v in row)
    a_i = [sum(row) for row in table]
    b_j = [sum(table[i][j] for i in range(len(classes1))) for j in range(len(classes2))]
    sum_a = sum(c2(x) for x in a_i)
    sum_b = sum(c2(x) for x in b_j)
    expected = sum_a * sum_b / c2(n)
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


def newman_modularity(n: int, edges: set[tuple[int, int]],
                      labels: dict[int, int]) -> float:
    """Q = (1/2m) sum_ij (A_ij - k_i k_j / 2m) delta(c_i, c_j)."""
    deg = {u: 0 for u in range(n)}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    m2 = 2 * len(edges)
    q = 0.0
    adj = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
    for i in range(n):
        for j in range(n):
            if i == j and labels.get(i) is None:
                continue
            if labels[i] != labels[j]:
                continue
            a = 1.0 if (i, j) in adj else 0.0
            q += a - deg[i] * deg[j] / m2
    return q / m2


def brute_f1(detected: list[set[int]], truth: list[set[int]]) -> float:
    def mean_best(src, dst):
        total = 0.0
        for s in src:
            best = 0.0
            for t in dst:
                tp = len(s & t)
                if tp == 0:
                    continue
                p, r = tp / len(s), tp / len(t)
                best = max(best, 2 * p * r / (p + r))
            total += best
        return total / len(src)

    return 0.5 * (mean_best(detected, truth) + mean_best(truth, detected))


def brute_onmi(c1: list[set[int]], c2: list[set[int]], variant: str = "mcdaid") -> float:
    """Overlapping NMI straight from the set definition on the common
    universe: every community is a binary node indicator, H*(X|Y) is the
    entropy of the 2x2 table of X against Y minus H(Y), admitted only when
    h(a) + h(d) >= h(b) + h(c); the max-normalized (McDaid) mutual
    information, or the LFK-style 1 - worse mean normalized conditional
    entropy."""
    common = set().union(*c1) & set().union(*c2)
    xs = [c & common for c in c1 if c & common]
    ys = [c & common for c in c2 if c & common]
    n = len(common)

    def h(w):
        return -w / n * math.log2(w / n) if w > 0 else 0.0

    def entropy(c):
        return h(len(c)) + h(n - len(c))

    def conditional(x, others):
        best = entropy(x)
        for y in others:
            a, b, c, d = n - len(x | y), len(y - x), len(x - y), len(x & y)
            if h(a) + h(d) >= h(b) + h(c):
                best = min(best, h(a) + h(b) + h(c) + h(d) - entropy(y))
        return best

    hx = sum(entropy(x) for x in xs)
    hy = sum(entropy(y) for y in ys)
    if hx == 0 and hy == 0:
        return 1.0 if set(map(frozenset, xs)) == set(map(frozenset, ys)) else 0.0
    if variant == "mcdaid":
        hxy = sum(conditional(x, ys) for x in xs)
        hyx = sum(conditional(y, xs) for y in ys)
        return 0.5 * ((hx - hxy) + (hy - hyx)) / max(hx, hy)

    def mean_normalized(src, dst):
        return sum(conditional(s, dst) / entropy(s) if entropy(s) > 0 else 0.0
                   for s in src) / len(src)

    return 1.0 - max(mean_normalized(xs, ys), mean_normalized(ys, xs))


def brute_sampled_hops(n: int, edges: set[tuple[int, int]], sources: int,
                       seed: int) -> list[float]:
    """Sorted hop samples of sampled mode from Floyd-Warshall rows: the
    giant component's nodes renumbered in id order, roots drawn by
    random.Random(seed).sample, each unordered pair counted once."""
    giant = max(union_find_components(n, edges), key=lambda c: (len(c), -min(c)))
    gidx = {u: i for i, u in enumerate(sorted(giant))}
    dist = floyd_warshall(len(gidx), {(gidx[u], gidx[v]) for u, v in edges
                                      if u in gidx and v in gidx})
    roots = set(random.Random(seed).sample(range(len(gidx)), sources))
    return sorted(dist[u][v] for u in roots for v in range(len(gidx))
                  if v != u and not (v in roots and v < u))


# ---------------------------------------------------------------- fitting

def brute_ks(cdf, samples: list[float]) -> float:
    """sup over both one-sided jump points of every sample."""
    xs = sorted(samples)
    n = len(xs)
    best = 0.0
    for i, x in enumerate(xs):
        below = sum(1 for y in xs if y < x) / n
        at = sum(1 for y in xs if y <= x) / n
        f = float(cdf(x))
        best = max(best, abs(at - f), abs(f - below))
    return best


# The ten families' log-likelihood sums and CDFs in the form the fitting
# code had when it called the scipy.stats distributions directly (power law
# and uniform were numpy closed forms then too). `params` and `rescale`
# follow covereval.distfit.FittedDistribution; beta's rescale is the raw
# (min, max) and BETA_EPS pads it.

BETA_EPS = 1e-9


def scipy_log_likelihood(family: str, params, x, rescale=None) -> float:
    x = np.asarray(x, dtype=float)
    p = params
    if family == "PL":
        alpha, xmin = p
        return float(np.sum(np.log((alpha - 1) / xmin) - alpha * np.log(x / xmin)))
    if family == "BE":
        lo, hi = rescale
        span = hi - lo + 2 * BETA_EPS
        y = (x - lo + BETA_EPS) / span
        return float(np.sum(stats.beta.logpdf(y, p[0], p[1]) - math.log(span)))
    if family == "U":
        lo, hi = p
        if hi == lo:
            return math.inf if np.all(x == lo) else -math.inf
        inside = np.all((x >= lo) & (x <= hi))
        return -len(x) * math.log(hi - lo) if inside else -math.inf
    return float(np.sum(_scipy_dist(family, p).logpdf(x)))


def scipy_cdf(family: str, params, x, rescale=None) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    p = params
    if family == "PL":
        alpha, xmin = p
        return np.where(x < xmin, 0.0, 1.0 - (np.maximum(x, xmin) / xmin) ** (1.0 - alpha))
    if family == "BE":
        lo, hi = rescale
        y = (x - lo + BETA_EPS) / (hi - lo + 2 * BETA_EPS)
        return stats.beta.cdf(np.clip(y, 0.0, 1.0), p[0], p[1])
    if family == "U":
        lo, hi = p
        if hi == lo:
            return (x >= lo).astype(float)
        return np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    return _scipy_dist(family, p).cdf(x)


def _scipy_dist(family: str, p):
    """The frozen scipy.stats distribution of a family with loc/scale."""
    if family == "CA":
        return stats.cauchy(loc=p[0], scale=p[1])
    if family == "E":
        return stats.expon(scale=1.0 / p[0])
    if family == "GM":
        return stats.gamma(p[0], scale=p[1])
    if family == "LO":
        return stats.logistic(loc=p[0], scale=p[1])
    if family == "LN":
        return stats.lognorm(p[1], scale=math.exp(p[0]))
    if family == "N":
        return stats.norm(loc=p[0], scale=p[1])
    if family == "WB":
        return stats.weibull_min(p[0], scale=p[1])
    raise ValueError(f"no scipy.stats form for {family!r}")


# ---------------------------------------------------------------- MCDM

def brute_kemeny(alternatives: list[str], columns: dict[str, list[int]]):
    """Full-permutation Kemeny search straight from the rank columns."""
    m = len(alternatives)
    idx = {a: i for i, a in enumerate(alternatives)}

    def score(order):
        s = 0
        for col in columns.values():
            for a, b in combinations(order, 2):
                if col[idx[a]] < col[idx[b]]:
                    s += 1
        return s

    best_order, best_score = None, -1
    for perm in permutations(sorted(alternatives)):
        s = score(perm)
        if s > best_score:
            best_order, best_score = perm, s
    return best_order, best_score


def spreadsheet_topsis(matrix: list[list[float]], benefit: list[bool],
                       weights: list[float]) -> list[float]:
    """Step-by-step TOPSIS closeness values with explicit loops."""
    m, k = len(matrix), len(matrix[0])
    norm = [math.sqrt(sum(matrix[i][j] ** 2 for i in range(m))) for j in range(k)]
    y = [[matrix[i][j] / norm[j] * weights[j] for j in range(k)] for i in range(m)]
    pis = [max(y[i][j] for i in range(m)) if benefit[j] else min(y[i][j] for i in range(m))
           for j in range(k)]
    nis = [min(y[i][j] for i in range(m)) if benefit[j] else max(y[i][j] for i in range(m))
           for j in range(k)]
    out = []
    for i in range(m):
        dp = math.sqrt(sum((y[i][j] - pis[j]) ** 2 for j in range(k)))
        dn = math.sqrt(sum((y[i][j] - nis[j]) ** 2 for j in range(k)))
        out.append(dn / (dp + dn) if dp + dn > 0 else 0.5)
    return out
