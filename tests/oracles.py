"""Independent brute-force reference implementations used as test oracles.
These deliberately mirror definitions literally (nested loops, full
enumeration) rather than the library's optimized paths."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import chain, combinations, permutations

import numpy as np
from scipy import stats

from covereval.cover import Cover, CoverError
from covereval.graph import EdgeListParseError, Graph, GraphError


def exact_sum(terms) -> float:
    """The exact sum of the floats, as a fraction, rounded once to the
    nearest float: what `math.fsum` returns, whatever the order of the
    terms and the Python version."""
    return float(sum(map(Fraction, terms), Fraction(0)))


def sorted_sum(terms) -> float:
    """0.0 + the terms in increasing order, added one at a time left to
    right: what `quality.group_sums` adds for one group."""
    total = 0.0
    for t in sorted(terms):
        total += t
    return total


# ---------------------------------------------------------------- graphs

def loop_edge_list(text: str | bytes) -> Graph:
    """`graph.load_edge_list` one line at a time: the lines of
    `str.splitlines`, each stripped; blank and '#' lines skipped, any other
    must split into two tokens, whose labels get ids in first-appearance
    order."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    label_ids: dict[str, int] = {}
    ends: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise EdgeListParseError(lineno, line)
        ends.append(label_ids.setdefault(tokens[0], len(label_ids)))
        ends.append(label_ids.setdefault(tokens[1], len(label_ids)))
    if not label_ids:
        raise GraphError("empty edge list")
    return Graph(len(label_ids), np.reshape(ends, (-1, 2)), list(label_ids))


def loop_cover(text: str | bytes, network: Graph) -> Cover:
    """`cover.load_cover` one token at a time: the lines of
    `str.splitlines`, each split by `str.split`; blank lines and lines whose
    first token starts with '#' skipped, any other a community whose tokens
    resolve through a dict from label to node (the last node of a repeated
    label); unknown labels are an error that lists them sorted."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    label_map = {label: i for i, label in enumerate(network.original_labels)}
    sizes: list[int] = []
    members: list[int] = []
    unknown: list[str] = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        sizes.append(len(tokens))
        for tok in tokens:
            if tok in label_map:
                members.append(label_map[tok])
            else:
                unknown.append(tok)
    if unknown:
        raise CoverError(f"cover references unknown node labels: {sorted(set(unknown))}")
    return Cover(sizes, members)


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


def brute_clustering_by_degree(n: int, edges: set[tuple[int, int]]) -> dict[int, float]:
    """Each degree's mean local clustering, from the triangles counted pair
    by pair: the exact mean of the Fractions 2 links / (d(d - 1)), 0 below
    degree 2, of the class's nodes, rounded once."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    classes: dict[int, list[Fraction]] = {}
    for u in range(n):
        d = len(adj[u])
        links = sum(1 for a, b in combinations(sorted(adj[u]), 2) if b in adj[a])
        classes.setdefault(d, []).append(Fraction(2 * links, d * (d - 1)) if d >= 2
                                         else Fraction(0))
    return {d: float(sum(cs) / len(cs)) for d, cs in sorted(classes.items())}


def scalar_assortativity(n: int, edges: set[tuple[int, int]]) -> float:
    """Degree assortativity straight from its definition, edge by edge: the
    Pearson correlation of the endpoint degrees over (u, v) and (v, u), in
    Fractions, rounded once. Results must be equal bit for bit, not just
    close."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    xs: list[int] = []
    ys: list[int] = []
    for u, v in sorted(edges):
        xs.extend((deg[u], deg[v]))
        ys.extend((deg[v], deg[u]))
    if not xs:
        return float("nan")
    mx = Fraction(sum(xs), len(xs))
    my = Fraction(sum(ys), len(ys))
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return float("nan")
    # sxx = syy: both orientations give every end the same terms
    assert sxx == syy
    return float(sxy / sxx)


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
    """Literal all-pairs multiplicity enumeration of the Omega index, in
    Fractions, rounded once; 1.0 where the expected agreement is 1."""
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
    omega_u = Fraction(sum(len(t1[j] & t2[j]) for j in range(maxk + 1)), m_pairs)
    omega_e = Fraction(sum(len(t1[j]) * len(t2[j]) for j in range(maxk + 1)), m_pairs ** 2)
    if omega_e == 1:
        assert omega_u == 1
        return 1.0
    return float((omega_u - omega_e) / (1 - omega_e))


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


def scalar_best_f1(sizes_s: list[int], sizes_t: list[int],
                   overlap: list[list[int]]) -> float:
    """Mean best-match F1 from source to target communities from every
    cell of the contingency: each F1 the exact 2 p r / (p + r) of precision
    p = tp / |S| and recall r = tp / |T|, in Fractions, the best of a row
    rounded once; the bests added exactly, rounded once. Results must be
    equal bit for bit, not just close."""
    fs = []
    for size_s, row in zip(sizes_s, overlap):
        best = Fraction(0)
        for size_t, tp in zip(sizes_t, row):
            if tp == 0:
                continue
            prec = Fraction(tp, size_s)
            rec = Fraction(tp, size_t)
            best = max(best, 2 * prec * rec / (prec + rec))
        fs.append(float(best))
    return exact_sum(fs) / len(sizes_s)


def brute_onmi(c1: list[set[int]], c2: list[set[int]]) -> float:
    """Overlapping NMI straight from the set definition on the common
    universe: every community is a binary node indicator, H*(X|Y) is the
    entropy of the 2x2 table of X against Y minus H(Y), admitted only when
    h(a) + h(d) >= h(b) + h(c); the max-normalized (McDaid) mutual
    information."""
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
    hxy = sum(conditional(x, ys) for x in xs)
    hyx = sum(conditional(y, xs) for y in ys)
    return 0.5 * ((hx - hxy) + (hy - hyx)) / max(hx, hy)


def scalar_onmi(c1: list[set[int]], c2: list[set[int]]) -> float:
    """Overlapping NMI with the scalar arithmetic `clustering.onmi_max` had
    before it read its entropies from a table: the same `h`, the same
    per-pair additions, the contingency counted by set intersection, one
    pair of communities at a time, and every sum over communities exact,
    rounded once. Results must be equal bit for bit, not just close."""
    common = set().union(*c1) & set().union(*c2)
    xs = [c & common for c in c1 if c & common]
    ys = [c & common for c in c2 if c & common]
    n = len(common)

    def h(w):
        if w <= 0:
            return 0.0
        p = w / n
        return -p * math.log2(p)

    def entropy(size):
        return h(size) + h(n - size)

    def conditional(src, dst):
        bests = []
        for x in src:
            hx = entropy(len(x))
            best = hx
            for y in dst:
                d = len(x & y)
                c = len(x) - d
                b = len(y) - d
                a = n - b - c - d
                if h(a) + h(d) < h(b) + h(c):
                    continue
                term = h(a) + h(b) + h(c) + h(d) - entropy(len(y))
                if term < best:
                    best = term
            bests.append(best)
        return exact_sum(bests)

    h1 = exact_sum(entropy(len(x)) for x in xs)
    h2 = exact_sum(entropy(len(y)) for y in ys)
    if h1 == 0.0 and h2 == 0.0:
        return 1.0 if set(map(frozenset, xs)) == set(map(frozenset, ys)) else 0.0
    mutual = 0.5 * ((h1 - conditional(xs, ys)) + (h2 - conditional(ys, xs)))
    return mutual / max(h1, h2)


def scan_quality(n: int, edges: set[tuple[int, int]], communities: list[set[int]]):
    """The six quality values by scanning every member's edges, with the
    per-member and per-community float operations of
    `quality.quality_report`, each community's out-degree fractions added
    in increasing order and every sum over communities exact, rounded once,
    and OM summed in Fractions and rounded once, so results are equal bit
    for bit: AD, AO, FO, ID, MO and OM."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    m = len(edges)
    ad, ao, fo, idn, mo, om = [], [], [], [], [], []
    for s in communities:
        fracs, bad, e_in2, e_out = [], 0, 0, 0
        for u in sorted(s):
            d = len(nbrs[u])
            din = sum(1 for v in nbrs[u] if v in s)
            e_in2 += din
            e_out += d - din
            fracs.append((d - din) / d if d > 0 else 0.0)
            bad += din < d / 2
        k = len(s)
        m_s = e_in2 // 2
        ad.append(2 * m_s / k)
        ao.append(sorted_sum(fracs) / k)
        fo.append(bad / k)
        idn.append(m_s / (k * (k - 1) / 2) if k >= 2 else 0.0)
        mo.append(max(fracs))
        om.append(Fraction(m_s, m) - Fraction(2 * m_s + e_out, 2 * m) ** 2)
    mean = [exact_sum(vals) / len(communities) for vals in (ad, ao, fo, idn, mo)]
    return {"AD": mean[0], "AO": mean[1], "FO": mean[2], "ID": mean[3], "MO": mean[4],
            "OM": float(sum(om))}


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


def loop_fraction(coefficients, shape: tuple[int, ...]) -> np.ndarray:
    """`special._fraction` one level at a time: the fraction's first n terms
    from the back, for n = 8, 16, 32, ..., each pass calling
    `coefficients(i)` for one i, until doubling n changes no element by
    more than 2^-52 of it."""
    last, n = None, 8
    while True:
        value = np.zeros(shape)
        for i in range(n, 0, -1):
            a_i, b_i = coefficients(i)
            value = a_i / (b_i + value)
        if n >= 1_000_000 or (
                last is not None and (np.abs(value - last) <= 2 ** -52 * np.abs(value)).all()):
            return value
        last, n = value, 2 * n


def loop_gamma_fraction(a: float, shifted: np.ndarray) -> np.ndarray:
    """`special._gamma_fraction` by `loop_fraction`, a scalar i at a time."""
    return loop_fraction(lambda i: (1.0 if i == 1 else -(i - 1) * (i - 1 - a), shifted + 2 * i),
                         shifted.shape)


def loop_beta_fraction(a: float, b: float, x: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """`special._beta_fraction` by `loop_fraction`, a scalar i at a time."""
    def coefficients(i):
        if i == 1:
            return 1.0, 1.0
        m, odd = divmod(i - 1, 2)
        sides = ((a, b), (b, a))
        if odd:
            d = [-(s + m) * (s + r + m) / ((s + 2 * m) * (s + 2 * m + 1)) for s, r in sides]
        else:
            d = [m * (r - m) / ((s + 2 * m - 1) * (s + 2 * m)) for s, r in sides]
        return np.where(flip, d[1], d[0]) * x, 1.0
    return loop_fraction(coefficients, x.shape)


def mp_gammainc(a: float, x: float) -> float:
    """The regularized lower incomplete gamma function P(a, x) in 50-digit
    arithmetic (mpmath)."""
    import mpmath
    with mpmath.workdps(50):
        return float(mpmath.gammainc(mpmath.mpf(a), 0, mpmath.mpf(x), regularized=True))


def mp_betaln(a: float, b: float) -> float:
    """log B(a, b) in 50-digit arithmetic (mpmath)."""
    import mpmath
    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.beta(mpmath.mpf(a), mpmath.mpf(b))))


def mp_betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b) in 60-digit
    arithmetic (mpmath): the prefactor x^a (1 - x)^b / (a B(a, b)) times its
    continued fraction (Numerical Recipes 6.4.5) by Lentz's method, taken
    for I_(1-x)(b, a) above x = (a + 1) / (a + b + 2). At this precision the
    cancellation that limits it in double precision is far below the last
    bit of the result."""
    import mpmath
    if x <= 0 or x >= 1:
        return float(x >= 1)
    with mpmath.workdps(60):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
        flip = x > (a + 1) / (a + b + 2)
        s, r, z = (b, a, 1 - x) if flip else (a, b, x)
        tiny = mpmath.mpf(10) ** -300
        value, c, d = tiny, tiny, mpmath.mpf(0)
        for i in range(1, 10 ** 7):
            if i == 1:
                coefficient = 1
            else:
                m, odd = divmod(i - 1, 2)
                coefficient = (-(s + m) * (s + r + m) * z / ((s + 2 * m) * (s + 2 * m + 1))
                               if odd else m * (r - m) * z / ((s + 2 * m - 1) * (s + 2 * m)))
            d = 1 + coefficient * d
            d = 1 / (d if d != 0 else tiny)
            c = 1 + coefficient / c
            c = c if c != 0 else tiny
            value *= c * d
            if abs(c * d - 1) < mpmath.mpf(10) ** -45:
                break
        part = z ** s * (1 - z) ** r / (s * mpmath.beta(s, r)) * value
        return float(1 - part if flip else part)


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
    """Full-permutation Kemeny search straight from the rank columns: every
    order of the name-sorted alternatives is scored, in lexicographic order,
    and the first of the highest score is kept. The (m-1)! orders that share
    a first alternative are scored together, with numpy."""
    names = sorted(alternatives)
    m = len(names)
    idx = {a: i for i, a in enumerate(alternatives)}
    # pref[a][b]: criteria ranking names[a] strictly above names[b]
    pref = np.array([[sum(col[idx[a]] < col[idx[b]] for col in columns.values())
                      for b in names] for a in names])
    # every order of the other m - 1, in lexicographic order, one per column
    tails = np.fromiter(chain.from_iterable(permutations(range(m - 1))), dtype=np.int16)
    tails = np.ascontiguousarray(tails.reshape(math.factorial(m - 1), m - 1).T)
    best_order, best_score = None, -1
    for first in range(m):
        others = np.array([a for a in range(m) if a != first], dtype=np.int16)
        # block[i] is the alternative at position i of each order
        block = np.vstack([np.full((1, tails.shape[1]), first, dtype=np.int16), others[tails]])
        scores = np.zeros(block.shape[1], dtype=np.int64)
        for i, j in combinations(range(m), 2):
            scores += pref.ravel()[block[i] * m + block[j]]
        top = int(np.argmax(scores))
        if scores[top] > best_score:
            best_order = tuple(names[a] for a in block[:, top])
            best_score = int(scores[top])
    return best_order, best_score


def full_rescore_climb(alternatives: list[str], columns: dict[str, list[int]]):
    """The heuristic Kemeny search as `ranking.kemeny_consensus` ran it
    before a swap was scored by its change alone: from every cyclic rotation
    of the (mean rank, name) order, adjacent swaps are tried left to right,
    each by scoring both whole orders, and kept when the score rises, until
    a pass keeps none; the first rotation of the highest score wins over
    the starting order only when it scores strictly higher."""
    m = len(alternatives)
    pref = [[sum(col[a] < col[b] for col in columns.values()) for b in range(m)]
            for a in range(m)]
    mean_ranks = [sum(col[a] for col in columns.values()) / len(columns) for a in range(m)]

    def score(order):
        return sum(pref[order[i]][order[j]] for i in range(m) for j in range(i + 1, m))

    start = sorted(range(m), key=lambda i: (mean_ranks[i], alternatives[i]))
    best_order, best_score = start, score(start)
    for rot in range(m):
        cur = start[rot:] + start[:rot]
        improved = True
        while improved:
            improved = False
            for i in range(m - 1):
                cand = cur.copy()
                cand[i], cand[i + 1] = cand[i + 1], cand[i]
                if score(cand) > score(cur):
                    cur = cand
                    improved = True
        s = score(cur)
        if s > best_score:
            best_score = s
            best_order = cur
    return tuple(alternatives[i] for i in best_order), best_score


def spreadsheet_topsis(matrix: list[list[float]]) -> list[float]:
    """Step-by-step TOPSIS closeness values with explicit loops, every
    column a cost criterion (lower is better) of weight 1/k."""
    m, k = len(matrix), len(matrix[0])
    norm = [math.sqrt(sum(matrix[i][j] ** 2 for i in range(m))) for j in range(k)]
    y = [[matrix[i][j] / norm[j] / k for j in range(k)] for i in range(m)]
    pis = [min(y[i][j] for i in range(m)) for j in range(k)]
    nis = [max(y[i][j] for i in range(m)) for j in range(k)]
    out = []
    for i in range(m):
        dp = math.sqrt(sum((y[i][j] - pis[j]) ** 2 for j in range(k)))
        dn = math.sqrt(sum((y[i][j] - nis[j]) ** 2 for j in range(k)))
        out.append(dn / (dp + dn) if dp + dn > 0 else 0.5)
    return out


def per_pair_spearman(ranks: list[list[int]]) -> np.ndarray:
    """Spearman correlation of each pair of criteria with the loop
    `ranking.spearman_matrix` had before it became one product: the rank
    columns of an alternatives x criteria table centred one pair at a time,
    NaN where a column is constant. Results must be equal bit for bit."""
    r = np.array(ranks, dtype=float)
    k = r.shape[1]
    out = np.full((k, k), np.nan)
    for i in range(k):
        for j in range(i, k):
            xi, xj = r[:, i], r[:, j]
            sx = xi - xi.mean()
            sy = xj - xj.mean()
            vx = float((sx ** 2).sum())
            vy = float((sy ** 2).sum())
            if vx == 0 or vy == 0:
                continue
            out[i, j] = out[j, i] = float((sx * sy).sum()) / math.sqrt(vx * vy)
    return out
