"""Undirected simple graph over dense integer ids, plus basic and
per-node (microscopic) topological properties."""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence


class GraphError(ValueError):
    """Invalid graph input or operation."""


class EdgeListParseError(GraphError):
    """Malformed edge-list line."""

    def __init__(self, lineno: int, line: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: expected 2 tokens, got {line.strip()!r}")


# Exact all-pairs BFS above this node count gets too expensive; fall back
# to sampled sources (a seed is then mandatory).
EXACT_HOP_LIMIT = 20_000
DEFAULT_HOP_SOURCES = 1_000


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted multiset of real samples with ECDF / percentile queries."""

    samples: tuple[float, ...]

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("empirical distribution needs at least one sample")
        bad = [v for v in self.samples if not math.isfinite(v)]
        if bad:
            raise ValueError(f"empirical distribution needs finite samples, got {bad[0]}")
        if any(self.samples[i] > self.samples[i + 1] for i in range(len(self.samples) - 1)):
            object.__setattr__(self, "samples", tuple(sorted(self.samples)))

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "EmpiricalDistribution":
        return cls(tuple(sorted(float(v) for v in values)))

    @property
    def n(self) -> int:
        return len(self.samples)

    def ecdf(self, x: float) -> float:
        """Right-continuous ECDF: (#samples <= x) / n."""
        lo, hi = 0, len(self.samples)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.samples[mid] <= x:
                lo = mid + 1
            else:
                hi = mid
        return lo / len(self.samples)

    def percentile(self, p: float) -> float:
        """Nearest-rank (ceil) percentile, p in (0, 100]."""
        if not 0 < p <= 100:
            raise ValueError("percentile must be in (0, 100]")
        idx = math.ceil(p / 100 * self.n)
        return self.samples[max(idx, 1) - 1]


@dataclass(frozen=True)
class HopSummary:
    distribution: EmpiricalDistribution
    median_path: float
    effective_diameter: float
    diameter: float
    sampled: bool
    source_count: int


@dataclass(frozen=True)
class BasicProperties:
    """The nine global graph properties: V, E, density, diameter,
    average shortest path, mean/max degree, assortativity, transitivity.
    `hops` is the hop distribution that d and l_G were computed from."""

    v: int
    e: int
    rho: float
    d: int
    l_g: float
    avg_deg: float
    max_deg: int
    tau: float
    c: float
    hops: HopSummary

    def as_dict(self) -> dict[str, float]:
        return {
            "V": self.v,
            "E": self.e,
            "rho": self.rho,
            "d": self.d,
            "l_G": self.l_g,
            "avg_deg": self.avg_deg,
            "max_deg": self.max_deg,
            "tau": self.tau,
            "C": self.c,
        }


class Graph:
    """Immutable undirected simple graph. Node ids are dense 0..V-1;
    ``original_labels[i]`` maps back to the source label."""

    __slots__ = ("adj", "edge_count", "original_labels", "_label_to_id")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 original_labels: Sequence[str] | None = None):
        neigh: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if u == v:
                continue
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) outside node range 0..{n - 1}")
            if v not in neigh[u]:
                neigh[u].add(v)
                neigh[v].add(u)
                m += 1
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in neigh)
        self.edge_count = m
        if original_labels is None:
            original_labels = [str(i) for i in range(n)]
        if len(original_labels) != n:
            raise GraphError("original_labels length must equal node count")
        self.original_labels = tuple(original_labels)
        self._label_to_id = {lab: i for i, lab in enumerate(self.original_labels)}

    @property
    def n(self) -> int:
        return len(self.adj)

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adj]

    def edges(self) -> Iterable[tuple[int, int]]:
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if u < v:
                    yield u, v

    def label_map(self) -> dict[str, int]:
        return dict(self._label_to_id)

    def __repr__(self) -> str:
        return f"Graph(V={self.n}, E={self.edge_count})"


def load_edge_list(text: str | bytes | IO) -> Graph:
    """Parse a SNAP-style edge list: one edge per line, two
    whitespace-separated labels, '#' lines ignored. Self-loops and
    duplicate edges are dropped; labels get dense ids in first-appearance
    order."""
    if hasattr(text, "read"):
        text = text.read()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    label_ids: dict[str, int] = {}
    labels: list[str] = []
    edges: list[tuple[int, int]] = []

    def intern(lab: str) -> int:
        if lab not in label_ids:
            label_ids[lab] = len(labels)
            labels.append(lab)
        return label_ids[lab]

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise EdgeListParseError(lineno, line)
        edges.append((intern(tokens[0]), intern(tokens[1])))
    if not labels:
        raise GraphError("empty edge list")
    return Graph(len(labels), edges, labels)


def bfs_distances(g: Graph, source: int) -> dict[int, int]:
    """Hop distances from source to every reachable node (incl. source)."""
    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        du = dist[u]
        for v in g.adj[u]:
            if v not in dist:
                dist[v] = du + 1
                q.append(v)
    return dist


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted node-id lists, ordered by smallest member."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = []
        q = deque([s])
        seen[s] = True
        while q:
            u = q.popleft()
            comp.append(u)
            for v in g.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    q.append(v)
        comps.append(sorted(comp))
    return comps


def giant_component(g: Graph) -> Graph:
    """Induced subgraph of the largest component; ties pick the component
    with the smallest minimum node id."""
    if g.n == 0:
        raise GraphError("empty graph")
    comps = connected_components(g)
    best = max(comps, key=lambda c: (len(c), -c[0]))
    remap = {old: new for new, old in enumerate(best)}
    edges = [(remap[u], remap[v]) for u, v in g.edges() if u in remap and v in remap]
    labels = [g.original_labels[old] for old in best]
    return Graph(len(best), edges, labels)


def degree_distribution(g: Graph) -> EmpiricalDistribution:
    if g.n < 1:
        raise GraphError("empty graph")
    return EmpiricalDistribution.from_values(g.degrees())


def triangles_per_node(g: Graph) -> list[int]:
    """tri(u) = number of edges among u's neighbors."""
    tri = [0] * g.n
    nbr_sets = [set(a) for a in g.adj]
    for u in range(g.n):
        nbrs = g.adj[u]
        count = 0
        for i in range(len(nbrs)):
            si = nbr_sets[nbrs[i]]
            for j in range(i + 1, len(nbrs)):
                if nbrs[j] in si:
                    count += 1
        tri[u] = count
    return tri


def local_clustering(g: Graph) -> list[float]:
    """c(u) = 2 tri(u) / (deg(u)(deg(u)-1)); 0 for degree < 2."""
    tri = triangles_per_node(g)
    out = []
    for u in range(g.n):
        d = g.degree(u)
        out.append(2 * tri[u] / (d * (d - 1)) if d >= 2 else 0.0)
    return out


def transitivity(g: Graph) -> float:
    """Global clustering coefficient: 3 * triangles / connected triples."""
    tri = triangles_per_node(g)
    closed = sum(tri)  # = 3 * (#triangles)
    triples = sum(d * (d - 1) // 2 for d in g.degrees())
    return closed / triples if triples > 0 else 0.0


def clustering_by_degree(g: Graph) -> list[tuple[int, float]]:
    """Mean local clustering per degree class, as sorted (k, mean c) pairs."""
    if g.n < 3:
        raise GraphError("need at least 3 nodes")
    local = local_clustering(g)
    by_k: dict[int, list[float]] = {}
    for u in range(g.n):
        by_k.setdefault(g.degree(u), []).append(local[u])
    return [(k, sum(vals) / len(vals)) for k, vals in sorted(by_k.items())]


def degree_assortativity(g: Graph) -> float:
    """Pearson correlation of endpoint degrees over both edge orientations.
    NaN when either marginal is constant."""
    xs: list[int] = []
    ys: list[int] = []
    deg = g.degrees()
    for u, v in g.edges():
        xs.extend((deg[u], deg[v]))
        ys.extend((deg[v], deg[u]))
    if not xs:
        return float("nan")
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return float("nan")
    return sxy / math.sqrt(sxx * syy)


def hop_distribution(g: Graph, exact: bool = True, sources: int = DEFAULT_HOP_SOURCES,
                     seed: int | None = None) -> HopSummary:
    """Pairwise hop-distance distribution on the giant component.

    Exact mode enumerates every unordered reachable pair once. Sampled mode
    runs BFS from `sources` seeded-uniform roots; with sources equal to the
    component size it reduces to exact mode.
    """
    gc = giant_component(g)
    if gc.n < 2:
        raise GraphError("giant component needs at least 2 nodes")
    hops: list[int] = []
    if exact or sources >= gc.n:
        roots = list(range(gc.n))
        in_roots = [True] * gc.n
        was_sampled = False
        n_sources = gc.n
    else:
        if seed is None:
            raise GraphError("sampled hop mode requires a seed")
        if sources < 1:
            raise GraphError("sources must be >= 1")
        rng = random.Random(seed)
        roots = sorted(rng.sample(range(gc.n), sources))
        in_roots = [False] * gc.n
        for r in roots:
            in_roots[r] = True
        was_sampled = True
        n_sources = sources
    for u in roots:
        for v, d in bfs_distances(gc, u).items():
            if v == u:
                continue
            # count each unordered pair once: skip (u, v) when v is a
            # smaller root (that root already counted it)
            if in_roots[v] and v < u:
                continue
            hops.append(d)
    dist = EmpiricalDistribution.from_values(hops)
    return HopSummary(
        distribution=dist,
        median_path=dist.percentile(50),
        effective_diameter=dist.percentile(90),
        diameter=dist.percentile(100),
        sampled=was_sampled,
        source_count=n_sources,
    )


def basic_properties(g: Graph, exact_paths: bool = True,
                     sources: int = DEFAULT_HOP_SOURCES,
                     seed: int | None = None) -> BasicProperties:
    """All nine global properties; diameter and average shortest path are
    computed on the giant component."""
    if g.n < 2:
        raise GraphError("need at least 2 nodes")
    if g.edge_count == 0:
        raise GraphError("graph has no edges; path lengths undefined")
    if exact_paths and g.n > EXACT_HOP_LIMIT:
        exact_paths = False
    hops = hop_distribution(g, exact=exact_paths, sources=sources, seed=seed)
    degs = g.degrees()
    samples = hops.distribution.samples
    return BasicProperties(
        v=g.n,
        e=g.edge_count,
        rho=2 * g.edge_count / (g.n * (g.n - 1)),
        d=int(hops.diameter),
        l_g=sum(samples) / len(samples),
        avg_deg=sum(degs) / g.n,
        max_deg=max(degs),
        tau=degree_assortativity(g),
        c=transitivity(g),
        hops=hops,
    )
