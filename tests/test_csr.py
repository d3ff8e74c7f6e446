"""The CSR kernels of graph, cover, quality and clustering against
scipy.sparse and scipy.sparse.csgraph, which covereval no longer imports, on
seeded random graphs (duplicate edges, self-loops, isolated nodes, several
components) and covers (repeated members, ids negative or beyond 2^40); the
hop distribution against the Floyd-Warshall oracles too."""

import random
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from covereval import graph as graph_module
from covereval.clustering import _contingency, _multiplicities, common_universe
from covereval.cover import Cover, CoverError, _heavy_pairs
from covereval.graph import (
    Graph, connected_components, giant_component, hop_counts, hop_distribution,
    triangles_per_node,
)
from covereval.quality import intra_degrees

from gen import arbitrary_ids, random_cover_sets, random_graph
from oracles import brute_sampled_hops, union_find_components


def messy_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Edges among the first ~80 % of the nodes, in two to four separate
    blocks, with repeats in both orientations and self-loops; the rest of
    the nodes are isolated."""
    used = max(2, int(n * 0.8))
    cuts = sorted(rng.sample(range(1, used), min(used - 1, rng.randint(1, 3))))
    edges = []
    for lo, hi in zip([0] + cuts, cuts + [used]):
        for _ in range(2 * (hi - lo)):
            u, v = rng.randrange(lo, hi), rng.randrange(lo, hi)
            edges.append((u, v))
            if rng.random() < 0.2:
                edges.append((v, u))
    edges += [(u, u) for u in rng.sample(range(n), n // 5)]
    rng.shuffle(edges)
    return edges


def scipy_adjacency(n: int, edges) -> sparse.csr_array:
    e = np.array([(u, v) for u, v in edges if u != v] or np.empty((0, 2)), dtype=np.int64)
    ends = np.concatenate([e, e[:, ::-1]])
    a = sparse.csr_array((np.ones(len(ends), dtype=np.int64), (ends[:, 0], ends[:, 1])),
                         shape=(n, n))
    a.data[:] = 1
    return a


def scipy_incidence(c: Cover) -> sparse.csr_array:
    """The cover's communities x nodes incidence, built by scipy from its
    member sets."""
    rows, cols = [], []
    for i, members in enumerate(c.communities):
        rows += [i] * len(members)
        cols += np.searchsorted(c.nodes, sorted(members)).tolist()
    b = sparse.csr_array((np.ones(len(rows), dtype=np.int64), (rows, cols)),
                         shape=(len(c.communities), len(c.nodes)))
    return b


def graphs(seed: int, count: int = 25):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 60)
        edges = messy_edges(rng, n)
        yield Graph(n, edges), scipy_adjacency(n, edges)


def covers(seed: int, count: int = 25):
    rng = random.Random(seed)
    for _ in range(count):
        sets = random_cover_sets(rng, rng.randint(2, 60), rng.randint(1, 12))
        if rng.random() < 0.5:
            sets = arbitrary_ids(rng, sets)
        sizes = [len(s) for s in sets]
        members = [u for s in sets for u in s]
        # repeat some members within their community
        extra = rng.sample(range(len(members)), len(members) // 4)
        at = np.cumsum([0] + sizes)
        for i in sorted(extra, reverse=True):
            k = int(np.searchsorted(at, i, side="right")) - 1
            members.insert(at[k], members[i])
            sizes[k] += 1
            at[k + 1:] += 1
        c = Cover(sizes, members)
        yield c, scipy_incidence(c)


def test_graph_csr_equals_scipy():
    for g, a in graphs(1):
        a.sort_indices()
        assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
        assert g.indptr.tolist() == a.indptr.tolist()
        assert g.indices.tolist() == a.indices.tolist()


def test_cover_csr_equals_scipy():
    for c, b in covers(2):
        b.sum_duplicates()
        assert c.indptr.tolist() == b.indptr.tolist()
        assert c.indices.tolist() == b.indices.tolist()


def test_transposed_equals_scipy():
    for c, b in covers(3):
        t = b.T.tocsr()
        t.sort_indices()
        ptr, comm = c.transposed()
        assert ptr.tolist() == t.indptr.tolist() and comm.tolist() == t.indices.tolist()


def test_overlaps_equal_scipy():
    # and each overlap set's members: the nodes in both communities
    for c, b in covers(4):
        want = sparse.triu(b @ b.T, k=1, format="csr")
        want.sort_indices()
        k = len(c.communities)
        rows = np.repeat(np.arange(k), np.diff(want.indptr))
        codes, starts, members = c.overlaps()
        assert codes.tolist() == (rows * k + want.indices).tolist()
        assert np.diff(starts).tolist() == want.data.tolist()
        dense = b.toarray().astype(bool)
        for p, (r, l) in enumerate(zip(rows, want.indices)):
            both = np.flatnonzero(dense[r] & dense[l])
            assert members[starts[p]:starts[p + 1]].tolist() == both.tolist()


def test_heavy_pairs_equal_scipy():
    # and the multiplicity of every node pair, heavy or not
    for c, b in covers(5):
        n = len(c.nodes)
        co = (b.T @ b).toarray()  # pair multiplicities; memberships on the diagonal
        i, j = np.triu_indices(n, k=1)
        heavy = co[i, j] >= 2
        assert _heavy_pairs(c).tolist() == (i[heavy] * n + j[heavy]).tolist()
        assert _multiplicities(c, i, j).tolist() == co[i, j].tolist()
        # either endpoint first: the lookup goes from the one of fewer communities
        assert _multiplicities(c, j, i).tolist() == co[i, j].tolist()


def test_contingency_equals_scipy():
    pairs = list(covers(6, 60))
    for (c1, _), (c2, _) in zip(pairs[::2], pairs[1::2]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the restriction to shared ids
            try:
                c1, c2 = common_universe(c1, c2)
            except CoverError:
                continue  # no shared id
        want = (scipy_incidence(c1) @ scipy_incidence(c2).T).tocsr()
        want.sort_indices()
        rows, cols, counts = _contingency(c1, c2)
        assert rows.tolist() == np.repeat(np.arange(want.shape[0]),
                                          np.diff(want.indptr)).tolist()
        assert cols.tolist() == want.indices.tolist()
        assert counts.tolist() == want.data.tolist()


def test_intra_degrees_equal_scipy():
    rng = random.Random(7)
    for g, a in graphs(7):
        sets = [set(rng.sample(range(g.n), rng.randint(1, g.n))) for _ in range(rng.randint(1, 8))]
        c = Cover.from_sets(sets)
        b = sparse.csr_array((np.ones(len(c.indices), dtype=np.int64), c.nodes[c.indices],
                              c.indptr), shape=(len(sets), g.n))
        rows = np.repeat(np.arange(len(sets)), np.diff(c.indptr))
        want = (b @ a)[rows, b.indices]
        assert intra_degrees(g, c).tolist() == want.tolist()


def test_triangles_equal_scipy():
    for g, a in graphs(8):
        want = ((a @ a).multiply(a).sum(axis=1) // 2).tolist()
        assert triangles_per_node(g).tolist() == want


def test_triangles_with_hubs_equal_scipy():
    # dense and sparse graphs with up to three hubs, so that the (degree, id)
    # order keeps edges at either end
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(2, 80)
        p = rng.uniform(0.02, 0.6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        for hub in rng.sample(range(n), rng.randint(0, min(3, n))):
            edges += [(hub, v) for v in range(n) if v != hub and rng.random() < 0.8]
        a = scipy_adjacency(n, edges)
        want = ((a @ a).multiply(a).sum(axis=1) // 2).tolist()
        assert triangles_per_node(Graph(n, edges)).tolist() == want


def test_triangles_of_a_star_take_little_memory():
    # the hub's 3 000 neighbours make ~4.5 M pairs of them; each leaf comes
    # first in (degree, id) order, so no node keeps two neighbours
    g = Graph(3001, [(0, leaf) for leaf in range(1, 3001)])
    tracemalloc.start()
    try:
        tri = triangles_per_node(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tri.tolist() == [0] * 3001
    assert peak < 16 * 2**20


def test_component_labels_equal_scipy():
    for g, a in graphs(9, 40):
        count, want = csgraph.connected_components(a, directed=False)
        got = connected_components(g)
        assert got.tolist() == want.tolist() and got.max() + 1 == count


def test_giant_component_equals_scipy_slice():
    for g, a in graphs(10):
        _, labels = csgraph.connected_components(a, directed=False)
        best = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
        want = a[best][:, best].tocsr()
        want.sort_indices()
        gc = giant_component(g)
        assert gc.indptr.tolist() == want.indptr.tolist()
        assert gc.indices.tolist() == want.indices.tolist()
        assert gc.original_labels == tuple(str(u) for u in best.tolist())


def scipy_pair_counts(a: sparse.csr_array, roots: np.ndarray) -> list[float]:
    """The histogram of csgraph.shortest_path over the pairs of distinct
    nodes that hold a root, by hop distance from 0 to V - 1: a pair of two
    roots appears in both roots' rows, so each appearance counts one half."""
    dist = csgraph.shortest_path(a, unweighted=True, indices=roots)
    dist[np.arange(len(roots)), roots] = np.inf  # each root's distance to itself
    reached = np.isfinite(dist)
    in_roots = np.zeros(a.shape[0], dtype=bool)
    in_roots[roots] = True
    weight = np.where(in_roots, 0.5, 1.0)[np.nonzero(reached)[1]]
    return np.bincount(dist[reached].astype(np.int64), weight, minlength=a.shape[0]).tolist()


def test_hop_counts_equal_scipy(monkeypatch):
    # the block bound only changes how many roots are searched at once
    for entries in (1, 200, graph_module.BFS_BLOCK_ENTRIES):
        monkeypatch.setattr(graph_module, "BFS_BLOCK_ENTRIES", entries)
        rng = random.Random(11)
        for g, a in graphs(11):
            roots = np.array(sorted(rng.sample(range(g.n), rng.randint(1, g.n))))
            assert hop_counts(g, roots).tolist() == scipy_pair_counts(a, roots)


@pytest.mark.parametrize("entries", [1, 200, graph_module.BFS_BLOCK_ENTRIES])
def test_hop_distribution_in_blocks_equals_scipy(monkeypatch, entries):
    # the block bound only changes how many roots are searched at once
    monkeypatch.setattr(graph_module, "BFS_BLOCK_ENTRIES", entries)
    for g, _ in graphs(12, 15):
        gc = giant_component(g)
        if gc.n < 2:
            continue
        b = scipy_adjacency(gc.n, gc.edges())
        full = csgraph.shortest_path(b, unweighted=True)
        levels, counts = np.unique(full[np.triu_indices(gc.n, k=1)], return_counts=True)
        got = hop_distribution(g).distribution
        assert got.values.tolist() == levels.tolist()
        assert got.counts.tolist() == counts.tolist()


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
def test_hop_distribution_equals_floyd_warshall(exact):
    # the pairs that hold one of the roots, drawn on the giant component of
    # graphs that may fall apart; every node a root in exact mode
    rng = random.Random(13)
    for seed in range(40):
        g, edges = random_graph(rng, rng.randint(2, 30), rng.choice([0.08, 0.15, 0.4]))
        size = max(len(c) for c in union_find_components(g.n, edges))
        if size < 2:
            continue
        sources = size if exact else rng.randint(1, size)
        got = hop_distribution(g, exact=exact, sources=sources, seed=seed).distribution
        levels, counts = np.unique(brute_sampled_hops(g.n, edges, sources, seed),
                                   return_counts=True)
        assert got.values.tolist() == levels.tolist()
        assert got.counts.tolist() == counts.tolist()
