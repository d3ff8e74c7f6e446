"""Ground-truth-free quality metrics: the cover-level means of five
per-community scores, and overlapping modularity."""

from __future__ import annotations

import math

import numpy as np

from .cover import Cover
from .graph import Graph, GraphError, expand, find_sorted, int_sums


# average degree, average ODF, Flake ODF, internal density, maximum ODF and
# overlapping modularity, by their report names
QUALITY_PROPS = ("AD", "AO", "FO", "ID", "MO", "OM")


def _mean(per_community: np.ndarray) -> float:
    return math.fsum(per_community.tolist()) / len(per_community)


def group_sums(groups: np.ndarray, terms: np.ndarray, k: int) -> np.ndarray:
    """Each group's sum of its terms, groups 0..k-1, added in increasing
    order (`np.bincount` adds in input order) and so independent of the
    input order: one float sort ranks the terms, one integer sort groups them."""
    rank = np.empty(len(terms), dtype=np.int64)
    rank[np.argsort(terms)] = np.arange(len(terms))
    order = np.argsort(groups * len(terms) + rank)
    return np.bincount(groups[order], terms[order], k)


def intra_degrees(g: Graph, c: Cover) -> np.ndarray:
    """Each member's neighbours inside its community, member by member as
    the cover's CSR arrays list them. Each edge (u, v), u < v, is looked up
    once, from u's side: every (community, neighbour above u) pair is
    searched among the members' sorted codes community * V + node, and a
    hit counts for u and for the member it lands on. The queries are
    built in place of their neighbours' positions, so that at most four
    query-long arrays are alive at once."""
    members = c.nodes[c.indices]
    above = g.upper_degrees()[members]
    owner, queries = expand(g.indptr[members + 1] - above, above)
    queries = g.indices[queries]
    queries += c.rows[owner] * g.n
    at, inside = find_sorted(c.rows * g.n + members, queries)
    return np.bincount(np.concatenate((owner[inside], at[inside])), minlength=len(members))


def quality_report(g: Graph, c: Cover) -> dict[str, float]:
    """Unweighted cover-level means of five per-community scores (average
    degree, average and maximum out-degree fraction, Flake ODF, internal
    density) plus overlapping modularity, keyed by `QUALITY_PROPS`, from
    every member's degree and intra-degree; OM is Sum_k e_in/|E| - ((2 e_in
    + e_out) / (2|E|))^2, e_out the edge ends leaving community k. No value
    depends on the order of the members or communities: `math.fsum` is
    correctly rounded, `group_sums` adds in increasing order, and OM divides
    exact integers."""
    if c.nodes[0] < 0 or c.nodes[-1] >= g.n:
        raise GraphError("community references a node outside the graph")
    m = g.edge_count
    if m < 1:
        raise GraphError("modularity undefined on an edgeless graph")
    k = len(c.sizes)
    size = c.sizes
    rows = c.rows
    total = g.degrees()[c.nodes[c.indices]]
    intra = intra_degrees(g, c)
    fracs = np.divide(total - intra, total, out=np.zeros(len(total)), where=total > 0)
    inside = np.bincount(rows, intra, k)  # twice the edges inside, exact
    volume = int_sums(rows, total, k)  # inside plus the edge ends leaving
    return dict(zip(QUALITY_PROPS, (
        _mean(inside / size),
        _mean(group_sums(rows, fracs, k) / size),
        _mean(np.bincount(rows, intra < total / 2, k) / size),
        _mean(np.divide(inside, size * (size - 1), out=np.zeros(k), where=size >= 2)),
        _mean(np.maximum.reduceat(fracs, c.indptr[:-1])),
        (2 * m * int(intra.sum()) - sum(v * v for v in volume)) / (4 * m * m),
    )))

