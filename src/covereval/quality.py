"""Ground-truth-free quality metrics: the cover-level means of five
per-community scores, and overlapping modularity."""

from __future__ import annotations

import math

import numpy as np

from .cover import Cover
from .graph import Graph, GraphError, expand, find_sorted, group_sums, row_of


# average degree, average ODF, Flake ODF, internal density, maximum ODF and
# overlapping modularity, by their report names
QUALITY_PROPS = ("AD", "AO", "FO", "ID", "MO", "OM")


def _mean(per_community: np.ndarray) -> float:
    return math.fsum(per_community.tolist()) / len(per_community)


def intra_degrees(g: Graph, c: Cover) -> np.ndarray:
    """Each member's neighbours inside its community, member by member as
    the cover's CSR arrays list them. Each edge (u, v), u < v, is looked up
    once, from u's side: every (community, neighbour above u) pair is
    searched among the members' sorted codes community * V + node, and a
    hit counts for u and for the member it lands on."""
    rows = row_of(c.indptr)
    members = c.nodes[c.indices]
    codes = rows * g.n + members
    above = np.bincount(g.edges()[:, 0], minlength=g.n)[members]  # neighbours above u
    owner, entry = expand(g.indptr[members + 1] - above, above)
    queries = rows[owner] * g.n + g.indices[entry]
    at, inside = find_sorted(codes, queries)
    return np.bincount(np.concatenate((owner[inside], at[inside])), minlength=len(members))


def quality_report(g: Graph, c: Cover) -> dict[str, float]:
    """Unweighted cover-level means of five per-community scores (average
    degree, average and maximum out-degree fraction, Flake ODF, internal
    density) plus overlapping modularity, keyed by `QUALITY_PROPS`, from
    every member's degree and intra-degree. No sum depends on the order of
    the members or communities: `math.fsum` is correctly rounded,
    `group_sums` adds in increasing order, and integer weights add exactly."""
    if c.nodes[0] < 0 or c.nodes[-1] >= g.n:
        raise GraphError("community references a node outside the graph")
    m = g.edge_count
    if m < 1:
        raise GraphError("modularity undefined on an edgeless graph")
    k = len(c.sizes)
    size = c.sizes
    rows = row_of(c.indptr)
    total = g.degrees()[c.nodes[c.indices]]
    intra = intra_degrees(g, c)
    fracs = np.divide(total - intra, total, out=np.zeros(len(total)), where=total > 0)
    e_in = np.bincount(rows, intra, k) / 2  # every inside edge has two inside endpoints
    volume = np.bincount(rows, total, k)  # 2 e_in + e_out
    return dict(zip(QUALITY_PROPS, (
        _mean(2 * e_in / size),
        _mean(group_sums(rows, fracs, k) / size),
        _mean(np.bincount(rows, intra < total / 2, k) / size),
        _mean(np.divide(e_in, size * (size - 1) / 2, out=np.zeros(k), where=size >= 2)),
        _mean(np.maximum.reduceat(fracs, c.indptr[:-1])),
        math.fsum((e_in / m - (volume / (2 * m)) ** 2).tolist()),
    )))


def overlapping_modularity(g: Graph, c: Cover) -> float:
    """Sum over communities of e_in/|E| - ((2 e_in + e_out) / (2|E|))^2,
    where e_out counts the edge endpoints leaving the community. Overlapping
    nodes contribute to every community containing them."""
    return quality_report(g, c)["OM"]
