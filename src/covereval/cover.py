"""Covers (possibly overlapping node-set communities), mesoscopic
property distributions, and community-graph construction."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Sequence

import numpy as np

from .graph import (
    EmpiricalDistribution, Graph, Tokens, csr, giant_component, read_only, row_of, row_pairs,
)


# community sizes, node memberships and pairwise overlap sizes, by their
# report names
MESO_PROPS = ("CS", "M", "OS")


class CoverError(ValueError):
    """Invalid cover input."""


class Cover:
    """A list of non-empty, possibly overlapping communities of node ids.
    ``nodes`` holds the sorted distinct member ids (int64; any values), and
    community i's members are ``nodes[indices[indptr[i]:indptr[i + 1]]]``
    in increasing order: ``indptr`` and ``indices`` are the communities x
    nodes 0/1 incidence in CSR form, ``sizes`` each community's member
    count and ``rows`` each incidence's community, all built once and
    read-only. A cover also keeps, as cached properties built on their
    first read, what is derived from the incidence: its transpose
    (`transposed`), its communities' overlaps (`overlaps`), its size classes
    (`size_classes`), its heavy pairs (`heavy_pairs`) and its incidence
    codes (`codes`)."""

    def __init__(self, sizes: Sequence[int], members: Sequence[int]):
        """Community i holds the next ``sizes[i]`` entries of ``members``;
        a member repeated within a community counts once."""
        sizes = np.asarray(sizes, dtype=np.int64)
        members = np.asarray(members, dtype=np.int64)
        if len(sizes) == 0:
            raise CoverError("cover has zero communities")
        if not sizes.all():
            raise CoverError("cover contains an empty community")
        self.nodes, cols = np.unique(members, return_inverse=True)
        rows = np.repeat(np.arange(len(sizes)), sizes)
        self.indptr, self.indices = csr(rows, cols, len(sizes), len(self.nodes))
        self.sizes = np.diff(self.indptr)
        self.rows = row_of(self.indptr)
        read_only(self.nodes, self.indptr, self.indices, self.sizes, self.rows)

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]]) -> "Cover":
        sets = [list(s) for s in sets]
        return cls([len(s) for s in sets], [u for s in sets for u in s])

    @property
    def communities(self) -> tuple[frozenset[int], ...]:
        """Each community's member ids, as sets."""
        members = self.nodes[self.indices].tolist()
        bounds = self.indptr.tolist()
        return tuple(frozenset(members[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    @cached_property
    def transposed(self) -> tuple[np.ndarray, np.ndarray]:
        """The incidence transposed, nodes x communities, in CSR form: node
        j's communities are ``c[p[j]:p[j + 1]]`` for ``p, c = transposed``, in
        increasing order. Built on the first read and kept, read-only: the
        overlaps and every clustering metric read it."""
        return read_only(*csr(self.indices, self.rows, len(self.nodes), len(self.sizes)))

    @cached_property
    def overlaps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every overlapping pair k < l of the communities, as the increasing
        codes k * K + l, and the overlap sets C_k & C_l in CSR form: ``codes,
        ptr, m`` with pair p's members, increasing positions in ``nodes``, at
        ``m[ptr[p]:ptr[p + 1]]``; exact while K^2 n < 2^63. Built on the first
        read and kept, read-only, for the community graph, OS and omega."""
        node, k, l = row_pairs(*self.transposed)
        n = len(self.nodes)
        pair, members = np.divmod(np.sort((k * len(self.sizes) + l) * n + node), n)
        first = np.flatnonzero(np.diff(pair, prepend=-1))
        return read_only(pair[first], np.append(first, len(pair)), members)

    @cached_property
    def size_classes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct community sizes, increasing, each community's index
        among them and each size's community count: ``np.unique`` of
        `sizes` with its inverse and counts. Built on the first read and
        kept, read-only, for ONMI's disjoint-pair terms."""
        return read_only(*np.unique(self.sizes, return_inverse=True, return_counts=True))

    @cached_property
    def heavy_pairs(self) -> np.ndarray:
        """`_heavy_pairs` of the cover, built on the first read and kept,
        read-only: omega reads them on every pair the cover is in."""
        return read_only(_heavy_pairs(self))[0]

    @cached_property
    def codes(self) -> np.ndarray:
        """Each incidence as the code k * n + j of its community k and its
        position j in ``nodes``, increasing, with n nodes; exact while K n <
        2^63. Built on the first read and kept, read-only: omega looks the
        heavy pairs' multiplicities up in it."""
        return read_only(self.rows * len(self.nodes) + self.indices)[0]

    def restricted_to(self, nodes: np.ndarray) -> "Cover":
        """Drop members outside the ids `nodes`; communities emptied
        entirely are dropped."""
        keep = np.isin(self.nodes, nodes)[self.indices]
        sizes = np.add.reduceat(keep.astype(np.int64), self.indptr[:-1])
        if not sizes.any():
            raise CoverError("restriction removed every community")
        return Cover(sizes[sizes > 0], self.nodes[self.indices[keep]])


def _heavy_pairs(c: Cover) -> np.ndarray:
    """Every node pair i < j (positions in ``nodes``) that two or more
    communities hold, as the increasing codes i * n + j. It lies in the
    overlap set of any two of them, so the pairs of each community's nodes
    in one of its overlap sets of two or more nodes list it once per
    community holding it, any other pair at most once, and no more pairs
    than the nodes of two or more communities would."""
    codes, ptr, members = c.overlaps
    k, n = len(c.sizes), len(c.nodes)
    sizes = np.diff(ptr)
    kept = np.repeat(sizes >= 2, sizes)
    pair, nodes = np.repeat(codes, sizes)[kept], members[kept]
    _, i, j = row_pairs(*csr(np.concatenate((pair // k, pair % k)),
                             np.concatenate((nodes, nodes)), k, n))
    listed = np.sort(i * n + j)
    repeats = listed[1:][listed[1:] == listed[:-1]]
    return repeats[np.diff(repeats, prepend=-1) != 0]


@dataclass(frozen=True)
class CommunityGraph:
    """Community-graph build result: its giant component and the number of
    communities it was built from."""

    graph: Graph
    n_communities: int
    degenerate: bool  # all communities disjoint; giant forced to one node


def load_cover(text: str | bytes | IO, network: Graph) -> Cover:
    """Parse a SNAP-style community file (one community per line,
    whitespace-separated node labels, '#' comments), lines and tokens as
    `load_edge_list` reads them. Labels resolve to the nodes of `network`
    that have them; unknown labels are an error."""
    tokens = Tokens(text)
    table, node = network.label_index
    members = node[tokens.ids(table)[1]]  # an unknown label's id -1 gives -1
    unknown = np.flatnonzero(members < 0)
    if len(unknown):
        raise CoverError("cover references unknown node labels: "
                         f"{sorted(set(tokens.strings(unknown)))}")
    heads = np.flatnonzero(tokens.first)
    return Cover(np.diff(heads, append=len(members)), members)


def mesoscopic_profile(c: Cover) -> dict[str, EmpiricalDistribution | None]:
    """Community size, node membership, and pairwise overlap-size
    distributions, keyed by `MESO_PROPS`, computed on the full cover (before
    any pruning); the overlap sizes are None when no two communities
    overlap."""
    overlaps = np.diff(c.overlaps[1])
    return dict(zip(MESO_PROPS, (
        EmpiricalDistribution(c.sizes),
        EmpiricalDistribution(np.bincount(c.indices, minlength=len(c.nodes))),
        EmpiricalDistribution(overlaps) if len(overlaps) else None,
    )))


def community_graph_edges(c: Cover) -> np.ndarray:
    """Edges (i, j), i < j, between communities sharing at least one node,
    as the rows of an (E, 2) int64 array in row-major order."""
    return np.stack(np.divmod(c.overlaps[0], len(c.sizes)), axis=1)


def build_community_graph(c: Cover) -> CommunityGraph:
    """Community-graph: one node per community, an edge where two
    communities overlap, reduced to its giant connected component.
    A fully disjoint cover degenerates to the single smallest-index
    community node, flagged explicitly."""
    k = len(c.sizes)
    edges = community_graph_edges(c)
    if not len(edges):
        return CommunityGraph(graph=Graph(1, [], ["0"]), n_communities=k, degenerate=True)
    full = Graph(k, edges, [str(i) for i in range(k)])
    return CommunityGraph(graph=giant_component(full), n_communities=k, degenerate=False)
