"""Covers (possibly overlapping node-set communities), mesoscopic
property distributions, and community-graph construction."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from .graph import EmpiricalDistribution, Graph, giant_component


class CoverError(ValueError):
    """Invalid cover input."""


class Cover:
    """A list of non-empty, possibly overlapping communities of node ids.
    ``nodes`` holds the sorted distinct member ids (int64; any values) and
    ``matrix`` is the communities x nodes 0/1 CSR incidence with sorted
    column indices: row i is community i, column j is ``nodes[j]``."""

    __slots__ = ("nodes", "matrix")

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
        # building from coordinates sums repeated members; the data is reset to 1
        b = sparse.csr_array((np.ones(len(members), dtype=np.int64), (rows, cols)),
                             shape=(len(sizes), len(self.nodes)))
        b.data[:] = 1
        self.matrix = b

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]]) -> "Cover":
        sets = [list(s) for s in sets]
        return cls([len(s) for s in sets], list(chain.from_iterable(sets)))

    @property
    def communities(self) -> tuple[frozenset[int], ...]:
        """Each community's member ids, as sets."""
        members = self.nodes[self.matrix.indices].tolist()
        bounds = self.matrix.indptr.tolist()
        return tuple(frozenset(members[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    def restricted_to(self, nodes: np.ndarray) -> "Cover":
        """Drop members outside the ids `nodes`; communities emptied
        entirely are dropped."""
        keep = np.isin(self.nodes, nodes)
        b = self.matrix[:, keep]
        sizes = np.diff(b.indptr)
        if not sizes.any():
            raise CoverError("restriction removed every community")
        return Cover(sizes[sizes > 0], self.nodes[keep][b.indices])


@dataclass(frozen=True)
class MesoscopicProfile:
    community_sizes: EmpiricalDistribution
    memberships: EmpiricalDistribution
    overlap_sizes: EmpiricalDistribution | None  # None when no pair overlaps
    community_count: int
    max_size: int
    avg_size: float


@dataclass(frozen=True)
class CommunityGraph:
    """Community-graph build result: its giant component and the number of
    communities it was built from."""

    graph: Graph
    n_communities: int
    degenerate: bool  # all communities disjoint; giant forced to one node


def load_cover(text: str | bytes | IO, label_map: Mapping[str, int]) -> Cover:
    """Parse a SNAP-style community file (one community per line,
    whitespace-separated node labels, '#' comments). Labels resolve through
    the graph's label map; unknown labels are an error."""
    if hasattr(text, "read"):
        text = text.read()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    sizes: list[int] = []
    members: list[int] = []
    unknown: list[str] = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        sizes.append(len(tokens))  # all members, unless some label is unknown
        for tok in tokens:
            if tok in label_map:
                members.append(label_map[tok])
            else:
                unknown.append(tok)
    if unknown:
        raise CoverError(f"cover references unknown node labels: {sorted(set(unknown))}")
    return Cover(sizes, members)


def _overlaps(b: sparse.csr_array) -> sparse.coo_array:
    """|C_i & C_j| for every overlapping pair i < j of an incidence matrix's
    communities, as COO row/col/data."""
    return sparse.triu(b @ b.T, k=1, format="coo")


def mesoscopic_profile(c: Cover) -> MesoscopicProfile:
    """Community size, node membership, and pairwise overlap-size
    distributions, computed on the full cover (before any pruning)."""
    b = c.matrix
    sizes = b.sum(axis=1)
    overlaps = _overlaps(b).data
    return MesoscopicProfile(
        community_sizes=EmpiricalDistribution(sizes),
        memberships=EmpiricalDistribution(b.sum(axis=0)),
        overlap_sizes=EmpiricalDistribution(overlaps) if len(overlaps) else None,
        community_count=len(sizes),
        max_size=int(sizes.max()),
        avg_size=int(sizes.sum()) / len(sizes),
    )


def community_graph_edges(c: Cover) -> frozenset[tuple[int, int]]:
    """Edges (i < j) between communities sharing at least one node."""
    pairs = _overlaps(c.matrix)
    return frozenset(zip(pairs.row.tolist(), pairs.col.tolist()))


def build_community_graph(c: Cover) -> CommunityGraph:
    """Community-graph: one node per community, an edge where two
    communities overlap, reduced to its giant connected component.
    A fully disjoint cover degenerates to the single smallest-index
    community node, flagged explicitly."""
    k = c.matrix.shape[0]
    edges = community_graph_edges(c)
    if not edges:
        return CommunityGraph(graph=Graph(1, [], ["0"]), n_communities=k, degenerate=True)
    full = Graph(k, edges, [str(i) for i in range(k)])
    return CommunityGraph(graph=giant_component(full), n_communities=k, degenerate=False)
