"""Covers (possibly overlapping node-set communities), mesoscopic
property distributions, and community-graph construction."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable, Mapping

import numpy as np
from scipy import sparse

from .graph import EmpiricalDistribution, Graph, giant_component


class CoverError(ValueError):
    """Invalid cover input."""


@dataclass(frozen=True)
class Cover:
    """A list of non-empty, possibly overlapping communities (node-id sets)."""

    communities: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not self.communities:
            raise CoverError("cover has zero communities")
        if any(len(c) == 0 for c in self.communities):
            raise CoverError("cover contains an empty community")

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]]) -> "Cover":
        return cls(tuple(frozenset(s) for s in sets))

    @property
    def universe(self) -> frozenset[int]:
        out: set[int] = set()
        for c in self.communities:
            out |= c
        return frozenset(out)

    def restricted_to(self, nodes: frozenset[int]) -> "Cover":
        """Drop nodes outside `nodes`; communities emptied entirely are dropped."""
        kept = [c & nodes for c in self.communities]
        kept = [c for c in kept if c]
        if not kept:
            raise CoverError("restriction removed every community")
        return Cover(tuple(kept))


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
    communities: list[frozenset[int]] = []
    unknown: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        members: set[int] = set()
        for tok in stripped.split():
            if tok in label_map:
                members.add(label_map[tok])
            else:
                unknown.append(tok)
        if members or unknown:
            communities.append(frozenset(members))
    if unknown:
        raise CoverError(f"cover references unknown node labels: {sorted(set(unknown))}")
    if not communities:
        raise CoverError("cover has zero communities")
    return Cover(tuple(communities))


def incidence(c: Cover, universe: Iterable[int] | None = None) -> sparse.csr_array:
    """Communities x nodes 0/1 matrix: row i is community i, column j the
    j-th node of the sorted `universe` (default: the cover's own), which
    must contain every member. Node ids are mapped to columns by search,
    so they may be negative or large."""
    nodes = np.array(sorted(c.universe if universe is None else universe), dtype=np.int64)
    sizes = [len(s) for s in c.communities]
    members = np.fromiter(chain.from_iterable(c.communities), dtype=np.int64,
                          count=sum(sizes))
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return sparse.csr_array(
        (np.ones(len(members), dtype=np.int64), np.searchsorted(nodes, members), indptr),
        shape=(len(sizes), len(nodes)))


def _overlaps(b: sparse.csr_array) -> sparse.coo_array:
    """|C_i & C_j| for every overlapping pair i < j of an incidence matrix's
    communities, as COO row/col/data."""
    return sparse.triu(b @ b.T, k=1, format="coo")


def mesoscopic_profile(c: Cover) -> MesoscopicProfile:
    """Community size, node membership, and pairwise overlap-size
    distributions, computed on the full cover (before any pruning)."""
    b = incidence(c)
    sizes = [len(s) for s in c.communities]
    overlaps = _overlaps(b).data.tolist()
    return MesoscopicProfile(
        community_sizes=EmpiricalDistribution.from_values(sizes),
        memberships=EmpiricalDistribution.from_values(b.sum(axis=0).tolist()),
        overlap_sizes=(EmpiricalDistribution.from_values(overlaps) if overlaps else None),
        community_count=len(c.communities),
        max_size=max(sizes),
        avg_size=sum(sizes) / len(sizes),
    )


def community_graph_edges(c: Cover) -> frozenset[tuple[int, int]]:
    """Edges (i < j) between communities sharing at least one node."""
    pairs = _overlaps(incidence(c))
    return frozenset(zip(pairs.row.tolist(), pairs.col.tolist()))


def build_community_graph(c: Cover) -> CommunityGraph:
    """Community-graph: one node per community, an edge where two
    communities overlap, reduced to its giant connected component.
    A fully disjoint cover degenerates to the single smallest-index
    community node, flagged explicitly."""
    k = len(c.communities)
    edges = community_graph_edges(c)
    if not edges:
        return CommunityGraph(graph=Graph(1, [], ["0"]), n_communities=k, degenerate=True)
    full = Graph(k, edges, [str(i) for i in range(k)])
    return CommunityGraph(graph=giant_component(full), n_communities=k, degenerate=False)
