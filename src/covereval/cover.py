"""Covers (possibly overlapping node-set communities), mesoscopic
property distributions, and community-graph construction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .graph import EmpiricalDistribution, Graph, csr, giant_component, row_of, row_pairs


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
    nodes 0/1 incidence in CSR form. A cover that is the reference of an
    omega index also keeps its co-member pairs (`reference_pairs`)."""

    __slots__ = ("nodes", "indptr", "indices", "_reference_pairs")

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
        self._reference_pairs = None

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

    @property
    def sizes(self) -> np.ndarray:
        """Each community's member count."""
        return np.diff(self.indptr)

    def transposed(self) -> tuple[np.ndarray, np.ndarray]:
        """The incidence transposed, nodes x communities, in CSR form: node
        j's communities are ``c[p[j]:p[j + 1]]`` for ``p, c`` returned, in
        increasing order."""
        return csr(self.indices, row_of(self.indptr), len(self.nodes), len(self.sizes))

    def co_memberships(self) -> tuple[np.ndarray, np.ndarray]:
        """Every node pair i < j (positions in ``nodes``) that some community
        holds, as the increasing codes i * n + j, and the number of
        communities holding it: the pairs of each community's members,
        counted. Pairs that never co-occur are not listed."""
        _, i, j = row_pairs(self.indptr, self.indices)
        return np.unique(i * len(self.nodes) + j, return_counts=True)

    def reference_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """`co_memberships()`, built on the first call and kept, read-only:
        a run scores every candidate against the same reference."""
        if self._reference_pairs is None:
            self._reference_pairs = self.co_memberships()
            for a in self._reference_pairs:
                a.flags.writeable = False
        return self._reference_pairs

    def restricted_to(self, nodes: np.ndarray) -> "Cover":
        """Drop members outside the ids `nodes`; communities emptied
        entirely are dropped."""
        keep = np.isin(self.nodes, nodes)[self.indices]
        sizes = np.add.reduceat(keep.astype(np.int64), self.indptr[:-1])
        if not sizes.any():
            raise CoverError("restriction removed every community")
        return Cover(sizes[sizes > 0], self.nodes[self.indices[keep]])


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


def _overlaps(c: Cover) -> tuple[np.ndarray, np.ndarray]:
    """Every overlapping pair i < j of the cover's communities, as the
    increasing codes i * K + j, and |C_i & C_j| for each: the pairs of
    each node's communities, counted."""
    _, i, j = row_pairs(*c.transposed())
    return np.unique(i * len(c.sizes) + j, return_counts=True)


def mesoscopic_profile(c: Cover) -> dict[str, EmpiricalDistribution | None]:
    """Community size, node membership, and pairwise overlap-size
    distributions, keyed by `MESO_PROPS`, computed on the full cover (before
    any pruning); the overlap sizes are None when no two communities
    overlap."""
    _, overlaps = _overlaps(c)
    return dict(zip(MESO_PROPS, (
        EmpiricalDistribution(c.sizes),
        EmpiricalDistribution(np.bincount(c.indices, minlength=len(c.nodes))),
        EmpiricalDistribution(overlaps) if len(overlaps) else None,
    )))


def community_graph_edges(c: Cover) -> np.ndarray:
    """Edges (i, j), i < j, between communities sharing at least one node,
    as the rows of an (E, 2) int64 array in row-major order."""
    return np.stack(np.divmod(_overlaps(c)[0], len(c.sizes)), axis=1)


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
