"""Ground-truth-free quality metrics: the five per-community scoring
functions and overlapping modularity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .cover import Cover
from .graph import Graph, GraphError


@dataclass(frozen=True)
class CommunityStats:
    n_s: int
    m_s: int                     # intra-community edges (= e_in)
    out_frac: tuple[float, ...]  # per member, fraction of its edges leaving S
    e_in: int
    e_out: int                   # edge endpoints leaving S, one per inside endpoint
    intra_deg: tuple[int, ...]
    total_deg: tuple[int, ...]


@dataclass(frozen=True)
class QualityReport:
    avg_degree: float
    avg_odf: float
    flake_odf: float
    internal_density: float
    max_odf: float
    q_ov: float

    def as_dict(self) -> dict[str, float]:
        return {
            "AD": self.avg_degree,
            "AO": self.avg_odf,
            "FO": self.flake_odf,
            "ID": self.internal_density,
            "MO": self.max_odf,
            "OM": self.q_ov,
        }


def community_stats(g: Graph, s: frozenset[int] | set[int]) -> CommunityStats:
    if not s:
        raise GraphError("empty community")
    return _cover_stats(g, Cover.from_sets([s]))[0]


def _cover_stats(g: Graph, c: Cover) -> list[CommunityStats]:
    """The stats of every community of `c`, members in id order. Row i of
    the product of the incidence matrix and the adjacency counts each
    node's neighbours inside community i, so one product gives every
    member's intra-degree; the cover's columns are relabelled with its
    node ids, which keeps each row's indices sorted."""
    if c.nodes[0] < 0 or c.nodes[-1] >= g.n:
        raise GraphError("community references a node outside the graph")
    b = sparse.csr_array((c.matrix.data, c.nodes[c.matrix.indices], c.matrix.indptr),
                         shape=(c.matrix.shape[0], g.n))
    rows = np.repeat(np.arange(b.shape[0]), np.diff(b.indptr))
    intra = (b @ g.adjacency)[rows, b.indices]
    total = np.diff(g.adjacency.indptr)[b.indices]
    fracs = np.divide(total - intra, total, out=np.zeros(len(total)), where=total > 0)
    intra, total, fracs = intra.tolist(), total.tolist(), fracs.tolist()
    stats = []
    for lo, hi in zip(b.indptr[:-1].tolist(), b.indptr[1:].tolist()):
        e_in2 = sum(intra[lo:hi])
        stats.append(CommunityStats(
            n_s=hi - lo,
            m_s=e_in2 // 2,
            out_frac=tuple(fracs[lo:hi]),
            e_in=e_in2 // 2,
            e_out=sum(total[lo:hi]) - e_in2,
            intra_deg=tuple(intra[lo:hi]),
            total_deg=tuple(total[lo:hi]),
        ))
    return stats


def avg_degree_score(cs: CommunityStats) -> float:
    return 2 * cs.m_s / cs.n_s


def internal_density_score(cs: CommunityStats) -> float:
    if cs.n_s < 2:
        return 0.0
    return cs.m_s / (cs.n_s * (cs.n_s - 1) / 2)


def max_odf_score(cs: CommunityStats) -> float:
    return max(cs.out_frac)


def avg_odf_score(cs: CommunityStats) -> float:
    return sum(cs.out_frac) / cs.n_s


def flake_odf_score(cs: CommunityStats) -> float:
    bad = sum(1 for din, d in zip(cs.intra_deg, cs.total_deg) if din < d / 2)
    return bad / cs.n_s


def _modularity(m: int, stats: list[CommunityStats]) -> float:
    if m < 1:
        raise GraphError("modularity undefined on an edgeless graph")
    total = 0.0
    for cs in stats:
        total += cs.e_in / m - ((2 * cs.e_in + cs.e_out) / (2 * m)) ** 2
    return total


def overlapping_modularity(g: Graph, c: Cover) -> float:
    """Sum over communities of e_in/|E| - ((2 e_in + e_out) / (2|E|))^2.
    Overlapping nodes contribute to every community containing them."""
    return _modularity(g.edge_count, _cover_stats(g, c))


def quality_report(g: Graph, c: Cover) -> QualityReport:
    """Unweighted cover-level means of the five per-community scores plus
    overlapping modularity."""
    stats = _cover_stats(g, c)
    k = len(stats)
    return QualityReport(
        avg_degree=sum(avg_degree_score(s) for s in stats) / k,
        avg_odf=sum(avg_odf_score(s) for s in stats) / k,
        flake_odf=sum(flake_odf_score(s) for s in stats) / k,
        internal_density=sum(internal_density_score(s) for s in stats) / k,
        max_odf=sum(max_odf_score(s) for s in stats) / k,
        q_ov=_modularity(g.edge_count, stats),
    )
