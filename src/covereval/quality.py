"""Ground-truth-free quality metrics: the five per-community scoring
functions and overlapping modularity."""

from __future__ import annotations

from dataclasses import dataclass

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
    members = sorted(s)
    if members[0] < 0 or members[-1] >= g.n:
        raise GraphError("community references a node outside the graph")
    sset = set(members)
    intra = []
    total = []
    fracs = []
    e_in2 = 0
    e_out = 0
    for u in members:
        d = g.degree(u)
        din = sum(1 for v in g.adj[u] if v in sset)
        dout = d - din
        e_in2 += din
        e_out += dout
        intra.append(din)
        total.append(d)
        fracs.append(dout / d if d > 0 else 0.0)
    return CommunityStats(
        n_s=len(members),
        m_s=e_in2 // 2,
        out_frac=tuple(fracs),
        e_in=e_in2 // 2,
        e_out=e_out,
        intra_deg=tuple(intra),
        total_deg=tuple(total),
    )


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
    return _modularity(g.edge_count, [community_stats(g, comm) for comm in c.communities])


def quality_report(g: Graph, c: Cover) -> QualityReport:
    """Unweighted cover-level means of the five per-community scores plus
    overlapping modularity."""
    stats = [community_stats(g, comm) for comm in c.communities]
    k = len(stats)
    return QualityReport(
        avg_degree=sum(avg_degree_score(s) for s in stats) / k,
        avg_odf=sum(avg_odf_score(s) for s in stats) / k,
        flake_odf=sum(flake_odf_score(s) for s in stats) / k,
        internal_density=sum(internal_density_score(s) for s in stats) / k,
        max_odf=sum(max_odf_score(s) for s in stats) / k,
        q_ov=_modularity(g.edge_count, stats),
    )
