"""Toolkit for evaluating overlapping community-detection outputs against
a ground-truth cover: community-graph topology, distribution fitting,
quality and clustering metrics, and MCDM rank aggregation."""

from .clustering import f1_best_match, omega_index, onmi_max
from .cover import Cover, build_community_graph, load_cover, mesoscopic_profile
from .distfit import Family, FitReport, best_fit, fit_mle, ks_statistic
from .graph import (
    EmpiricalDistribution, Graph, basic_properties, clustering_by_degree,
    degree_distribution, giant_component, hop_distribution, load_edge_list,
)
from .pipeline import EvaluationReport, RunConfig, emit_reports, run
from .quality import quality_report
from .ranking import (
    RankingTable, kemeny_consensus, rank_distribution, rank_scalar, spearman_matrix, topsis,
)

__all__ = [
    "Cover", "EmpiricalDistribution", "EvaluationReport", "Family", "FitReport",
    "Graph", "RankingTable", "RunConfig",
    "basic_properties", "best_fit", "build_community_graph",
    "clustering_by_degree", "degree_distribution", "emit_reports",
    "f1_best_match", "fit_mle", "giant_component", "hop_distribution",
    "kemeny_consensus", "ks_statistic", "load_cover", "load_edge_list",
    "mesoscopic_profile", "omega_index", "onmi_max", "quality_report",
    "rank_distribution", "rank_scalar", "run", "spearman_matrix", "topsis",
]
