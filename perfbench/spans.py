"""Spans and counters recorded from outside the program.

`install` replaces the public functions that `covereval.pipeline` and
`covereval.ranking` call with wrappers that record one span per call (name,
start, end, parent span, run id) and derive counters from the call's
arguments and result. Spans stay in memory; the benchmark writes them out
when it ends. Layers are the program's modules: a span named
`distfit.fit_mle` belongs to layer `distfit`.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter

ROOT = "pipeline.root"


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._distinct: dict[int, int] = {}

    def span(self, name: str, fn, count=None):
        """Wrap `fn` so that each call records a span and, when given,
        calls `count(tracer, args, result_or_exception)`."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            outcome = None
            span[1] = time.perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if count is not None:
                    count(self, args, outcome)
        return wrapper

    def distinct(self, dist) -> int:
        """Distinct values of an EmpiricalDistribution, once per object."""
        key = id(dist)
        if key not in self._distinct:
            self._distinct[key] = len(set(dist.samples))
        return self._distinct[key]

    def export(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans,
                "counters": dict(self.counters)}


# counters derived from (args, result); a result that is an exception means
# the call raised

def _count_fit(t: Tracer, args, res) -> None:
    data = args[1]
    t.counters["distfit.fit_calls"] += 1
    t.counters["distfit.samples"] += data.n
    t.counters["distfit.distinct_values"] += t.distinct(data)
    if isinstance(res, Exception):
        t.counters["distfit.inapplicable"] += 1


def _count_network(t: Tracer, args, res) -> None:
    if not isinstance(res, Exception):
        t.counters["graph.V"] += res.n
        t.counters["graph.E"] += res.edge_count


def _count_hops(t: Tracer, args, res) -> None:
    t.counters["graph.hop_calls"] += 1
    if not isinstance(res, Exception):
        t.counters["graph.hop_samples"] += res.distribution.n


def _count_cover(t: Tracer, args, res) -> None:
    if not isinstance(res, Exception):
        sizes = [len(c) for c in res.communities]
        t.counters["cover.K"] += len(sizes)
        t.counters["cover.incidences"] += sum(sizes)
        t.counters["cover.sum_sq_sizes"] += sum(s * s for s in sizes)


def _count_cgraph(t: Tracer, args, res) -> None:
    if not isinstance(res, Exception):
        t.counters["cover.cg_nodes"] += res.graph.n
        t.counters["cover.cg_edges"] += res.graph.edge_count


def _count_pairs(t: Tracer, args, res) -> None:
    t.counters["clustering.community_pairs"] += (
        len(args[0].communities) * len(args[1].communities))


def _count_kemeny(t: Tracer, args, res) -> None:
    t.counters["ranking.kemeny_tables"] += 1
    if not isinstance(res, Exception) and res.exact:
        t.counters["ranking.kemeny_exact_tables"] += 1
        t.counters["ranking.kemeny_perms"] += math.factorial(len(res.order))


def _count_optimizer(tracer: Tracer, minimize):
    """The simplex searches of the fits: objective evaluations, and searches
    that stopped at their evaluation or iteration cap. Counted only, no span."""
    @functools.wraps(minimize)
    def wrapper(*args, **kwargs):
        res = minimize(*args, **kwargs)
        tracer.counters["distfit.nfev"] += res.nfev
        tracer.counters["distfit.capped_fits"] += not res.success
        return res
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the names `pipeline` imports from graph, cover, quality,
    clustering and ranking, plus the calls nested inside them that give
    child spans (best_fit -> fit_mle -> ks_statistic, basic_properties ->
    hop_distribution)."""
    from covereval import clustering, cover, distfit, graph, pipeline, quality, ranking

    def wrap(name: str, fn, count=None, *owners):
        w = tracer.span(name, fn, count)
        for mod in owners:
            setattr(mod, fn.__name__, w)

    distfit.optimize.minimize = _count_optimizer(tracer, distfit.optimize.minimize)
    wrap("distfit.fit_mle", distfit.fit_mle, _count_fit, distfit, ranking)
    wrap("distfit.ks_statistic", distfit.ks_statistic, None, distfit)
    wrap("distfit.best_fit", ranking.best_fit, None, ranking)
    wrap("graph.load_edge_list", pipeline.load_edge_list, _count_network, pipeline)
    wrap("graph.basic_properties", pipeline.basic_properties, None, pipeline)
    wrap("graph.hop_distribution", graph.hop_distribution, _count_hops, graph, pipeline)
    wrap("graph.clustering_by_degree", pipeline.clustering_by_degree, None, pipeline)
    wrap("graph.degree_distribution", pipeline.degree_distribution, None, pipeline)
    wrap("cover.load_cover", pipeline.load_cover, _count_cover, pipeline)
    wrap("cover.build_community_graph", pipeline.build_community_graph,
         _count_cgraph, pipeline)
    wrap("cover.mesoscopic_profile", pipeline.mesoscopic_profile, None, pipeline)
    wrap("quality.quality_report", pipeline.quality_report, None, pipeline)
    wrap("clustering.onmi_max", clustering.onmi_max, _count_pairs, clustering)
    wrap("clustering.omega_index", clustering.omega_index, None, clustering)
    wrap("clustering.f1_best_match", clustering.f1_best_match, None, clustering)
    wrap("ranking.rank_distribution", pipeline.rank_distribution, None, pipeline)
    wrap("ranking.competition_ranks", pipeline.competition_ranks, None, pipeline)
    wrap("ranking.kemeny_consensus", pipeline.kemeny_consensus, _count_kemeny, pipeline)
    wrap("ranking.topsis", pipeline.topsis, None, pipeline)
    wrap("ranking.spearman_matrix", pipeline.spearman_matrix, None, pipeline)
    wrap("pipeline.emit_reports", pipeline.emit_reports, None, pipeline)


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name, the summed duration minus the time covered by its
    direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
    return out
