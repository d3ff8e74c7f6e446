"""End-to-end evaluation: load network + ground truth + candidate covers,
compute every property group, build local rankings, and merge them with
Kemeny consensus and TOPSIS."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from . import clustering as cl
from .cover import Cover, CommunityGraph, build_community_graph, load_cover, mesoscopic_profile
from .distfit import FitError
from .graph import (
    EmpiricalDistribution, Graph, GraphError, basic_properties,
    clustering_by_degree, degree_distribution, hop_distribution, load_edge_list,
)
from .quality import quality_report
from .ranking import (
    DecisionMatrix, RankingTable, competition_ranks, kemeny_consensus,
    rank_distribution, spearman_matrix, topsis,
)

BASIC_PROPS = ("V", "E", "rho", "d", "l_G", "avg_deg", "max_deg", "tau", "C")
MICRO_PROPS = ("DD", "Av", "HD")
MESO_PROPS = ("CS", "M", "OS")
QUALITY_PROPS = ("AD", "AO", "FO", "ID", "MO", "OM")
CLUSTERING_PROPS = ("NMI", "OI", "F1-score")

ALL_GROUPS = ("basic", "microscopic", "mesoscopic", "quality", "clustering")


class PipelineError(RuntimeError):
    pass


@dataclass(frozen=True)
class RunConfig:
    network_path: str
    ground_truth_path: str
    candidates: tuple[tuple[str, str], ...]  # (name, cover path)
    property_groups: tuple[str, ...] = ALL_GROUPS
    hop_mode: str = "exact"                  # "exact" | "sampled"
    sources: int = 1000
    seed: int | None = None
    mcdm: tuple[str, ...] = ("kemeny", "topsis")
    output_dir: str = "out"

    def __post_init__(self):
        if not self.candidates:
            raise PipelineError("need at least one candidate cover")
        names = [n for n, _ in self.candidates]
        if len(set(names)) != len(names):
            raise PipelineError("candidate names must be unique")
        if self.hop_mode not in ("exact", "sampled"):
            raise PipelineError("hop_mode must be 'exact' or 'sampled'")
        if self.hop_mode == "sampled" and self.seed is None:
            raise PipelineError("sampled hop mode requires a seed")
        unknown = set(self.property_groups) - set(ALL_GROUPS)
        if unknown:
            raise PipelineError(f"unknown property groups: {sorted(unknown)}")

    @classmethod
    def from_json(cls, path: str | Path, **overrides) -> "RunConfig":
        doc = json.loads(Path(path).read_text())
        doc.update({k: v for k, v in overrides.items() if v is not None})
        return cls(
            network_path=doc["network_path"],
            ground_truth_path=doc["ground_truth_path"],
            candidates=tuple((c["name"], c["cover_path"]) for c in doc["candidates"]),
            property_groups=tuple(doc.get("property_groups", ALL_GROUPS)),
            hop_mode=doc.get("hop_mode", "exact"),
            sources=int(doc.get("sources", 1000)),
            seed=doc.get("seed"),
            mcdm=tuple(doc.get("mcdm", ("kemeny", "topsis"))),
            output_dir=doc.get("output_dir", "out"),
        )


@dataclass(frozen=True)
class EvaluationReport:
    """JSON-serializable result bundle; bit-for-bit reproducible for a
    fixed config + seed."""

    data: dict

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EvaluationReport":
        return cls(json.loads(text))


def _safe_float(x: float | None) -> float | None:
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


@dataclass
class _CoverEval:
    """Everything computed for one cover (ground truth or candidate)."""
    cover: Cover
    cgraph: CommunityGraph
    basic: dict[str, float | None]
    micro: dict[str, EmpiricalDistribution | None]
    meso: dict[str, EmpiricalDistribution | None]
    quality: dict[str, float]


def _evaluate_cover(name: str, cover: Cover, network: Graph, cfg: RunConfig) -> _CoverEval:
    cg = build_community_graph(cover)
    g = cg.graph
    basic: dict[str, float | None] = {p: None for p in BASIC_PROPS}
    micro: dict[str, EmpiricalDistribution | None] = {p: None for p in MICRO_PROPS}
    if not cg.degenerate and g.n >= 2 and g.edge_count >= 1:
        props = basic_properties(g, exact_paths=(cfg.hop_mode == "exact"),
                                 sources=cfg.sources, seed=cfg.seed)
        basic = {k: _safe_float(v) for k, v in props.as_dict().items()}
        micro["DD"] = degree_distribution(g)
        if g.n >= 3:
            curve = [v for _, v in clustering_by_degree(g) if v > 0]
            micro["Av"] = EmpiricalDistribution.from_values(curve) if curve else None
        micro["HD"] = hop_distribution(g, exact=(cfg.hop_mode == "exact"),
                                       sources=cfg.sources, seed=cfg.seed).distribution
    profile = mesoscopic_profile(cover)
    meso: dict[str, EmpiricalDistribution | None] = {
        "CS": profile.community_sizes,
        "M": profile.memberships,
        "OS": profile.overlap_sizes,
    }
    qr = quality_report(network, cover)
    return _CoverEval(cover=cover, cgraph=cg, basic=basic, micro=micro,
                      meso=meso, quality=qr.as_dict())


def _rank_with_failures(ref: float, values: Mapping[str, float | None]) -> list[int]:
    """Ascending |ref - value| competition ranks; missing values rank last."""
    dists = [abs(ref - v) if v is not None else math.inf for v in values.values()]
    return competition_ranks(dists, ascending=True)


def run(cfg: RunConfig) -> EvaluationReport:
    """Execute the full evaluation workflow and assemble the report."""
    try:
        network = load_edge_list(Path(cfg.network_path).read_text())
        label_map = network.label_map()
        truth = load_cover(Path(cfg.ground_truth_path).read_text(), label_map)
        covers = {name: load_cover(Path(path).read_text(), label_map)
                  for name, path in cfg.candidates}
    except (OSError, GraphError, ValueError) as exc:
        raise PipelineError(f"input loading failed: {exc}") from exc

    names = [name for name, _ in cfg.candidates]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        truth_eval = _evaluate_cover("ground_truth", truth, network, cfg)
        evals = {name: _evaluate_cover(name, covers[name], network, cfg)
                 for name in names}

        columns: dict[str, list[int]] = {}
        fit_meta: dict[str, dict] = {}
        notes: list[str] = []

        groups = set(cfg.property_groups)
        if "basic" in groups:
            for prop in BASIC_PROPS:
                ref = truth_eval.basic[prop]
                if ref is None:
                    raise PipelineError(f"ground truth failed basic property {prop!r}")
                vals = {n: evals[n].basic[prop] for n in names}
                for n, v in vals.items():
                    if v is None:
                        notes.append(f"{n} failed {prop}; ranked last")
                columns[prop] = _rank_with_failures(ref, vals)

        for group, props, source in (("microscopic", MICRO_PROPS, "micro"),
                                     ("mesoscopic", MESO_PROPS, "meso")):
            if group not in groups:
                continue
            for prop in props:
                ref_samples = getattr(truth_eval, source)[prop]
                if ref_samples is None or ref_samples.n < 5:
                    raise PipelineError(
                        f"ground truth has too few samples for {prop!r}")
                cand_samples = {n: getattr(evals[n], source)[prop] for n in names}
                usable = {n: s for n, s in cand_samples.items() if s is not None}
                try:
                    dr = rank_distribution(ref_samples, usable)
                except FitError as exc:
                    raise PipelineError(f"distribution ranking failed for {prop!r}: {exc}")
                scores = []
                for n in names:
                    if n not in usable or dr.candidate_ks[n] is None:
                        scores.append(math.inf)
                        notes.append(f"{n} inapplicable for {prop}; ranked last")
                    else:
                        scores.append(dr.candidate_ks[n])
                columns[prop] = competition_ranks(scores, ascending=True)
                fit_meta[prop] = {
                    "family": dr.family,
                    "reference_ks": dr.reference_fit.ks,
                    "reference_params": list(dr.reference_fit.params),
                    "candidate_ks": {n: _safe_float(dr.candidate_ks.get(n))
                                     for n in names},
                }

        if "quality" in groups:
            for prop in QUALITY_PROPS:
                ref = truth_eval.quality[prop]
                vals = {n: _safe_float(evals[n].quality[prop]) for n in names}
                columns[prop] = _rank_with_failures(ref, vals)

        clustering_values: dict[str, dict[str, float]] = {}
        if "clustering" in groups:
            for n in names:
                scores_nmi = cl.onmi_max(covers[n], truth)
                scores_oi = cl.omega_index(covers[n], truth)
                match = cl.f1_best_match(covers[n], truth)
                clustering_values[n] = {"NMI": scores_nmi, "OI": scores_oi,
                                        "F1-score": match.f1}
            # similarity scores: higher is better, rank 1 = highest
            for prop in CLUSTERING_PROPS:
                vals = [clustering_values[n][prop] for n in names]
                columns[prop] = competition_ranks(vals, ascending=False)

    group_columns = {
        "basic": [p for p in BASIC_PROPS if p in columns],
        "microscopic": [p for p in MICRO_PROPS if p in columns],
        "mesoscopic": [p for p in MESO_PROPS if p in columns],
        "quality": [p for p in QUALITY_PROPS if p in columns],
        "clustering": [p for p in CLUSTERING_PROPS if p in columns],
    }
    topo = (group_columns["basic"] + group_columns["microscopic"]
            + group_columns["mesoscopic"])
    tables: dict[str, dict] = {}
    table_specs = {g: group_columns[g] for g in cfg.property_groups}
    if all(g in groups for g in ("basic", "microscopic", "mesoscopic")):
        table_specs["all_topological"] = topo
    if groups == set(ALL_GROUPS):
        table_specs["all_properties"] = (topo + group_columns["quality"]
                                         + group_columns["clustering"])

    for table_name, crits in table_specs.items():
        if not crits:
            continue
        rt = RankingTable.from_columns(names, {c: columns[c] for c in crits})
        entry: dict = {
            "criteria": list(crits),
            "ranks": {n: list(row) for n, row in zip(names, rt.ranks)},
        }
        if "kemeny" in cfg.mcdm:
            kc = kemeny_consensus(rt)
            entry["kemeny"] = {"order": list(kc.order), "ranks": kc.ranks,
                               "score": kc.score, "exact": kc.exact}
        if "topsis" in cfg.mcdm and len(names) >= 2:
            ts = topsis(DecisionMatrix.from_ranks(rt))
            entry["topsis"] = {"closeness": {n: _safe_float(c)
                                             for n, c in ts.closeness.items()},
                               "ranks": ts.ranks}
        if len(names) >= 3:
            corr = spearman_matrix(rt)
            entry["spearman"] = [[_safe_float(v) for v in row] for row in corr]
        tables[table_name] = entry

    data = {
        "config": {
            "network_path": cfg.network_path,
            "ground_truth_path": cfg.ground_truth_path,
            "candidates": [list(c) for c in cfg.candidates],
            "property_groups": list(cfg.property_groups),
            "hop_mode": cfg.hop_mode,
            "sources": cfg.sources,
            "seed": cfg.seed,
            "mcdm": list(cfg.mcdm),
        },
        "community_graphs": {
            n: {
                "n_communities": ev.cgraph.n_communities,
                "degenerate": ev.cgraph.degenerate,
                "basic": {k: _safe_float(v) for k, v in ev.basic.items()},
            }
            for n, ev in {"ground_truth": truth_eval, **evals}.items()
        },
        "quality": {n: {k: _safe_float(v) for k, v in ev.quality.items()}
                    for n, ev in {"ground_truth": truth_eval, **evals}.items()},
        "clustering": {n: {k: _safe_float(v) for k, v in vals.items()}
                       for n, vals in clustering_values.items()},
        "distribution_fits": fit_meta,
        "tables": tables,
        "notes": sorted(set(notes)),
    }
    report = EvaluationReport(data=data)
    # stash sample dumps for emit_reports without baking them into the JSON
    object.__setattr__(report, "_samples", _collect_samples(truth_eval, evals))
    return report


def _collect_samples(truth_eval: _CoverEval, evals: Mapping[str, _CoverEval]
                     ) -> dict[str, dict[str, EmpiricalDistribution]]:
    out: dict[str, dict[str, EmpiricalDistribution]] = {}
    for name, ev in {"ground_truth": truth_eval, **evals}.items():
        dists: dict[str, EmpiricalDistribution] = {}
        for prop, samples in {**ev.micro, **ev.meso}.items():
            if samples is not None:
                dists[prop] = samples
        out[name] = dists
    return out


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def emit_reports(report: EvaluationReport, out_dir: str | Path) -> list[Path]:
    """Write the JSON bundle, one CSV per ranking table, quality and
    clustering CSVs, and per-distribution (value, ECDF) dumps."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PipelineError(f"cannot create output dir {out}: {exc}") from exc
    written: list[Path] = []

    bundle = out / "report.json"
    bundle.write_text(report.to_json())
    written.append(bundle)

    data = report.data
    for table_name, entry in sorted(data["tables"].items()):
        path = out / f"ranking_{table_name}.csv"
        crits = entry["criteria"]
        header = ["algorithm"] + crits
        has_k = "kemeny" in entry
        has_t = "topsis" in entry
        if has_k:
            header.append("Kconsensus")
        if has_t:
            header.append("TOPSIS")
        lines = [",".join(header)]
        for alg, row in entry["ranks"].items():
            cells = [alg] + [str(r) for r in row]
            if has_k:
                cells.append(str(entry["kemeny"]["ranks"][alg]))
            if has_t:
                cells.append(str(entry["topsis"]["ranks"][alg]))
            lines.append(",".join(cells))
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
        if "spearman" in entry:
            spath = out / f"spearman_{table_name}.csv"
            slines = [",".join([""] + crits)]
            for crit, row in zip(crits, entry["spearman"]):
                slines.append(",".join([crit] + [_fmt(v) for v in row]))
            spath.write_text("\n".join(slines) + "\n")
            written.append(spath)

    qpath = out / "quality.csv"
    qlines = [",".join(["name"] + list(QUALITY_PROPS))]
    for name, vals in data["quality"].items():
        qlines.append(",".join([name] + [_fmt(vals[p]) for p in QUALITY_PROPS]))
    qpath.write_text("\n".join(qlines) + "\n")
    written.append(qpath)

    if data["clustering"]:
        cpath = out / "clustering.csv"
        clines = [",".join(["name"] + list(CLUSTERING_PROPS))]
        for name, vals in data["clustering"].items():
            clines.append(",".join([name] + [_fmt(vals[p]) for p in CLUSTERING_PROPS]))
        cpath.write_text("\n".join(clines) + "\n")
        written.append(cpath)

    samples = getattr(report, "_samples", {})
    for name, dists in sorted(samples.items()):
        for prop, dist in sorted(dists.items()):
            dpath = out / f"dist_{name}_{prop}.csv"
            dlines = ["value,ecdf"]
            n = dist.n
            # one row per distinct value with the right-continuous ECDF
            vals: list[float] = []
            counts: list[int] = []
            for v in dist.samples:
                if vals and vals[-1] == v:
                    counts[-1] += 1
                else:
                    vals.append(v)
                    counts.append(1)
            cum = 0
            for v, c in zip(vals, counts):
                cum += c
                dlines.append(f"{_fmt(v)},{_fmt(cum / n)}")
            dpath.write_text("\n".join(dlines) + "\n")
            written.append(dpath)
    return written
