"""End-to-end evaluation: load network + ground truth + candidate covers,
compute every property group, build local rankings, and merge them with
Kemeny consensus and TOPSIS."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import clustering as cl
from .cover import Cover, CommunityGraph, build_community_graph, load_cover, mesoscopic_profile
from .distfit import FitError
from .graph import (
    EmpiricalDistribution, Graph, GraphError, basic_properties,
    clustering_by_degree, degree_distribution, load_edge_list,
)
from .quality import quality_report
from .ranking import (
    DecisionMatrix, RankingTable, competition_ranks, kemeny_consensus,
    rank_distribution, rank_scalar, spearman_matrix, topsis,
)

BASIC_PROPS = ("V", "E", "rho", "d", "l_G", "avg_deg", "max_deg", "tau", "C")
MICRO_PROPS = ("DD", "Av", "HD")
MESO_PROPS = ("CS", "M", "OS")
QUALITY_PROPS = ("AD", "AO", "FO", "ID", "MO", "OM")
CLUSTERING_PROPS = ("NMI", "OI", "F1-score")

ALL_GROUPS = ("basic", "microscopic", "mesoscopic", "quality", "clustering")
MCDM_METHODS = ("kemeny", "topsis")


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
    mcdm: tuple[str, ...] = MCDM_METHODS
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
        unknown = set(self.mcdm) - set(MCDM_METHODS)
        if unknown:
            raise PipelineError(f"unknown mcdm methods: {sorted(unknown)}")

    @classmethod
    def from_json(cls, path: str | Path, **overrides) -> "RunConfig":
        """Read a config file. Relative paths in the file are taken relative
        to the file's directory; `overrides` (None = keep the file's value)
        are used as given, so a relative `output_dir` override stays relative
        to the current directory."""
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise PipelineError(f"{path}: a config must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise PipelineError(f"unknown config keys: {sorted(unknown)}")
        if not isinstance(doc.get("candidates"), list):
            raise PipelineError("candidates must be a list")
        for c in doc["candidates"]:
            if (not isinstance(c, dict) or set(c) != {"name", "cover_path"}
                    or not all(isinstance(v, str) for v in c.values())):
                raise PipelineError("a candidate needs exactly the keys name and "
                                    f"cover_path, both strings, got {c!r}")
        base = Path(path).parent
        for key in ("network_path", "ground_truth_path", "output_dir"):
            if key in doc:
                doc[key] = str(base / doc[key])
        doc.update({k: v for k, v in overrides.items() if v is not None})
        return cls(
            network_path=doc["network_path"],
            ground_truth_path=doc["ground_truth_path"],
            candidates=tuple((c["name"], str(base / c["cover_path"]))
                             for c in doc["candidates"]),
            property_groups=tuple(doc.get("property_groups", ALL_GROUPS)),
            hop_mode=doc.get("hop_mode", "exact"),
            sources=int(doc.get("sources", 1000)),
            seed=doc.get("seed"),
            mcdm=tuple(doc.get("mcdm", MCDM_METHODS)),
            output_dir=doc.get("output_dir", "out"),
        )


@dataclass(frozen=True)
class EvaluationReport:
    """JSON-serializable result bundle; bit-for-bit reproducible for a
    fixed config + seed. `samples` holds the sample dumps per cover and
    property, which emit_reports writes and the JSON leaves out."""

    data: dict
    samples: dict[str, dict[str, EmpiricalDistribution]] = field(
        default_factory=dict, compare=False)

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
    quality: dict[str, float | None]


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
        micro["HD"] = props.hops.distribution
    profile = mesoscopic_profile(cover)
    meso: dict[str, EmpiricalDistribution | None] = {
        "CS": profile.community_sizes,
        "M": profile.memberships,
        "OS": profile.overlap_sizes,
    }
    qr = quality_report(network, cover)
    return _CoverEval(cover=cover, cgraph=cg, basic=basic, micro=micro, meso=meso,
                      quality={k: _safe_float(v) for k, v in qr.as_dict().items()})


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
        all_evals = {"ground_truth": truth_eval, **evals}

        columns: dict[str, list[int]] = {}
        fit_meta: dict[str, dict] = {}
        notes: list[str] = []

        groups = set(cfg.property_groups)
        if "basic" in groups:
            for prop in BASIC_PROPS:
                if truth_eval.basic[prop] is None:
                    raise PipelineError(f"ground truth failed basic property {prop!r}")
                notes.extend(f"{n} failed {prop}; ranked last"
                             for n in names if evals[n].basic[prop] is None)
            rt = rank_scalar(truth_eval.basic, {n: evals[n].basic for n in names})
            columns.update((prop, rt.column(prop)) for prop in BASIC_PROPS)

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
            rt = rank_scalar(truth_eval.quality, {n: evals[n].quality for n in names})
            columns.update((prop, rt.column(prop)) for prop in QUALITY_PROPS)

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
                "basic": ev.basic,
            }
            for n, ev in all_evals.items()
        },
        "quality": {n: ev.quality for n, ev in all_evals.items()},
        "clustering": {n: {k: _safe_float(v) for k, v in vals.items()}
                       for n, vals in clustering_values.items()},
        "distribution_fits": fit_meta,
        "tables": tables,
        "notes": sorted(set(notes)),
    }
    samples = {n: {p: s for p, s in {**ev.micro, **ev.meso}.items() if s is not None}
               for n, ev in all_evals.items()}
    return EvaluationReport(data=data, samples=samples)


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

    def write(name: str, text: str) -> None:
        path = out / name
        path.write_text(text)
        written.append(path)

    def write_csv(name: str, rows) -> None:
        write(name, "".join(",".join(_fmt(cell) for cell in row) + "\n" for row in rows))

    write("report.json", report.to_json())
    data = report.data
    for table_name, entry in sorted(data["tables"].items()):
        crits = entry["criteria"]
        consensus = [(label, entry[key]["ranks"])
                     for key, label in (("kemeny", "Kconsensus"), ("topsis", "TOPSIS"))
                     if key in entry]
        write_csv(f"ranking_{table_name}.csv",
                  [["algorithm", *crits, *(label for label, _ in consensus)]]
                  + [[alg, *row, *(ranks[alg] for _, ranks in consensus)]
                     for alg, row in entry["ranks"].items()])
        if "spearman" in entry:
            write_csv(f"spearman_{table_name}.csv",
                      [["", *crits]] + [[c, *row] for c, row in zip(crits, entry["spearman"])])

    write_csv("quality.csv", [["name", *QUALITY_PROPS]]
              + [[n, *(vals[p] for p in QUALITY_PROPS)] for n, vals in data["quality"].items()])
    if data["clustering"]:
        write_csv("clustering.csv", [["name", *CLUSTERING_PROPS]]
                  + [[n, *(vals[p] for p in CLUSTERING_PROPS)]
                     for n, vals in data["clustering"].items()])

    for name, dists in sorted(report.samples.items()):
        for prop, dist in sorted(dists.items()):
            # one row per distinct value with the right-continuous ECDF
            values, counts = np.unique(dist.samples, return_counts=True)
            ecdf = np.cumsum(counts) / dist.n
            write_csv(f"dist_{name}_{prop}.csv",
                      [["value", "ecdf"], *zip(values.tolist(), ecdf.tolist())])
    return written
