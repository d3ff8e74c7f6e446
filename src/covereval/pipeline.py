"""End-to-end evaluation: load network + ground truth + candidate covers,
compute every property group, build local rankings, and merge them with
Kemeny consensus and TOPSIS."""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .clustering import CLUSTERING_PROPS, clustering_scores
from .cover import (
    MESO_PROPS, Cover, CommunityGraph, build_community_graph, load_cover, mesoscopic_profile,
)
from .distfit import FitError
from .graph import (
    BASIC_PROPS, DEFAULT_HOP_SOURCES, EmpiricalDistribution, Graph, GraphError,
    basic_properties, clustering_by_degree, degree_distribution, load_edge_list,
)
from .quality import QUALITY_PROPS, quality_report
from .ranking import (
    RankingTable, competition_ranks, kemeny_consensus,
    rank_distribution, rank_scalar, spearman_matrix, topsis,
)

# degree distribution, clustering by degree, hop distances
MICRO_PROPS = ("DD", "Av", "HD")
# each property group's report names, in report and table-column order
GROUP_PROPS = {"basic": BASIC_PROPS, "microscopic": MICRO_PROPS, "mesoscopic": MESO_PROPS,
               "quality": QUALITY_PROPS, "clustering": CLUSTERING_PROPS}
TOPOLOGY_GROUPS = ("basic", "microscopic", "mesoscopic")
MCDM_METHODS = ("kemeny", "topsis")


class PipelineError(RuntimeError):
    pass


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_str_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


# (key, check, what the error says it must be) for config values that
# would otherwise be converted or iterated silently, or fail in a path join
_VALUE_TYPES = (
    *((key, lambda v: isinstance(v, str), "a string")
      for key in ("network_path", "ground_truth_path", "output_dir")),
    ("sources", _is_int, "an integer"),
    ("seed", lambda v: v is None or _is_int(v), "an integer or null"),
    ("property_groups", _is_str_list, "a list of strings"),
    ("mcdm", _is_str_list, "a list of strings"),
)


@dataclass(frozen=True)
class RunConfig:
    network_path: str
    ground_truth_path: str
    candidates: tuple[tuple[str, str], ...]  # (name, cover path)
    property_groups: tuple[str, ...] = tuple(GROUP_PROPS)
    hop_mode: str = "exact"                  # "exact" | "sampled"
    sources: int = DEFAULT_HOP_SOURCES
    seed: int | None = None
    mcdm: tuple[str, ...] = MCDM_METHODS
    output_dir: str = "out"

    def __post_init__(self):
        if not self.candidates:
            raise PipelineError("need at least one candidate cover")
        names = [n for n, _ in self.candidates]
        if len(set(names)) != len(names):
            raise PipelineError("candidate names must be unique")
        # the report keys the truth's entries by this name; names go into file names
        bad = [n for n in names if n == "ground_truth" or "/" in n or "\0" in n]
        if bad:
            raise PipelineError("a candidate name must not be 'ground_truth' or contain "
                                f"'/' or NUL, got {bad[0]!r}")
        if self.hop_mode not in ("exact", "sampled"):
            raise PipelineError("hop_mode must be 'exact' or 'sampled'")
        if self.hop_mode == "sampled" and self.seed is None:
            raise PipelineError("sampled hop mode requires a seed")
        if self.sources < 1:  # read in exact mode too, where a seed turns sampling on
            raise PipelineError(f"sources must be at least 1, got {self.sources}")
        unknown = set(self.property_groups) - set(GROUP_PROPS)
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
        doc = json.loads(Path(path).read_bytes())
        if not isinstance(doc, dict):
            raise PipelineError(f"{path}: a config must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise PipelineError(f"unknown config keys: {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in doc]
        if missing:
            raise PipelineError(f"missing config keys: {missing}")
        if not isinstance(doc["candidates"], list):
            raise PipelineError("candidates must be a list")
        for c in doc["candidates"]:
            if (not isinstance(c, dict) or set(c) != {"name", "cover_path"}
                    or not all(isinstance(v, str) for v in c.values())):
                raise PipelineError("a candidate needs exactly the keys name and "
                                    f"cover_path, both strings, got {c!r}")
        for key, ok, want in _VALUE_TYPES:
            if key in doc and not ok(doc[key]):
                raise PipelineError(f"{key} must be {want}, got {doc[key]!r}")
        base = Path(path).parent
        for key in ("network_path", "ground_truth_path", "output_dir"):
            if key in doc:
                doc[key] = str(base / doc[key])
        doc["candidates"] = tuple((c["name"], str(base / c["cover_path"]))
                                  for c in doc["candidates"])
        doc.update((key, tuple(doc[key])) for key in ("property_groups", "mcdm") if key in doc)
        doc.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**doc)


@dataclass(frozen=True)
class EvaluationReport:
    """JSON-serializable result bundle; bit-for-bit reproducible for a
    fixed config + seed. `samples` holds the sample dumps per cover for
    the microscopic and mesoscopic properties of the selected groups only,
    which emit_reports writes and the JSON leaves out."""

    data: dict
    samples: dict[str, dict[str, EmpiricalDistribution]] = field(
        default_factory=dict, compare=False)

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def jsonable(x):
    """`x` as the report writes it: every float in it a float if finite,
    else None, and every tuple a list, as JSON reads it back."""
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, float):
        return float(x) if math.isfinite(x) else None
    return x


@dataclass
class _CoverEval:
    """Everything computed for one cover (ground truth or candidate)."""
    cgraph: CommunityGraph
    basic: dict[str, int | float | None]
    # the selected groups' microscopic, then mesoscopic properties; None
    # where the cover has no such sample
    samples: dict[str, EmpiricalDistribution | None]
    quality: dict[str, float | None]


def _evaluate_cover(cover: Cover, network: Graph, cfg: RunConfig) -> _CoverEval:
    """The community graph, its basic properties and the quality on every
    config (the report holds them whatever the groups); the samples of the
    selected groups' properties only."""
    cg = build_community_graph(cover)
    g = cg.graph
    wanted = {p for group in cfg.property_groups for p in GROUP_PROPS[group]}
    basic: dict[str, int | float | None] = dict.fromkeys(BASIC_PROPS)
    samples: dict[str, EmpiricalDistribution | None] = dict.fromkeys(
        p for p in MICRO_PROPS if p in wanted)
    if not cg.degenerate:
        props, hops = basic_properties(g, exact_paths=(cfg.hop_mode == "exact"),
                                       sources=cfg.sources, seed=cfg.seed)
        basic = jsonable(props)
        if "DD" in wanted:
            samples["DD"] = degree_distribution(g)
        if "Av" in wanted and g.n >= 3:
            _, curve = clustering_by_degree(g)
            curve = curve[curve > 0]
            samples["Av"] = EmpiricalDistribution(curve) if len(curve) else None
        if "HD" in wanted:
            samples["HD"] = hops.distribution
    if wanted.intersection(MESO_PROPS):
        samples.update(mesoscopic_profile(cover))
    quality = jsonable(quality_report(network, cover))
    return _CoverEval(cgraph=cg, basic=basic, samples=samples, quality=quality)


def run(cfg: RunConfig) -> EvaluationReport:
    """Execute the full evaluation workflow and assemble the report."""
    try:
        network = load_edge_list(Path(cfg.network_path).read_bytes())
        truth = load_cover(Path(cfg.ground_truth_path).read_bytes(), network)
        covers = {name: load_cover(Path(path).read_bytes(), network)
                  for name, path in cfg.candidates}
    except (OSError, GraphError, ValueError) as exc:
        raise PipelineError(f"input loading failed: {exc}") from exc

    names = [name for name, _ in cfg.candidates]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        truth_eval = _evaluate_cover(truth, network, cfg)
        evals = {name: _evaluate_cover(covers[name], network, cfg) for name in names}
        all_evals = {"ground_truth": truth_eval, **evals}

        columns: dict[str, list[int]] = {}
        fit_meta: dict[str, dict] = {}
        notes: list[str] = []

        groups = set(cfg.property_groups)
        if "basic" in groups:
            # a property the ground truth has no value for (say, NaN
            # assortativity) has nothing to rank against; its column is left out
            reference = {p: v for p, v in truth_eval.basic.items() if v is not None}
            for prop in BASIC_PROPS:
                if prop not in reference:
                    notes.append(f"ground truth has no value for {prop}; column left out")
                    continue
                notes.extend(f"{n} failed {prop}; ranked last"
                             for n in names if evals[n].basic[prop] is None)
            columns.update(rank_scalar(reference, {n: evals[n].basic for n in names}))

        for group in ("microscopic", "mesoscopic"):
            if group not in groups:
                continue
            for prop in GROUP_PROPS[group]:
                ref_samples = truth_eval.samples[prop]
                if ref_samples is None or ref_samples.n < 5:
                    raise PipelineError(
                        f"ground truth has too few samples for {prop!r}")
                try:
                    dr = rank_distribution(
                        ref_samples, {n: evals[n].samples[prop] for n in names})
                except FitError as exc:
                    raise PipelineError(f"distribution ranking failed for {prop!r}: {exc}")
                notes.extend(f"{n} inapplicable for {prop}; ranked last"
                             for n in names if dr.candidate_ks[n] is None)
                columns[prop] = [dr.ranks[n] for n in names]
                fit_meta[prop] = {
                    "family": dr.family,
                    "reference_ks": dr.reference_fit.ks,
                    "reference_params": list(dr.reference_fit.params),
                    "candidate_ks": {n: dr.candidate_ks[n] for n in names},
                }

        if "quality" in groups:
            columns.update(rank_scalar(truth_eval.quality, {n: evals[n].quality for n in names}))

        clustering_values: dict[str, dict[str, float]] = {}
        if "clustering" in groups:
            clustering_values = {n: clustering_scores(covers[n], truth) for n in names}
            # similarity scores: higher is better, rank 1 = highest
            for prop in CLUSTERING_PROPS:
                vals = [clustering_values[n][prop] for n in names]
                columns[prop] = competition_ranks(vals, ascending=False)

    group_columns = {g: [p for p in props if p in columns] for g, props in GROUP_PROPS.items()}
    tables: dict[str, dict] = {}
    table_specs = {g: group_columns[g] for g in cfg.property_groups}
    if groups.issuperset(TOPOLOGY_GROUPS):
        table_specs["all_topological"] = [p for g in TOPOLOGY_GROUPS for p in group_columns[g]]
    if groups == set(GROUP_PROPS):
        table_specs["all_properties"] = [p for crits in group_columns.values() for p in crits]

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
            ts = topsis(rt)
            entry["topsis"] = {"closeness": ts.closeness, "ranks": ts.ranks}
        if len(names) >= 3:
            entry["spearman"] = spearman_matrix(rt).tolist()
        tables[table_name] = entry

    data = jsonable({
        "config": {k: v for k, v in asdict(cfg).items() if k != "output_dir"},
        "community_graphs": {
            n: {
                "n_communities": ev.cgraph.n_communities,
                "degenerate": ev.cgraph.degenerate,
                "basic": ev.basic,
            }
            for n, ev in all_evals.items()
        },
        "quality": {n: ev.quality for n, ev in all_evals.items()},
        "clustering": clustering_values,
        "distribution_fits": fit_meta,
        "tables": tables,
        "notes": sorted(set(notes)),
    })
    samples = {n: {p: s for p, s in ev.samples.items() if s is not None}
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
        # a file name is its UTF-8 bytes whatever the filesystem encoding:
        # under an ASCII one, fsdecode escapes them, and open() and print()
        # give them back
        path = out / os.fsdecode(name.encode("utf-8"))
        path.write_text(text, encoding="utf-8")
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
            write_csv(f"dist_{name}_{prop}.csv",
                      [["value", "ecdf"], *zip(dist.values.tolist(), dist.cdf.tolist())])
    return written
