"""Command-line interface.

Subcommands: community-graph, props, fit, quality, clustering, rank, run.
Exit codes: 0 success, 1 validation error, 2 computation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .clustering import f1_best_match, omega_index, onmi_max
from .cover import CoverError, build_community_graph, load_cover
from .distfit import FitError, InapplicableFit, best_fit
from .graph import EmpiricalDistribution, GraphError, basic_properties, load_edge_list
from .pipeline import PipelineError, RunConfig, emit_reports, run
from .quality import quality_report
from .ranking import (
    DecisionMatrix, RankingError, RankingTable, kemeny_consensus, topsis,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COMPUTATION = 2


def _load_graph(path: str):
    return load_edge_list(Path(path).read_text())


def _load_cover_for(path: str, graph):
    return load_cover(Path(path).read_text(), graph.label_map())


def cmd_community_graph(args) -> int:
    g = _load_graph(args.network)
    cover = _load_cover_for(args.cover, g)
    cg = build_community_graph(cover)
    lines = [f"{cg.graph.original_labels[u]} {cg.graph.original_labels[v]}"
             for u, v in cg.graph.edges()]
    out = "\n".join(lines) + ("\n" if lines else "")
    if args.output:
        Path(args.output).write_text(out)
    else:
        sys.stdout.write(out)
    if cg.degenerate:
        print("warning: all communities disjoint; degenerate single-node graph",
              file=sys.stderr)
    return EXIT_OK


def cmd_props(args) -> int:
    g = _load_graph(args.network)
    props = basic_properties(g, exact_paths=(args.hop_mode == "exact"),
                             sources=args.sources, seed=args.seed)
    print(json.dumps(props.as_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_fit(args) -> int:
    tokens = Path(args.samples).read_text().split()
    try:
        data = EmpiricalDistribution.from_values(float(tok) for tok in tokens)
    except ValueError as exc:  # a non-numeric token, no samples, NaN or inf
        print(f"error: {args.samples}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    report = best_fit(data)
    print("family,params,ks")
    for fit in report.fits:
        if isinstance(fit, InapplicableFit):
            print(f"{fit.family.value},inapplicable ({fit.reason}),")
        else:
            params = ";".join(repr(p) for p in fit.params)
            print(f"{fit.family.value},{params},{fit.ks!r}")
    print(f"# best: {report.best.family.value}", file=sys.stderr)
    return EXIT_OK


def cmd_quality(args) -> int:
    g = _load_graph(args.network)
    cover = _load_cover_for(args.cover, g)
    qr = quality_report(g, cover)
    print(json.dumps(qr.as_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_clustering(args) -> int:
    g = _load_graph(args.network)
    truth = _load_cover_for(args.truth, g)
    cover = _load_cover_for(args.cover, g)
    scores = {
        "NMI": onmi_max(cover, truth),
        "OI": omega_index(cover, truth),
        "F1-score": f1_best_match(cover, truth).f1,
    }
    print(json.dumps(scores, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_rank(args) -> int:
    lines = [ln for ln in Path(args.table).read_text().splitlines() if ln.strip()]
    try:
        (_, *criteria), *rows = (ln.split(",") for ln in lines)
        columns = {c: [int(cells[j]) for cells in rows]
                   for j, c in enumerate(criteria, start=1)}
        rt = RankingTable.from_columns([cells[0] for cells in rows], columns)
    except (ValueError, IndexError) as exc:  # no header, a short row, a bad cell or rank
        print(f"error: {args.table}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    kc = kemeny_consensus(rt)
    ts = topsis(DecisionMatrix.from_ranks(rt))
    out = {"kemeny": {"order": list(kc.order), "score": kc.score, "exact": kc.exact},
           "topsis": {"closeness": ts.closeness, "ranks": ts.ranks}}
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = RunConfig.from_json(
        args.config,
        seed=args.seed,
        hop_mode=args.hop_mode,
        sources=args.sources,
        output_dir=args.output,
    )
    report = run(cfg)
    written = emit_reports(report, cfg.output_dir)
    for path in written:
        print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="covereval")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("community-graph", help="cover -> community-graph edge list")
    p.add_argument("--network", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_community_graph)

    p = sub.add_parser("props", help="basic topological properties of a graph")
    p.add_argument("--network", required=True)
    p.add_argument("--hop-mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--sources", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("fit", help="fit the ten families to a sample file")
    p.add_argument("--samples", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("quality", help="quality metrics of a cover on a network")
    p.add_argument("--network", required=True)
    p.add_argument("--cover", required=True)
    p.set_defaults(func=cmd_quality)

    p = sub.add_parser("clustering", help="clustering metrics vs a ground truth")
    p.add_argument("--network", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--cover", required=True)
    p.set_defaults(func=cmd_clustering)

    p = sub.add_parser("rank", help="Kemeny + TOPSIS on a rank-table CSV")
    p.add_argument("--table", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("run", help="full evaluation pipeline from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--output")
    p.add_argument("--hop-mode", choices=("exact", "sampled"))
    p.add_argument("--sources", type=int)
    p.set_defaults(func=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError, GraphError, CoverError, PipelineError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FitError, RankingError, ArithmeticError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


if __name__ == "__main__":
    sys.exit(main())
