"""Command-line interface.

Subcommands: community-graph, props, fit, quality, clustering, rank, run.
Exit codes: 0 success, 1 validation error, 2 computation error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path
from typing import Callable

from .clustering import clustering_scores, common_universe
from .cover import CoverError, build_community_graph, load_cover
from .distfit import FitError, InapplicableFit, best_fit
from .graph import (
    DEFAULT_HOP_SOURCES, EmpiricalDistribution, GraphError, basic_properties, load_edge_list,
)
from .pipeline import PipelineError, RunConfig, emit_reports, jsonable, run
from .quality import quality_report
from .ranking import RankingError, RankingTable, kemeny_consensus, topsis

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COMPUTATION = 2


def _load_graph(path: str):
    return load_edge_list(Path(path).read_bytes())


def _load_cover_for(path: str, graph):
    return load_cover(Path(path).read_bytes(), graph)


def _print_json(doc) -> int:
    """Print `doc` as report.json writes it (indented, keys sorted, every
    non-finite float null) and return EXIT_OK."""
    print(json.dumps(jsonable(doc), indent=2, sort_keys=True, allow_nan=False))
    return EXIT_OK


def cmd_community_graph(args) -> int:
    g = _load_graph(args.network)
    cg = build_community_graph(_load_cover_for(args.cover, g))
    lines = [f"{cg.graph.original_labels[u]} {cg.graph.original_labels[v]}"
             for u, v in cg.graph.edges().tolist()]
    out = "\n".join(lines) + ("\n" if lines else "")
    if args.output:
        Path(args.output).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)
    if cg.degenerate:
        print("warning: all communities disjoint; degenerate single-node graph",
              file=sys.stderr)
    return EXIT_OK


def cmd_props(args) -> int:
    g = _load_graph(args.network)
    props, _ = basic_properties(g, exact_paths=(args.hop_mode == "exact"),
                                sources=args.sources, seed=args.seed)
    return _print_json(props)


def cmd_fit(args) -> int:
    tokens = Path(args.samples).read_text(encoding="utf-8").split()
    try:
        data = EmpiricalDistribution([float(tok) for tok in tokens])
    except ValueError as exc:  # a non-numeric token, no samples, NaN or inf
        print(f"error: {args.samples}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    report = best_fit(data)
    import csv  # only this command writes CSV to stdout; `covereval run` never loads it
    out = csv.writer(sys.stdout, lineterminator="\n")  # quotes a reason with a comma
    out.writerow(["family", "params", "ks"])
    for fit in report.fits:
        if isinstance(fit, InapplicableFit):
            out.writerow([fit.family.value, f"inapplicable ({fit.reason})", ""])
        else:
            params = ";".join(repr(p) for p in fit.params)
            out.writerow([fit.family.value, params, repr(fit.ks)])
    print(f"# best: {report.best.family.value}", file=sys.stderr)
    return EXIT_OK


def cmd_quality(args) -> int:
    g = _load_graph(args.network)
    return _print_json(quality_report(g, _load_cover_for(args.cover, g)))


def cmd_clustering(args) -> int:
    g = _load_graph(args.network)
    truth = _load_cover_for(args.truth, g)
    # each warning (the common-universe restriction, which names dropped
    # nodes by label) as one line, also before an error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            pair = common_universe(_load_cover_for(args.cover, g), truth, g.original_labels)
            scores = clustering_scores(*pair)
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
    return _print_json(scores)


def cmd_rank(args) -> int:
    lines = [ln for ln in Path(args.table).read_text(encoding="utf-8").splitlines() if ln.strip()]
    try:
        (_, *criteria), *rows = (ln.split(",") for ln in lines)
        if len(rows) < 2 or not criteria:
            raise ValueError("need at least 2 alternatives and 1 criterion")
        rt = RankingTable(tuple(cells[0] for cells in rows), tuple(criteria),
                          tuple(tuple(map(int, cells[1:])) for cells in rows))
    except ValueError as exc:  # no header, a bad cell, rank or row length, a repeated name
        print(f"error: {args.table}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    kc = kemeny_consensus(rt)
    ts = topsis(rt)
    return _print_json({"kemeny": {"order": kc.order, "score": kc.score, "exact": kc.exact},
                        "topsis": {"closeness": ts.closeness, "ranks": ts.ranks}})


def cmd_run(args) -> int:
    cfg = RunConfig.from_json(args.config, seed=args.seed, hop_mode=args.hop_mode,
                              sources=args.sources, output_dir=args.output)
    for path in emit_reports(run(cfg), cfg.output_dir):
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
    p.add_argument("--sources", type=int, default=DEFAULT_HOP_SOURCES)
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


def exit_code(command: Callable[[argparse.Namespace], int], args: argparse.Namespace) -> int:
    """Run `command(args)` and return its exit code. An input error prints
    an `error:` line and gives EXIT_VALIDATION, a failed computation a
    `computation error:` line and EXIT_COMPUTATION."""
    try:
        return command(args)
    except (OSError, UnicodeError, GraphError, CoverError, PipelineError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FitError, RankingError, ArithmeticError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return exit_code(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
