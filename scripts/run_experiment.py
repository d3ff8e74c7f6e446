#!/usr/bin/env python3
"""Run the full evaluation pipeline on a config and print a compact summary.

For each property group this prints the per-candidate rank vector and, when
the config's `mcdm` lists them, the Kemeny consensus order and the TOPSIS
closeness ranking. Full reports (JSON, rank tables, Spearman matrices, fitted
distributions) are written to the config's output directory.
"""

from __future__ import annotations

import argparse
import sys

from covereval.cli import exit_code
from covereval.pipeline import RunConfig, emit_reports, run


def summarize(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_json(args.config, seed=args.seed, output_dir=args.output)
    report = run(cfg)
    written = emit_reports(report, cfg.output_dir)

    for tname, entry in report.data["tables"].items():
        print(f"\n=== {tname} ({len(entry['criteria'])} criteria) ===")
        width = max(len(n) for n in entry["ranks"])
        for name, row in entry["ranks"].items():
            print(f"  {name:<{width}}  ranks={row}")
        if "kemeny" in entry:
            print(f"  Kemeny consensus: {' > '.join(entry['kemeny']['order'])}"
                  f" (score={entry['kemeny']['score']}, exact={entry['kemeny']['exact']})")
        if "topsis" in entry:
            topsis = sorted(entry["topsis"]["ranks"].items(), key=lambda kv: kv[1])
            print("  TOPSIS ranking:   "
                  + ", ".join(f"{name}#{rank}" for name, rank in topsis))

    print(f"\nwrote {len(written)} files to {cfg.output_dir}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", required=True, help="pipeline config JSON")
    ap.add_argument("--seed", type=int, help="override the config seed")
    ap.add_argument("--output", help="override the output directory")
    # errors exit as `covereval run` exits: 1 for bad input, 2 for a failed computation
    return exit_code(summarize, ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
