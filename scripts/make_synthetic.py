#!/usr/bin/env python3
"""Generate a synthetic planted-cover dataset ready for `covereval run`.

Writes into --out:
  network.txt        edge list of the synthetic network
  ground_truth.txt   the planted cover
  cand_exact.txt     a copy of the ground truth, entered as a candidate
  cand_p<NN>.txt     covers with NN% of node-community incidences reassigned
  config.json        a pipeline config listing all candidates, with paths
                     relative to --out (as covereval reads them)
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from covereval.synthetic import (
    perturb_cover, planted_cover_network, write_cover, write_edge_list,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default="demo_data", help="output directory")
    ap.add_argument("--nodes", type=int, default=500, help="network size, at least 2")
    ap.add_argument("--communities", type=int, default=40,
                    help="planted communities, at least 2")
    ap.add_argument("--seed", type=int, default=9)
    ap.add_argument("--fractions", type=float, nargs="+",
                    default=[0.05, 0.20, 0.50],
                    help="perturbation levels for the candidate covers, in [0, 1]; "
                         "each names its cover pNN, NN its rounded percentage")
    args = ap.parse_args()
    for flag, value in (("--nodes", args.nodes), ("--communities", args.communities)):
        if value < 2:  # fewer cannot be planted or perturbed
            ap.error(f"{flag} must be at least 2, got {value}")
    outside = [frac for frac in args.fractions if not 0 <= frac <= 1]
    if outside:
        ap.error(f"--fractions must lie in [0, 1], got {outside[0]}")
    names = [f"p{int(round(100 * frac)):02d}" for frac in args.fractions]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:  # a second cover would overwrite the first's file
        ap.error(f"--fractions give the candidate name {repeated[0]} more than once")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    graph, cover = planted_cover_network(
        n_nodes=args.nodes, n_communities=args.communities, seed=args.seed)
    write_edge_list(graph, out / "network.txt")
    write_cover(cover, out / "ground_truth.txt")
    write_cover(cover, out / "cand_exact.txt")

    candidates = [{"name": "exact", "cover_path": "cand_exact.txt"}]
    for frac, name in zip(args.fractions, names):
        write_cover(perturb_cover(cover, frac, seed=args.seed + 1), out / f"cand_{name}.txt")
        candidates.append({"name": name, "cover_path": f"cand_{name}.txt"})

    config = {
        "network_path": "network.txt",
        "ground_truth_path": "ground_truth.txt",
        "candidates": candidates,
        "seed": 1,
        "output_dir": "results",
    }
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    print(f"wrote {out}/network.txt ({graph.n} nodes, {graph.edge_count} edges)")
    print(f"wrote {len(candidates)} candidate covers and {out}/config.json")
    print(f"next: covereval run --config {out}/config.json")


if __name__ == "__main__":
    main()
