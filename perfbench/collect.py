#!/usr/bin/env python3
"""Run every workload over several seeds and summarise the figures.

    python3 perfbench/collect.py --seeds 1-10 --seconds 40 [--workloads demo,rank8]
                                 [--traced-seed 1] [--out perfbench/baseline.json]

Run from the root of a covereval checkout. For each workload it runs
run.py once per seed with --trace 0, and once with --trace 1 on
--traced-seed, then prints per end-to-end metric the median, the quartiles
and the spread (interquartile distance over the median, quartiles as
statistics.quantiles(values, n=4) gives them), the failure counts and the
per-layer self-time shares. With --out it writes the same as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gen import write_inputs
from run import END_TO_END, HERE
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)

    doc: dict = {
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "processor": platform.machine()},
        "seconds": args.seconds, "seeds": seeds, "workloads": {},
    }
    for name in args.workloads.split(","):
        w = WORKLOADS[name]
        t0 = time.perf_counter()
        runs = [bench(name, seed, args.seconds, 0) for seed in seeds]
        wall = (time.perf_counter() - t0) / len(seeds)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {
            "why": w.why,
            "inputs": write_inputs(w.shape, w.structure(seeds[0]),
                                   HERE / ".work" / "collect" / name),
            "attempted": attempted,
            "failed_frac": failed / attempted,
            "all_correct": all(r["correct"] for r in runs),
            "wall_per_run_s": wall,
            "end_to_end": {m: summary([r["metrics"][m]["value"] for r in runs])
                           for m in END_TO_END},
        }
        print(f"{name}: {len(seeds)} runs, {wall:.1f} s each, attempted {attempted}, "
              f"failed {failed}, all correct: {entry['all_correct']}")
        for m, s in entry["end_to_end"].items():
            bound = END_TO_END[m][2]
            print(f"  {m:12s} median {s['median']:9.4f} {END_TO_END[m][0]:3s} "
                  f"q1 {s['q1']:9.4f} q3 {s['q3']:9.4f} spread {s['spread']:.3f} "
                  f"(bound {bound}, third {bound / 3:.3f})")
            print("    values " + " ".join(f"{v:.4g}" for v in s["values"]))
        if args.traced_seed is not None:
            layer = bench(name, args.traced_seed, args.seconds, 1)["metrics"]
            described = json.loads((HERE / ".work" / name / "layers.json").read_text())
            shares = {k.split(".", 1)[1]: v for k, v in described.items()
                      if k.startswith("share.")}
            top = max(shares, key=shares.get)
            entry["traced"] = {
                "seed": args.traced_seed,
                "self_share_pct": shares,
                "largest_layer": top,
                "target_layer": w.target,
                "root_s": layer["trace.root_s"]["value"],
                "overhead_s": layer["trace.overhead_s"]["value"],
                "per_layer": described,
            }
            print("  shares: " + ", ".join(f"{k} {v:.1f} %" for k, v in
                                           sorted(shares.items(), key=lambda kv: -kv[1])))
            print(f"  largest layer {top} (target {w.target}); traced run "
                  f"{layer['trace.root_s']['value']:.3f} s, overhead "
                  f"{layer['trace.overhead_s']['value']:.3f} s")
        doc["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
