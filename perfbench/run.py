#!/usr/bin/env python3
"""covereval benchmark: time `covereval run` end to end, or layer by layer.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 40 --trace 0

Run it from the root of a covereval source checkout; the program is
imported from `src/`. The benchmark writes its workload's input instance
from --seed (gen.py, workloads.py), then runs the program on it in a closed
loop, one run at a time with one compute thread, each run a fresh
interpreter (child.py): at least once, then while a run as long as the last
still ends within --seconds. Every run's report.json is checked (checks.py)
and compared byte for byte with the first run's.

--trace 0 reports the end-to-end metrics: run_s (run + emit_reports) and
setup_s (import covereval.cli and parse the config), each the median over
the runs of its wall time in reference seconds, and peak_rss_mb (median).
The speed of a shared machine drifts by up to 1.5x within minutes, so each
run's times are scaled by CALIB_REF_S over the time the run process took
for a fixed reference computation around the run (child.py); the raw
medians go to stderr. --trace 1 alternates untraced and traced runs and
reports per-layer self times, work counters (spans.py) and the tracing
overhead, each the median over the traced runs; the input sizes and each
layer's share of the run go to stderr and to
perfbench/.work/<workload>/layers.json. The last line of stdout is one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_report
from gen import write_inputs
from spans import ROOT, self_times
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
# no run starts, and a run still going is killed and counts as failed, this
# long after the benchmark started, so that it ends within 180 s
DEADLINE_S = 165

# the reference computation's time on a quiet machine (2.1 GHz Xeon vCPU,
# Python 3.11, numpy 2.4): times are reported in seconds of that machine
CALIB_REF_S = 0.15

END_TO_END = {  # name: (unit, better, bound)
    "run_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

SELF_TIME = {  # per-layer metric: span name whose self time it sums
    "distfit.fit_mle_s": "distfit.fit_mle",
    "distfit.ks_s": "distfit.ks_statistic",
    "distfit.best_fit_s": "distfit.best_fit",
    "clustering.onmi_s": "clustering.onmi_max",
    "clustering.omega_s": "clustering.omega_index",
    "clustering.f1_s": "clustering.f1_best_match",
    "graph.basic_s": "graph.basic_properties",
    "graph.hop_s": "graph.hop_distribution",
    "graph.cbd_s": "graph.clustering_by_degree",
    "graph.load_s": "graph.load_edge_list",
    "cover.load_s": "cover.load_cover",
    "cover.community_graph_s": "cover.build_community_graph",
    "cover.meso_s": "cover.mesoscopic_profile",
    "quality.report_s": "quality.quality_report",
    "ranking.kemeny_s": "ranking.kemeny_consensus",
    "ranking.topsis_s": "ranking.topsis",
    "ranking.spearman_s": "ranking.spearman_matrix",
    "pipeline.emit_s": "pipeline.emit_reports",
    "pipeline.self_s": ROOT,
}
# counters of work the program chooses to do; an optimisation may lower them
WORK_COUNTERS = ("distfit.fit_calls", "distfit.inapplicable", "distfit.nfev",
                 "distfit.capped_fits", "graph.hop_calls")
# counters that describe the inputs and outputs, reported but not metrics
SIZE_COUNTERS = (
    "distfit.samples", "distfit.distinct_values", "clustering.community_pairs",
    "graph.V", "graph.E", "graph.hop_samples", "cover.K", "cover.incidences",
    "cover.sum_sq_sizes", "cover.cg_nodes", "cover.cg_edges",
    "ranking.kemeny_tables", "ranking.kemeny_exact_tables", "ranking.kemeny_perms",
)
LAYERS = ("distfit", "clustering", "graph", "cover", "quality", "ranking", "pipeline")

PER_LAYER = {  # name: (unit, better)
    **{name: ("s", "lower") for name in SELF_TIME},
    **{name: ("count", "lower") for name in WORK_COUNTERS},
    "distfit.useful_frac": ("ratio", "higher"),
    "trace.root_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class BenchError(RuntimeError):
    pass


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env(root: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
                OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def run_once(root: Path, cwd: Path, run_id: int | None, timeout: float) -> dict:
    """One run in a fresh interpreter; traced when run_id is given."""
    cmd = [sys.executable, str(CHILD), str(cwd)]
    if run_id is not None:
        cmd.append(str(run_id))
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"run exited {proc.returncode}: {proc.stderr[-2000:]}")
    try:
        answer = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"run printed no result: {proc.stdout[-500:]!r}") from exc
    if not Path(answer["module"]).resolve().is_relative_to(root / "src"):
        raise BenchError(f"covereval was imported from {answer['module']}, "
                         f"not from {root / 'src'}")
    return answer


class Session:
    """The runs of one benchmark invocation and their output checks."""

    def __init__(self, root: Path, instance: Path, deadline: float):
        self.root = root
        self.instance = instance
        self.deadline = deadline  # perf_counter time
        self.attempted = 0
        self.failed = 0
        self.reference: bytes | None = None

    def run(self, traced: bool) -> dict | None:
        """One run; None if the run or its output check failed."""
        run_id = self.attempted
        self.attempted += 1
        shutil.rmtree(self.instance / "out", ignore_errors=True)
        try:
            res = run_once(self.root, self.instance, run_id if traced else None,
                           self.deadline - time.perf_counter())
            report = (self.instance / "out" / "report.json").read_bytes()
        except (BenchError, OSError) as exc:
            self.failed += 1
            log(f"FAILED run {run_id}: {exc}")
            return None
        problems = check_report(report)
        if self.reference is None:
            self.reference = report
        elif report != self.reference:
            problems.append("report.json differs from the first run's")
        if problems:
            self.failed += 1
            log(f"FAILED run {run_id}: " + "; ".join(problems))
            return None
        return res

    def cycle(self, seconds: float, step) -> None:
        """Call step() once, then while a step as long as the last still
        ends within `seconds`."""
        t0 = time.perf_counter()
        i, last = 0, 0.0
        while time.perf_counter() < self.deadline and (
                i == 0 or time.perf_counter() - t0 + last <= seconds):
            t = time.perf_counter()
            step()
            last = time.perf_counter() - t
            i += 1
        log(f"{i} steps in {time.perf_counter() - t0:.1f} s")


def end_to_end(s: Session, seconds: float) -> dict:
    runs: list[dict] = []

    def step() -> None:
        res = s.run(traced=False)
        if res is not None:
            runs.append(res)

    s.cycle(seconds, step)
    if not runs:
        return {}
    for name in ("run_s", "setup_s", "calib_s"):
        log(f"raw {name} median {statistics.median(r[name] for r in runs):.3f}: "
            + " ".join(f"{r[name]:.3f}" for r in runs))
    return {
        **{name: statistics.median(r[name] * CALIB_REF_S / r["calib_s"] for r in runs)
           for name in ("run_s", "setup_s")},
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def layer_metrics(res: dict) -> dict[str, float]:
    """Per-layer metrics, size counters and layer shares of one traced run."""
    trace = res["trace"]
    selfs = self_times(trace["spans"])
    counters = trace["counters"]
    root = next(end - start for name, start, end, _ in trace["spans"] if name == ROOT)
    out = {metric: selfs.get(span, 0.0) for metric, span in SELF_TIME.items()}
    out.update({name: counters.get(name, 0) for name in WORK_COUNTERS + SIZE_COUNTERS})
    fits = counters.get("distfit.fit_calls", 0)
    out["distfit.useful_frac"] = (
        (fits - counters.get("distfit.inapplicable", 0)) / fits if fits else 0.0)
    out["pipeline.files_written"] = res["files"]
    out["pipeline.bytes_written"] = res["bytes"]
    for layer in LAYERS:
        layer_self = sum(t for name, t in selfs.items() if name.split(".")[0] == layer)
        out[f"share.{layer}"] = 100 * layer_self / root
    out["trace.root_s"] = root
    return out


def traced(s: Session, seconds: float, spans_out: Path) -> dict:
    """Alternate untraced and traced runs."""
    rows, exports = [], []

    def step() -> None:
        plain, res = s.run(traced=False), s.run(traced=True)
        if plain is None or res is None:
            return
        row = layer_metrics(res)
        row["trace.overhead_s"] = row["trace.root_s"] - plain["run_s"]
        rows.append(row)
        exports.append(res["trace"])

    s.cycle(seconds, step)
    spans_out.write_text(json.dumps(exports))
    if not rows:
        return {}
    return {name: statistics.median(r[name] for r in rows) for name in rows[0]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # on a plain kill, unwind so that subprocess.run kills and reaps the run
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = Path.cwd().resolve()
    if not (root / "src" / "covereval" / "cli.py").is_file():
        log(f"error: {root} is not a covereval checkout (no src/covereval/cli.py)")
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    w: Workload = WORKLOADS[args.workload]
    work = HERE / ".work" / w.name
    shutil.rmtree(work, ignore_errors=True)
    sizes = write_inputs(w.shape, w.structure(args.seed), work / "input", args.seed)
    log(f"{w.name}: input sizes {sizes}")

    s = Session(root, work / "input", deadline)
    if args.trace:
        metrics = traced(s, args.seconds, work / "spans.json")
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        metrics = end_to_end(s, args.seconds)
        units = {k: v[0] for k, v in END_TO_END.items()}
    if not metrics:
        log("error: no run succeeded")
        return 1

    log(f"attempted {s.attempted}, failed {s.failed}, "
        f"failed_frac {s.failed / s.attempted:.3f}")
    for name in metrics:
        log(f"  {name:28s} {metrics[name]:14.6g} {units.get(name, '')}")
    if args.trace:
        (work / "layers.json").write_text(json.dumps(metrics, indent=2) + "\n")
    print(json.dumps({
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
