#!/usr/bin/env python3
"""Self-test of the benchmark harness, at toy scale.

    python3 perfbench/selftest.py      (from the root of a covereval checkout)

The Kemeny check's dynamic program agrees with brute force on random rank
tables. For each workload shape, shrunk to run in seconds: an untraced and a
traced run pass the output checks and agree byte for byte; a report with a
changed clustering value, or with a Kemeny order that is not the optimal one
but carries its own correct score, fails; traced self times plus
pipeline.self_s sum to the root span. At full scale, the generated input
sizes stay within SIZE_SPREAD of their median across three seeds. BENCHMARK.json must list the metrics run.py reports. Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import sys
import time
from itertools import permutations
from pathlib import Path

from checks import check_report, kemeny_optimum, kemeny_score
from gen import write_inputs
from run import DEADLINE_S, END_TO_END, HERE, PER_LAYER, Session, layer_metrics
from spans import ROOT, self_times
from workloads import WORKLOADS, toy

SIZE_SPREAD = 0.10
SIZE_SEEDS = (1, 2, 3)


def fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def check_kemeny_optimum() -> None:
    rng = random.Random(1)
    for _ in range(200):
        m, criteria = rng.randint(1, 6), rng.randint(1, 5)
        names = rng.sample("abcdefgh", m)
        ranks = {n: [rng.randint(1, m) for _ in range(criteria)] for n in names}
        scores = {p: kemeny_score(list(p), ranks) for p in permutations(sorted(names))}
        top = max(scores.values())
        want = (top, list(min(p for p, v in scores.items() if v == top)))
        if kemeny_optimum(names, ranks) != want:
            fail(f"Kemeny dynamic program on {ranks}: {kemeny_optimum(names, ranks)} "
                 f"!= {want} by brute force")
    print("ok Kemeny dynamic program agrees with brute force on 200 tables")


def check_tampered(s: Session, inst: Path) -> bool:
    """Changes one clustering value of the exact candidate, and the Kemeny
    order of one table, and checks that each report fails; then changes a
    value of another candidate in the reference report and returns whether
    a fresh run still passed."""
    good = (inst / "out" / "report.json").read_text()
    rep = json.loads(good)
    rep["clustering"]["exact"]["NMI"] = 0.999
    if not check_report(json.dumps(rep)):
        fail("a changed clustering value of the exact candidate passed")
    rep = json.loads(good)
    for entry in rep["tables"].values():
        kem = entry["kemeny"]
        kem["order"][0], kem["order"][-1] = kem["order"][-1], kem["order"][0]
        kem["score"] = kemeny_score(kem["order"], entry["ranks"])
    if not check_report(json.dumps(rep)):
        fail("a changed Kemeny order with its own correct score passed")
    rep = json.loads(good)
    other = next(n for n in rep["clustering"] if n != "exact")
    rep["clustering"][other]["OI"] += 1e-9
    s.reference = json.dumps(rep, sort_keys=True, indent=2).encode() + b"\n"
    return s.run(traced=False) is not None


def check_workload(root: Path, work: Path, name: str) -> None:
    w = toy(WORKLOADS[name])
    inst = work / name
    write_inputs(w.shape, f"selftest/{name}", inst)
    s = Session(root, inst, time.perf_counter() + DEADLINE_S)
    plain = s.run(traced=False)
    traced = s.run(traced=True)
    if plain is None or traced is None or s.failed:
        fail(f"{name}: toy runs did not pass the output checks")
    if check_tampered(s, inst):
        fail(f"{name}: a run differing from its reference report passed")

    spans = traced["trace"]["spans"]
    root_s = next(end - start for n, start, end, _ in spans if n == ROOT)
    total = sum(self_times(spans).values())
    if abs(total - root_s) > 1e-9 * max(1.0, root_s):
        fail(f"{name}: self times sum to {total} s, root span is {root_s} s")
    shares = sum(v for k, v in layer_metrics(traced).items() if k.startswith("share."))
    if abs(shares - 100) > 1e-6:
        fail(f"{name}: layer shares sum to {shares} %")
    print(f"ok {name}: toy run {plain['run_s']:.2f} s, traced {root_s:.2f} s, "
          f"tampered reports fail, self times sum to the root span")


def check_sizes(work: Path, name: str) -> None:
    w = WORKLOADS[name]
    sizes = [write_inputs(w.shape, w.structure(seed), work / f"{name}-{seed}")
             for seed in SIZE_SEEDS]
    for key in sizes[0]:
        vals = [s[key] for s in sizes]
        mid = statistics.median(vals)
        if max(abs(v - mid) for v in vals) > SIZE_SPREAD * mid:
            fail(f"{name}: {key} spreads beyond {SIZE_SPREAD:.0%} across seeds: {vals}")
    print(f"ok {name}: input sizes within {SIZE_SPREAD:.0%} across seeds {SIZE_SEEDS}")


def check_benchmark_json(root: Path) -> None:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return
    doc = json.loads(path.read_text())
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    if e2e != END_TO_END or layer != PER_LAYER:
        fail("BENCHMARK.json metrics differ from those run.py reports")
    if sorted(w["name"] for w in doc["workloads"]) != sorted(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.py")
    print("ok BENCHMARK.json lists the metrics and workloads run.py reports")


def main() -> int:
    root = Path.cwd().resolve()
    if not (root / "src" / "covereval" / "cli.py").is_file():
        print(f"error: {root} is not a covereval checkout", file=sys.stderr)
        return 2
    work = HERE / ".work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    check_kemeny_optimum()
    for name in WORKLOADS:
        check_workload(root, work, name)
    for name in WORKLOADS:
        check_sizes(work, name)
    check_benchmark_json(root)
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
