"""One run of the program in a fresh interpreter; run.py starts it with
PYTHONPATH set to the checkout's src/.

    python3 child.py DIR [RUN_ID]

Does what `covereval run DIR/config.json` does. It imports covereval.cli
and parses the config, timed from the start of this script as setup_s; then
it runs run() + emit_reports(), timed as run_s. Just before and just after
the run it times a fixed reference computation that uses no covereval code;
their mean is calib_s, the machine's speed at the time. With RUN_ID the run
is traced (spans.py). Prints one JSON line: setup_s, run_s, calib_s,
peak_rss_mb (this process's peak resident set), files, bytes, module and,
when traced, trace.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def calibrate() -> float:
    """Wall seconds of the reference computation: an interpreted loop and
    numpy calls on small arrays, the two kinds of work covereval does."""
    import numpy as np
    t = time.perf_counter()
    acc, seen = 0, {}
    for i in range(700_000):
        acc += i * i % 7
        seen[i & 255] = acc
    a = np.arange(1.0, 51.0)
    for i in range(15_000):
        acc += float(np.sum(np.log(a + i)))
    return time.perf_counter() - t


def main() -> None:
    os.chdir(sys.argv[1])
    from covereval import cli, pipeline
    cfg = cli.RunConfig.from_json("config.json")
    setup_s = time.perf_counter() - T0
    tracer = None
    if len(sys.argv) > 2:
        import spans
        tracer = spans.Tracer(int(sys.argv[2]))
        spans.install(tracer)

    def work():
        return pipeline.emit_reports(pipeline.run(cfg), cfg.output_dir)

    if tracer is not None:
        work = tracer.span(spans.ROOT, work)
    calib_before = calibrate()
    t1 = time.perf_counter()
    written = work()
    run_s = time.perf_counter() - t1
    out = {"setup_s": setup_s, "run_s": run_s,
           "calib_s": (calib_before + calibrate()) / 2,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "files": len(written), "bytes": sum(Path(p).stat().st_size for p in written),
           "module": cli.__file__}
    if tracer is not None:
        out["trace"] = tracer.export()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
