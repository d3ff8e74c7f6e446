"""The demo scripts, run as a user runs them: in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covereval

SCRIPTS = Path(__file__).parents[1] / "scripts"


def script(name, *args, cwd):
    src = str(Path(covereval.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def demo_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo")
    out = script("make_synthetic.py", "--out", "demo_data", "--nodes", "120",
                 "--communities", "12", "--fractions", "0.2", cwd=root)
    assert out.returncode == 0, out.stderr
    data = root / "demo_data"
    cfg = json.loads((data / "config.json").read_text())
    assert cfg["network_path"] == "network.txt" and cfg["output_dir"] == "results"
    cfg.update(property_groups=["quality", "clustering"], mcdm=["topsis"])
    (data / "config.json").write_text(json.dumps(cfg))
    return data


def test_runs_from_the_data_directory(demo_data):
    out = script("run_experiment.py", "--config", "config.json", cwd=demo_data)
    assert out.returncode == 0, out.stderr
    # only the aggregators the config lists are printed
    assert "TOPSIS ranking:" in out.stdout and "Kemeny" not in out.stdout
    assert out.stdout.rstrip().endswith("files to results")
    assert (demo_data / "results" / "report.json").exists()


def test_runs_from_the_parent_directory(demo_data):
    out = script("run_experiment.py", "--config", "demo_data/config.json",
                 "--output", "parent_results", cwd=demo_data.parent)
    assert out.returncode == 0, out.stderr
    assert (demo_data.parent / "parent_results" / "report.json").exists()


@pytest.mark.parametrize("config", ["missing.json", "bad.json", "malformed.json",
                                    "loops.json"])
def test_bad_config_is_an_error_line(demo_data, config):
    doc = json.loads((demo_data / "config.json").read_text())
    (demo_data / "bad.json").write_text(json.dumps({**doc, "hop_mdoe": "exact"}))
    (demo_data / "malformed.json").write_text(json.dumps(doc)[:-1])
    # every node with a self-loop only: the covers load, and the quality
    # metrics fail on a network left without edges
    labels = sorted(set((demo_data / "network.txt").read_text().split()))
    (demo_data / "loops.txt").write_text("".join(f"{u} {u}\n" for u in labels))
    (demo_data / "loops.json").write_text(json.dumps({**doc, "network_path": "loops.txt"}))
    out = script("run_experiment.py", "--config", config, cwd=demo_data)
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr
