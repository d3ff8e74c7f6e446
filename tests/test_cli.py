import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import covereval
from covereval import cli, distfit
from covereval.cli import EXIT_COMPUTATION, EXIT_OK, EXIT_VALIDATION, main
from covereval.graph import EXACT_HOP_LIMIT
from covereval.ranking import RankingError


class TestFitCommand:
    def test_fits_every_family(self, tmp_path, capsys):
        path = tmp_path / "samples.txt"
        path.write_text("1 2 2 3 5 8 13\n")
        assert main(["fit", "--samples", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "family,params,ks" and len(lines) == 11

    def test_samples_near_the_largest_double(self, tmp_path, capsys):
        # squares of these samples, or of their spread, overflow unscaled
        path = tmp_path / "samples.txt"
        path.write_text("1e307 5e307 1e308 1.5e308 1.7e308 1.79e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            assert main(["fit", "--samples", str(path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.startswith("# best: ") and len(captured.err.splitlines()) == 1
        rows = list(csv.reader(captured.out.splitlines()))
        assert [row[0] for row in rows[1:]] == [f.value for f in distfit.FAMILY_ORDER]
        for family, params, ks in rows[1:]:
            if not params.startswith("inapplicable"):
                values = [float(p) for p in params.split(";")] + [float(ks)]
                assert all(map(math.isfinite, values)), family

    def test_samples_that_span_past_the_largest_double(self, tmp_path, capsys):
        # hi - lo and x - loc overflow unscaled: beta's start was NaN and
        # crashed the solver, and uniform was made inapplicable
        path = tmp_path / "samples.txt"
        path.write_text("1e308 -1e308 0 1 2 3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--samples", str(path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.startswith("# best: ") and len(captured.err.splitlines()) == 1
        rows = {row[0]: row[1:] for row in csv.reader(captured.out.splitlines()[1:])}
        for family in ("BE", "LO", "N", "U"):
            params, ks = rows[family]
            assert all(map(math.isfinite, map(float, [*params.split(";"), ks]))), family
        assert rows["U"][0] == "-1e+308;1e+308"

    def test_weibull_without_log_spread_is_inapplicable(self, tmp_path, capsys):
        # distinct samples whose logs are one double: no Weibull shape
        path = tmp_path / "samples.txt"
        path.write_text("1e300 1e300 1e300 1e300 1.0000000000000002e300\n")
        assert main(["fit", "--samples", str(path)]) == EXIT_OK
        rows = {row[0]: row[1] for row in csv.reader(capsys.readouterr().out.splitlines())}
        assert rows["WB"] == "inapplicable (WB: zero log variance)"

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "3x"])
    def test_bad_sample_is_an_input_error(self, tmp_path, capsys, token):
        path = tmp_path / "samples.txt"
        path.write_text(f"1 2 {token} 4 5 6\n")
        assert main(["fit", "--samples", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_reason_with_a_comma_stays_one_field(self, tmp_path, capsys, monkeypatch):
        fit_mle = distfit.fit_mle

        def failing_gamma(family, data):
            if family is distfit.Family.GAMMA:
                raise distfit.FitError("GM: optimizer failed at (1.0, 2.0)")
            return fit_mle(family, data)

        monkeypatch.setattr(distfit, "fit_mle", failing_gamma)
        path = tmp_path / "samples.txt"
        path.write_text("1 2 2 3 5 8 13\n")
        assert main(["fit", "--samples", str(path)]) == EXIT_OK
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 11 and all(len(row) == 3 for row in rows)
        assert rows[5] == ["GM", "inapplicable (GM: optimizer failed at (1.0, 2.0))", ""]


class TestPropsCommand:
    def test_exact_mode_above_the_limit_without_a_seed_is_an_input_error(self, tmp_path,
                                                                         capsys):
        # a path of EXACT_HOP_LIMIT + 1 nodes; refused before any breadth-first search
        path = tmp_path / "net.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(EXACT_HOP_LIMIT)))
        assert main(["props", "--network", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: exact hop mode is limited to {EXACT_HOP_LIMIT} "
                                       f"nodes, got {EXACT_HOP_LIMIT + 1}; a seed enables ")

    def test_nan_is_written_as_null(self, tmp_path, capsys):
        # a 4-cycle is regular, so its assortativity is undefined
        path = tmp_path / "net.txt"
        path.write_text("a b\nb c\nc d\nd a\n")
        assert main(["props", "--network", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out, parse_constant=pytest.fail)["tau"] is None
        assert '"tau": null' in out


class TestClusteringCommand:
    def test_restriction_warning_is_one_line(self, tmp_path):
        # the candidate leaves nodes 4 and 5 out, so both covers are
        # restricted to nodes 0-3; a fresh interpreter, so Python's own
        # warning display is what a user would see
        (tmp_path / "net.txt").write_text("0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        (tmp_path / "truth.txt").write_text("0 1 2\n3 4 5\n")
        (tmp_path / "cand.txt").write_text("0 1\n2 3\n")
        src = str(Path(covereval.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-m", "covereval.cli", "clustering", "--network", "net.txt",
             "--truth", "truth.txt", "--cover", "cand.txt"],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert out.returncode == EXIT_OK
        assert out.stderr.startswith("warning: covers restricted to common universe; ")
        assert len(out.stderr.splitlines()) == 1 and ".py:" not in out.stderr
        assert set(json.loads(out.stdout)) == {"NMI", "OI", "F1-score"}

    @pytest.mark.parametrize("lines", [["alice bob", "bob carol", "carol dave", "dave erin"],
                                       ["dave erin", "carol dave", "bob carol", "alice bob"]])
    def test_restriction_warning_names_dropped_labels(self, tmp_path, capsys, lines):
        # the cover leaves erin out; her id follows the edge list's line order
        # and her label does not
        (tmp_path / "net.txt").write_text("\n".join(lines) + "\n")
        (tmp_path / "truth.txt").write_text("alice bob carol\ndave erin\n")
        (tmp_path / "cand.txt").write_text("alice bob\ncarol dave\n")
        assert main(["clustering", "--network", str(tmp_path / "net.txt"),
                     "--truth", str(tmp_path / "truth.txt"),
                     "--cover", str(tmp_path / "cand.txt")]) == EXIT_OK
        assert capsys.readouterr().err == (
            "warning: covers restricted to common universe; dropped nodes ['erin']\n")


class TestRankCommand:
    @pytest.mark.parametrize("text", ["alg,c1,c2\nA,1,2\nB,x,1\n",
                                      "alg,c1,c2\nA,1,2\nB,2\n", ""])
    def test_malformed_table_is_an_input_error(self, tmp_path, capsys, text):
        path = tmp_path / "table.csv"
        path.write_text(text)
        assert main(["rank", "--table", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_rank_outside_range_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text("alg,c1\nA,5\nB,1\n")
        assert main(["rank", "--table", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: ranks must lie in [1, 2]\n"

    @pytest.mark.parametrize("text", ["alg,c1\nA,1\n", "alg\nA\nB\n"])
    def test_too_few_rows_or_criteria_is_an_input_error(self, tmp_path, capsys, text):
        path = tmp_path / "table.csv"
        path.write_text(text)
        assert main(["rank", "--table", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}: "
                                "need at least 2 alternatives and 1 criterion\n")

    @pytest.mark.parametrize("text, message", [
        ("alg,c1,c2\nA,1,2\nB,2,1\nA,3,3\n", "repeated alternative names: ['A']"),
        ("alg,c1,c1\nA,1,2\nB,2,1\n", "repeated criterion names: ['c1']"),
        ("alg,c1\nA,1,2\nB,2\n", "rank column count must match criteria"),
    ], ids=["repeated-alternative", "repeated-criterion", "extra-cell"])
    def test_inconsistent_table_is_an_input_error(self, tmp_path, capsys, text, message):
        # each was once read silently: a name counted twice, a column
        # overwritten, a cell ignored
        path = tmp_path / "table.csv"
        path.write_text(text)
        assert main(["rank", "--table", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

    def test_aggregation_failure_stays_a_computation_error(self, tmp_path, capsys,
                                                            monkeypatch):
        # no valid table makes the aggregation fail, so one is made to
        def failing_topsis(rt):
            raise RankingError("aggregation failed")

        monkeypatch.setattr(cli, "topsis", failing_topsis)
        path = tmp_path / "table.csv"
        path.write_text("alg,c1\nA,1\nB,2\n")
        assert main(["rank", "--table", str(path)]) == EXIT_COMPUTATION
        assert capsys.readouterr().err == "computation error: aggregation failed\n"


class TestExitCode:
    def test_key_error_is_not_an_input_error(self, tmp_path, capsys, monkeypatch):
        """No input path raises KeyError, so one is a program fault: it
        propagates with its traceback instead of printing `error: 'x'` and
        exiting 1."""
        def faulty_report(g, cover):
            return {}["AD"]

        monkeypatch.setattr(cli, "quality_report", faulty_report)
        (tmp_path / "net.txt").write_text("a b\nb c\n")
        (tmp_path / "cover.txt").write_text("a b c\n")
        with pytest.raises(KeyError):
            main(["quality", "--network", str(tmp_path / "net.txt"),
                  "--cover", str(tmp_path / "cover.txt")])
        assert capsys.readouterr().err == ""


class TestEncoding:
    def test_utf8_whatever_the_locale(self, tmp_path):
        """Under the C locale, with UTF-8 mode and locale coercion off,
        Python's default encoding is ASCII. The inputs are still read as
        UTF-8 and the outputs written as UTF-8, so `quality` on node labels
        and `run` on a candidate name with an "é" exit 0, and print and
        write the bytes they do in UTF-8 mode."""
        from covereval.synthetic import perturb_cover, planted_cover_network

        graph, truth = planted_cover_network(n_nodes=120, n_communities=12, seed=3)

        def cover_text(cover):
            return "".join(" ".join(f"{u}é" for u in sorted(c)) + "\n"
                           for c in cover.communities)

        (tmp_path / "net.txt").write_text(
            "".join(f"{u}é {v}é\n" for u, v in graph.edges().tolist()), encoding="utf-8")
        (tmp_path / "gt.txt").write_text(cover_text(truth), encoding="utf-8")
        (tmp_path / "far.txt").write_text(cover_text(perturb_cover(truth, 0.3, seed=4)),
                                          encoding="utf-8")
        (tmp_path / "cfg.json").write_text(json.dumps({
            "network_path": "net.txt", "ground_truth_path": "gt.txt",
            "candidates": [{"name": "exact", "cover_path": "gt.txt"},
                           {"name": "lointé", "cover_path": "far.txt"}]},
            ensure_ascii=False), encoding="utf-8")
        src = str(Path(covereval.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def outputs(env, out):
            printed = [subprocess.run(
                [sys.executable, "-m", "covereval.cli", *args], cwd=tmp_path, env=env,
                capture_output=True) for args in (
                    ["quality", "--network", "net.txt", "--cover", "far.txt"],
                    ["run", "--config", "cfg.json", "--output", out])]
            written = {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}
            return [(res.returncode, res.stdout.replace(out.encode(), b"OUT"), res.stderr)
                    for res in printed], written

        c_locale = {**env, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        encoding = subprocess.run(
            [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
            env=c_locale, capture_output=True, text=True, check=True).stdout.strip()
        assert encoding.lower().replace("-", "") != "utf8"
        printed, written = outputs(c_locale, "out_c")
        assert [code for code, _, _ in printed] == [EXIT_OK, EXIT_OK]
        assert (printed, written) == outputs({**env, "PYTHONUTF8": "1"}, "out_utf8")
        assert "dist_lointé_CS.csv" in written and "lointé".encode() in written["quality.csv"]


class TestImports:
    def test_run_imports_nothing_after_setup(self, tmp_path):
        """Every module a run uses is imported by `import covereval.cli` and
        the config's parse, as `covereval run` does them, so no import is
        paid inside the run: numpy imports some of its own modules on first
        use (`numpy.ma` on a bare `np.unique`). Once for all five groups,
        and once for the quality and clustering groups over several
        candidates, which read the parts each cover, the network and the
        universe keep. A fresh interpreter each, so that no test's or
        earlier run's import counts."""
        from covereval.synthetic import (perturb_cover, planted_cover_network, write_cover,
                                         write_edge_list)
        graph, truth = planted_cover_network(n_nodes=120, n_communities=12, seed=3)
        write_edge_list(graph, tmp_path / "net.txt")
        write_cover(truth, tmp_path / "gt.txt")
        fractions = {"far": 0.3, "near": 0.1, "farthest": 0.5}
        for name, fraction in fractions.items():
            write_cover(perturb_cover(truth, fraction, seed=4), tmp_path / f"{name}.txt")
        all_groups = {
            "network_path": "net.txt", "ground_truth_path": "gt.txt",
            "candidates": [{"name": "exact", "cover_path": "gt.txt"},
                           {"name": "far", "cover_path": "far.txt"}],
            "output_dir": "out"}
        several = {
            **all_groups, "property_groups": ["quality", "clustering"],
            "candidates": [{"name": "exact", "cover_path": "gt.txt"},
                           *({"name": n, "cover_path": f"{n}.txt"} for n in fractions)],
            "output_dir": "out-several"}
        src = str(Path(covereval.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for config, groups in ((all_groups, 5), (several, 2)):
            (tmp_path / "config.json").write_text(json.dumps(config))
            code = (
                "import sys\n"
                "from covereval import cli, pipeline\n"
                "cfg = cli.RunConfig.from_json('config.json')\n"
                "before = set(sys.modules)\n"
                "written = pipeline.emit_reports(pipeline.run(cfg), cfg.output_dir)\n"
                f"assert len(cfg.property_groups) == {groups} and written\n"
                "print(*sorted(set(sys.modules) - before))\n")
            out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                                 capture_output=True, text=True, check=True)
            assert out.stdout == "\n"

    def test_setup_loads_no_record_generator_or_csv(self, tmp_path):
        """`import covereval.cli` and the config's parse load neither
        `dataclasses` (with `copy`) nor `csv`: every record is a NamedTuple,
        not a dataclass, whose methods are generated and compiled at import,
        and only `covereval fit` writes through `csv`. Counted against numpy, json and argparse imported
        first, so that a module that the interpreter or numpy loads by itself
        on some version is not counted. A fresh interpreter, so that no
        test's import counts."""
        (tmp_path / "config.json").write_text(json.dumps({
            "network_path": "net.txt", "ground_truth_path": "gt.txt",
            "candidates": [{"name": "a", "cover_path": "a.txt"}]}))
        code = (
            "import sys\n"
            "import argparse, json, numpy\n"
            "before = set(sys.modules)\n"
            "from covereval import cli\n"
            "cli.RunConfig.from_json('config.json')\n"
            "print(*sorted({'dataclasses', 'copy', 'csv'} & (set(sys.modules) - before)))\n")
        src = str(Path(covereval.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "\n"

    def test_runtime_loads_no_scipy(self, tmp_path):
        """The CLI loads numpy and the standard library only: no scipy module
        after `import covereval.cli`, after `covereval fit` has fitted all
        ten families, or after a run of all five groups that writes its
        reports. A fresh interpreter, so that no test's import counts."""
        (tmp_path / "samples.txt").write_text(
            "0.42 0.57 0.61 0.83 0.9 1.07 1.18 1.3 1.46 1.52 1.77 2.6 9.1\n")
        code = (
            "import sys\n"
            "def loaded():\n"
            "    print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "import covereval.cli\n"
            "loaded()\n"
            "assert covereval.cli.main(['fit', '--samples', 'samples.txt']) == 0\n"
            "loaded()\n"
            "from covereval.pipeline import RunConfig, emit_reports, run\n"
            "from covereval.synthetic import (perturb_cover, planted_cover_network,\n"
            "                                 write_cover, write_edge_list)\n"
            "graph, truth = planted_cover_network(n_nodes=120, n_communities=12, seed=3)\n"
            "write_edge_list(graph, 'net.txt')\n"
            "write_cover(truth, 'gt.txt')\n"
            "write_cover(perturb_cover(truth, 0.3, seed=4), 'far.txt')\n"
            "cfg = RunConfig(network_path='net.txt', ground_truth_path='gt.txt',\n"
            "                candidates=(('exact', 'gt.txt'), ('far', 'far.txt')),\n"
            "                output_dir='out')\n"
            "written = emit_reports(run(cfg), cfg.output_dir)\n"
            "assert len(cfg.property_groups) == 5 and written\n"
            "loaded()\n")
        src = str(Path(covereval.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                             capture_output=True, text=True, check=True)
        lines = out.stdout.splitlines()
        # the first line, the ten fits with their header, the second, the last
        assert len(lines) == 1 + 11 + 1 + 1 and "inapplicable" not in out.stdout
        assert [lines[0], lines[12], lines[13]] == ["", "", ""]
