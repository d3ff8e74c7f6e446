import json
import re
import warnings
from pathlib import Path

import pytest

from covereval.cli import main
from covereval.graph import EmpiricalDistribution
from covereval.pipeline import (
    GROUP_PROPS, EvaluationReport, PipelineError, RunConfig, emit_reports, run,
)
from covereval.synthetic import (
    perturb_cover, planted_cover_network, write_cover, write_edge_list,
)

from oracles import union_find_components


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipeline")
    graph, cover = planted_cover_network(n_nodes=120, n_communities=12, seed=3)
    write_edge_list(graph, d / "net.txt")
    write_cover(cover, d / "gt.txt")
    write_cover(perturb_cover(cover, 0.10, seed=1), d / "c1.txt")
    write_cover(perturb_cover(cover, 0.40, seed=1), d / "c2.txt")
    cfg = {
        "network_path": str(d / "net.txt"),
        "ground_truth_path": str(d / "gt.txt"),
        "candidates": [
            {"name": "exact", "cover_path": str(d / "gt.txt")},
            {"name": "near", "cover_path": str(d / "c1.txt")},
            {"name": "far", "cover_path": str(d / "c2.txt")},
        ],
        "seed": 11,
    }
    (d / "cfg.json").write_text(json.dumps(cfg))
    return d


@pytest.fixture(scope="module")
def report(workspace):
    return run(RunConfig.from_json(workspace / "cfg.json"))


class TestRunConfig:
    def test_validation(self, workspace):
        with pytest.raises(PipelineError):
            RunConfig(network_path="x", ground_truth_path="y", candidates=())
        with pytest.raises(PipelineError):
            RunConfig(network_path="x", ground_truth_path="y",
                      candidates=(("a", "p"), ("a", "q")))
        with pytest.raises(PipelineError):
            RunConfig(network_path="x", ground_truth_path="y",
                      candidates=(("a", "p"),), hop_mode="sampled")
        with pytest.raises(PipelineError):
            RunConfig(network_path="x", ground_truth_path="y",
                      candidates=(("a", "p"),), property_groups=("bogus",))

    def test_overrides(self, workspace):
        cfg = RunConfig.from_json(workspace / "cfg.json", seed=99,
                                  output_dir="elsewhere")
        assert cfg.seed == 99 and cfg.output_dir == "elsewhere"

    def test_missing_input_raises(self, workspace):
        cfg = RunConfig(network_path="/nonexistent", ground_truth_path="x",
                        candidates=(("a", "p"),))
        with pytest.raises(PipelineError):
            run(cfg)


class TestColumnCounts:
    def test_group_column_counts(self, report):
        tables = report.data["tables"]
        assert len(tables["basic"]["criteria"]) == 9
        assert len(tables["microscopic"]["criteria"]) == 3
        assert len(tables["mesoscopic"]["criteria"]) == 3
        assert len(tables["quality"]["criteria"]) == 6
        assert len(tables["clustering"]["criteria"]) == 3
        assert len(tables["all_topological"]["criteria"]) == 15
        assert len(tables["all_properties"]["criteria"]) == 24

    def test_property_names_are_distinct(self):
        # the rank columns are keyed by property name, so a name in two
        # groups would overwrite a column
        names = [p for props in GROUP_PROPS.values() for p in props]
        assert len(names) == len(set(names)) == 24

    def test_rank_domain(self, report):
        m = 3
        for entry in report.data["tables"].values():
            for row in entry["ranks"].values():
                assert all(1 <= r <= m for r in row)

    def test_exact_candidate_wins_scalar_columns(self, report):
        for tname in ("basic", "quality", "clustering"):
            entry = report.data["tables"][tname]
            assert all(r == 1 for r in entry["ranks"]["exact"])

    def test_exact_candidate_tops_consensus(self, report):
        # distribution-fit columns rank covers by their own goodness of
        # fit, so only the distance/similarity tables are guaranteed here
        for tname in ("basic", "quality", "clustering", "all_properties"):
            entry = report.data["tables"][tname]
            assert entry["kemeny"]["order"][0] == "exact"
            assert entry["topsis"]["ranks"]["exact"] == 1


class TestDeterminismAndSerialization:
    def test_rerun_byte_identical(self, workspace, report, tmp_path):
        report2 = run(RunConfig.from_json(workspace / "cfg.json"))
        assert report.to_json() == report2.to_json()
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        emit_reports(report, out1)
        emit_reports(report2, out2)
        files = sorted(p.name for p in out1.iterdir())
        assert files == sorted(p.name for p in out2.iterdir())
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_counts_are_integers(self, report):
        # V, E, d and max_deg are written as `covereval props` prints them
        for name, entry in report.data["community_graphs"].items():
            basic = entry["basic"]
            assert all(type(basic[p]) is int for p in ("V", "E", "d", "max_deg")), name
            assert all(type(basic[p]) is float for p in ("rho", "l_G", "avg_deg", "C")), name
        assert re.search(r'"V": \d+,\n', report.to_json())

    def test_json_round_trip(self, report):
        assert json.loads(report.to_json()) == report.data

    def test_emitted_files(self, report, tmp_path):
        written = emit_reports(report, tmp_path / "out")
        names = {p.name for p in written}
        assert "report.json" in names
        assert "ranking_all_properties.csv" in names
        assert "spearman_basic.csv" in names
        assert "quality.csv" in names and "clustering.csv" in names
        assert any(n.startswith("dist_ground_truth_") for n in names)
        ranking = (tmp_path / "out" / "ranking_basic.csv").read_text()
        header = ranking.splitlines()[0].split(",")
        assert header[-2:] == ["Kconsensus", "TOPSIS"]

    def test_quality_only_selection(self, workspace, tmp_path):
        cfg = RunConfig.from_json(workspace / "cfg.json",
                                  output_dir=str(tmp_path / "q"))
        cfg = RunConfig(
            network_path=cfg.network_path,
            ground_truth_path=cfg.ground_truth_path,
            candidates=cfg.candidates,
            property_groups=("quality", "clustering"),
            seed=cfg.seed, output_dir=cfg.output_dir)
        rep = run(cfg)
        assert set(rep.data["tables"]) == {"quality", "clustering"}
        written = emit_reports(rep, cfg.output_dir)
        names = {p.name for p in written}
        assert "quality.csv" in names and "clustering.csv" in names
        assert not any(n.startswith("ranking_all") for n in names)
        # no samples are taken for the groups left out, so no dump is written
        assert not any(rep.samples.values())
        assert not any(n.startswith("dist_") for n in names)

    @pytest.mark.parametrize("groups", [
        ("quality", "clustering"), ("basic",), ("microscopic",), ("mesoscopic",)])
    def test_groups_select_the_dumps_not_the_values(self, workspace, report, tmp_path, groups):
        """The groups decide which `dist_*` dumps are written, those of their
        microscopic and mesoscopic properties, and no value that the report
        holds for every config."""
        rep = run(RunConfig.from_json(workspace / "cfg.json", property_groups=groups))
        written = {p.name for p in emit_reports(rep, tmp_path / "out")}
        sampled = [p for g in groups if g in ("microscopic", "mesoscopic")
                   for p in GROUP_PROPS[g]]
        assert {n for n in written if n.startswith("dist_")} == {
            f"dist_{cover}_{p}.csv" for cover in report.samples for p in sampled}
        got = json.loads((tmp_path / "out" / "report.json").read_bytes())
        every = json.loads(report.to_json())
        for block in ("community_graphs", "quality"):
            assert got[block] == every[block]


class TestSampledHopMode:
    def test_sampled_run_is_deterministic(self, workspace):
        cfg = RunConfig.from_json(workspace / "cfg.json", hop_mode="sampled",
                                  sources=5, seed=21)
        a = run(cfg)
        b = run(cfg)
        assert a.to_json() == b.to_json()


class TestCli:
    def test_run_subcommand(self, workspace, tmp_path, capsys):
        rc = main(["run", "--config", str(workspace / "cfg.json"),
                   "--output", str(tmp_path / "cli_out")])
        assert rc == 0
        assert (tmp_path / "cli_out" / "report.json").exists()

    def test_props_subcommand(self, workspace, capsys):
        rc = main(["props", "--network", str(workspace / "net.txt")])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"V", "E", "rho", "d", "l_G", "avg_deg",
                            "max_deg", "tau", "C"}

    def test_community_graph_subcommand(self, workspace, tmp_path):
        out = tmp_path / "cg.txt"
        rc = main(["community-graph", "--network", str(workspace / "net.txt"),
                   "--cover", str(workspace / "gt.txt"),
                   "--output", str(out)])
        assert rc == 0
        assert out.read_text().strip()

    def test_quality_subcommand(self, workspace, capsys):
        rc = main(["quality", "--network", str(workspace / "net.txt"),
                   "--cover", str(workspace / "gt.txt")])
        assert rc == 0
        assert set(json.loads(capsys.readouterr().out)) == {
            "AD", "AO", "FO", "ID", "MO", "OM"}

    def test_clustering_subcommand(self, workspace, capsys):
        rc = main(["clustering", "--network", str(workspace / "net.txt"),
                   "--truth", str(workspace / "gt.txt"),
                   "--cover", str(workspace / "c1.txt")])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"NMI", "OI", "F1-score"}

    def test_fit_subcommand(self, workspace, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        samples.write_text(" ".join(str(1 + i % 7) for i in range(50)))
        rc = main(["fit", "--samples", str(samples)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("family,params,ks")

    def test_rank_subcommand(self, workspace, tmp_path, capsys):
        csv = tmp_path / "table.csv"
        csv.write_text("alg,c1,c2\nA,1,2\nB,2,1\nC,3,3\n")
        rc = main(["rank", "--table", str(csv)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert "kemeny" in out and "topsis" in out

    def test_quality_and_clustering_print_the_report_entries(self, workspace, report,
                                                             capsys):
        # one producer per property: each subcommand prints exactly what
        # report.json holds for the cover
        data = json.loads(report.to_json())
        covers = {"ground_truth": "gt.txt", "exact": "gt.txt", "near": "c1.txt",
                  "far": "c2.txt"}
        assert set(data["quality"]) == set(covers)
        for name, path in covers.items():
            assert main(["quality", "--network", str(workspace / "net.txt"),
                         "--cover", str(workspace / path)]) == 0
            assert json.loads(capsys.readouterr().out) == data["quality"][name]
            if name == "ground_truth":
                continue
            assert main(["clustering", "--network", str(workspace / "net.txt"),
                         "--truth", str(workspace / "gt.txt"),
                         "--cover", str(workspace / path)]) == 0
            assert json.loads(capsys.readouterr().out) == data["clustering"][name]

    def test_validation_error_exit_code(self, capsys):
        rc = main(["props", "--network", "/nonexistent-file"])
        assert rc == 1

    def test_computation_error_exit_code(self, tmp_path, capsys):
        samples = tmp_path / "bad.txt"
        samples.write_text("1 2 3")  # below the minimum sample count
        rc = main(["fit", "--samples", str(samples)])
        assert rc == 2


class TestSinglePass:
    def test_one_hop_pass_per_cover(self, workspace, monkeypatch):
        from covereval import graph, pipeline
        calls = []
        real = graph.hop_distribution

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        # the pipeline's own binding too, should it call hop_distribution itself
        monkeypatch.setattr(graph, "hop_distribution", counting)
        monkeypatch.setattr(pipeline, "hop_distribution", counting, raising=False)
        rep = run(RunConfig.from_json(workspace / "cfg.json"))
        covers = rep.data["community_graphs"]
        assert len(covers) == 4 and not any(cg["degenerate"] for cg in covers.values())
        assert len(calls) == 4

    def test_each_community_graph_built_at_most_twice(self, workspace, tmp_path,
                                                     monkeypatch):
        # once from the cover's overlaps, once more for its giant component
        # when it has several components; the hop pass reuses it
        from covereval import cover, graph
        from covereval.cover import Cover, community_graph_edges, load_cover
        from covereval.graph import Graph, load_edge_list
        net = load_edge_list((workspace / "net.txt").read_text())
        truth = load_cover((workspace / "gt.txt").read_text(), net)
        low = frozenset(range(net.n // 2))
        split = Cover.from_sets(part for c in truth.communities
                                for part in (c & low, c - low) if part)
        labels = net.original_labels
        (tmp_path / "split.txt").write_text("".join(
            " ".join(labels[u] for u in sorted(c)) + "\n" for c in split.communities))
        cfg = json.loads((workspace / "cfg.json").read_text())
        cfg["candidates"].append({"name": "split", "cover_path": str(tmp_path / "split.txt")})
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        covers = [truth] + [load_cover(Path(c["cover_path"]).read_text(), net)
                            for c in cfg["candidates"]]
        pieces = [len(union_find_components(len(c.communities), community_graph_edges(c)))
                  for c in covers]
        assert pieces[-1] >= 2 and min(pieces) == 1

        built = []

        class CountingGraph(Graph):
            __slots__ = ()

            def __new__(cls, *args, **kwargs):
                built.append(cls)
                return object.__new__(cls)

        monkeypatch.setattr(graph, "Graph", CountingGraph)
        monkeypatch.setattr(cover, "Graph", CountingGraph)
        rep = run(RunConfig.from_json(tmp_path / "cfg.json"))
        assert not any(cg["degenerate"] for cg in rep.data["community_graphs"].values())
        # the network, then one or two per community graph
        assert len(built) == 1 + sum(1 if p == 1 else 2 for p in pieces)

    def test_one_cover_per_loaded_file(self, workspace, monkeypatch):
        # the candidates keep the ground truth's node ids, so the clustering
        # metrics read the loaded covers as they are and build none
        from covereval import cover
        built = []

        class CountingCover(cover.Cover):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                built.append(type(self))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cover, "Cover", CountingCover)
        rep = run(RunConfig.from_json(workspace / "cfg.json"))
        assert rep.data["clustering"]
        # the ground truth and the three candidates
        assert len(built) == 4

    def test_one_restriction_per_pair(self, workspace, tmp_path, monkeypatch, capsys):
        # a candidate that leaves nodes out is restricted with the truth to
        # their common nodes once, for all three clustering metrics: two
        # covers for the pair, in `run` and in the clustering subcommand
        from covereval import cover
        from covereval.cover import load_cover
        from covereval.graph import load_edge_list
        net = load_edge_list((workspace / "net.txt").read_text())
        labels = net.original_labels
        (tmp_path / "partial.txt").write_text("".join(
            " ".join(labels[u] for u in sorted(c) if u % 5) + "\n"
            for c in load_cover((workspace / "c1.txt").read_text(), net).communities
            if any(u % 5 for u in c)))
        cfg = json.loads((workspace / "cfg.json").read_text())
        cfg["candidates"].append({"name": "partial",
                                  "cover_path": str(tmp_path / "partial.txt")})
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        built = []

        class CountingCover(cover.Cover):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                built.append(type(self))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cover, "Cover", CountingCover)
        rep = run(RunConfig.from_json(tmp_path / "cfg.json"))
        assert set(rep.data["clustering"]) == {"exact", "near", "far", "partial"}
        # the ground truth, the four candidates, and the restricted pair
        assert len(built) == 5 + 2
        built.clear()
        capsys.readouterr()
        assert main(["clustering", "--network", str(workspace / "net.txt"),
                     "--truth", str(workspace / "gt.txt"),
                     "--cover", str(tmp_path / "partial.txt")]) == 0
        assert capsys.readouterr().err.startswith(
            "warning: covers restricted to common universe")
        assert len(built) == 2 + 2

    def test_samples_are_a_field(self, report):
        # the all-groups run takes every microscopic and mesoscopic sample
        assert set(report.samples) == {"ground_truth", "exact", "near", "far"}
        for dists in report.samples.values():
            assert set(dists) == {"DD", "Av", "HD", "CS", "M", "OS"}
        # left out of the JSON and of equality
        again = EvaluationReport(json.loads(report.to_json()))
        assert again == report and again.samples == {}


def _hand_built_report():
    data = {
        "tables": {
            "quality": {
                "criteria": ["AD", "OM"],
                "ranks": {"A": [1, 2], "B": [2, 1], "C": [2, 3]},
                "kemeny": {"order": ["A", "B", "C"], "ranks": {"A": 1, "B": 2, "C": 3},
                           "score": 3, "exact": True},
                "topsis": {"closeness": {"A": 0.75, "B": 0.5, "C": 0.0},
                           "ranks": {"A": 1, "B": 2, "C": 3}},
                "spearman": [[1.0, None], [None, 0.30000000000000004]],
            },
            "basic": {
                "criteria": ["V"],
                "ranks": {"A": [1], "B": [1], "C": [3]},
                "topsis": {"closeness": {"A": 1.0, "B": 1.0, "C": 0.0},
                           "ranks": {"A": 1, "B": 1, "C": 3}},
            },
        },
        "quality": {
            "ground_truth": {"AD": 4.0, "AO": 0.1, "FO": 0.0, "ID": 1 / 3,
                             "MO": 0.5, "OM": 0.25},
            "A": {"AD": 2.5, "AO": None, "FO": 1e-17, "ID": 2 / 3, "MO": 1.0,
                  "OM": -0.125},
        },
        "clustering": {"A": {"NMI": 1.0, "OI": 0.1 + 0.2, "F1-score": None}},
    }
    samples = {
        "ground_truth": {
            "DD": EmpiricalDistribution([3, 1, 2, 3, 2, 3]),
            "HD": EmpiricalDistribution([0.5, 1 / 3, 0.5]),
        },
        "A": {"CS": EmpiricalDistribution([7, 7, 7])},
    }
    return EvaluationReport(data=data, samples=samples)


# The files emit_reports writes for _hand_built_report(), recorded from its
# earlier one-writer-per-file implementation; the output format is a
# contract, so any rewrite must reproduce them byte for byte.
EMITTED = {
    "ranking_basic.csv": "algorithm,V,TOPSIS\nA,1,1\nB,1,1\nC,3,3\n",
    "ranking_quality.csv": ("algorithm,AD,OM,Kconsensus,TOPSIS\n"
                            "A,1,2,1,1\nB,2,1,2,2\nC,2,3,3,3\n"),
    "spearman_quality.csv": ",AD,OM\nAD,1.0,\nOM,,0.30000000000000004\n",
    "quality.csv": ("name,AD,AO,FO,ID,MO,OM\n"
                    "ground_truth,4.0,0.1,0.0,0.3333333333333333,0.5,0.25\n"
                    "A,2.5,,1e-17,0.6666666666666666,1.0,-0.125\n"),
    "clustering.csv": "name,NMI,OI,F1-score\nA,1.0,0.30000000000000004,\n",
    "dist_A_CS.csv": "value,ecdf\n7.0,1.0\n",
    "dist_ground_truth_DD.csv": ("value,ecdf\n1.0,0.16666666666666666\n"
                                 "2.0,0.5\n3.0,1.0\n"),
    "dist_ground_truth_HD.csv": ("value,ecdf\n0.3333333333333333,0.3333333333333333\n"
                                 "0.5,1.0\n"),
}


class TestEmitReports:
    def test_literal_output(self, tmp_path):
        rep = _hand_built_report()
        written = emit_reports(rep, tmp_path)
        assert [p.name for p in written] == [
            "report.json", "ranking_basic.csv", "ranking_quality.csv",
            "spearman_quality.csv", "quality.csv", "clustering.csv",
            "dist_A_CS.csv", "dist_ground_truth_DD.csv", "dist_ground_truth_HD.csv"]
        assert (tmp_path / "report.json").read_text() == json.dumps(
            rep.data, sort_keys=True, indent=2) + "\n"
        for name, text in EMITTED.items():
            assert (tmp_path / name).read_text() == text, name


def _relative_config(workspace, root, **extra):
    """The workspace inputs copied under root/data, with a config that names
    them relative to itself."""
    data = root / "data"
    data.mkdir()
    for name in ("net.txt", "gt.txt", "c1.txt"):
        (data / name).write_text((workspace / name).read_text())
    cfg = {
        "network_path": "net.txt",
        "ground_truth_path": "gt.txt",
        "candidates": [{"name": "exact", "cover_path": "gt.txt"},
                       {"name": "near", "cover_path": "c1.txt"}],
        "property_groups": ["quality"],
        "seed": 11,
        "output_dir": "res",
        **extra,
    }
    (data / "cfg.json").write_text(json.dumps(cfg))
    return data / "cfg.json"


class TestMissingReferenceProperty:
    def test_nan_ground_truth_property_left_out(self, tmp_path, capsys):
        # eight 5-cliques {3i .. 3i+4} mod 24: each overlaps the next, so the
        # community graph is an 8-cycle, degree-regular, with NaN assortativity
        truth = [[(3 * i + j) % 24 for j in range(5)] for i in range(8)]
        edges = {(min(u, v), max(u, v)) for c in truth for u in c for v in c if u != v}
        (tmp_path / "net.txt").write_text("".join(f"{u} {v}\n" for u, v in sorted(edges)))
        (tmp_path / "gt.txt").write_text("".join(" ".join(map(str, c)) + "\n" for c in truth))
        (tmp_path / "path.txt").write_text("".join(
            " ".join(str(u) for u in range(4 * i, min(4 * i + 5, 24))) + "\n"
            for i in range(6)))
        (tmp_path / "cfg.json").write_text(json.dumps({
            "network_path": "net.txt", "ground_truth_path": "gt.txt",
            "candidates": [{"name": "same", "cover_path": "gt.txt"},
                           {"name": "path", "cover_path": "path.txt"}],
            "property_groups": ["basic"], "output_dir": "out"}))
        rc = main(["run", "--config", str(tmp_path / "cfg.json")])
        assert rc == 0, capsys.readouterr().err
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["community_graphs"]["ground_truth"]["basic"]["tau"] is None
        criteria = rep["tables"]["basic"]["criteria"]
        assert "tau" not in criteria and len(criteria) == 8
        assert "ground truth has no value for tau; column left out" in rep["notes"]


class TestStrictConfig:
    def test_unknown_key_rejected(self, workspace, tmp_path, capsys):
        path = _relative_config(workspace, tmp_path, hop_mdoe="sampled")
        with pytest.raises(PipelineError, match="hop_mdoe"):
            RunConfig.from_json(path)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("candidate", [
        {"name": "near", "cover_path": "c1.txt", "cover_pth": "x.txt", "weight": 2},
        {"name": "near"},
        {"cover_path": "c1.txt"},
        "c1.txt",
        {"name": "near", "cover_path": 3},
        {"name": ["near"], "cover_path": "c1.txt"},
    ], ids=["extra-keys", "no-cover-path", "no-name", "not-an-object", "path-not-a-string",
            "name-not-a-string"])
    def test_malformed_candidate_rejected(self, workspace, tmp_path, capsys, candidate):
        path = _relative_config(workspace, tmp_path, candidates=[
            {"name": "exact", "cover_path": "gt.txt"}, candidate])
        with pytest.raises(PipelineError, match="name and cover_path"):
            RunConfig.from_json(path)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("candidates", [None, {"name": "a", "cover_path": "gt.txt"}])
    def test_candidates_must_be_a_list(self, workspace, tmp_path, candidates):
        path = _relative_config(workspace, tmp_path, candidates=candidates)
        with pytest.raises(PipelineError, match="candidates must be a list"):
            RunConfig.from_json(path)

    @pytest.mark.parametrize("key", ["network_path", "ground_truth_path", "candidates"])
    def test_missing_key_named(self, workspace, tmp_path, capsys, key):
        path = _relative_config(workspace, tmp_path)
        cfg = json.loads(path.read_text())
        del cfg[key]
        path.write_text(json.dumps(cfg))
        with pytest.raises(PipelineError, match=re.escape(f"missing config keys: ['{key}']")):
            RunConfig.from_json(path)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: missing config keys: ['{key}']\n"

    @pytest.mark.parametrize("extra", [
        {"sources": "abc"}, {"sources": 2.7}, {"sources": True}, {"sources": None},
        {"seed": "x"}, {"seed": 1.5}, {"seed": False},
        {"property_groups": "quality"}, {"property_groups": ["quality", 1]},
        {"mcdm": "kemeny"}, {"mcdm": [["topsis"]]},
        {"network_path": 5}, {"ground_truth_path": ["gt.txt"]}, {"output_dir": None},
    ], ids=lambda extra: f"{next(iter(extra))}={next(iter(extra.values()))!r}")
    def test_bad_value_type_rejected(self, workspace, tmp_path, capsys, extra):
        path = _relative_config(workspace, tmp_path, **extra)
        with pytest.raises(PipelineError, match=next(iter(extra))):
            RunConfig.from_json(path)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("sources", [0, -7])
    def test_sources_below_one_rejected(self, workspace, tmp_path, capsys, sources):
        # no group here takes a hop sample, so nothing later would catch it,
        # whether the config or the command line sets it
        path = _relative_config(workspace, tmp_path, hop_mode="sampled", sources=sources)
        with pytest.raises(PipelineError, match=f"sources must be at least 1, got {sources}"):
            RunConfig.from_json(path)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: sources must be at least 1, got {sources}\n"
        path.write_text(json.dumps({**json.loads(path.read_text()), "sources": 5}))
        assert main(["run", "--config", str(path), "--sources", str(sources)]) == 1
        assert capsys.readouterr().err.startswith("error: sources must be at least 1")
        assert not (path.parent / "res").exists()

    def test_non_object_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('[{"network_path": "net.txt"}]')
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("name", ["ground_truth", "a/b", "../near", "nul\0"],
                             ids=["ground_truth", "slash", "parent-dir", "nul"])
    def test_unusable_candidate_name_rejected(self, workspace, tmp_path, capsys, name):
        # `ground_truth` would overwrite the truth's entries in the report, and
        # a name is part of the file names; both stop before anything is written
        path = _relative_config(workspace, tmp_path, candidates=[
            {"name": "exact", "cover_path": "gt.txt"}, {"name": name, "cover_path": "c1.txt"}])
        with pytest.raises(PipelineError, match="candidate name"):
            RunConfig.from_json(path)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (path.parent / "res").exists()

    def test_unknown_mcdm_rejected(self, workspace, tmp_path, capsys):
        with pytest.raises(PipelineError, match="kemeney"):
            RunConfig(network_path="x", ground_truth_path="y",
                      candidates=(("a", "p"),), mcdm=("kemeney",))
        path = _relative_config(workspace, tmp_path, mcdm=["kemeney", "topsis"])
        assert main(["run", "--config", str(path)]) == 1
        assert "kemeney" in capsys.readouterr().err

    def test_paths_relative_to_config(self, workspace, tmp_path, monkeypatch, capsys):
        _relative_config(workspace, tmp_path, mcdm=["topsis"])
        monkeypatch.chdir(tmp_path)
        cfg = RunConfig.from_json("data/cfg.json")
        assert (cfg.network_path, cfg.ground_truth_path, cfg.output_dir) == (
            "data/net.txt", "data/gt.txt", "data/res")
        assert cfg.candidates == (("exact", "data/gt.txt"), ("near", "data/c1.txt"))
        assert main(["run", "--config", "data/cfg.json"]) == 0
        printed = capsys.readouterr().out.split()
        assert printed[0] == "data/res/report.json"
        entry = json.loads((tmp_path / "data/res/report.json").read_text())["tables"]
        assert set(entry["quality"]) == {"criteria", "ranks", "topsis"}

    def test_config_in_current_directory_keeps_its_strings(self, workspace, tmp_path,
                                                           monkeypatch):
        _relative_config(workspace, tmp_path)
        monkeypatch.chdir(tmp_path / "data")
        cfg = RunConfig.from_json("cfg.json")
        assert (cfg.network_path, cfg.output_dir) == ("net.txt", "res")
        assert cfg.candidates == (("exact", "gt.txt"), ("near", "c1.txt"))

    def test_output_override_stays_relative_to_cwd(self, workspace, tmp_path,
                                                   monkeypatch):
        _relative_config(workspace, tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "data/cfg.json", "--output", "cli_out"]) == 0
        assert (tmp_path / "cli_out" / "report.json").exists()
        assert not (tmp_path / "data" / "res").exists()
