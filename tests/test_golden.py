"""Golden output: the sha256 of every file `run()` + `emit_reports()` write
for one seeded planted-cover network, with perturbed candidates in exact and
in sampled hop mode, and with candidates that take the pipeline's rarer
branches (a community graph of several components, a cover that leaves
nodes out) in exact mode.

A refactor of the metric code must leave these bytes unchanged. The first
three instances run the basic, quality and clustering groups, so no
distribution is fitted and their digests do not depend on the optimizer;
`distributions.csv` holds the samples of the microscopic and mesoscopic
properties of the selected groups only, so these instances do not write
it. The `fitted` instance runs the microscopic and mesoscopic groups, so
it pins the fitting path and every sample too: every family's MLE and KS
statistic on the sample distributions, and the family each property
selects. Its samples were once written as one `dist_<cover>_<prop>.csv`
dump each; those dumps' digests are kept, and distributions.csv split by
(cover, property) must give them back.

A change that moves a value on purpose re-records the digests and says in
CHANGES.md which files and values moved, and by how much: that file keeps
the history of every re-record.
"""

import hashlib

import pytest

from covereval.cover import Cover
from covereval.pipeline import RunConfig, emit_reports, run
from covereval.synthetic import (
    perturb_cover, planted_cover_network, write_cover, write_edge_list,
)


def perturbed(truth: Cover) -> dict[str, Cover]:
    return {"near": perturb_cover(truth, 0.10, seed=2),
            "far": perturb_cover(truth, 0.40, seed=2)}


def split_and_partial(truth: Cover) -> dict[str, Cover]:
    """`split` cuts every community at node 200, so its community graph
    falls into at least two components and is reduced to the largest;
    `partial` leaves every seventh node out, so the clustering metrics
    restrict both covers to their common universe."""
    low = frozenset(range(200))
    return {
        "split": Cover.from_sets(part for c in truth.communities
                                 for part in (c & low, c - low) if part),
        "partial": Cover.from_sets(kept for c in perturb_cover(truth, 0.10, seed=2).communities
                                   if (kept := {u for u in c if u % 7})),
    }


def emitted_digests(workdir, candidates,
                    property_groups=("basic", "quality", "clustering"),
                    **settings) -> dict[str, str]:
    """Write the instance into `workdir` (paths relative to it, so the
    report does not name the directory), the ground truth as candidate
    `exact` plus `candidates(truth)`, run it into `workdir/out` and hash
    every file in the order it was written."""
    graph, truth = planted_cover_network(n_nodes=400, n_communities=60, seed=7)
    write_edge_list(graph, workdir / "net.txt")
    write_cover(truth, workdir / "gt.txt")
    names = [("exact", "gt.txt")]
    for name, cover in candidates(truth).items():
        write_cover(cover, workdir / f"{name}.txt")
        names.append((name, f"{name}.txt"))
    cfg = RunConfig(
        network_path="net.txt", ground_truth_path="gt.txt", candidates=tuple(names),
        property_groups=property_groups, output_dir="out", **settings)
    written = emit_reports(run(cfg), cfg.output_dir)
    return {p.name: digest(p.read_bytes()) for p in written}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


EXACT = {
    "report.json":
        "2788cf80281196eaa0c06a9a42ef74f6155c49902797e551fdad0e503ffa1455",
    "ranking_basic.csv":
        "c0fc65592f177dfd328ff06e08f201c6c9324d20b5e93bee5a25e8d4bd1925ce",
    "spearman_basic.csv":
        "15fc5e1f782f2212a64507767b505ffeb68f98b9a2acbcbd67684d5c5f275fe3",
    "ranking_clustering.csv":
        "7cfc3e07cd5306ed289cdc475e93fddfad1b4820fc620abf1fbdde499d67daa5",
    "spearman_clustering.csv":
        "f70c31fa34de7dbd5282e49d24629959b0735daaa9ad6daa882e6e3411f08cd9",
    "ranking_quality.csv":
        "31b027d2f6e584f738f7f95711b1bd9eac2879f0099c2173544f1e29b0646385",
    "spearman_quality.csv":
        "917dacc700bb80a3a934689fcfab2ca4938fc712664a9be3a4705da2efd9f963",
    "quality.csv":
        "e4e17f0f74bf8749c8257bbb0e7ae10612e5a3979782b5f824829fa7fb0e35ed",
    "clustering.csv":
        "ce808f46026af1005b9da6cf2683f95c341f7e126170a8b833789b517b8f5992",
}

SAMPLED = {
    "report.json":
        "1a1518c43507bc641a7019ba8816064a8a5ce9ab6dcff33c02af71f7b75ec2f3",
    "ranking_basic.csv":
        "de97c9970500dd8e0cc3a772f31265efdfff2fa21a01ce4296d2bab3616a95b9",
    "spearman_basic.csv":
        "64c790257c1abd7ca6ae6eda050668a8b852c50e0fbe05e1dbb9298f1b73a39d",
    "ranking_clustering.csv":
        "7cfc3e07cd5306ed289cdc475e93fddfad1b4820fc620abf1fbdde499d67daa5",
    "spearman_clustering.csv":
        "f70c31fa34de7dbd5282e49d24629959b0735daaa9ad6daa882e6e3411f08cd9",
    "ranking_quality.csv":
        "31b027d2f6e584f738f7f95711b1bd9eac2879f0099c2173544f1e29b0646385",
    "spearman_quality.csv":
        "917dacc700bb80a3a934689fcfab2ca4938fc712664a9be3a4705da2efd9f963",
    "quality.csv":
        "e4e17f0f74bf8749c8257bbb0e7ae10612e5a3979782b5f824829fa7fb0e35ed",
    "clustering.csv":
        "ce808f46026af1005b9da6cf2683f95c341f7e126170a8b833789b517b8f5992",
}


SPLIT_PARTIAL = {
    "report.json":
        "04c35d28bc0fb538d0d11ae5e1b229e3cf77d11a35971b36cdcb1e74e97e18f9",
    "ranking_basic.csv":
        "5e1c0dfda563338e854ad1c0bdac7f252ea3fd3e0d54926d355564b2708fc564",
    "spearman_basic.csv":
        "83659cda3e3b0f9c6adbd02db3f5ec3cfd52c3f459efa891fde5465e0c767185",
    "ranking_clustering.csv":
        "f0ab910b7b9b3756225594efce95cd315f3d2540517e4fde5b8b9eb04687bccd",
    "spearman_clustering.csv":
        "f70c31fa34de7dbd5282e49d24629959b0735daaa9ad6daa882e6e3411f08cd9",
    "ranking_quality.csv":
        "d612c1345b3f2651dce8054fa5f6937327c55db8e36761dd462bf402884198c7",
    "spearman_quality.csv":
        "62bb400d0a0fef1e265e5f79d20292f92a353dd02f7425e706fdff758e66f27a",
    "quality.csv":
        "1354c4c14e9bcf8a36555aa60756c85dbb43a8dcaf06ea841262df6fa420908c",
    "clustering.csv":
        "62c7cb7debafe580f589d0c76325980ed61f432603f4fd3c8a1da96135f2461a",
}


FITTED = {
    "report.json":
        "650d553810693ea83ef2dbdfd0ac70e0b850058a9065953818226b00bacf2252",
    "ranking_mesoscopic.csv":
        "8738eb4181c05c6f311d00d960f28f2a9a56d91a3b0a1a6f6511e97b6da65016",
    "spearman_mesoscopic.csv":
        "95849be95c0172b2fbc06d49565dd5ad0f26190f8e678ba9aad64f3a3664a39e",
    "ranking_microscopic.csv":
        "da10e14d66e51095768371425a1d9aad62ae2980d40bd39ef63b05409330d9cc",
    "spearman_microscopic.csv":
        "b30b8699af46215cc71e1f45c4a3e74334ef318ab9767cefeb35ae25be2fa801",
    "quality.csv":
        "e4e17f0f74bf8749c8257bbb0e7ae10612e5a3979782b5f824829fa7fb0e35ed",
    "distributions.csv":
        "3cdaa8d7683479b924da75310f3b2acf1a65ad2f28e461d9b0353c3ce85ffe54",
}

# The `fitted` instance's per-cover sample dumps `dist_<cover>_<prop>.csv`,
# each a `value,ecdf` header and its rows, as emit_reports wrote them before
# it wrote their rows to one distributions.csv, in the order it wrote them.
FITTED_DUMPS = {
    "dist_exact_Av.csv":
        "656630e9a9785ca5e63081414826c05f547cbc08997b15552e771056715440bd",
    "dist_exact_CS.csv":
        "ef39b0443a9446f0a9eca0b6d908a22457af24a5d4185c2fc8c95aa8d8cec870",
    "dist_exact_DD.csv":
        "49c13b267ff7f594ba726e9fe6aa9c81ea7acbad85e07228ae7fcc0f6e5ae7b3",
    "dist_exact_HD.csv":
        "3489eab922e1f5c6919e07f6536d1db3dccbc5af8420b0a4a51a401440947386",
    "dist_exact_M.csv":
        "c241d44cb488200bfa92cd9c96ce1ba64e42f11f5260a43d88366fce5d2276b8",
    "dist_exact_OS.csv":
        "98b785da6a72f3cd657687cfb3ca2e1b2d0e46ac42a262a073fc795ddd22dd7b",
    "dist_far_Av.csv":
        "fe86f4a0146098d943eb44a198d1b78ddc3da2daa59d6b57848d773c38650d36",
    "dist_far_CS.csv":
        "5904dfdd2a1e947395fa50fbcbf07db6a4c132d1acca45f0d510c645957837f8",
    "dist_far_DD.csv":
        "fd4797498d0b3a006b470381932142f8a8c879f4da4ff7f80cc5ee28431d934e",
    "dist_far_HD.csv":
        "396a7654cac0a41d936ca1faa00fe0befe01ec89ffa6d5c84fe7e31c7eb51167",
    "dist_far_M.csv":
        "de5e7234454acd0c86b1db71cb5d0844d807eb6950808fbbdc7f492d8a13d52f",
    "dist_far_OS.csv":
        "3c3315c6076fb02cf04f9fe91785a5cf2d547c1acd4e743aa0b20860ac65ab9e",
    "dist_ground_truth_Av.csv":
        "656630e9a9785ca5e63081414826c05f547cbc08997b15552e771056715440bd",
    "dist_ground_truth_CS.csv":
        "ef39b0443a9446f0a9eca0b6d908a22457af24a5d4185c2fc8c95aa8d8cec870",
    "dist_ground_truth_DD.csv":
        "49c13b267ff7f594ba726e9fe6aa9c81ea7acbad85e07228ae7fcc0f6e5ae7b3",
    "dist_ground_truth_HD.csv":
        "3489eab922e1f5c6919e07f6536d1db3dccbc5af8420b0a4a51a401440947386",
    "dist_ground_truth_M.csv":
        "c241d44cb488200bfa92cd9c96ce1ba64e42f11f5260a43d88366fce5d2276b8",
    "dist_ground_truth_OS.csv":
        "98b785da6a72f3cd657687cfb3ca2e1b2d0e46ac42a262a073fc795ddd22dd7b",
    "dist_near_Av.csv":
        "0e54de3f68c482f1ab4d8149727cfd0f01fec8cb95f2e2d7a88ad6023d1e6391",
    "dist_near_CS.csv":
        "7c7e478d95c742d2e46dd6c2f4097bc92d94a60a26be94a1e12acb1128e8344c",
    "dist_near_DD.csv":
        "042a34326c35fb9fb11e4d171de5070a38e9066a9a524078208d7fd450b28c16",
    "dist_near_HD.csv":
        "357094574cf27961b55412dd63d4efc9c120e36fa732f563fee7e442d3a5b5cb",
    "dist_near_M.csv":
        "6bbc23dccc8093fcfe40ece90e74717f180ef087089b50622003b66997d30cae",
    "dist_near_OS.csv":
        "d2437a2baf81a73b83973139477e4a4888ca40efacb35e4323f417c8906d1409",
}


@pytest.mark.parametrize("candidates, settings, want", [
    (perturbed, {"hop_mode": "exact"}, EXACT),
    (perturbed, {"hop_mode": "sampled", "sources": 10, "seed": 3}, SAMPLED),
    (split_and_partial, {"hop_mode": "exact"}, SPLIT_PARTIAL),
    (perturbed, {"hop_mode": "exact", "property_groups": ("microscopic", "mesoscopic")},
     FITTED),
], ids=["exact", "sampled", "split-partial", "fitted"])
def test_emitted_files_match_recorded_digests(tmp_path, monkeypatch, candidates, settings,
                                              want):
    monkeypatch.chdir(tmp_path)
    got = emitted_digests(tmp_path, candidates, **settings)
    assert list(got) == list(want)
    assert got == want


def test_distributions_hold_the_recorded_dumps(tmp_path, monkeypatch):
    """Split by (cover, property), the `fitted` instance's distributions.csv
    gives back every sample dump byte for byte, in the recorded order."""
    monkeypatch.chdir(tmp_path)
    emitted_digests(tmp_path, perturbed, hop_mode="exact",
                    property_groups=("microscopic", "mesoscopic"))
    header, *rows = (tmp_path / "out" / "distributions.csv").read_text().splitlines()
    assert header == "cover,property,value,ecdf"
    parts: dict[str, list[str]] = {}
    for row in rows:
        cover, prop, value_ecdf = row.split(",", 2)
        parts.setdefault(f"dist_{cover}_{prop}.csv", ["value,ecdf"]).append(value_ecdf)
    got = {name: digest("".join(line + "\n" for line in lines).encode())
           for name, lines in parts.items()}
    assert list(got) == list(FITTED_DUMPS)
    assert got == FITTED_DUMPS
