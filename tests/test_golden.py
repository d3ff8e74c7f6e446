"""Golden output: the sha256 of every file `run()` + `emit_reports()` write
for one seeded planted-cover instance, in exact and in sampled hop mode.

A refactor of the metric code must leave these bytes unchanged. The groups
are basic, quality and clustering, so no distribution is fitted and the
digests do not depend on the optimizer; the `dist_*` sample dumps are
written for every cover whatever the groups.
"""

import hashlib

import pytest

from covereval.pipeline import RunConfig, emit_reports, run
from covereval.synthetic import (
    perturb_cover, planted_cover_network, write_cover, write_edge_list,
)


def emitted_digests(workdir, **settings) -> dict[str, str]:
    """Write the instance into `workdir` (paths relative to it, so the
    report does not name the directory), run it and hash every file in
    the order it was written."""
    graph, truth = planted_cover_network(n_nodes=400, n_communities=60, seed=7)
    write_edge_list(graph, workdir / "net.txt")
    write_cover(truth, workdir / "gt.txt")
    write_cover(perturb_cover(truth, 0.10, seed=2), workdir / "near.txt")
    write_cover(perturb_cover(truth, 0.40, seed=2), workdir / "far.txt")
    cfg = RunConfig(
        network_path="net.txt", ground_truth_path="gt.txt",
        candidates=(("exact", "gt.txt"), ("near", "near.txt"), ("far", "far.txt")),
        property_groups=("basic", "quality", "clustering"), output_dir="out",
        **settings)
    written = emit_reports(run(cfg), cfg.output_dir)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}


EXACT = {
    "report.json":
        "406a4167f2b143a27cbf3ca8e724d522a587f1f33bd42e53dbe28d26ef584b07",
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
        "c66ae401b903059c6ee271cddb409ccc9586b82dd1f122438904fa53040e10c0",
    "clustering.csv":
        "b17c7b7aecf47e540ee81d487439e0dc751d28c3b87377bdf29a3c446319e148",
    "dist_exact_Av.csv":
        "cafad0d05df6b0547b74f8cd1a14962bab45453dcaa4fbba4702db9a7d8b3a99",
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
        "7d526aa1ec497f80daf466458e629e8a9337ca15e1ba5745a7d1d85516c919f2",
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
        "cafad0d05df6b0547b74f8cd1a14962bab45453dcaa4fbba4702db9a7d8b3a99",
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
        "31c69461da0d506b91b0e83ff9b94747adad249e83843e9f723268d8c51096ff",
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

SAMPLED = {
    "report.json":
        "a1371529b9e2e5b4614b3cec001b4ecff2ac84842315d5304422f65d2839e291",
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
        "c66ae401b903059c6ee271cddb409ccc9586b82dd1f122438904fa53040e10c0",
    "clustering.csv":
        "b17c7b7aecf47e540ee81d487439e0dc751d28c3b87377bdf29a3c446319e148",
    "dist_exact_Av.csv":
        "cafad0d05df6b0547b74f8cd1a14962bab45453dcaa4fbba4702db9a7d8b3a99",
    "dist_exact_CS.csv":
        "ef39b0443a9446f0a9eca0b6d908a22457af24a5d4185c2fc8c95aa8d8cec870",
    "dist_exact_DD.csv":
        "49c13b267ff7f594ba726e9fe6aa9c81ea7acbad85e07228ae7fcc0f6e5ae7b3",
    "dist_exact_HD.csv":
        "75ec1e6649a60d5edb4c47bbee13a4903c79cdb93b2ff47024fdd12f96e7fdde",
    "dist_exact_M.csv":
        "c241d44cb488200bfa92cd9c96ce1ba64e42f11f5260a43d88366fce5d2276b8",
    "dist_exact_OS.csv":
        "98b785da6a72f3cd657687cfb3ca2e1b2d0e46ac42a262a073fc795ddd22dd7b",
    "dist_far_Av.csv":
        "7d526aa1ec497f80daf466458e629e8a9337ca15e1ba5745a7d1d85516c919f2",
    "dist_far_CS.csv":
        "5904dfdd2a1e947395fa50fbcbf07db6a4c132d1acca45f0d510c645957837f8",
    "dist_far_DD.csv":
        "fd4797498d0b3a006b470381932142f8a8c879f4da4ff7f80cc5ee28431d934e",
    "dist_far_HD.csv":
        "31d86dd19f05eba0184e5435c2326ca7eecd4180750fe932cb90dfc6645ce672",
    "dist_far_M.csv":
        "de5e7234454acd0c86b1db71cb5d0844d807eb6950808fbbdc7f492d8a13d52f",
    "dist_far_OS.csv":
        "3c3315c6076fb02cf04f9fe91785a5cf2d547c1acd4e743aa0b20860ac65ab9e",
    "dist_ground_truth_Av.csv":
        "cafad0d05df6b0547b74f8cd1a14962bab45453dcaa4fbba4702db9a7d8b3a99",
    "dist_ground_truth_CS.csv":
        "ef39b0443a9446f0a9eca0b6d908a22457af24a5d4185c2fc8c95aa8d8cec870",
    "dist_ground_truth_DD.csv":
        "49c13b267ff7f594ba726e9fe6aa9c81ea7acbad85e07228ae7fcc0f6e5ae7b3",
    "dist_ground_truth_HD.csv":
        "75ec1e6649a60d5edb4c47bbee13a4903c79cdb93b2ff47024fdd12f96e7fdde",
    "dist_ground_truth_M.csv":
        "c241d44cb488200bfa92cd9c96ce1ba64e42f11f5260a43d88366fce5d2276b8",
    "dist_ground_truth_OS.csv":
        "98b785da6a72f3cd657687cfb3ca2e1b2d0e46ac42a262a073fc795ddd22dd7b",
    "dist_near_Av.csv":
        "31c69461da0d506b91b0e83ff9b94747adad249e83843e9f723268d8c51096ff",
    "dist_near_CS.csv":
        "7c7e478d95c742d2e46dd6c2f4097bc92d94a60a26be94a1e12acb1128e8344c",
    "dist_near_DD.csv":
        "042a34326c35fb9fb11e4d171de5070a38e9066a9a524078208d7fd450b28c16",
    "dist_near_HD.csv":
        "5d8936a56abc9ed797e761faaac302bfd0dcba729bc4f6c65407185f1c76c2c8",
    "dist_near_M.csv":
        "6bbc23dccc8093fcfe40ece90e74717f180ef087089b50622003b66997d30cae",
    "dist_near_OS.csv":
        "d2437a2baf81a73b83973139477e4a4888ca40efacb35e4323f417c8906d1409",
}


@pytest.mark.parametrize("settings, want", [
    ({"hop_mode": "exact"}, EXACT),
    ({"hop_mode": "sampled", "sources": 10, "seed": 3}, SAMPLED),
], ids=["exact", "sampled"])
def test_emitted_files_match_recorded_digests(tmp_path, monkeypatch, settings, want):
    monkeypatch.chdir(tmp_path)
    got = emitted_digests(tmp_path, **settings)
    assert list(got) == list(want)
    assert got == want
