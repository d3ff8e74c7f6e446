"""Golden output: the sha256 of every file `run()` + `emit_reports()` write
for one seeded planted-cover network, with perturbed candidates in exact and
in sampled hop mode, and with candidates that take the pipeline's rarer
branches (a community graph of several components, a cover that leaves
nodes out) in exact mode.

A refactor of the metric code must leave these bytes unchanged. The first
three instances run the basic, quality and clustering groups, so no
distribution is fitted and their digests do not depend on the optimizer;
the `dist_*` sample dumps are written for every cover whatever the groups.
The `fitted` instance runs the microscopic and mesoscopic groups, so it pins
the fitting path too: every family's MLE and KS statistic on the sample
distributions, and the family each property selects. Its digests depend on
the fitting method. They were re-recorded on purpose when gamma and Weibull
moved from the simplex search to their 1-D shape equations and Cauchy
stopped searching where its likelihood has no maximum (ROADMAP item 2): only
`report.json` changed, by the two Weibull fits it selects (parameters by
at most 1e-7, KS by at most 4e-9), with every family and rank the same.
They were re-recorded again when logistic and beta moved to Newton's method
on their score equations and every iterative fit came to sum over distinct
values: only `report.json` changed, by its two selected logistic fits
(parameters by at most 5.1e-9 relative, KS by at most 1.0e-8) and, in the
last bits, its two Weibull fits, with every family and rank the same.
They were re-recorded a third time when the Weibull shape moved to Newton's
method and each CDF became one numpy expression, no longer laid out as
scipy.stats lays it out: only `report.json` changed, in the last bits, by
its Weibull fit of Av (parameters by at most 1.9e-16 relative, KS by
5.9e-16) and the KS statistics of its log-normal DD (at most 1.7e-15
relative), with every family and rank the same.
They were re-recorded a fourth time when covereval's own incomplete gamma
and beta functions, digamma, trigamma and normal CDF replaced
`scipy.special`: only `report.json` changed, by four KS statistics in the
last bits (the Weibull fits of Av by at most 8.9e-16 relative, one
log-normal fit of DD by 6.6e-16), with every family and rank the same.
They were re-recorded a fifth time when the closed forms and the moment
starts came to sum over distinct values and their counts, and the hop
distances to be counted per level: only `report.json` changed, in the last
bits, by the power-law exponent of CS (1.2e-16 relative), the logistic
scale of HD (2.0e-16) and one KS statistic of the log-normal DD (5.3e-15),
with every family and rank the same.
They did not move when Cauchy came to be fitted by its reweighted fixed
point and Newton's method, and logistic and beta by the same Newton
solver: the instance fits Cauchy four times, but no property selects it,
so no Cauchy parameter or KS statistic is written, and logistic and beta
kept their bits.
They were re-recorded a sixth time when gamma and Weibull moved to the same
Newton solver, on both parameters at once: only `report.json` changed, in
the last bits, by the Weibull fits of Av (shape by 1.9e-16 relative, three
KS statistics by at most 8.9e-16) and of M (one KS statistic, 3.0e-16),
with every family and rank the same.
All four were re-recorded together when no float sum came to depend on
the order of its terms (`math.fsum`, or each group's terms added in
increasing order for the Av class means and the AO sums) and V, E, d and
max_deg came to be written as JSON integers: `report.json`, `quality.csv`,
`clustering.csv` (the `fitted` instance writes none) and the
`dist_*_Av.csv` dumps changed, in the last bits: tau by at most 1.4e-14
relative, NMI by 9.5e-16, F1 by 6.2e-16, the quality scores by at most
5.9e-16, the Av class means by at most 2.1e-16 and the one Av KS statistic
of `near` that moved by 8.9e-16. Two Av class means of `near` that were
equal now differ in the last bit, so its Av dump has one more row. Every
family, rank, table and note stayed the same.
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
    `exact` plus `candidates(truth)`, run it and hash every file in the
    order it was written."""
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
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}


EXACT = {
    "report.json":
        "91fecf89493d60f7de70219c3bb91905ee3ed79dcd9e4608513fa976d84ed822",
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
        "c980c5aa5f3b900c440c1881500083c01deddb033da7f444c9a5edfdacfcb388",
    "dist_exact_Av.csv":
        "f2ebe42d311fa3cb69fd8c6b4b88e9730efea0595546e165dc506dfc8bf17de0",
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
        "beeabd7b20fd4839731defb351b960111a933650a70017370c3e59b134fb0480",
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
        "f2ebe42d311fa3cb69fd8c6b4b88e9730efea0595546e165dc506dfc8bf17de0",
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
        "d9c4751a8e8c4d2df12d44c2af873b77901f7a806f870e5c2688bfb975ca8e99",
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
        "484fa4a07cdf5d1fae4fccaf71bf7003bfa26dc16607f48109c795998150ea30",
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
        "c980c5aa5f3b900c440c1881500083c01deddb033da7f444c9a5edfdacfcb388",
    "dist_exact_Av.csv":
        "f2ebe42d311fa3cb69fd8c6b4b88e9730efea0595546e165dc506dfc8bf17de0",
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
        "beeabd7b20fd4839731defb351b960111a933650a70017370c3e59b134fb0480",
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
        "f2ebe42d311fa3cb69fd8c6b4b88e9730efea0595546e165dc506dfc8bf17de0",
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
        "d9c4751a8e8c4d2df12d44c2af873b77901f7a806f870e5c2688bfb975ca8e99",
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


SPLIT_PARTIAL = {
    "report.json":
        "fe2516f39ae27ab4956438505fd9092f7524420f2046c7cec3bced44a1d2124e",
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
        "6c1cdc9d2c9cc4cc576d8f2a4868d7f0ac35a250ea23844b6040cc9ccbf99016",
    "dist_exact_Av.csv":
        "f2ebe42d311fa3cb69fd8c6b4b88e9730efea0595546e165dc506dfc8bf17de0",
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
    "dist_ground_truth_Av.csv":
        "f2ebe42d311fa3cb69fd8c6b4b88e9730efea0595546e165dc506dfc8bf17de0",
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
    "dist_partial_Av.csv":
        "7d4f2011245423063069349c5e5d75990738767a32e58571cb0cf98ffb60f5c2",
    "dist_partial_CS.csv":
        "0f4db5b75edd9d608f9b56d9b94b50bc1c15c58cad1a5ac1b75df7893e58d839",
    "dist_partial_DD.csv":
        "87a6c27bd4398e832a19575ebe854ee31df80f88c6a7b56f4c49f40fe69973d7",
    "dist_partial_HD.csv":
        "d16d0e691fc9b4dd69f541bef297c114c252a48975ebaea868be44f2074984d7",
    "dist_partial_M.csv":
        "16139a34e8d17cc5a70f1791f5435cb5374ad3ad90bae79d691ce818e880fe8b",
    "dist_partial_OS.csv":
        "4e038154248cf67f02e99661dfa66aebda8a9d5ad2180d1131e51df2a0d13fa2",
    "dist_split_Av.csv":
        "45999b0785680d25cef87f84a3309137aec808d63a1155e17087545615febe7e",
    "dist_split_CS.csv":
        "ebd0c8e0f276343b9176ab77a0e68d78456dfc99f5aedd0b49fe4293d0fdb56f",
    "dist_split_DD.csv":
        "51293ff3752eaf8d3047e3225179b15c25892a7a787b7440928306327f2d5a66",
    "dist_split_HD.csv":
        "89dbf35b9730737b7b4573afa6ba557d4a8c08df9797a1be66258162fd7f387a",
    "dist_split_M.csv":
        "c241d44cb488200bfa92cd9c96ce1ba64e42f11f5260a43d88366fce5d2276b8",
    "dist_split_OS.csv":
        "958c846a5ee593bd2c9b0d265789b3366634a9cdd6a90e3a086d6015f79af3c2",
}


FITTED = {
    "report.json":
        "c08b9fbff137b6b045c07aacfc594cb6fc712591f652c627095ce3695dd8e358",
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
    "dist_exact_Av.csv":
        "f2ebe42d311fa3cb69fd8c6b4b88e9730efea0595546e165dc506dfc8bf17de0",
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
        "beeabd7b20fd4839731defb351b960111a933650a70017370c3e59b134fb0480",
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
        "f2ebe42d311fa3cb69fd8c6b4b88e9730efea0595546e165dc506dfc8bf17de0",
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
        "d9c4751a8e8c4d2df12d44c2af873b77901f7a806f870e5c2688bfb975ca8e99",
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
