"""A report does not depend on how its inputs are written. Renaming the
nodes, shuffling the edge lines and turning them round, and shuffling the
communities and their members change the internal ids and every order the
program reads, but not the structure, so every emitted file must stay
byte-identical: each float sum is correctly rounded or adds its terms in
increasing order."""

import random

import pytest

from covereval.pipeline import RunConfig, emit_reports, run
from covereval.synthetic import perturb_cover, planted_cover_network

from gen import relabelled_texts
from oracles import algorithm1_community_graph, union_find_components


def tied_giant(communities: list[set[int]]) -> bool:
    """Whether the community graph has two largest components of one size.
    The community graph is then reduced to the one that holds the smallest
    community index, so the order of the communities decides which it is."""
    sizes = sorted(len(c) for c in union_find_components(
        len(communities), algorithm1_community_graph(communities)))
    return len(sizes) > 1 and sizes[-1] == sizes[-2]


def emitted(workdir, network: str, covers: list[str]) -> dict[str, bytes]:
    """Every file that `run()` + `emit_reports()` write for the instance in
    `workdir`, the first cover the ground truth and every cover a candidate
    too, with the report's config block, which names the directory, left
    out."""
    workdir.mkdir()
    (workdir / "net.txt").write_text(network)
    names = []
    for i, text in enumerate(covers):
        (workdir / f"c{i}.txt").write_text(text)
        names.append((f"c{i}", str(workdir / f"c{i}.txt")))
    cfg = RunConfig(network_path=str(workdir / "net.txt"),
                    ground_truth_path=str(workdir / "c0.txt"), candidates=tuple(names),
                    output_dir=str(workdir / "out"))
    report = run(cfg)
    report.data["config"] = None
    return {p.name: p.read_bytes() for p in emit_reports(report, cfg.output_dir)}


@pytest.mark.parametrize("seed", range(5))
def test_rewritten_inputs_give_identical_files(tmp_path, seed):
    graph, truth = planted_cover_network(n_nodes=150, n_communities=15, seed=seed,
                                         noise_edges=60)
    edges = [tuple(e) for e in graph.edges().tolist()]
    covers = [list(truth.communities)] + [
        list(perturb_cover(truth, fraction, seed=seed).communities) for fraction in (0.1, 0.4)]
    # a cover that leaves nodes out, so each pair is restricted to its shared nodes
    covers.append([kept for c in covers[1] if (kept := {u for u in c if u % 7})])
    # Precondition: no community graph has two equally large largest
    # components. Which of two such components is kept depends on the
    # community order, one of the rewrites, so such an instance is left out
    # by design. It is asserted, so a seed that breaks it fails instead of
    # passing untested.
    assert not any(tied_giant(c) for c in covers)
    want = emitted(tmp_path / "plain", "".join(f"{u} {v}\n" for u, v in edges),
                   ["".join(" ".join(map(str, sorted(c))) + "\n" for c in cover)
                    for cover in covers])
    rng = random.Random(seed)
    for i in range(3):
        got = emitted(tmp_path / f"rewrite{i}", *relabelled_texts(rng, edges, covers))
        assert list(got) == list(want)
        assert [n for n in want if got[n] != want[n]] == []
