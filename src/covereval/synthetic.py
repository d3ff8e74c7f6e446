"""Synthetic planted-cover networks for tests and demos: a graph with an
overlapping community structure, plus membership-perturbed copies of the
ground-truth cover."""

from __future__ import annotations

import random

from .cover import Cover
from .graph import Graph


def planted_cover_network(n_nodes: int = 500, n_communities: int = 40,
                          seed: int = 0, p_in: float = 0.25,
                          noise_edges: int = 200) -> tuple[Graph, Cover]:
    """Build a network whose edges concentrate inside planted overlapping
    communities. Community sizes are heavy-tailed; roughly a third of the
    nodes belong to more than one community."""
    rng = random.Random(seed)
    communities: list[set[int]] = [set() for _ in range(n_communities)]
    # primary membership keeps every community non-empty
    for u in range(n_nodes):
        communities[u % n_communities].add(u)
    # heavy-tailed extra size: larger communities soak up more members
    weights = [1.0 / (i + 1) ** 0.7 for i in range(n_communities)]
    for u in range(n_nodes):
        extra = rng.choices((0, 1, 2), weights=(0.62, 0.28, 0.10))[0]
        for _ in range(extra):
            ci = rng.choices(range(n_communities), weights=weights)[0]
            communities[ci].add(u)
    # grow communities so sizes spread out
    for ci in range(n_communities):
        target = 5 + int(rng.paretovariate(1.5) * 4)
        while len(communities[ci]) < min(target, n_nodes):
            communities[ci].add(rng.randrange(n_nodes))

    edges: set[tuple[int, int]] = set()
    for comm in communities:
        members = sorted(comm)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if rng.random() < p_in:
                    edges.add((members[i], members[j]))
    for _ in range(noise_edges):
        u, v = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    # every node must appear in the edge list
    touched = {u for e in edges for u in e}
    for u in range(n_nodes):
        if u not in touched:
            v = rng.randrange(n_nodes - 1)
            if v >= u:
                v += 1
            edges.add((min(u, v), max(u, v)))
            touched.update((u, v))
    graph = Graph(n_nodes, sorted(edges), [str(i) for i in range(n_nodes)])
    return graph, Cover.from_sets(communities)


def perturb_cover(cover: Cover, fraction: float, seed: int) -> Cover:
    """Reassign `fraction` of the node-community incidences to a uniformly
    random other community; communities are never emptied."""
    rng = random.Random(seed)
    communities = [set(c) for c in cover.communities]
    k = len(communities)
    incidences = [(u, ci) for ci, comm in enumerate(communities) for u in sorted(comm)]
    n_swap = int(round(fraction * len(incidences)))
    for u, ci in rng.sample(incidences, n_swap):
        if u not in communities[ci] or len(communities[ci]) <= 1:
            continue
        target = rng.randrange(k - 1)
        if target >= ci:
            target += 1
        communities[ci].discard(u)
        communities[target].add(u)
    return Cover.from_sets(c for c in communities if c)


def write_edge_list(graph: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write("# synthetic planted-cover network\n")
        for u, v in graph.edges().tolist():
            fh.write(f"{graph.original_labels[u]} {graph.original_labels[v]}\n")


def write_cover(cover: Cover, path) -> None:
    with open(path, "w") as fh:
        for comm in cover.communities:
            fh.write(" ".join(str(u) for u in sorted(comm)) + "\n")
