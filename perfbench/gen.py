"""Seeded planted-cover inputs for the benchmark.

The generator is the benchmark's own: it imports nothing from covereval, so
a change to the program cannot change the inputs it is measured on.

Community sizes are the quantiles of a Pareto(ALPHA) tail starting at
MIN_SIZE and capped at the shape's `max_size`, so the size multiset, and
with it the quadratic pair work (sum of |C|^2), is the same for every seed.
The structure seed decides which nodes join which community, the edges, and
the perturbed candidate covers. The label seed then renames the nodes and
shuffles the lines of every file and the members of every community; the
program sees other files and other internal ids, but the same structure.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


MIN_SIZE = 8
ALPHA = 1.5
P_IN = 0.25              # edge probability inside a community
NOISE_PER_NODE = 0.4     # random extra edges per node


@dataclass(frozen=True)
class Shape:
    nodes: int
    communities: int
    max_size: int
    fractions: tuple[float, ...]   # perturbation levels of the candidates
    groups: tuple[str, ...]        # property_groups of the run config


def community_sizes(shape: Shape) -> list[int]:
    k = shape.communities
    return [min(shape.max_size, int(MIN_SIZE * (1 - (i + 0.5) / k) ** (-1 / ALPHA)))
            for i in range(k)]


def planted_cover(shape: Shape, seed: int | str) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Edges (u < v, sorted) and communities (sorted member lists)."""
    rng = random.Random(seed)
    n = shape.nodes
    sizes = community_sizes(shape)
    if sum(sizes) < n:
        raise ValueError("community sizes cannot cover every node")
    slots = [ci for ci, s in enumerate(sizes) for _ in range(s)]
    rng.shuffle(slots)
    order = list(range(n))
    rng.shuffle(order)
    members: list[set[int]] = [set() for _ in sizes]
    # the first n slots give every node one membership; the rest overlap
    for u, ci in zip(order, slots):
        members[ci].add(u)
    for ci in slots[n:]:
        u = rng.randrange(n)
        while u in members[ci]:
            u = rng.randrange(n)
        members[ci].add(u)

    edges: set[tuple[int, int]] = set()
    for comm in members:
        ms = sorted(comm)
        for i, u in enumerate(ms):
            for v in ms[i + 1:]:
                if rng.random() < P_IN:
                    edges.add((u, v))
    for _ in range(int(NOISE_PER_NODE * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    touched = {u for e in edges for u in e}
    for u in range(n):
        if u not in touched:
            v = (u + 1 + rng.randrange(n - 1)) % n
            edges.add((min(u, v), max(u, v)))
            touched.update((u, v))
    return sorted(edges), [sorted(c) for c in members]


def perturb(communities: list[list[int]], fraction: float, seed: str) -> list[list[int]]:
    """Move `fraction` of the node-community incidences to another random
    community; the node set of the cover is unchanged and no community
    empties."""
    rng = random.Random(seed)
    comms = [set(c) for c in communities]
    k = len(comms)
    incidences = [(u, ci) for ci, c in enumerate(communities) for u in c]
    for u, ci in rng.sample(incidences, int(round(fraction * len(incidences)))):
        if len(comms[ci]) <= 1:
            continue
        target = rng.randrange(k - 1)
        if target >= ci:
            target += 1
        comms[ci].discard(u)
        comms[target].add(u)
    return [sorted(c) for c in comms if c]


def candidate_name(fraction: float) -> str:
    return f"p{int(round(100 * fraction)):02d}"


def _write_cover(path: Path, communities: list[list[int]]) -> str:
    text = "".join(" ".join(map(str, c)) + "\n" for c in communities)
    path.write_text(text)
    return text


class Relabel:
    """A random renaming of the nodes and shuffling of lines and members."""

    def __init__(self, n: int, seed: int | str):
        self.rng = random.Random(seed)
        self.label = list(range(n))
        self.rng.shuffle(self.label)

    def edges(self, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
        out = [(self.label[u], self.label[v]) for u, v in edges]
        self.rng.shuffle(out)
        return out

    def cover(self, communities: list[list[int]]) -> list[list[int]]:
        out = []
        for c in communities:
            members = [self.label[u] for u in c]
            self.rng.shuffle(members)
            out.append(members)
        self.rng.shuffle(out)
        return out


def write_inputs(shape: Shape, seed: int | str, out: Path,
                 label_seed: int | str | None = None) -> dict:
    """Write network, ground truth, candidates and config.json (paths
    relative to `out`) for structure seed `seed`, renamed by `label_seed`
    (default: the same); return the input sizes."""
    out.mkdir(parents=True, exist_ok=True)
    edges, truth = planted_cover(shape, seed)
    relabel = Relabel(shape.nodes, f"labels/{seed if label_seed is None else label_seed}")
    (out / "network.txt").write_text("".join(f"{u} {v}\n" for u, v in relabel.edges(edges)))
    truth_text = _write_cover(out / "ground_truth.txt", relabel.cover(truth))
    (out / "cand_exact.txt").write_text(truth_text)
    candidates = [{"name": "exact", "cover_path": "cand_exact.txt"}]
    for frac in shape.fractions:
        name = candidate_name(frac)
        _write_cover(out / f"cand_{name}.txt",
                     relabel.cover(perturb(truth, frac, f"{seed}/{name}")))
        candidates.append({"name": name, "cover_path": f"cand_{name}.txt"})
    config = {
        "network_path": "network.txt",
        "ground_truth_path": "ground_truth.txt",
        "candidates": candidates,
        "property_groups": list(shape.groups),
        "hop_mode": "exact",
        "seed": 1,
        "output_dir": "out",
    }
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    return input_sizes(shape.nodes, edges, truth)


def input_sizes(n: int, edges: list[tuple[int, int]], cover: list[list[int]]) -> dict:
    """Sizes of the network and of the ground truth's community graph
    (communities joined when they share a node, reduced to its giant
    component; exact hop mode samples every pair of it)."""
    sizes = [len(c) for c in cover]
    by_node: dict[int, list[int]] = {}
    for ci, c in enumerate(cover):
        for u in c:
            by_node.setdefault(u, []).append(ci)
    cg_adj: list[set[int]] = [set() for _ in cover]
    for comms in by_node.values():
        for i, a in enumerate(comms):
            for b in comms[i + 1:]:
                cg_adj[a].add(b)
                cg_adj[b].add(a)
    seen = [False] * len(cover)
    giant: list[int] = []
    for s in range(len(cover)):
        if seen[s]:
            continue
        comp, stack = [], [s]
        seen[s] = True
        while stack:
            a = stack.pop()
            comp.append(a)
            for b in cg_adj[a]:
                if not seen[b]:
                    seen[b] = True
                    stack.append(b)
        if len(comp) > len(giant):
            giant = comp
    g = len(giant)
    return {
        "V": n,
        "E": len(edges),
        "K": len(cover),
        "max_size": max(sizes),
        "sum_sq_sizes": sum(s * s for s in sizes),
        "incidences": sum(sizes),
        "cg_nodes": g,
        "cg_edges": sum(len(cg_adj[a]) for a in giant) // 2,
        "hop_samples": g * (g - 1) // 2,
    }
