"""Seeded random fixtures shared across test modules."""

from __future__ import annotations

import random

from covereval.graph import Graph


def random_graph(rng: random.Random, n: int, p: float) -> tuple[Graph, set[tuple[int, int]]]:
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return Graph(n, sorted(edges)), edges


def random_cover_sets(rng: random.Random, n: int, k: int,
                      max_size: int | None = None) -> list[set[int]]:
    max_size = max_size or max(2, n // 2)
    out = []
    for _ in range(k):
        size = rng.randint(1, max_size)
        out.append(set(rng.sample(range(n), min(size, n))))
    return out


def random_partition(rng: random.Random, n: int, k: int) -> list[set[int]]:
    """Disjoint partition with every block non-empty."""
    labels = [rng.randrange(k) for _ in range(n)]
    for block in range(k):
        if block not in labels:
            labels[rng.randrange(n)] = block
    blocks: dict[int, set[int]] = {}
    for u, b in enumerate(labels):
        blocks.setdefault(b, set()).add(u)
    return list(blocks.values())


def arbitrary_ids(rng: random.Random, sets: list[set[int]]) -> list[set[int]]:
    """The same sets with nodes renamed injectively to ids that are negative
    or at least 2**40, as Cover.from_sets accepts."""
    nodes = sorted(set().union(*sets))
    ids: set[int] = set()
    while len(ids) < len(nodes):
        ids.add(rng.choice((-1, 1)) * rng.randrange(2**40, 2**50) if rng.random() < 0.5
                else rng.randrange(-1000, 0))
    rename = dict(zip(nodes, rng.sample(sorted(ids), len(nodes))))
    return [{rename[u] for u in s} for s in sets]
