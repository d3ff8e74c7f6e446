"""Seeded random fixtures and Hypothesis strategies shared across test
modules."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from covereval.graph import Graph


def random_graph(rng: random.Random, n: int, p: float) -> tuple[Graph, set[tuple[int, int]]]:
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return Graph(n, sorted(edges)), edges


@st.composite
def graphs(draw, min_nodes: int = 0, max_nodes: int = 40
           ) -> tuple[Graph, set[tuple[int, int]]]:
    """A graph drawn by Hypothesis, with its edge set: random pairs, and
    hubs joined to many nodes, so that the degrees spread."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    node = st.integers(min_value=0, max_value=max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n)) if n else []
    for hub in draw(st.lists(node, max_size=3)) if n else []:
        pairs += [(hub, v) for v in draw(st.sets(node))]
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
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


def relabelled_texts(rng: random.Random, edges: list[tuple[int, int]],
                     covers: list[list[set[int]]]) -> tuple[str, list[str]]:
    """An edge list and cover files for the same structure, written another
    way: every node renamed injectively (some names longer than the 7 bytes
    one word of a label's key holds), the edge lines shuffled and each
    turned round or not, and each cover's communities and their members
    shuffled."""
    nodes = sorted({u for e in edges for u in e})
    names: set[str] = set()
    while len(names) < len(nodes):
        names.add(rng.choice(("n", "v-", "a-long-node-name-")) + str(rng.randrange(10 ** 6)))
    rename = dict(zip(nodes, rng.sample(sorted(names), len(nodes))))
    lines = [(rename[u], rename[v]) if rng.random() < 0.5 else (rename[v], rename[u])
             for u, v in edges]
    rng.shuffle(lines)
    texts = []
    for cover in covers:
        communities = [rng.sample([rename[u] for u in c], len(c)) for c in cover]
        rng.shuffle(communities)
        texts.append("".join(" ".join(c) + "\n" for c in communities))
    return "".join(f"{a} {b}\n" for a, b in lines), texts
