"""Undirected simple graph over dense integer ids, plus basic and
per-node (microscopic) topological properties."""

from __future__ import annotations

import itertools
import random
import re
from functools import cached_property
from typing import IO, NamedTuple, Sequence

import numpy as np


class GraphError(ValueError):
    """Invalid graph input or operation."""


class EdgeListParseError(GraphError):
    """Malformed edge-list line."""

    def __init__(self, lineno: int, line: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: expected 2 tokens, got {line.strip()!r}")


def csr(rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int
        ) -> tuple[np.ndarray, np.ndarray]:
    """The 0/1 matrix with a one at each (row, col) pair, repeated pairs
    counted once, in CSR form: int64 row pointers and column indices,
    sorted within each row."""
    codes = np.sort(rows * n_cols + cols)
    codes = codes[np.diff(codes, prepend=-1) != 0]
    rows, cols = np.divmod(codes, n_cols)
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows)))), cols


def row_of(indptr: np.ndarray) -> np.ndarray:
    """The row of each entry of a CSR matrix."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def expand(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges starts[i] .. starts[i] + counts[i] - 1 one after another:
    the index i of each entry's range, and the entry."""
    owner = np.repeat(np.arange(len(counts)), counts)
    offset = np.cumsum(counts) - counts - starts
    return owner, np.arange(len(owner)) - offset[owner]


def row_pairs(indptr: np.ndarray, indices: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of entries a < b within one row of a CSR matrix with
    sorted rows: the row, a and b, row by row and, within a row, in
    order of a, then b. A row of s entries gives s(s - 1)/2 pairs."""
    rows = row_of(indptr)
    pos = np.arange(len(indices))
    first, second = expand(pos + 1, indptr[rows + 1] - pos - 1)
    return rows[first], indices[first], indices[second]


def read_only(*arrays: np.ndarray | None) -> tuple[np.ndarray | None, ...]:
    """The arrays (None passed through), made read-only: what is built once
    and shared by every reader."""
    for a in arrays:
        if a is not None:
            a.flags.writeable = False
    return arrays


def find_sorted(values: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each query is, or would go, among the increasing `values`, and
    whether it is there; `values` may be empty only with no query. A query
    past the last value is compared with the last one, which is below it:
    no copy of `values` and no second array of positions is made."""
    at = np.searchsorted(values, queries)
    return at, values.take(at, mode="clip") == queries


def int_sums(groups: np.ndarray, terms: np.ndarray, k: int) -> list[int]:
    """Each group's sum of its integer terms, groups 0..k-1, as Python ints:
    exact where every sum fits in int64."""
    sums = np.zeros(k, dtype=np.int64)
    np.add.at(sums, groups, terms)
    return sums.tolist()


# Exact all-pairs BFS above this node count gets too expensive; fall back
# to sampled sources (a seed is then mandatory).
EXACT_HOP_LIMIT = 20_000
DEFAULT_HOP_SOURCES = 1_000
# hop_counts searches from at most this many / V roots at once (one at
# least), which bounds its frontiers to one bit per root and edge end
BFS_BLOCK_ENTRIES = 1 << 22
# the nine global properties, by their report names
BASIC_PROPS = ("V", "E", "rho", "d", "l_G", "avg_deg", "max_deg", "tau", "C")


class EmpiricalDistribution:
    """Multiset of finite real samples as its distinct ``values`` (increasing
    float64), their ``counts``, the right-continuous ECDF ``cdf`` at each
    value and the sample count ``n``, built once and read-only."""

    __slots__ = ("values", "counts", "cdf", "n")

    def __init__(self, samples: np.ndarray | Sequence[float]):
        x = np.asarray(samples, dtype=np.float64)
        if len(x) == 0:
            raise ValueError("empirical distribution needs at least one sample")
        bad = x[~np.isfinite(x)]
        if len(bad):
            raise ValueError(f"empirical distribution needs finite samples, got {bad[0]}")
        self._adopt(*np.unique(x, return_counts=True))

    @classmethod
    def from_counts(cls, values: np.ndarray, counts: np.ndarray) -> "EmpiricalDistribution":
        """counts[i] samples equal to values[i], the values increasing, no count 0."""
        d = cls.__new__(cls)
        d._adopt(np.asarray(values, dtype=np.float64), np.asarray(counts, dtype=np.int64))
        return d

    def _adopt(self, values: np.ndarray, counts: np.ndarray) -> None:
        self.values, self.counts = values, counts
        cum = np.cumsum(counts)
        self.n = int(cum[-1])
        self.cdf = cum / cum[-1]
        read_only(self.values, self.counts, self.cdf)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmpiricalDistribution):
            return NotImplemented
        return (np.array_equal(self.values, other.values)
                and np.array_equal(self.counts, other.counts))

    @property
    def samples(self) -> np.ndarray:
        """Every sample, increasing, built on each read; only the benchmark reads it."""
        return np.repeat(self.values, self.counts)


class HopSummary(NamedTuple):
    distribution: EmpiricalDistribution


class Graph:
    """Immutable undirected simple graph. Node ids are dense 0..V-1; the
    neighbours of node u are ``indices[indptr[u]:indptr[u + 1]]``, in
    increasing order (the symmetric 0/1 adjacency in CSR form), and
    ``original_labels[i]`` maps back to the source label. A graph that
    `giant_component` returned records that it is connected. The CSR arrays
    are read-only, and so is what a graph keeps as cached properties, built
    on their first read: each node's degree (`degrees`), its count of
    higher-numbered neighbours (`upper_degrees`) and its labels' keys
    (`label_index`, preset by `load_edge_list`). No per-edge array is kept
    beside them."""

    def __init__(self, n: int, edges: np.ndarray | Sequence[Sequence[int]],
                 original_labels: Sequence[str] | None = None):
        """`edges` is an (E, 2) integer array, or anything `np.asarray` reads
        as one; self-loops are dropped and repeated edges count once."""
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        e = e[e[:, 0] != e[:, 1]]
        outside = ((e < 0) | (e >= n)).any(axis=1)
        if outside.any():
            u, v = e[outside.argmax()].tolist()
            raise GraphError(f"edge ({u}, {v}) outside node range 0..{n - 1}")
        if original_labels is None:
            original_labels = [str(i) for i in range(n)]
        if len(original_labels) != n:
            raise GraphError("original_labels length must equal node count")
        ends = np.concatenate([e, e[:, ::-1]])
        self._adopt(*csr(ends[:, 0], ends[:, 1], n, n), original_labels)

    @classmethod
    def _from_csr(cls, indptr: np.ndarray, indices: np.ndarray,
                  original_labels: Sequence[str]) -> "Graph":
        """The graph with these CSR arrays, which must already be symmetric,
        loop-free and sorted within each row, and one label per row."""
        g = cls.__new__(cls)
        g._adopt(indptr, indices, original_labels)
        return g

    def _adopt(self, indptr: np.ndarray, indices: np.ndarray,
               original_labels: Sequence[str]) -> None:
        self.indptr, self.indices = read_only(indptr, indices)
        self.original_labels = tuple(original_labels)
        self._connected = False

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        """Each node's degree, int64, built on the first read and kept,
        read-only."""
        return read_only(np.diff(self.indptr))[0]

    @cached_property
    def upper_degrees(self) -> np.ndarray:
        """Each node's count of neighbours numbered above it, int64, built
        on the first read and kept, read-only: the quality of every cover
        reads it."""
        rows = row_of(self.indptr)
        return read_only(np.bincount(rows[rows < self.indices], minlength=self.n))[0]

    def edges(self) -> np.ndarray:
        """Every edge once as a row (u, v) with u < v, in row-major order: an
        (E, 2) int64 array."""
        rows = row_of(self.indptr)
        upper = rows < self.indices
        return np.stack((rows[upper], self.indices[upper]), axis=1)

    @cached_property
    def label_index(self) -> tuple[tuple, np.ndarray]:
        """The `_label_ids` table of the labels, and the node at each of its
        ids (-1 where no label ends, and at index -1), built on the first
        read and kept, read-only: every cover of a run is looked up in it.
        A repeated label is the last node that has it."""
        raw = [label.encode("utf-8", "surrogatepass") for label in self.original_labels]
        lens = np.fromiter(map(len, raw), np.int64, len(raw))
        table, ids = _label_ids(b"".join(raw) + b" " * 8, np.cumsum(lens) - lens, lens)
        node = np.full(ids.max(initial=-1) + 2, -1)
        np.maximum.at(node, ids, np.arange(len(ids)))
        return table, read_only(node)[0]

    def __repr__(self) -> str:
        return f"Graph(V={self.n}, E={self.edge_count})"


# str.splitlines' line breaks other than "\n"
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# the bytes of a label that one word of its key holds
WORD_BYTES = 7


class Tokens:
    """The whitespace-separated tokens of a text, less the lines whose first
    token starts with '#': token i is bytes ``starts[i]`` to ``starts[i] +
    lens[i] - 1`` of ``data``, the text's UTF-8 bytes followed by eight
    spaces, and ``first[i]`` says whether it opens its line. Lines are those
    of `str.splitlines` and tokens those of `str.split`: a text with a
    non-ASCII character or a line break other than "\\n" is read with its
    lines joined by "\\n" and its other whitespace made " ", which keeps
    both. ``source`` is the text as given, decoded, for quoting a line."""

    __slots__ = ("source", "data", "starts", "lens", "first")

    def __init__(self, text: str | bytes | IO):
        if hasattr(text, "read"):
            text = text.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        self.source = text
        if not text.isascii() or any(map(text.__contains__, _OTHER_BREAKS)):
            text = re.sub(r"[^\S\n]", " ", "\n".join(text.splitlines()))
        self.data = text.encode("utf-8", "surrogatepass") + b" " * 8
        b = np.frombuffer(self.data, np.uint8)
        # whitespace is now " ", "\n", "\t" or "\x1f"
        bounds = np.flatnonzero(np.diff((b == 32) | (b == 10) | (b == 9) | (b == 31),
                                        prepend=True))
        starts = bounds[::2]
        first = np.zeros(len(starts) + 1, dtype=bool)
        first[np.searchsorted(starts, np.flatnonzero(b == 10))] = True
        first[0] = True
        first = first[:-1]
        comment = first & (b[starts] == ord("#"))
        if comment.any():  # drop every token of a line that a '#' token opens
            keep = ~comment[first][np.cumsum(first) - 1]
            bounds = bounds.reshape(-1, 2)[keep].ravel()
            starts, first = bounds[::2], first[keep]
        self.starts, self.lens, self.first = starts, bounds[1::2] - starts, first

    def strings(self, which: np.ndarray) -> list[str]:
        """The tokens at the indices `which`, in that order, as strings."""
        _, at = expand(self.starts[which], self.lens[which] + 1)  # each with the space after it
        return (np.frombuffer(self.data, np.uint8)[at].tobytes()
                .decode("utf-8", "surrogatepass").split())

    def ids(self, table: tuple | None = None) -> tuple[tuple, np.ndarray]:
        """`_label_ids` of the tokens."""
        return _label_ids(self.data, self.starts, self.lens, table)


def _words(data: bytes, starts: np.ndarray, lens: np.ndarray, j: int) -> np.ndarray:
    """Word j of each label's key: the label's bytes 7j to 7j + 6, those past
    its end zero, in the low seven bytes, and the number of its bytes from 7j
    on, at most 8, in the top byte, which tells labels that differ only in
    length apart. `data` must hold 8 bytes from every start on."""
    left = lens - WORD_BYTES * j
    read = np.ndarray((len(data) - 7,), "<i8", data, strides=(1,))  # the 8 bytes from each offset
    low = read[starts + WORD_BYTES * j] & ((1 << 8 * np.minimum(left, WORD_BYTES)) - 1)
    return low | np.minimum(left, 8) << 8 * WORD_BYTES


def _rank(keys: np.ndarray, among: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`among`, each key's position in it and whether the key is there; with
    `among` None, the distinct keys, increasing, are `among`."""
    if among is None:
        among, at = np.unique(keys, return_inverse=True)
        return among, at, np.ones(len(keys), dtype=bool)
    order = np.argsort(keys)  # increasing queries are found faster
    at, found = np.empty_like(keys), np.empty(len(keys), dtype=bool)
    at[order], found[order] = find_sorted(among, keys[order])
    return among, at, found


def _label_ids(data: bytes, starts: np.ndarray, lens: np.ndarray, table: tuple | None = None
               ) -> tuple[tuple, np.ndarray]:
    """Exact ids for the labels at bytes starts[i] .. starts[i] + lens[i] - 1
    of `data`: equal ids for equal bytes. A label of at most 7 bytes has the
    rank of its one key word among the table's first words; a longer one
    the rank of (its rank after word j - 1, word j) among the table's pairs
    for word j, past the ids of the words before. Without a `table`, one is
    built from these labels and returned with their ids; with one, a label
    that no label of the table equals has id -1. A built table is
    read-only."""
    rounds = []
    ids = np.full(len(starts), -1)
    alive, prefix, offset = np.arange(len(starts)), None, 0
    for j in itertools.count():
        if not len(alive) or table is not None and j == len(table):
            break
        words, pairs = (None, None) if table is None else table[j]
        words, at, found = _rank(_words(data, starts[alive], lens[alive], j), words)
        if j:
            pairs, at, known = _rank(prefix * len(words) + at, pairs)
            found &= known
        rounds.append(read_only(words, pairs))
        last = lens[alive] <= WORD_BYTES * (j + 1)
        ids[alive[found & last]] = offset + at[found & last]
        offset += len(words if pairs is None else pairs)
        alive, prefix = alive[found & ~last], at[found & ~last]
    return tuple(rounds) if table is None else table, ids


def _first_appearance(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each id's rank in order of first appearance among `ids` (-1 for an
    id that does not appear, and at index -1), and where each rank first
    appears."""
    first = np.full(ids.max(initial=-1) + 1, len(ids))
    np.minimum.at(first, ids, np.arange(len(ids)))
    seen = np.sort(first[first < len(ids)])
    rank = np.full(len(first) + 1, -1)
    rank[ids[seen]] = np.arange(len(seen))
    return rank, seen


def load_edge_list(text: str | bytes | IO) -> Graph:
    """Parse a SNAP-style edge list: one edge per line, two
    whitespace-separated labels, '#' lines ignored. Self-loops and
    duplicate edges are dropped; labels get dense ids in first-appearance
    order. Lines are those of `str.splitlines` and tokens those of
    `str.split`; the first line that is neither blank, nor a comment, nor
    two tokens is an `EdgeListParseError`."""
    tokens = Tokens(text)
    first = tokens.first
    if len(first) % 2 or not first[::2].all() or first[1::2].any():
        heads = np.flatnonzero(first)
        bad = tokens.starts[heads[np.diff(heads, append=len(first)) != 2][0]]
        lineno = tokens.data.count(b"\n", 0, bad) + 1
        raise EdgeListParseError(lineno, tokens.source.splitlines()[lineno - 1])
    if not len(first):
        raise GraphError("empty edge list")
    table, ids = tokens.ids()
    rank, seen = _first_appearance(ids)
    g = Graph(len(seen), rank[ids].reshape(-1, 2), tokens.strings(seen))
    g.label_index = table, read_only(rank)[0]  # the table of its distinct labels
    return g


def connected_components(g: Graph) -> np.ndarray:
    """Each node's component, the components numbered in order of their
    smallest node. Every tree of pointers hangs under its smallest node:
    each round hooks every root under the smallest root it has an edge to,
    then points every node straight at its root, until no edge joins two
    trees."""
    rows = row_of(g.indptr)
    root = np.arange(g.n)
    while True:
        hooked = root.copy()
        np.minimum.at(hooked, root[rows], root[g.indices])
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, root):
            return np.unique(root, return_inverse=True)[1]
        root = hooked


def giant_component(g: Graph) -> Graph:
    """Induced subgraph of the largest component; ties pick the component
    with the smallest minimum node id. A connected `g` is returned as is.
    The graph returned records that it is connected, so that a second call
    on it, as `hop_distribution` makes on a community graph, labels no
    components again."""
    if g.n == 0:
        raise GraphError("empty graph")
    if g._connected:
        return g
    component = connected_components(g)
    count = np.bincount(component)
    if len(count) == 1:
        g._connected = True
        return g
    # components are numbered in order of their smallest node, so the first
    # largest one is the tie rule
    inside = component == np.argmax(count)
    best = np.flatnonzero(inside)
    new_id = np.cumsum(inside) - 1
    # a component's edges stay inside it, so its rows are all it needs
    kept = np.repeat(inside, g.degrees)
    degrees = g.degrees[best]
    gc = Graph._from_csr(np.concatenate(([0], np.cumsum(degrees))), new_id[g.indices[kept]],
                         [g.original_labels[u] for u in best.tolist()])
    gc._connected = True
    return gc


def degree_distribution(g: Graph) -> EmpiricalDistribution:
    if g.n < 1:
        raise GraphError("empty graph")
    return EmpiricalDistribution(g.degrees)


def triangles_per_node(g: Graph) -> np.ndarray:
    """tri(u) = number of edges among u's neighbours. Each edge is kept at
    its end that comes first in (degree, id) order, so a node keeps at most
    sqrt(2E) neighbours (Latapy 2008, "Main-memory triangle computations for
    very large (sparse (power-law)) graphs", Theor. Comput. Sci. 407:458); a
    triangle is then the one pair of its first corner's kept neighbours
    that is adjacent, found once among the sorted edge codes v * n + w, and
    credited to all three corners."""
    rank = np.empty(g.n, dtype=np.int64)
    rank[np.lexsort((np.arange(g.n), g.degrees))] = np.arange(g.n)
    rows = row_of(g.indptr)
    kept = rank[rows] < rank[g.indices]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[kept], minlength=g.n))))
    u, v, w = row_pairs(indptr, g.indices[kept])
    _, closed = find_sorted(rows * g.n + g.indices, v * g.n + w)
    return np.bincount(np.concatenate((u[closed], v[closed], w[closed])), minlength=g.n)


def transitivity(g: Graph) -> float:
    """Global clustering coefficient: 3 * triangles / connected triples."""
    closed = int(triangles_per_node(g).sum())  # = 3 * (#triangles)
    d = g.degrees
    triples = int((d * (d - 1) // 2).sum())
    return closed / triples if triples > 0 else 0.0


def clustering_by_degree(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Mean local clustering c(u) = 2 tri(u) / (d(d - 1)), 0 below degree 2,
    per degree class: the degrees k that occur, increasing, and for each
    2 sum tri / (k(k - 1) size), one division of exact integers."""
    if g.n < 3:
        raise GraphError("need at least 3 nodes")
    k, cls, size = np.unique(g.degrees, return_inverse=True, return_counts=True)
    tri = int_sums(cls, triangles_per_node(g), len(k))
    return k, np.array([2 * t / (d * (d - 1) * s) if d >= 2 else 0.0
                        for d, t, s in zip(k.tolist(), tri, size.tolist())])


def degree_assortativity(g: Graph) -> float:
    """Pearson correlation of endpoint degrees over both edge orientations,
    in Newman's closed form ("Assortative mixing in networks", PRL 89:208701,
    2002, eq. 4) over the M = 2E edge ends: (M P - S1^2) / (M S2 - S1^2),
    where P sums d(u) d(v) over the ends (u, v), S1 = sum d^2 and S2 = sum d^3
    over the nodes; one division of exact integers, NaN where the
    denominator is 0. Each sum is taken per degree class in int64, and times
    the class's degree in Python ints, which cannot overflow."""
    d = g.degrees
    k, cls, size = np.unique(d, return_inverse=True, return_counts=True)
    far = int_sums(cls[row_of(g.indptr)], d[g.indices], len(k))  # neighbours' degrees
    m, k = 2 * g.edge_count, k.tolist()
    s1, s2 = (sum(a ** j * c for a, c in zip(k, size.tolist())) for j in (2, 3))
    p = sum(a * f for a, f in zip(k, far))
    spread = m * s2 - s1 * s1
    return (m * p - s1 * s1) / spread if spread else float("nan")


def hop_counts(g: Graph, roots: np.ndarray) -> np.ndarray:
    """pairs[level]: the unordered pairs of distinct nodes, one of them a
    root, at each hop distance below V (pairs[0] = 0), by breadth-first
    search from a block of roots at once. Each node holds one bit per root, packed eight
    to a byte, for the roots whose frontier it is on; a level ORs each
    node's neighbours' bits, and the bits of roots that had not reached it
    yet form the next frontier. A new bit at a non-root node is one pair; a
    pair of roots is found from both ends, so it sets two bits at roots."""
    in_roots = np.isin(np.arange(g.n), roots)
    linked = g.degrees > 0
    starts = g.indptr[:-1][linked]
    bits = np.zeros((g.n, 2), dtype=np.int64)  # the new bits per level, at roots and others
    block = max(1, BFS_BLOCK_ENTRIES // g.n)
    for start in range(0, len(roots), block):
        part = roots[start:start + block]
        bit = np.arange(len(part))
        frontier = np.zeros((g.n, (len(part) + 7) // 8), dtype=np.uint8)
        frontier[part, bit // 8] = 1 << bit % 8
        seen = frontier.copy()
        for level in itertools.count(1):
            gathered = frontier[g.indices]
            frontier = np.zeros_like(seen)
            # rows without neighbours are left out, so no reduceat segment is empty
            frontier[linked] = np.bitwise_or.reduceat(gathered, starts, axis=0)
            frontier &= ~seen
            found = np.bitwise_count(frontier).sum(axis=1, dtype=np.int64)
            if not found.any():
                break
            seen |= frontier
            bits[level] += found[in_roots].sum(), found[~in_roots].sum()
    return bits[:, 1] + bits[:, 0] // 2


def hop_distribution(g: Graph, exact: bool = True, sources: int = DEFAULT_HOP_SOURCES,
                     seed: int | None = None) -> HopSummary:
    """Pairwise hop-distance distribution on the giant component.

    Exact mode counts every unordered reachable pair once. Sampled mode
    counts the pairs that hold one of `sources` seeded-uniform roots; with
    sources equal to the component size it reduces to exact mode.
    """
    gc = giant_component(g)
    if gc.n < 2:
        raise GraphError("giant component needs at least 2 nodes")
    if exact or sources >= gc.n:
        roots = np.arange(gc.n)
    else:
        if seed is None:
            raise GraphError("sampled hop mode requires a seed")
        if sources < 1:
            raise GraphError("sources must be >= 1")
        roots = np.array(sorted(random.Random(seed).sample(range(gc.n), sources)))
    pairs = hop_counts(gc, roots)
    levels = np.flatnonzero(pairs)
    return HopSummary(EmpiricalDistribution.from_counts(levels, pairs[levels]))


def basic_properties(g: Graph, exact_paths: bool = True,
                     sources: int = DEFAULT_HOP_SOURCES, seed: int | None = None
                     ) -> tuple[dict[str, float], HopSummary]:
    """The nine global properties, keyed by `BASIC_PROPS`, and the hop
    distribution that the diameter and average shortest path were computed
    from, on the giant component."""
    if g.n < 2:
        raise GraphError("need at least 2 nodes")
    if g.edge_count == 0:
        raise GraphError("graph has no edges; path lengths undefined")
    if exact_paths and g.n > EXACT_HOP_LIMIT:
        if seed is None:
            raise GraphError(f"exact hop mode is limited to {EXACT_HOP_LIMIT} nodes, got "
                             f"{g.n}; a seed enables sampling {sources} sources instead")
        exact_paths = False
    hops = hop_distribution(g, exact=exact_paths, sources=sources, seed=seed)
    levels, counts = hops.distribution.values, hops.distribution.counts
    props = dict(zip(BASIC_PROPS, (
        g.n,
        g.edge_count,
        2 * g.edge_count / (g.n * (g.n - 1)),
        int(levels[-1]),
        int(levels.astype(np.int64) @ counts) / hops.distribution.n,  # an exact integer sum
        2 * g.edge_count / g.n,  # the degree sum is 2E
        int(g.degrees.max()),
        degree_assortativity(g),
        transitivity(g),
    )))
    return props, hops
