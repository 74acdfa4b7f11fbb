"""Mutable simple graph on a fixed node set.

Nodes are dense integer indices in ``[0, n)``.  The graph stores each
node's neighbours twice, as an adjacency set and as a bit row (a Python
int with bit u set iff u is adjacent), and every flip updates both.  So
each edge lives in its two endpoints' sets and rows: membership, degree
lookup and a single flip are expected O(1) (the flip also rewrites two
rows of n bits), neighbor iteration is O(degree), the intersection of
two neighbourhoods is one AND and popcount over n/64 words, and the
edges are computed from the sets, by ``edges()`` and ``edge_set()`` in
O(n + m) and ``edge_count()`` in O(n).
"""

from __future__ import annotations

import math
from itertools import chain
from typing import IO, AbstractSet, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

Pair = Tuple[int, int]


class GraphError(ValueError):
    pass


def pair(u: int, v: int) -> Pair:
    """Canonical node pair: sorted, distinct, nonnegative."""
    if u == v:
        raise GraphError(f"self-loop ({u},{v}) is not a node pair")
    if u < 0 or v < 0:
        raise GraphError(f"negative node index in ({u},{v})")
    return (u, v) if u < v else (v, u)


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def all_pairs(n: int) -> Iterator[Pair]:
    for u in range(n):
        for v in range(u + 1, n):
            yield (u, v)


def _row_start(n: int, u: int) -> int:
    # number of canonical pairs (a, b) with a < u, in row-major order
    return u * (2 * n - u - 1) // 2


def pair_index(n: int, e: Pair) -> int:
    """Row-major index of a canonical pair among the binom(n,2) pairs."""
    u, v = e
    return _row_start(n, u) + (v - u - 1)


def index_pair(n: int, idx: int) -> Pair:
    """Inverse of :func:`pair_index` in O(1), exactly in integers.

    Counted from the last pair, index r lies in the row of k pairs where
    k is the largest integer with k (k - 1) / 2 <= r, that is
    k = (isqrt(8 r + 1) + 1) // 2; that row is u = n - 1 - k.
    """
    count = pair_count(n)
    if idx < 0 or idx >= count:
        raise GraphError(f"pair index {idx} out of range for n={n}")
    r = count - 1 - idx
    k = (math.isqrt(8 * r + 1) + 1) // 2
    return (n - 1 - k, n - 1 - r + k * (k - 1) // 2)


def uniform_pair(
    n: int, rng, allowed: Optional[Sequence[Pair]] = None
) -> Pair:
    """A uniform pair from ``allowed``, else from binom([n],2), by one
    ``rng.integers`` draw (no rejection) indexing ``allowed`` or pair_index
    order.  ``rng`` is a numpy ``Generator`` or a :class:`~smoothdyn.rng.BlockDraws`
    over one, which draw the same value."""
    if allowed is not None:
        return allowed[int(rng.integers(len(allowed)))]
    return index_pair(n, int(rng.integers(pair_count(n))))


def _int_rows(bits: np.ndarray) -> list[int]:
    """Each row of a 2-d 0/1 array as an int with bit u set iff column u is."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class DynamicGraph:
    """Simple graph with O(1) expected membership/flip and degree table.

    ``rows[v]`` is v's neighbourhood as a bit mask, bit u set iff u ~ v;
    like :meth:`neighbors` it is live state that callers must not assign.
    """

    __slots__ = ("n", "_adj", "rows")

    def __init__(self, n: int, edges: Iterable[Pair] = ()):
        if n < 0:
            raise GraphError("node count must be nonnegative")
        self.n = n
        self._adj: list[set[int]] = [set() for _ in range(n)]
        adj = self._adj
        for u, v in edges:
            # pair() inlined: this loop builds every random start graph
            a, b = (u, v) if u < v else (v, u)
            if a < 0 or a == b:
                pair(u, v)  # raises the self-loop or negative-index error
            if b >= n:
                raise GraphError(f"edge {(a, b)} out of range for n={n}")
            if b in adj[a]:
                raise GraphError(f"duplicate edge {(a, b)}")
            adj[a].add(b)
            adj[b].add(a)
        self.rows = [0] * n
        degrees = list(map(len, adj))
        if any(degrees):
            adjacent = np.zeros((n, n), dtype=bool)
            nbrs = np.fromiter(chain.from_iterable(adj), dtype=np.intp, count=sum(degrees))
            adjacent[np.repeat(np.arange(n), degrees), nbrs] = True
            self.rows = _int_rows(adjacent)

    @classmethod
    def _holding(cls, n: int, adj: list[set[int]], rows: list[int]) -> "DynamicGraph":
        """A graph over sets and rows the caller built to agree, unchecked."""
        g = cls.__new__(cls)
        g.n, g._adj, g.rows = n, adj, rows
        return g

    # -- queries ---------------------------------------------------------

    def has(self, u: int, v: int) -> bool:
        """Edge {u, v} present, in either orientation; False off ``[0, n)``."""
        return 0 <= u < self.n and v in self._adj[u]

    def has_pair(self, e: Pair) -> bool:
        """:meth:`has` of ``e``, which need not be canonical."""
        u, v = e
        return 0 <= u < self.n and v in self._adj[u]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> AbstractSet[int]:
        """The neighbors of ``v`` as a live view of the adjacency set.

        The set changes with every later flip at ``v``; callers must not
        mutate it.  No copy is made because the counters iterate it on
        every update.
        """
        return self._adj[v]

    def edge_count(self) -> int:
        return sum(map(len, self._adj)) // 2

    def edges(self) -> Iterator[Pair]:
        """Every edge once, as ``(u, v)`` with ``u < v``."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def edge_set(self) -> frozenset:
        return frozenset(self.edges())

    def copy(self) -> "DynamicGraph":
        return DynamicGraph._holding(self.n, [set(a) for a in self._adj], list(self.rows))

    # -- mutation --------------------------------------------------------

    def flip(self, u: int, v: int) -> bool:
        """Toggle the edge; return whether it is present afterwards."""
        # pair() inlined, as in the constructor: every effective step flips
        a, b = (u, v) if u < v else (v, u)
        if a < 0 or a == b:
            pair(u, v)  # raises the self-loop or negative-index error
        if b >= self.n:
            raise GraphError(f"edge {(a, b)} out of range for n={self.n}")
        rows = self.rows
        rows[a] ^= 1 << b
        rows[b] ^= 1 << a
        adj_a = self._adj[a]
        if b in adj_a:
            adj_a.remove(b)
            self._adj[b].remove(a)
            return False
        adj_a.add(b)
        self._adj[b].add(a)
        return True


def random_graph(
    n: int,
    rng: np.random.Generator,
    restriction: Optional[Sequence[Pair]] = None,
) -> DynamicGraph:
    """Each allowed pair present independently with probability 1/2.

    Stream contract: one ``rng.random(k)`` draw, where k is the number of
    allowed pairs (binom(n,2) without a restriction); the i-th allowed
    pair, in :func:`pair_index` order or the restriction's order, is
    present iff its draw is < 0.5.
    """
    if restriction is not None:
        mask = rng.random(len(restriction)) < 0.5
        return DynamicGraph(n, [e for e, keep in zip(restriction, mask) if keep])
    mask = rng.random(pair_count(n)) < 0.5
    # row-major np.triu_indices order is pair_index order; the pairs are
    # valid and distinct by construction, so the sets and rows come from
    # the adjacency matrix without the constructor's per-edge checks
    adjacent = np.zeros((n, n), dtype=bool)
    adjacent[np.triu_indices(n, 1)] = mask
    adjacent |= adjacent.T
    # row-major: each node's neighbours in increasing order, the order in
    # which the constructor's pair_index-ordered loop adds them to its set;
    # indexing an object array of the node ints makes every set hold the
    # same n int objects instead of one new int per adjacency entry
    nodes = np.array(range(n), dtype=object)
    nbrs = nodes[np.nonzero(adjacent)[1]].tolist()
    ends = np.cumsum(adjacent.sum(axis=1)).tolist()
    adj = [set(nbrs[lo:hi]) for lo, hi in zip([0] + ends, ends)]
    return DynamicGraph._holding(n, adj, _int_rows(adjacent))


# -- serialization (plain-text edge list) --------------------------------


def write_edge_list(g: DynamicGraph, fp: IO[str]) -> None:
    fp.write(f"{g.n} {g.edge_count()}\n")
    for u, v in sorted(g.edges()):
        fp.write(f"{u} {v}\n")


def _int_pair(line: str, what: str) -> Pair:
    parts = line.split()
    if len(parts) != 2:
        raise GraphError(f"{what} must be two integers, got {line.strip()!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphError(f"{what} must be two integers, got {line.strip()!r}") from None


def read_edge_list(fp: IO[str]) -> DynamicGraph:
    """Parse the format of :func:`write_edge_list`: a header ``n m``, then
    exactly m lines ``u v``; only blank lines may follow them."""
    n, m = _int_pair(fp.readline(), "edge list header 'n m'")
    if n < 0 or m < 0:
        raise GraphError(f"edge list header 'n m' must be nonnegative, got {n} {m}")
    edges = [_int_pair(fp.readline(), "edge line 'u v'") for _ in range(m)]
    for line in fp:
        if line.strip():
            raise GraphError(f"line after the {m} declared edges: {line.strip()!r}")
    return DynamicGraph(n, edges)
