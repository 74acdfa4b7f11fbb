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

The ``adj`` list of adjacency sets and the ``rows`` list are public live
state and live as long as the graph: a flip changes them in place and
never replaces them, so a reader may bind ``adj``, ``adj[v]`` or ``rows``
once and see every later flip.  ``copy()`` gives the copy lists and sets
of its own.

A flip XORs the two rows with single-bit masks read from a tuple of
``1 << v`` over the nodes, built once per n (:func:`_mask_table`).  The
tuple takes about half the memory of a dense graph's rows at that n:
0.1 MiB at n = 1000, 1.8 MiB at n = 5000.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import IO, Iterable, Iterator, Optional, Sequence, Tuple

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


def index_pairs(n: int, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs at indices ``idx`` of the binom(n,2) pairs in row-major
    order, as (u, v) int64 arrays.

    Counted from the last pair, index r lies in the row of k pairs where
    k is the largest integer with k (k - 1) / 2 <= r, that is with
    (2k - 1)^2 <= 8 r + 1; that row is u = n - 1 - k.  The float square
    root of 8 r + 1 never falls below 2k - 1: rounding is monotone, and
    the correctly rounded root of m^2 rounded to a double is m for any
    m < 2**31.  From about n = 2**28 it can round up to 2k + 1, and one
    integer step down settles k.  8 r + 1 fits int64 up to n = 2**30,
    and a larger n raises.
    """
    if n > 1 << 30:
        raise GraphError(f"index_pairs supports n <= 2**30, not {n}")
    count = pair_count(n)
    r = count - 1 - np.asarray(idx, dtype=np.int64)
    if r.size and (r.min() < 0 or r.max() >= count):
        raise GraphError(f"pair index out of range for n={n}")
    k = ((np.sqrt(8 * r + 1) + 1) // 2).astype(np.int64)
    k -= k * (k - 1) // 2 > r
    return n - 1 - k, n - 1 - r + k * (k - 1) // 2


# Up to this many pairs, uniform_pairs looks its draws up in a table of
# index_pairs over every index, built once per n: at most 1 MiB of int32,
# and a block of 16 pairs then costs two numpy calls instead of twenty.
_TABLE_PAIRS = 1 << 17


@lru_cache(maxsize=4)
def _pair_table(n: int) -> np.ndarray:
    return np.stack(index_pairs(n, np.arange(pair_count(n))), axis=1).astype(np.int32)


def uniform_pairs(
    n: int, rng: np.random.Generator, k: int, allowed: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """k uniform pairs as (u, v) arrays, by one ``rng.integers(m, size=k)``
    draw (no rejection) indexing the m rows of ``allowed``, an (m, 2) int
    array of pairs in a given order, else the binom(n,2) pairs in
    row-major order (:func:`index_pairs`).  The library's one uniform-edge
    sampler."""
    if allowed is None:
        if pair_count(n) > _TABLE_PAIRS:
            return index_pairs(n, rng.integers(pair_count(n), size=k))
        allowed = _pair_table(n)
    picked = allowed[rng.integers(len(allowed), size=k)]
    return picked[:, 0], picked[:, 1]


@lru_cache(maxsize=4)
def _mask_table(n: int) -> Tuple[int, ...]:
    """The bit masks ``1 << v`` for v < n, which ``flip`` XORs into two
    rows instead of building two new ints."""
    return tuple(1 << v for v in range(n))


@lru_cache(maxsize=4)
def _nodes(n: int) -> np.ndarray:
    """The read-only object array of the node ints 0..n-1."""
    nodes = np.array(range(n), dtype=object)
    nodes.flags.writeable = False
    return nodes


@lru_cache(maxsize=4)
def _upper(n: int) -> np.ndarray:
    """The read-only n x n boolean mask of the pairs u < v."""
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    upper.flags.writeable = False
    return upper


def _int_rows(packed: np.ndarray) -> list[int]:
    """Each row of a byte matrix whose byte j of row v holds bits 8j..8j+7
    (little-endian) as an int with those bits set."""
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class DynamicGraph:
    """Simple graph with O(1) expected membership/flip and degree table.

    ``adj[v]`` is v's neighbourhood as a set and ``rows[v]`` as a bit
    mask, bit u set iff u ~ v.  Both are live state that callers read but
    must not assign or mutate: the ``adj`` and ``rows`` lists and each
    adjacency set are the same objects for the graph's whole life, and
    flips update them in place.
    """

    __slots__ = ("n", "adj", "rows", "_masks")

    def __init__(self, n: int, edges: Iterable[Pair] = ()):
        if n < 0:
            raise GraphError("node count must be nonnegative")
        self.n = n
        self._masks = _mask_table(n)
        self.adj: list[set[int]] = [set() for _ in range(n)]
        adj = self.adj
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
            # set bit u of row v in an n x ceil(n/8) byte matrix, n^2/8 bytes
            # at most, which is what the rows themselves may take
            nbrs = np.fromiter(chain.from_iterable(adj), dtype=np.intp, count=sum(degrees))
            packed = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
            owners = np.repeat(np.arange(n), degrees)
            np.bitwise_or.at(packed, (owners, nbrs >> 3), np.left_shift(1, nbrs & 7).astype(np.uint8))
            self.rows = _int_rows(packed)

    @classmethod
    def _holding(cls, n: int, adj: list[set[int]], rows: list[int]) -> "DynamicGraph":
        """A graph over sets and rows the caller built to agree, unchecked."""
        g = cls.__new__(cls)
        g.n, g.adj, g.rows, g._masks = n, adj, rows, _mask_table(n)
        return g

    # -- queries ---------------------------------------------------------

    def has(self, u: int, v: int) -> bool:
        """Edge {u, v} present, in either orientation; False off ``[0, n)``."""
        return 0 <= u < self.n and v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edge_count(self) -> int:
        return sum(map(len, self.adj)) // 2

    def edges(self) -> Iterator[Pair]:
        """Every edge once, as ``(u, v)`` with ``u < v``."""
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def edge_set(self) -> frozenset:
        return frozenset(self.edges())

    def copy(self) -> "DynamicGraph":
        return DynamicGraph._holding(self.n, [set(a) for a in self.adj], list(self.rows))

    # -- mutation --------------------------------------------------------

    def flip(self, u: int, v: int) -> bool:
        """Toggle the edge; return whether it is present afterwards."""
        # every effective step flips, and nearly every pair is canonical
        # and in range, so one chained test passes it; only the rest
        # goes through pair() and the range check
        if not 0 <= u < v < self.n:
            u, v = pair(u, v)  # raises the self-loop or negative-index error
            if v >= self.n:
                raise GraphError(f"edge {(u, v)} out of range for n={self.n}")
        rows, adj, masks = self.rows, self.adj, self._masks
        rows[u] ^= masks[v]
        rows[v] ^= masks[u]
        adj_u = adj[u]
        if v in adj_u:
            adj_u.remove(v)
            adj[v].remove(u)
            return False
        adj_u.add(v)
        adj[v].add(u)
        return True


def random_graph(
    n: int,
    rng: np.random.Generator,
    restriction: Optional[Sequence[Pair]] = None,
) -> DynamicGraph:
    """Each allowed pair present independently with probability 1/2.

    Stream contract: one ``rng.random(k)`` draw, where k is the number of
    allowed pairs (binom(n,2) without a restriction); the i-th allowed
    pair, in row-major order or the restriction's order, is
    present iff its draw is < 0.5.
    """
    if restriction is not None:
        mask = rng.random(len(restriction)) < 0.5
        return DynamicGraph(n, [e for e, keep in zip(restriction, mask) if keep])
    mask = rng.random(pair_count(n)) < 0.5
    # a boolean mask assignment fills the upper triangle in row-major
    # order, the pairs' order; they are valid and distinct by
    # construction, so the sets and rows come from the adjacency matrix
    # without the constructor's per-edge checks
    adjacent = np.zeros((n, n), dtype=bool)
    adjacent[_upper(n)] = mask
    adjacent |= adjacent.T
    # row-major: each node's neighbours in increasing order, the order in
    # which the constructor's row-major loop adds them to its set; a flat
    # index mod n is the entry's column, and indexing the object array of
    # the node ints makes every set hold the same n int objects instead of
    # one new int per adjacency entry
    nbrs = _nodes(n)[np.flatnonzero(adjacent) % n].tolist()
    ends = np.cumsum(adjacent.sum(axis=1)).tolist()
    adj = [set(nbrs[lo:hi]) for lo, hi in zip([0] + ends, ends)]
    return DynamicGraph._holding(n, adj, _int_rows(np.packbits(adjacent, axis=1, bitorder="little")))


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
