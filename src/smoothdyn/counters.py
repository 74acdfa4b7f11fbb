"""Incremental subgraph counters and the constant-time deciders.

Every counter follows one ordering contract: ``update(edge, now_present)``
is invoked BEFORE the flip is applied to the shared graph, so the counter
reads the pre-flip graph and is told the post-flip presence bit
(:func:`smoothdyn.smoothing.notify_and_flip`).  Updates with ``edge is
None`` are null steps and cost O(1); ``run_sequence`` delivers each
ineffective add/remove event as ``update(None, False)``.

Each counter binds, once at construction, the graph's live state that
its updates read (:class:`~smoothdyn.graph.DynamicGraph` changes it in
place and never replaces it): st3 holds n, the ``rows`` list, N(s) and
N(t); s-triangle and every ``TwoPathTable`` hold ``rows`` and N(s); st4
holds ``rows`` and its two tables' N(s) and N(t); s-4-cycle reads the
graph only through its table.  An update reads a membership of N(s) or
N(t) as ``x in ns`` and a degree as ``rows[v].bit_count()``; only a
table's walk over a short row reads that row's set, ``g.adj[v]``.

The O(n) work of an
s- or t-edge update runs word-parallel on the graph's bit rows
(``DynamicGraph.rows``).  st3 and s-triangle keep no table: each flip
moves their count by at most one intersection of pre-flip
neighbourhoods, the popcount of two rows ANDed.  A ``TwoPathTable``
moves the counts of a long row (more than ``_WALK_MAX`` nodes) with one
numpy operation on an int64 buffer and returns the moved nodes as a bit
mask; st4 and s-4-cycle fold the table over such a row as one dot
product.  Every table reads the flipped row's pre-flip bits as one int64
array, unpacked once per flip and cached by content (``_unpack``), so
the four table calls of an s-edge flip share one unpack and no vector
operation casts.  A table is built from one unpack of all the rows it
sums.  Shorter rows are walked node by node, which costs less at that
length.

Counters expose ``ops``, the paper's modelled count of elementary
operations (edge-membership tests and counter-table writes) used by the
harness's cost accounting.  It is not the work actually done: an s-edge
update charges the n-node scan and one write per moved node, where the
code does a few vector operations over n/64 words, and st3 and
s-triangle charge a 2-path table they do not keep.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .graph import DynamicGraph, Pair


# Rows with more set bits than this move and fold a 2-path table with
# numpy; shorter rows walk the adjacency set.  A numpy call costs a fixed
# 1-2 us; a walk costs about 50 ns a node, and the two crossed between 40
# and 64 nodes on a 2-CPU x86 host.
_WALK_MAX = 48


@lru_cache(maxsize=4)
def _unpack(mask: int, n: int) -> np.ndarray:
    """The bits 0..n-1 of ``mask`` as a read-only length-n int64 array of
    0s and 1s.  Cached by content: the tables of every counter on a graph
    ask for the same pre-flip row in one flip, and it is unpacked once."""
    packed = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    bits = np.unpackbits(packed, count=n, bitorder="little").astype(np.int64)
    bits.flags.writeable = False
    return bits


class TwoPathTable:
    """Per-node table c[u] = number of s-u 2-paths.

    With ``t_excluded`` set, 2-paths using the edge (s, t_excluded) as
    their first edge are not counted (equivalently: the middle node is
    never t_excluded).  c[s] is 0 at all times.  Once n exceeds
    ``_WALK_MAX + 1``, ``c`` is an int64 ``array`` whose elements read as
    Python ints, and a numpy view of the same buffer moves or folds a row
    of more than ``_WALK_MAX`` nodes in one vector operation on the row's
    shared ``_unpack``; s and the skipped nodes are then taken out as
    scalar fix-ups.  Shorter rows are walked node by node; below that n
    every row is, and ``c`` is a list, whose elements read and write
    faster.  The build sums the rows of the counted middles, N(s) less
    t_excluded, as columns of one unpacked bit matrix.

    ``update(e, now_present)`` runs before the flip of e, applies +/-1 to
    every c[u] the flip moves and returns those nodes as a bit mask (bit
    u set iff c[u] moved), an int the table does not keep.

    Cost: the build charges one op per 2-path it counts, |N(v) - {s}|
    for each middle v.  An update costs O(1) for an edge not incident to
    s.  An (s,v) edge charges n ops, the modelled scan of every node for
    (v,u) membership, and moves exactly v's other neighbours, the row
    ``rows[v]`` without s.  Every write to c costs one more op.
    """

    __slots__ = ("g", "s", "t_excluded", "rows", "ns", "c", "_vec", "ops")

    def __init__(self, g: DynamicGraph, s: int, t_excluded: Optional[int] = None):
        self.g = g
        self.s = s
        self.t_excluded = t_excluded
        self.rows = rows = g.rows  # live: flips change the rows and N(s) in place
        self.ns = g.adj[s]
        n, size = g.n, (g.n + 7) // 8
        mids = self.ns - {t_excluded}
        # every middle v is adjacent to s, so it adds |N(v)| - 1 counts
        self.ops = sum(rows[v].bit_count() - 1 for v in mids)
        packed = b"".join(rows[v].to_bytes(size, "little") for v in mids)
        matrix = np.frombuffer(packed, dtype=np.uint8).reshape(len(mids), size)
        bits = np.unpackbits(matrix, axis=1, count=n, bitorder="little")
        counts = bits.sum(axis=0, dtype=np.int64)
        counts[s] = 0
        if n - 1 > _WALK_MAX:
            self.c = array("q", counts.tobytes())
            self._vec = np.frombuffer(self.c, dtype=np.int64)  # writes through to c
        else:  # no row is long enough for the vector path
            self.c, self._vec = counts.tolist(), None

    def query(self, u: int) -> int:
        return self.c[u]

    def _move(self, v: int, delta: int) -> int:
        """Add delta to c[u] for every neighbour u of v but s; return them as a mask."""
        g, s = self.g, self.s
        row = self.rows[v]
        if row.bit_count() > _WALK_MAX:
            if delta > 0:
                self._vec += _unpack(row, g.n)
            else:
                self._vec -= _unpack(row, g.n)
        else:
            c = self.c
            for u in g.adj[v]:
                c[u] += delta
        if v in self.ns:  # s in N(v)
            self.c[s] -= delta  # c[s] stays 0
            return row ^ (1 << s)
        return row

    def row_total(self, x: int, skip: Tuple[int, ...]) -> int:
        """Sum of c[u] over the neighbours u of x that are not in ``skip``."""
        g, c = self.g, self.c
        nbrs = g.adj[x]
        if len(nbrs) > _WALK_MAX:
            total = int(self._vec.dot(_unpack(self.rows[x], g.n)))
        else:
            total = sum(map(c.__getitem__, nbrs))
        for u in skip:
            if u in nbrs:
                total -= c[u]
        return total

    def update(self, e: Optional[Pair], now_present: bool) -> int:
        if e is None:
            return 0
        a, b = e
        s, t = self.s, self.t_excluded
        delta = 1 if now_present else -1
        if a == s or b == s:
            v = b if a == s else a
            if v == t:
                return 0  # the excluded edge never carries a counted 2-path
            moved = self._move(v, delta)
            self.ops += self.g.n + moved.bit_count()
            return moved
        # a non-excluded middle joined to s moves the other endpoint
        c, ns, moved = self.c, self.ns, 0
        if a != t and a in ns:
            c[b] += delta
            moved |= 1 << b
        if b != t and b in ns:
            c[a] += delta
            moved |= 1 << a
        self.ops += 2 + moved.bit_count()
        return moved


class STPath3Counter:
    """Exact count of simple s-t 3-paths, O(1) query.

    An (s,v) flip moves |N(t) & N(v)| - [s~t and s~v] paths (s,v,u,t), a
    (t,x) flip |N(s) & N(x)| - [t~s and t~x] and an interior (a,b) flip
    [s~a and t~b] + [s~b and t~a].
    """

    def __init__(self, g: DynamicGraph, s: int, t: int):
        if s == t:
            raise ValueError("s and t must differ")
        self.g = g
        self.s = s
        self.t = t
        self.n = g.n
        self.rows = rows = g.rows  # live: flips change the rows, N(s) and N(t) in place
        self.ns = ns = g.adj[s]
        self.nt = g.adj[t]
        mids = ns - {t}
        self.ops = sum(rows[v].bit_count() - 1 for v in mids)
        self.c = sum((rows[t] & rows[v]).bit_count() for v in mids) - len(mids) * (t in ns)

    def update(self, e: Optional[Pair], now_present: bool) -> None:
        if e is None:
            return
        s, t, ns = self.s, self.t, self.ns  # the interior branch needs no row
        a, b = e
        delta = 1 if now_present else -1
        if a == s or b == s:
            v = b if a == s else a
            if v == t:
                return  # the (s,t) edge lies on no s-t 3-path
            rows = self.rows
            self.c += delta * ((rows[t] & rows[v]).bit_count() - (t in ns and v in ns))
            self.ops += self.n + 2 * (rows[v].bit_count() - (v in ns))
        elif a == t or b == t:
            x = b if a == t else a
            rows = self.rows
            self.c += delta * ((rows[s] & rows[x]).bit_count() - (t in ns and x in self.nt))
            self.ops += 3 + (x in ns)
        else:
            sa, sb = a in ns, b in ns
            if sa or sb:  # otherwise no 3-path (s, a, b, t) or (s, b, a, t) can form
                nt = self.nt
                self.c += delta * ((sa and b in nt) + (sb and a in nt))
            self.ops += 2 + 2 * (sa + sb)

    def query(self) -> int:
        return self.c


class STPath4Counter:
    """Exact count of simple s-t 4-paths, O(1) query.

    Maintains s-side and t-side 2-path tables.  Per interior-edge update,
    four path-type corrections are applied with +/-1 adjustments that
    keep degenerate walks (s,v,u,v,t) out of the count; the master counter
    is corrected before the 2-path tables are updated.
    """

    def __init__(self, g: DynamicGraph, s: int, t: int):
        if s == t:
            raise ValueError("s and t must differ")
        self.g = g
        self.s = s
        self.t = t
        self.sside = TwoPathTable(g, s, t)
        self.tside = TwoPathTable(g, t, s)
        self.rows, self.ns, self.nt = g.rows, self.sside.ns, self.tside.ns
        self._ops = 0
        c = sum(a * b for a, b in zip(self.sside.c, self.tside.c))
        for v in self.ns:
            if v != t and v in self.nt:
                # walks (s,v,u,v,t): one per neighbor u of v besides s and t
                c -= self.rows[v].bit_count() - 2
        self.c = c

    @property
    def ops(self) -> int:
        return self._ops + self.sside.ops + self.tside.ops

    def update(self, e: Optional[Pair], now_present: bool) -> None:
        if e is None:
            return
        s, t, ns, nt = self.s, self.t, self.ns, self.nt
        a, b = e
        in_s = a == s or b == s
        in_t = a == t or b == t
        if in_s and in_t:
            return  # the (s,t) edge never lies on an s-t 4-path
        delta = 1 if now_present else -1
        if in_s or in_t:
            # the flipped (end,x) joins each far-side 2-path (m,y,far) for
            # every neighbor m of x; the far table's c_m also holds the
            # walk with y=x exactly when (x,far) is present
            end, table, n_far = (s, self.tside, nt) if in_s else (t, self.sside, ns)
            x = b if a == end else a
            total = table.row_total(x, (s, t))
            k = self.rows[x].bit_count() - (x in ns) - (x in nt)
            if x in n_far:
                total -= k
            self.c += delta * total
            self._ops += 1 + k
            self.sside.update(e, now_present)
            self.tside.update(e, now_present)
            return
        u, v = a, b
        su, sv, ut, vt = u in ns, v in ns, u in nt, v in nt
        sc, tc = self.sside.c, self.tside.c
        self._ops += 4
        # types (s,u,v,x,t), (s,v,u,x,t), (s,x,u,v,t), (s,x,v,u,t); the pre-flip
        # tables exclude 2-paths through (u,v), but on deletion the walks
        # (s,u,v,u,t) and (s,v,u,v,t) re-enter, each in two types
        paths = su * tc[v] + sv * tc[u] + vt * sc[u] + ut * sc[v]
        self.c += delta * (paths if now_present else paths - 2 * (su * ut + sv * vt))
        # then both tables' own update(e) moves, from the same four bits
        sc[v] += su * delta
        sc[u] += sv * delta
        tc[v] += ut * delta
        tc[u] += vt * delta
        self.sside.ops += 2 + su + sv
        self.tside.ops += 2 + ut + vt

    def query(self) -> int:
        return self.c


class STriangleCounter:
    """Exact count of triangles through s, O(1) query.

    An (s,v) flip moves the |N(s) & N(v)| triangles (s,v,u); an (a,b)
    flip moves one exactly when s~a and s~b.
    """

    def __init__(self, g: DynamicGraph, s: int):
        self.g = g
        self.s = s
        self.rows = rows = g.rows  # live: flips change the rows and N(s) in place
        self.ns = ns = g.adj[s]
        self.ops = sum(rows[v].bit_count() - 1 for v in ns)
        self.c = sum((rows[s] & rows[v]).bit_count() for v in ns) // 2

    def update(self, e: Optional[Pair], now_present: bool) -> None:
        if e is None:
            return
        s, rows, ns = self.s, self.rows, self.ns
        a, b = e
        delta = 1 if now_present else -1
        if a == s or b == s:
            v = b if a == s else a
            self.c += delta * (rows[s] & rows[v]).bit_count()
            self.ops += 1 + self.g.n + 2 * (rows[v].bit_count() - (v in ns))
        else:
            sa, sb = a in ns, b in ns
            self.c += delta * (sa and sb)
            self.ops += 2 + 2 * (sa + sb)

    def query(self) -> int:
        return self.c


class SFourCycleCounter:
    """Exact count of 4-cycles through s via sum of binom(c_s2u, 2).

    Each 4-cycle through s has exactly one midpoint u, so the count is
    the number of unordered pairs of s-u 2-paths, summed over u.
    """

    def __init__(self, g: DynamicGraph, s: int):
        self.g = g
        self.s = s
        self.two = TwoPathTable(g, s)
        self._ops = 0
        self.c = sum(k * (k - 1) // 2 for k in self.two.c)

    @property
    def ops(self) -> int:
        return self._ops + self.two.ops

    def update(self, e: Optional[Pair], now_present: bool) -> None:
        if e is None:
            return
        moved = self.two.update(e, now_present)
        # with k the new c[u]: binom(k,2) - binom(k-1,2) = k - 1 on a rise,
        # binom(k,2) - binom(k+1,2) = -k on a fall
        a, b = e
        s, two = self.s, self.two
        if a == s or b == s:  # moved is the row of the other end
            total = two.row_total(b if a == s else a, (s,))
        else:  # moved holds a, b, both or neither
            total = (moved >> a & 1) * two.c[a] + (moved >> b & 1) * two.c[b]
        k = moved.bit_count()
        self.c += total - k if now_present else -total
        self._ops += k

    def query(self) -> int:
        return self.c


# -- deciders ------------------------------------------------------------


class TrivialDecider:
    """Constant "yes" decider for dense smoothed inputs.

    Answers connectivity and bipartite perfect matching with True, which
    is valid for oblivious-flip p-smoothed inputs with
    p <= 1 - 26 log n / n.
    """

    def update(self, e: Optional[Pair], now_present: bool) -> None:
        pass

    def query(self) -> bool:
        return True
