"""Incremental subgraph counters and the constant-time deciders.

Every counter follows one ordering contract: ``update(edge, now_present)``
is invoked BEFORE the flip is applied to the shared graph, so the counter
reads the pre-flip graph and is told the post-flip presence bit.  Updates
with ``edge is None`` are null steps and cost O(1).

st4 and s-4-cycle fold, in one pass, the fresh set of moved nodes that a
``TwoPathTable`` update (also called before the flip) returns.  st3 and
s-triangle keep no table: each flip moves their count by at most one
intersection of pre-flip adjacency sets.

Counters expose ``ops``, the paper's modelled count of elementary
operations (edge-membership tests and counter-table writes) used by the
harness's cost accounting.  It may exceed the work actually done: an
s-edge update charges the n-node scan while it walks only deg(v)
neighbours, and st3 and s-triangle charge a 2-path table they do not keep.
"""

from __future__ import annotations

from typing import AbstractSet, Optional

from .graph import DynamicGraph, Pair


class InvariantError(RuntimeError):
    """An internal counter invariant failed; signals an implementation bug."""


class TwoPathTable:
    """Per-node table c[u] = number of s-u 2-paths.

    With ``t_excluded`` set, 2-paths using the edge (s, t_excluded) as
    their first edge are not counted (equivalently: the middle node is
    never t_excluded).  c[s] is 0 at all times.

    ``update(e, now_present)`` runs before the flip of e, applies +/-1 to
    every c[u] the flip moves and returns the set of those nodes; the
    returned set never aliases the graph's adjacency sets.

    Update cost: O(1) for an edge not incident to s.  An (s,v) edge
    charges n ops, the modelled scan of every node for (v,u) membership,
    and walks deg(v): only v's neighbours can change.  Every write to c
    costs one more op.
    """

    __slots__ = ("g", "s", "t_excluded", "c", "ops")

    def __init__(self, g: DynamicGraph, s: int, t_excluded: Optional[int] = None):
        self.g = g
        self.s = s
        self.t_excluded = t_excluded
        self.c = [0] * g.n
        self.ops = 0
        # depth-2 BFS over the initial graph, O(m0)
        for v in g.neighbors(s):
            if v == t_excluded:
                continue
            for u in g.neighbors(v):
                if u != s:
                    self.c[u] += 1
                    self.ops += 1

    def query(self, u: int) -> int:
        return self.c[u]

    def update(self, e: Optional[Pair], now_present: bool) -> AbstractSet[int]:
        if e is None:
            return frozenset()
        a, b = e
        s, t = self.s, self.t_excluded
        g, c = self.g, self.c
        delta = 1 if now_present else -1
        if a == s or b == s:
            v = b if a == s else a
            if v == t:
                return frozenset()  # the excluded edge never carries a counted 2-path
            # charge the modelled scan of all n nodes, but walk only v's
            # pre-flip neighbours; the difference is a fresh set
            moved = g.neighbors(v) - {s}
            for u in moved:
                c[u] += delta
            self.ops += g.n + len(moved)
        else:
            # a non-excluded middle joined to s moves the other endpoint
            moved = set()
            if a != t and g.has(s, a):
                c[b] += delta
                moved.add(b)
            if b != t and g.has(s, b):
                c[a] += delta
                moved.add(a)
            self.ops += 2 + len(moved)
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
        mids = g.neighbors(s) - {t}
        self.ops = sum(g.degree(v) - 1 for v in mids)
        self.c = sum(len(g.neighbors(t) & g.neighbors(v)) for v in mids) - len(mids) * g.has(s, t)

    def update(self, e: Optional[Pair], now_present: bool) -> None:
        s, t, g = self.s, self.t, self.g
        if e is None or (s in e and t in e):
            return  # a null step, or the (s,t) edge, which lies on no s-t 3-path
        a, b = e
        delta = 1 if now_present else -1
        ns, nt = g.neighbors(s), g.neighbors(t)
        if a == s or b == s:
            v = b if a == s else a
            self.c += delta * (len(nt & g.neighbors(v)) - (t in ns and v in ns))
            self.ops += g.n + 2 * (g.degree(v) - (v in ns))
        elif a == t or b == t:
            x = b if a == t else a
            self.c += delta * (len(ns & g.neighbors(x)) - (t in ns and x in nt))
            self.ops += 3 + (x in ns)
        else:
            sa, sb = a in ns, b in ns
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
        self._ops = 0
        c = sum(a * b for a, b in zip(self.sside.c, self.tside.c))
        for v in g.neighbors(s):
            if v != t and g.has(v, t):
                # walks (s,v,u,v,t): one per neighbor u of v besides s and t
                c -= g.degree(v) - 2
        self.c = c

    @property
    def ops(self) -> int:
        return self._ops + self.sside.ops + self.tside.ops

    def update(self, e: Optional[Pair], now_present: bool) -> None:
        if e is None:
            return
        s, t, g = self.s, self.t, self.g
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
            end, far, table = (s, t, self.tside) if in_s else (t, s, self.sside)
            x = b if a == end else a
            mids = g.neighbors(x) - {s, t}
            paths, total = table.c, 0
            for m in mids:
                total += paths[m]
            if g.has(x, far):
                total -= len(mids)
            self.c += delta * total
            self._ops += 1 + len(mids)
        else:
            u, v = a, b
            su, sv = g.has(s, u), g.has(s, v)
            ut, vt = g.has(u, t), g.has(v, t)
            self._ops += 4
            # the pre-flip 2-path tables exclude any 2-path through (u,v),
            # so on insertion they are exact; on deletion the degenerate
            # walk re-enters whenever the bridging edge exists
            if su:  # type (s,u,v,x,t)
                self.c += delta * (self.tside.c[v] - (0 if now_present else (1 if ut else 0)))
            if sv:  # type (s,v,u,x,t)
                self.c += delta * (self.tside.c[u] - (0 if now_present else (1 if vt else 0)))
            if vt:  # type (s,x,u,v,t)
                self.c += delta * (self.sside.c[u] - (0 if now_present else (1 if sv else 0)))
            if ut:  # type (s,x,v,u,t)
                self.c += delta * (self.sside.c[v] - (0 if now_present else (1 if su else 0)))
        self.sside.update(e, now_present)
        self.tside.update(e, now_present)

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
        ns = g.neighbors(s)
        self.ops = sum(g.degree(v) - 1 for v in ns)
        self.c = sum(len(ns & g.neighbors(v)) for v in ns) // 2

    def update(self, e: Optional[Pair], now_present: bool) -> None:
        if e is None:
            return
        s, g = self.s, self.g
        a, b = e
        delta = 1 if now_present else -1
        ns = g.neighbors(s)
        if a == s or b == s:
            v = b if a == s else a
            self.c += delta * len(ns & g.neighbors(v))
            self.ops += 1 + g.n + 2 * (g.degree(v) - (v in ns))
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
        paths, total = self.two.c, 0
        for u in moved:
            total += paths[u]
        self.c += total - len(moved) if now_present else -total
        self._ops += len(moved)

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
