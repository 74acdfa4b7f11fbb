"""Incremental subgraph counters and the constant-time deciders.

Every counter follows one ordering contract: ``update(edge, now_present)``
is invoked BEFORE the flip is applied to the shared graph, so the counter
reads the pre-flip graph and is told the post-flip presence bit.  Updates
with ``edge is None`` are null steps and cost O(1).

Counters expose ``ops``, a running count of elementary operations
(edge-membership tests and counter-table writes) used by the harness's
cost accounting.  ``ops`` is the paper's modelled cost and may exceed the
work actually done: an s-edge update charges the n-node scan of the
model while it walks only deg(v) neighbours.
"""

from __future__ import annotations

from typing import Callable, Optional

from .graph import DynamicGraph, Pair


class InvariantError(RuntimeError):
    """An internal counter invariant failed; signals an implementation bug."""


OnChange = Callable[[int, int, int], None]  # (u, old, new)


class TwoPathTable:
    """Per-node table c[u] = number of s-u 2-paths.

    With ``t_excluded`` set, 2-paths using the edge (s, t_excluded) as
    their first edge are not counted (equivalently: the middle node is
    never t_excluded).  c[s] is 0 at all times.

    Update cost: O(1) for an edge not incident to s.  An (s,v) edge
    charges n ops, the modelled scan of every node for (v,u) membership,
    and walks deg(v): only v's neighbours can change.
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

    def _bump(self, u: int, delta: int, on_change: Optional[OnChange]) -> None:
        old = self.c[u]
        new = old + delta
        self.c[u] = new
        self.ops += 1
        if on_change is not None:
            on_change(u, old, new)

    def update(
        self,
        e: Optional[Pair],
        now_present: bool,
        on_change: Optional[OnChange] = None,
    ) -> None:
        if e is None:
            return
        a, b = e
        s, t = self.s, self.t_excluded
        g = self.g
        delta = 1 if now_present else -1
        if a == s or b == s:
            v = b if a == s else a
            if v == t:
                return  # the excluded edge never carries a counted 2-path
            # charge the modelled scan of all n nodes, but walk only v's
            # pre-flip neighbours (no self-loops, so u != v holds); the
            # bumps are additive, so their order does not matter
            self.ops += g.n
            for u in g.neighbors(v):
                if u != s:
                    self._bump(u, delta, on_change)
        else:
            # middle a, endpoint b -- needs (s,a) with a not excluded
            self.ops += 1
            if a != t and g.has(s, a):
                self._bump(b, delta, on_change)
            # middle b, endpoint a
            self.ops += 1
            if b != t and g.has(s, b):
                self._bump(a, delta, on_change)


class STPath3Counter:
    """Exact count of simple s-t 3-paths, O(1) query."""

    def __init__(self, g: DynamicGraph, s: int, t: int):
        if s == t:
            raise ValueError("s and t must differ")
        self.g = g
        self.s = s
        self.t = t
        self.two = TwoPathTable(g, s, t)
        self._ops = 0
        self.c = sum(
            self.two.c[u] for u in g.neighbors(t) if u != s
        )

    @property
    def ops(self) -> int:
        return self._ops + self.two.ops

    def _on_two_change(self, u: int, old: int, new: int) -> None:
        self._ops += 1
        if u != self.t and self.g.has(u, self.t):
            self.c += new - old

    def update(self, e: Optional[Pair], now_present: bool) -> None:
        if e is None:
            return
        s, t = self.s, self.t
        a, b = e
        if (a == s and b == t) or (a == t and b == s):
            return  # the (s,t) edge never participates in an s-t 3-path
        if a == t or b == t:
            u = b if a == t else a
            delta = 1 if now_present else -1
            self.c += delta * self.two.c[u]
            self._ops += 1
            self.two.update(e, now_present)  # maintains c[t]; no 3-path effect
        else:
            self.two.update(e, now_present, on_change=self._on_two_change)

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
        if in_s:
            u = b if a == s else a
            ut = g.has(u, t)
            self._ops += 1
            # paths (s,u,v,x,t) for each neighbor v of u; the walk with
            # x=u is inside c_t2v exactly when (u,t) is present
            for v in g.neighbors(u):
                if v == s or v == t:
                    continue
                self.c += delta * (self.tside.c[v] - (1 if ut else 0))
                self._ops += 1
        elif in_t:
            v = b if a == t else a
            sv = g.has(s, v)
            self._ops += 1
            # paths (s,x,u,v,t) for each neighbor u of v; the walk with
            # x=v is inside c_s2u exactly when (s,v) is present
            for u in g.neighbors(v):
                if u == s or u == t:
                    continue
                self.c += delta * (self.sside.c[u] - (1 if sv else 0))
                self._ops += 1
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
    """Exact count of triangles through s; internally stores twice the count."""

    def __init__(self, g: DynamicGraph, s: int):
        self.g = g
        self.s = s
        self.two = TwoPathTable(g, s)
        self._ops = 0
        self.c2 = sum(self.two.c[u] for u in g.neighbors(s))

    @property
    def ops(self) -> int:
        return self._ops + self.two.ops

    def _on_two_change(self, u: int, old: int, new: int) -> None:
        self._ops += 1
        if self.g.has(self.s, u):
            self.c2 += new - old

    def update(self, e: Optional[Pair], now_present: bool) -> None:
        if e is None:
            return
        s = self.s
        a, b = e
        if a == s or b == s:
            v = b if a == s else a
            delta = 1 if now_present else -1
            # c_s2v enters or leaves the sum over neighbors of s
            self.c2 += delta * self.two.c[v]
            self._ops += 1
        self.two.update(e, now_present, on_change=self._on_two_change)

    def query(self) -> int:
        if self.c2 % 2 != 0:
            raise InvariantError(f"triangle double-count {self.c2} is odd")
        return self.c2 // 2


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

    def _on_two_change(self, u: int, old: int, new: int) -> None:
        self.c += new * (new - 1) // 2 - old * (old - 1) // 2
        self._ops += 1

    def update(self, e: Optional[Pair], now_present: bool) -> None:
        if e is None:
            return
        self.two.update(e, now_present, on_change=self._on_two_change)

    def query(self) -> int:
        return self.c


# -- deciders ------------------------------------------------------------

_YES_PROBLEMS = ("connectivity", "perfect-matching")
_SIZE_PROBLEMS = ("max-matching", "min-vertex-cover")


class TrivialDecider:
    """Constant-answer decider for dense smoothed inputs.

    Connectivity / bipartite perfect matching answer "yes"; maximum
    matching / minimum vertex cover answer the side size.  Valid for
    oblivious-flip p-smoothed inputs with p <= 1 - 26 log n / n.
    """

    def __init__(self, problem: str, side_size: Optional[int] = None):
        if problem in _YES_PROBLEMS:
            self._answer = True
        elif problem in _SIZE_PROBLEMS:
            if side_size is None:
                raise ValueError(f"{problem} needs side_size")
            self._answer = side_size
        else:
            raise ValueError(f"unknown problem {problem!r}")
        self.ops = 0

    def update(self, e: Optional[Pair], now_present: bool) -> None:
        self.ops += 1

    def query(self):
        return self._answer


class HybridDecider:
    """Exact oracle for ``rounds_exact`` rounds, constant answer afterwards.

    The paper's switch round r_p = n * binom(n,2) / (1-p) is
    astronomically long, so callers pass a scaled-down ``rounds_exact``.
    """

    def __init__(
        self,
        problem: str,
        p: float,
        g: DynamicGraph,
        oracle,
        rounds_exact: int,
        side_size: Optional[int] = None,
    ):
        if p >= 1.0:
            raise ValueError("hybrid decider requires p < 1")
        self.rounds_exact = rounds_exact
        self.g = g
        self._oracle = oracle
        self._trivial = TrivialDecider(problem, side_size)
        self._round = 0

    def update(self, e: Optional[Pair], now_present: bool) -> None:
        self._round += 1

    def query(self):
        if self._round < self.rounds_exact:
            return self._oracle(self.g)
        return self._trivial.query()

    @property
    def in_exact_phase(self) -> bool:
        return self._round < self.rounds_exact
