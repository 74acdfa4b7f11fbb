"""Brute-force reference implementations.

These are the ground truth for every differential and Monte-Carlo test
in the suite.  Path and cycle enumeration is capped at n <= 64 and
reaches every path or cycle in one iteration of flat loops over
adjacency sets bound once per call; it reads the sets ``g.adj`` alone,
never the bit rows or any counter table, so it stays independent of
the counters it checks.  Every node named must lie in ``[0, n)``.
"""

from __future__ import annotations

from collections import deque
from typing import List, Sequence, Tuple

from .graph import DynamicGraph

ENUM_CAP = 64


class OracleCapError(ValueError):
    pass


def _check_cap(g: DynamicGraph) -> None:
    if g.n > ENUM_CAP:
        raise OracleCapError(f"enumeration oracle capped at n<={ENUM_CAP}, got n={g.n}")


def _check_node(g: DynamicGraph, name: str, v: int) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"{name}={v} is not a node of the graph on [0, {g.n})")


def bf_st_paths(g: DynamicGraph, s: int, t: int, k: int) -> int:
    """Number of simple s-t paths with exactly k edges, k in {2,3,4}.

    Each path is one iteration of the loops: s-a-t over a, s-a-b-t over
    a then b, and s-a-b-c-t over its middle node b, then a and c; the
    guards keep the nodes distinct."""
    _check_cap(g)
    _check_node(g, "s", s)
    _check_node(g, "t", t)
    if s == t:
        raise ValueError("s and t must differ")
    if k not in (2, 3, 4):
        raise ValueError("k must be in {2,3,4}")
    adj = g.adj
    ns, nt = adj[s], adj[t]
    count = 0
    if k == 2:
        for a in ns:
            count += a in nt
    elif k == 3:
        for a in ns:
            if a != t:
                for b in adj[a] & nt:
                    count += b != s
    else:
        for b in range(g.n):
            if b != s and b != t:
                nb = adj[b]
                cs = nb & nt
                for a in nb & ns:
                    if a != t:
                        for c in cs:
                            count += c != a and c != s
    return count


def bf_s_cycles(g: DynamicGraph, s: int, k: int) -> int:
    """Number of simple k-cycles through s, k in {3,4}; each counted once.

    Each cycle is one counted iteration of the loops: s-a-b-s over a then
    b, and s-a-u-b-s over the node u opposite s, then a and b; a < b
    picks one of the two orders of s's neighbours on the cycle."""
    _check_cap(g)
    _check_node(g, "s", s)
    if k not in (3, 4):
        raise ValueError("k must be in {3,4}")
    adj = g.adj
    ns = adj[s]
    count = 0
    if k == 3:
        for a in ns:
            for b in adj[a] & ns:
                count += a < b
    else:
        for u in range(g.n):
            if u != s:
                common = adj[u] & ns
                for a in common:
                    for b in common:
                        count += a < b
    return count


def bf_two_paths(g: DynamicGraph, s: int, u: int, t_excluded=None) -> int:
    """Number of s-u 2-paths; the edge (s, t_excluded) may not be used."""
    _check_node(g, "s", s)
    _check_node(g, "u", u)
    if u == s:
        return 0
    nu = g.adj[u]
    count = 0
    for v in g.adj[s]:
        count += v in nu and v != t_excluded
    return count


def bf_connected(g: DynamicGraph) -> bool:
    if g.n <= 1:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in g.adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n


def bf_bipartite_matching(
    g: DynamicGraph, left: Sequence[int], right: Sequence[int]
) -> Tuple[int, bool]:
    """Maximum matching size by augmenting paths; perfect iff size==|side|."""
    for u in left:
        _check_node(g, "left", u)
    for v in right:
        _check_node(g, "right", v)
    adj = g.adj
    left_set = set(left)
    for u, v in g.edges():
        if (u in left_set) == (v in left_set):
            raise ValueError(f"edge {(u, v)} is not bipartite for the given sides")
    match_of = {}  # right node -> matched left node
    matched_left = set()

    def augment(root: int) -> bool:
        # depth first on an explicit stack, since a path can outgrow Python's
        # recursion limit; via[i] is the right node from stack[i] to stack[i + 1]
        seen = set()
        stack = [(root, iter(adj[root]))]
        via: List[int] = []
        while stack:
            v = next((w for w in stack[-1][1] if w not in seen), None)
            if v is None:
                stack.pop()
                if via:
                    via.pop()
                continue
            seen.add(v)
            if v not in match_of:
                for (u, _), w in zip(stack, via + [v]):
                    match_of[w] = u
                return True
            via.append(v)
            stack.append((match_of[v], iter(adj[match_of[v]])))
        return False

    # greedy warm start, then augment the rest
    for u in left:
        for v in adj[u]:
            if v not in match_of:
                match_of[v] = u
                matched_left.add(u)
                break
    size = len(match_of)
    for u in left:
        if u not in matched_left and augment(u):
            size += 1
    perfect = size == min(len(left), len(right)) and len(left) == len(right)
    return size, perfect

