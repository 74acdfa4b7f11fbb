"""Brute-force reference implementations.

Everything here favors clarity over speed; path/cycle enumeration is
capped at n <= 64.  These are the ground truth for every differential
and Monte-Carlo test in the suite.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import List, Sequence, Tuple

from .graph import DynamicGraph

ENUM_CAP = 64


class OracleCapError(ValueError):
    pass


def _check_cap(g: DynamicGraph) -> None:
    if g.n > ENUM_CAP:
        raise OracleCapError(f"enumeration oracle capped at n<={ENUM_CAP}, got n={g.n}")


def bf_st_paths(g: DynamicGraph, s: int, t: int, k: int) -> int:
    """Number of simple s-t paths with exactly k edges, k in {2,3,4}."""
    _check_cap(g)
    if s == t:
        raise ValueError("s and t must differ")
    if k not in (2, 3, 4):
        raise ValueError("k must be in {2,3,4}")
    count = 0
    visited = {s}

    def extend(v: int, remaining: int) -> None:
        nonlocal count
        if remaining == 1:
            if g.has(v, t):
                count += 1
            return
        for w in g.neighbors(v):
            if w != t and w not in visited:
                visited.add(w)
                extend(w, remaining - 1)
                visited.remove(w)

    extend(s, k)
    return count


def bf_s_cycles(g: DynamicGraph, s: int, k: int) -> int:
    """Number of simple k-cycles through s, k in {3,4}; each counted once."""
    _check_cap(g)
    if k not in (3, 4):
        raise ValueError("k must be in {3,4}")
    if k == 3:
        return sum(1 for u, v in combinations(sorted(g.neighbors(s)), 2) if g.has(u, v))
    # k == 4: cycle s-a-u-b-s determined by the unordered pair {a,b} of
    # s-neighbors plus the midpoint u
    count = 0
    for a, b in combinations(sorted(g.neighbors(s)), 2):
        count += sum(1 for u in g.neighbors(a) if u != s and u != b and g.has(u, b))
    return count


def bf_two_paths(g: DynamicGraph, s: int, u: int, t_excluded=None) -> int:
    """Number of s-u 2-paths; the edge (s, t_excluded) may not be used."""
    if u == s:
        return 0
    return sum(
        1
        for v in g.neighbors(s)
        if v != t_excluded and v != u and g.has(v, u)
    )


def bf_connected(g: DynamicGraph) -> bool:
    if g.n <= 1:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n


def bf_bipartite_matching(
    g: DynamicGraph, left: Sequence[int], right: Sequence[int]
) -> Tuple[int, bool]:
    """Maximum matching size by augmenting paths; perfect iff size==|side|."""
    left_set, right_set = set(left), set(right)
    for u, v in g.edges():
        if (u in left_set) == (v in left_set):
            raise ValueError(f"edge {(u, v)} is not bipartite for the given sides")
    match_of = {}  # right node -> matched left node
    matched_left = set()

    def augment(root: int) -> bool:
        # depth first on an explicit stack, since a path can outgrow Python's
        # recursion limit; via[i] is the right node from stack[i] to stack[i + 1]
        seen = set()
        stack = [(root, iter(g.neighbors(root)))]
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
            stack.append((match_of[v], iter(g.neighbors(match_of[v]))))
        return False

    # greedy warm start, then augment the rest
    for u in left:
        for v in g.neighbors(u):
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


def bf_min_vertex_cover_bipartite(
    g: DynamicGraph, left: Sequence[int], right: Sequence[int]
) -> int:
    """Exhaustive minimum vertex cover size; intended for <=8 per side."""
    nodes: List[int] = [v for v in (*left, *right) if g.degree(v) > 0]
    if len(nodes) > 16:
        raise OracleCapError("exhaustive vertex cover capped at 16 touched nodes")
    edges = list(g.edges())
    for size in range(len(nodes) + 1):
        for cover in combinations(nodes, size):
            cset = set(cover)
            if all(u in cset or v in cset for u, v in edges):
                return size
    return len(nodes)
