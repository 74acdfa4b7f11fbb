import sys
from itertools import combinations

import numpy as np
import pytest

from smoothdyn.graph import DynamicGraph, all_pairs, pair, random_graph
from smoothdyn.oracles import (
    OracleCapError,
    bf_bipartite_matching,
    bf_connected,
    bf_s_cycles,
    bf_st_paths,
    bf_two_paths,
)


def k4(nodes=(0, 1, 2, 3)):
    return DynamicGraph(max(nodes) + 1, [pair(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]])


def test_st_paths_frozen_values():
    # K4 on {s,x,y,t} with s=0, t=1: the 3-paths are s-x-y-t and s-y-x-t
    assert bf_st_paths(k4(), 0, 1, 3) == 2
    path = DynamicGraph(5, [(0, 2), (2, 3), (3, 4), (4, 1)])  # s-a-b-c-t
    assert bf_st_paths(path, 0, 1, 4) == 1
    assert bf_st_paths(DynamicGraph(6), 0, 1, 2) == 0
    assert bf_st_paths(DynamicGraph(6), 0, 1, 3) == 0
    assert bf_st_paths(DynamicGraph(6), 0, 1, 4) == 0


def test_st_paths_degenerate_walk_not_counted():
    g = DynamicGraph(4, [(0, 2), (2, 3), (2, 1)])  # s-v, v-u, v-t
    assert bf_st_paths(g, 0, 1, 4) == 0


def test_s_cycles_frozen_values():
    assert bf_s_cycles(k4(), 0, 3) == 3
    assert bf_s_cycles(k4(), 0, 4) == 3
    tree = DynamicGraph(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
    assert bf_s_cycles(tree, 0, 3) == 0
    assert bf_s_cycles(tree, 0, 4) == 0
    square = DynamicGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert bf_s_cycles(square, 0, 4) == 1


def test_two_paths_examples():
    star = DynamicGraph(3, [(0, 1), (0, 2)])
    assert bf_two_paths(star, 0, 1) == 0
    path = DynamicGraph(3, [(0, 1), (1, 2)])
    assert bf_two_paths(path, 0, 2) == 1
    diamond = DynamicGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert bf_two_paths(diamond, 0, 3) == 2
    # excluding the (s, t) edge removes the middle node t
    tri = DynamicGraph(3, [(0, 1), (1, 2)])
    assert bf_two_paths(tri, 0, 2, t_excluded=1) == 0


def test_st2_matches_matrix_square():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(4, 13))
        g = random_graph(n, rng)
        A = np.zeros((n, n), dtype=np.int64)
        for u, v in g.edges():
            A[u, v] = A[v, u] = 1
        A2 = A @ A
        s, t = 0, 1
        for u in range(n):
            if u == s:
                continue
            walks = A2[s, u]
            # subtract the walk through t when the excluded (s,t) edge would be used
            correction = int(A[s, t] and A[t, u] and u != t)
            assert bf_two_paths(g, s, u, t_excluded=t) == walks - correction


def test_connected():
    assert bf_connected(DynamicGraph(1))
    assert bf_connected(DynamicGraph(4, [(0, 1), (1, 2), (2, 3)]))
    assert not bf_connected(DynamicGraph(2))
    assert not bf_connected(DynamicGraph(4, [(0, 1), (2, 3)]))


def test_gnhalf_disconnection_rare():
    # evaluated bound 2n/2^{n/2} at n=50 is ~1.4e-6; observe zero over 400 draws
    rng = np.random.default_rng(1)
    n = 50
    bound = 2 * n / 2 ** (n / 2)
    disconnected = sum(not bf_connected(random_graph(n, rng)) for _ in range(400))
    assert disconnected / 400 <= max(bound, 0.005)


def test_bipartite_matching_basics():
    left, right = [0, 1, 2], [3, 4, 5]
    complete = DynamicGraph(6, [pair(u, v) for u in left for v in right])
    assert bf_bipartite_matching(complete, left, right) == (3, True)
    assert bf_bipartite_matching(DynamicGraph(6), left, right) == (0, False)
    with pytest.raises(ValueError):
        bf_bipartite_matching(DynamicGraph(6, [(0, 1)]), left, right)


def test_bipartite_matching_augments_past_the_recursion_limit():
    """A chain L_0 R_0 ... whose greedy start matches each L_i (i < k) to
    R_{i+1} leaves L_k the augmenting path L_k R_k L_{k-1} ... L_0 R_0 of
    2k + 1 edges.  Right nodes are numbered downwards so that CPython's set
    order offers L_0 the node R_1 before R_0."""
    k = 2 * sys.getrecursionlimit()
    left = list(range(k + 1))
    right = [2 * k + 1 - i for i in range(k + 1)]  # right[i] is R_i
    edges = [(left[i], right[i]) for i in range(k + 1)]
    edges += [(left[i], right[i + 1]) for i in range(k)]
    g = DynamicGraph(2 * k + 2, edges)
    assert bf_bipartite_matching(g, left, right) == (k + 1, True)
    g.flip(left[0], right[0])  # R_0 loses its only edge
    assert bf_bipartite_matching(g, left, right) == (k, False)


def test_random_bipartite_perfect_matching_rare_failure():
    rng = np.random.default_rng(2)
    n_side = 40
    left = list(range(n_side))
    right = list(range(n_side, 2 * n_side))
    restriction = [pair(u, v) for u in left for v in right]
    misses = 0
    for _ in range(300):
        g = random_graph(2 * n_side, rng, restriction=restriction)
        misses += not bf_bipartite_matching(g, left, right)[1]
    bound = 4 * (n_side + 1) ** 2 / 2 ** ((n_side + 1) / 2)
    assert misses / 300 <= max(bound, 0.01)


def bf_min_vertex_cover_bipartite(g, left, right) -> int:
    """Exhaustive minimum vertex cover size; intended for <=8 per side."""
    nodes = [v for v in (*left, *right) if g.degree(v) > 0]
    edges = list(g.edges())
    for size in range(len(nodes) + 1):
        for cover in combinations(nodes, size):
            cset = set(cover)
            if all(u in cset or v in cset for u, v in edges):
                return size
    return len(nodes)


def test_koenig_duality_desk_scale():
    rng = np.random.default_rng(3)
    left, right = [0, 1, 2, 3], [4, 5, 6, 7]
    restriction = [pair(u, v) for u in left for v in right]
    for _ in range(200):
        g = random_graph(8, rng, restriction=restriction)
        size, _ = bf_bipartite_matching(g, left, right)
        assert size == bf_min_vertex_cover_bipartite(g, left, right)


def test_enumeration_cap():
    with pytest.raises(OracleCapError):
        bf_st_paths(DynamicGraph(65), 0, 1, 3)
