import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothdyn import graph
from smoothdyn.graph import (
    DynamicGraph,
    GraphError,
    all_pairs,
    index_pairs,
    pair,
    pair_count,
    random_graph,
    read_edge_list,
    uniform_pairs,
    write_edge_list,
)
from smoothdyn.counters import STPath3Counter
from smoothdyn.reduction import P3Layout
from smoothdyn.rng import trial_stream


def pair_index(n: int, e) -> int:
    """Row-major index of a canonical pair among the binom(n,2) pairs: the
    pairs (a, b) with a < u come first."""
    u, v = e
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def index_pair(n: int, idx: int):
    """The pair at row-major index ``idx``, exactly in integers: counted
    from the last pair, r lies in the row of k = (isqrt(8 r + 1) + 1) // 2
    pairs, which is row n - 1 - k.  The reference ``index_pairs`` must match."""
    r = pair_count(n) - 1 - idx
    k = (math.isqrt(8 * r + 1) + 1) // 2
    return (n - 1 - k, n - 1 - r + k * (k - 1) // 2)


def assert_rows_match_sets(g):
    """Every bit row holds exactly its node's adjacency set."""
    assert len(g.rows) == g.n
    for v in range(g.n):
        assert type(g.rows[v]) is int
        assert g.rows[v] == sum(1 << u for u in g.adj[v]), v


def test_pair_canonical():
    assert pair(3, 1) == (1, 3) == pair(1, 3)
    with pytest.raises(GraphError):
        pair(2, 2)
    with pytest.raises(GraphError):
        pair(-1, 2)


def test_empty_and_complete_graph():
    g = DynamicGraph(4)
    assert g.edge_count() == 0
    assert all(g.degree(v) == 0 for v in range(4))
    k4 = DynamicGraph(4, list(all_pairs(4)))
    assert k4.edge_count() == 6
    assert all(k4.degree(v) == 3 for v in range(4))


def test_path_degrees():
    g = DynamicGraph(3, [(0, 1), (1, 2)])
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]


def test_construction_errors():
    with pytest.raises(GraphError, match="nonnegative"):
        DynamicGraph(-1)
    with pytest.raises(GraphError, match="duplicate"):
        DynamicGraph(3, [(0, 1), (1, 0)])  # duplicate after canonicalization
    with pytest.raises(GraphError, match="out of range"):
        DynamicGraph(3, [(0, 5)])
    with pytest.raises(GraphError, match="out of range"):
        DynamicGraph(3, [(5, 0)])
    with pytest.raises(GraphError, match="self-loop"):
        DynamicGraph(3, [(1, 1)])
    with pytest.raises(GraphError, match="negative"):
        DynamicGraph(3, [(2, -1)])
    with pytest.raises(GraphError, match="negative"):
        DynamicGraph(3, [(-2, -1)])


_FLIP_ERRORS = {
    (0, -1): "negative node index in (0,-1)",
    (-1, 2): "negative node index in (-1,2)",
    (0, 3): "edge (0, 3) out of range for n=3",
    (3, 0): "edge (0, 3) out of range for n=3",
    (1, 1): "self-loop (1,1) is not a node pair",
}


@pytest.mark.parametrize("u, v", list(_FLIP_ERRORS))
def test_flip_off_the_node_set_raises_and_changes_nothing(u, v):
    """A negative index would be a negative shift of a bit row, which
    raises a bare ValueError; the flip raises GraphError (a ValueError)
    before touching either copy, and so does an index at or above n or
    a self-loop.  The message names the pair as given, or canonical when
    it is out of range."""
    g = DynamicGraph(3, [(0, 1), (1, 2)])
    rows = list(g.rows)
    with pytest.raises(GraphError) as raised:
        g.flip(u, v)
    assert str(raised.value) == _FLIP_ERRORS[u, v]
    assert g.rows == rows and g.edge_set() == {(0, 1), (1, 2)}
    # membership off [0, n) reads False instead of shifting by a negative count
    assert not g.has(u, v) and not g.has(v, u)


def test_flip_add_remove():
    g = DynamicGraph(4)
    assert g.flip(0, 1) is True
    assert g.flip(0, 1) is False
    # a reversed pair is the same edge
    assert g.flip(3, 2) is True
    assert g.edge_set() == {(2, 3)} and g.rows == [0, 0, 1 << 3, 1 << 2]
    assert g.flip(2, 3) is False
    assert g.edge_count() == 0
    k4 = DynamicGraph(4, list(all_pairs(4)))
    k4.flip(2, 3)
    assert k4.edge_count() == 5


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 34, 512, 513, 600]), st.data())
def test_flips_keep_rows_the_masks_of_their_sets(n, data):
    """Flips XOR the cached masks at every n: every row stays the mask of
    its set, a flip returns the membership it leaves, and the off-range
    and self-loop errors still raise."""
    assert graph._mask_table(n) == tuple(1 << v for v in range(n))
    g = DynamicGraph(n, [(0, n - 1)] if n > 2 else [])
    node = st.sampled_from([0, 1, n - 1]) | st.integers(0, n - 1)
    pool = data.draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), min_size=1, max_size=6))
    for u, v in data.draw(st.lists(st.sampled_from(pool), max_size=25)):
        assert g.flip(u, v) is g.has(u, v) is (u in g.adj[v])
        assert_rows_match_sets(g)
    rows = list(g.rows)
    for u, v, message in (
        (0, n, f"edge (0, {n}) out of range for n={n}"),
        (n, 0, f"edge (0, {n}) out of range for n={n}"),
        (-1, n - 1, f"negative node index in (-1,{n - 1})"),
        (n - 1, n - 1, f"self-loop ({n - 1},{n - 1}) is not a node pair"),
    ):
        with pytest.raises(GraphError) as raised:
            g.flip(u, v)
        assert str(raised.value) == message
    assert g.rows == rows


@given(st.integers(2, 12), st.data())
def test_flip_involution_and_degrees(n, data):
    edges = data.draw(
        st.lists(
            st.sampled_from(list(all_pairs(n))), unique=True, max_size=pair_count(n)
        )
    )
    g = DynamicGraph(n, edges)
    before = g.edge_set()

    def check_membership():
        present = g.edge_set()
        assert g.edge_count() == len(present)
        for u in range(n):
            for v in range(n):
                if u != v:
                    assert g.has(u, v) == g.has(v, u) == (pair(u, v) in present)
            # nodes outside [0, n), negative ones included, are never adjacent
            for w in (-1, n):
                assert not g.has(u, w) and not g.has(w, u)

    ops = data.draw(st.lists(st.sampled_from(list(all_pairs(n))), max_size=40))
    for e in ops + ops[::-1]:
        g.flip(*e)
        check_membership()
        assert_rows_match_sets(g)
        twin = g.copy()
        assert_rows_match_sets(twin)
        twin.flip(*e)  # a copy's rows are its own
        assert_rows_match_sets(g)
        assert twin.rows[e[0]] != g.rows[e[0]]
    assert g.edge_set() == before
    # maintained degrees match a from-scratch recomputation
    for v in range(n):
        assert g.degree(v) == sum(1 for a, b in g.edges() if v in (a, b))


@pytest.mark.parametrize("n", range(2, 65))
def test_index_pair_bijection(n):
    u, v = index_pairs(n, np.arange(pair_count(n)))
    decoded = list(zip(u.tolist(), v.tolist()))
    assert decoded == list(all_pairs(n)) == [index_pair(n, i) for i in range(pair_count(n))]
    assert [pair_index(n, e) for e in decoded] == list(range(pair_count(n)))
    for bad in (pair_count(n), -1):
        with pytest.raises(GraphError):
            index_pairs(n, np.array([0, bad]))
    with pytest.raises(GraphError):  # 8 r + 1 would overflow int64
        index_pairs(2**30 + 1, np.array([0]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(2, 2**16), st.integers(2**28, 2**30)), st.data())
def test_index_pairs_match_index_pair_near_row_boundaries(n, data):
    """Counted from the end, row k starts after k(k-1)/2 indices; there the
    float square root is closest to an integer and the fix-up must settle
    it.  Checks k(k-1)/2 - 1, k(k-1)/2 and k(k-1)/2 + 1 from the end, for
    drawn k and for the largest rows.  From about n = 2**28 the root
    overshoots one below a row's start, which only the fix-up corrects;
    above n = 2**30, 8 r + 1 would overflow int64."""
    count = pair_count(n)
    ks = data.draw(st.lists(st.integers(max(1, n - 5000), n - 1), max_size=20))
    ks += data.draw(st.lists(st.integers(1, n - 1), max_size=20)) + [n - 1, n - 2, 1]
    near = {count - 1 - (k * (k - 1) // 2 + d) for k in ks for d in (-1, 0, 1)}
    idx = sorted(i for i in near if 0 <= i < count)
    u, v = index_pairs(n, np.array(idx, dtype=np.int64))
    assert list(zip(u.tolist(), v.tolist())) == [index_pair(n, i) for i in idx]


@pytest.mark.parametrize("n", [2, 30, 512, 513, 600])
def test_uniform_pairs_map_row_major_indices(n):
    """Up to 2**17 pairs (n = 512) the draws are looked up in a table of
    index_pairs, above it mapped block by block; both are index_pairs of
    the same one ``integers(m, size=k)`` draw."""
    rng, twin = np.random.default_rng(n), np.random.default_rng(n)
    for k in (1, 16, 2048):
        u, v = uniform_pairs(n, rng, k)
        eu, ev = index_pairs(n, twin.integers(pair_count(n), size=k))
        assert u.tolist() == eu.tolist() and v.tolist() == ev.tolist()
    assert rng.bit_generator.state == twin.bit_generator.state


def test_uniform_pairs_index_a_restriction_in_its_order():
    allowed = np.array([(3, 4), (0, 2), (1, 4)])
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    u, v = uniform_pairs(5, rng, 50, allowed)
    picks = twin.integers(3, size=50)
    assert list(zip(u.tolist(), v.tolist())) == [tuple(allowed[i]) for i in picks]


def test_validated_constructor_rows_match_sets_sparse():
    """The constructor packs rows into n x ceil(n/8) bytes; at n = 5000 a
    sparse graph's rows still equal its sets, high bits and node 0 included."""
    n = 5000
    rng = np.random.default_rng(4)
    ends = rng.integers(n, size=(6000, 2))
    edges = {pair(int(a), int(b)) for a, b in ends if a != b} | {(0, n - 1), (7, 8)}
    g = DynamicGraph(n, edges)
    assert g.edge_set() == edges
    assert_rows_match_sets(g)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 2**21), st.data())
def test_index_pair_roundtrip_large_n(n, data):
    """Round trip at a row start or next to it, where the float estimate
    of the row lies closest to an integer and the integer fix-up must
    settle it, and at an arbitrary index."""
    u = data.draw(st.integers(0, n - 2))
    near_start = pair_index(n, (u, u + 1)) + data.draw(st.integers(-1, 1))
    anywhere = data.draw(st.integers(0, pair_count(n) - 1))
    for i in (near_start, anywhere):
        if 0 <= i < pair_count(n):
            (a,), (b,) = index_pairs(n, np.array([i]))
            assert 0 <= a < b < n
            assert pair_index(n, (int(a), int(b))) == i


def _decode_one_by_one(n, twin):
    """The per-pair decoding ``random_graph`` used before it went through
    ``np.triu_indices``; kept as the reference it must match."""
    return {index_pair(n, i) for i in np.flatnonzero(twin.random(pair_count(n)) < 0.5)}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 30, 100])
def test_random_graph_matches_per_pair_decoding(n):
    for seed in (0, 1, 7, 104):
        stream, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        g = random_graph(n, stream)
        expected = _decode_one_by_one(n, twin)
        assert g.edge_set() == expected
        assert all(type(u) is int and type(v) is int for u, v in g.edges())
        adj = [set() for _ in range(n)]
        for u, v in expected:
            adj[u].add(v)
            adj[v].add(u)
        assert [set(g.adj[v]) for v in range(n)] == adj
        assert_rows_match_sets(g)
        assert stream.bit_generator.state == twin.bit_generator.state


def test_random_graph_pinned_digest():
    # sha256 of the sorted edge list of random_graph(100) at this stream,
    # computed with the per-pair decoding: a seed keeps its meaning.
    edges = sorted(random_graph(100, trial_stream(104, 0)).edges())
    text = repr([(int(u), int(v)) for u, v in edges])
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "cf9a7e4422798eeeaf15af5011495ab194ead5a48dac8f6ff87f7ddb4cd2d4f3"
    )


def test_uniform_pair_marginals():
    rng = np.random.default_rng(0)
    n = 5
    counts = {e: 0 for e in all_pairs(n)}
    draws = 20000
    for k in (1, 3, 996, 19000):  # 20000 in all, in blocks of any size
        for e in zip(*(a.tolist() for a in uniform_pairs(n, rng, k))):
            counts[e] += 1
    expected = draws / pair_count(n)
    for e, c in counts.items():
        assert abs(c - expected) < 5 * np.sqrt(expected), e


def test_random_graph_marginals():
    rng = np.random.default_rng(1)
    total_edges = sum(random_graph(4, rng).edge_count() for _ in range(2000))
    assert abs(total_edges / 2000 - 3.0) < 0.15


def test_random_graph_restriction():
    rng = np.random.default_rng(2)
    assert random_graph(6, rng, restriction=[]).edge_count() == 0
    hits = 0
    for _ in range(2000):
        g = random_graph(6, rng, restriction=[(0, 1)])
        assert g.edge_set() <= {(0, 1)}
        hits += g.edge_count()
    assert abs(hits / 2000 - 0.5) < 0.04
    for seed in range(50):
        g = random_graph(8, np.random.default_rng(seed), restriction=[(0, 1), (2, 3)])
        assert g.edge_set() <= {(0, 1), (2, 3)}
        assert_rows_match_sets(g)


def test_edge_list_roundtrip():
    g = DynamicGraph(5, [(0, 1), (2, 4), (1, 3)])
    buf = io.StringIO()
    write_edge_list(g, buf)
    text = buf.getvalue()
    assert text.startswith("5 3\n") and text.endswith("\n")
    back = read_edge_list(io.StringIO(text))
    assert back.n == g.n and back.edge_set() == g.edge_set()
    assert_rows_match_sets(back)


def test_p3_layout_graph_rows_match_sets():
    lay = P3Layout(4)
    rng = np.random.default_rng(3)
    M = rng.integers(0, 2, (4, 4))
    g = lay.graph_of(M, rng.integers(0, 2, 4), rng.integers(0, 2, 4))
    assert g.edge_count() > 0
    assert_rows_match_sets(g)


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "5\n",  # short header
        "n m\n",  # non-integer header
        "-5 0\n",  # negative n
        "5 -3\n",  # negative m
        "3 2\n0 1\n",  # fewer edge lines than declared
        "3 1\n0 x\n",  # non-integer token
        "3 1\n0 1 2\n",  # three tokens
        "3 1\n0 5\n",  # out of range
        "3 1\n0 -1\n",  # negative node
        "3 1\n1 1\n",  # self-loop
        "3 2\n0 1\n1 0\n",  # duplicate
        "5 1\n0 1\n2 3\n",  # an edge line past the declared m
    ],
)
def test_read_edge_list_rejects_malformed(text):
    with pytest.raises(GraphError):
        read_edge_list(io.StringIO(text))


def test_read_edge_list_allows_trailing_blank_lines():
    g = read_edge_list(io.StringIO("3 1\n0 1\n\n  \n"))
    assert g.n == 3 and g.edge_set() == {(0, 1)}


def test_sets_and_rows_live_as_long_as_the_graph():
    """Flips change the ``adj`` list, its adjacency sets and the ``rows``
    list in place and never replace them, so a counter may bind them
    once; a copy has its own, and a counter built on the copy does not
    move when the original flips."""
    n = 14
    g = random_graph(n, trial_stream(3, 0))
    adj, sets, rows = g.adj, list(g.adj), g.rows
    copy = g.copy()
    counter = STPath3Counter(copy, 0, 1)
    count, ops = counter.query(), counter.ops
    u, v = uniform_pairs(n, trial_stream(3, 1), 300)
    for e in zip(u.tolist(), v.tolist()):
        g.flip(*e)
        assert g.rows is rows and g.adj is adj
        assert all(g.adj[x] is sets[x] for x in range(n))
    assert g.edge_set() != copy.edge_set()
    assert copy.rows is not rows and copy.adj is not adj
    assert not any(copy.adj[x] is sets[x] for x in range(n))
    assert (counter.query(), counter.ops) == (count, ops)
    assert STPath3Counter(copy, 0, 1).query() == count
