import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothdyn import counters
from smoothdyn.counters import (
    SFourCycleCounter,
    STPath3Counter,
    STPath4Counter,
    STriangleCounter,
    TrivialDecider,
    TwoPathTable,
    _unpack,
)
from smoothdyn.graph import DynamicGraph, all_pairs, pair, random_graph
from smoothdyn.oracles import (
    bf_s_cycles,
    bf_st_paths,
    bf_two_paths,
)


def k4():
    return DynamicGraph(4, list(all_pairs(4)))


# -- frozen examples -----------------------------------------------------


def test_two_path_table_examples():
    star = DynamicGraph(3, [(0, 1), (0, 2)])
    assert TwoPathTable(star, 0).query(1) == 0
    path = DynamicGraph(3, [(0, 1), (1, 2)])
    assert TwoPathTable(path, 0).query(2) == 1
    diamond = DynamicGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert TwoPathTable(diamond, 0).query(3) == 2
    assert TwoPathTable(diamond, 0).query(0) == 0  # c[s] = 0 always


def test_st3_frozen():
    assert STPath3Counter(DynamicGraph(5), 0, 1).query() == 0
    assert STPath3Counter(k4(), 0, 1).query() == 2
    # complete P3-partite with |A| = |B| = 2: s=0, A={1,2}, B={3,4}, t=5
    edges = [(0, 1), (0, 2)] + [pair(a, b) for a in (1, 2) for b in (3, 4)] + [(3, 5), (4, 5)]
    assert STPath3Counter(DynamicGraph(6, edges), 0, 5).query() == 4
    with pytest.raises(ValueError, match="differ"):
        STPath3Counter(DynamicGraph(5), 2, 2)


def test_st4_frozen():
    path = DynamicGraph(5, [(0, 2), (2, 3), (3, 4), (4, 1)])
    assert STPath4Counter(path, 0, 1).query() == 1
    degenerate = DynamicGraph(4, [(0, 2), (2, 3), (2, 1)])
    assert STPath4Counter(degenerate, 0, 1).query() == 0
    assert STPath4Counter(DynamicGraph(4), 0, 1).query() == 0
    with pytest.raises(ValueError, match="differ"):
        STPath4Counter(DynamicGraph(4), 3, 3)


def test_striangle_frozen():
    tri = DynamicGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert STriangleCounter(tri, 0).query() == 1
    assert STriangleCounter(k4(), 0).query() == 3
    star = DynamicGraph(5, [(0, v) for v in range(1, 5)])
    assert STriangleCounter(star, 0).query() == 0


def test_s4cycle_frozen():
    square = DynamicGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert SFourCycleCounter(square, 0).query() == 1
    assert SFourCycleCounter(k4(), 0).query() == 3
    assert SFourCycleCounter(DynamicGraph(4), 0).query() == 0


def test_st_edge_is_ignored():
    g = k4()
    c3 = STPath3Counter(g, 0, 1)
    c4 = STPath4Counter(g, 0, 1)
    before3, before4 = c3.query(), c4.query()
    for _ in range(2):
        present = not g.has(0, 1)
        c3.update((0, 1), present)
        c4.update((0, 1), present)
        g.flip(0, 1)
        assert c3.query() == bf_st_paths(g, 0, 1, 3) == before3
        assert c4.query() == bf_st_paths(g, 0, 1, 4) == before4


def test_null_updates_are_noops():
    g = k4()
    for counter in (
        TwoPathTable(g, 0, 1),
        STPath3Counter(g, 0, 1),
        STPath4Counter(g, 0, 1),
        STriangleCounter(g, 0),
        SFourCycleCounter(g, 0),
    ):
        state = getattr(counter, "c", None)
        counter.update(None, False)
        assert getattr(counter, "c", None) == state


# -- differential property tests ----------------------------------------


@given(st.integers(0, 2**32 - 1), st.integers(5, 10))
@settings(max_examples=40, deadline=None)
def test_counters_track_oracles_under_random_flips(seed, n):
    rng = np.random.default_rng(seed)
    g = random_graph(n, rng)
    s, t = 0, 1
    counters = {
        "st3": (STPath3Counter(g, s, t), lambda: bf_st_paths(g, s, t, 3)),
        "st4": (STPath4Counter(g, s, t), lambda: bf_st_paths(g, s, t, 4)),
        "tri": (STriangleCounter(g, s), lambda: bf_s_cycles(g, s, 3)),
        "cyc": (SFourCycleCounter(g, s), lambda: bf_s_cycles(g, s, 4)),
    }
    two = TwoPathTable(g, s, t)
    pairs = list(all_pairs(n))
    for step in range(120):
        e = pairs[int(rng.integers(len(pairs)))]
        present = not g.has(*e)
        for counter, _ in counters.values():
            counter.update(e, present)
        two.update(e, present)
        g.flip(*e)
        for name, (counter, oracle) in counters.items():
            assert counter.query() == oracle(), (name, step)
        for u in range(n):
            assert two.query(u) == bf_two_paths(g, s, u, t)


def nodes_of(mask):
    """The set bits of a moved-node mask, as a set of nodes."""
    return {u for u in range(mask.bit_length()) if mask >> u & 1}


class ScanTwoPathTable(TwoPathTable):
    """Reference: the (s,v) update as a full scan, one membership test
    and one op per node plus one per write, exactly the modelled cost,
    and ``row_total`` as a walk over the adjacency set."""

    def row_total(self, x, skip):
        return sum(self.c[u] for u in self.g.adj[x] if u not in skip)

    def update(self, e, now_present):
        if e is None:
            return 0
        a, b = e
        s, t, g = self.s, self.t_excluded, self.g
        if a != s and b != s:
            return super().update(e, now_present)
        v = b if a == s else a
        if v == t:
            return 0
        delta = 1 if now_present else -1
        moved = 0
        for u in range(g.n):
            self.ops += 1
            if u != s and u != v and g.has(v, u):
                self.c[u] += delta
                self.ops += 1
                moved |= 1 << u
        return moved


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_two_path_table_matches_the_full_scan(data):
    # n reaches rows far longer than the ones TwoPathTable walks node by node
    n = data.draw(st.integers(5, 160), label="n")
    s, t = 0, 1
    excluded = data.draw(st.sampled_from([None, t]), label="t_excluded")
    g = random_graph(n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    fast, scan = TwoPathTable(g, s, excluded), ScanTwoPathTable(g, s, excluded)
    mids = g.adj[s] - {excluded}
    assert list(fast.c) == [0 if u == s else len(g.adj[u] & mids) for u in range(n)]
    for _ in range(data.draw(st.integers(1, 60), label="steps")):
        kind = data.draw(st.sampled_from(["any", "s", "st", "s-near-t"]))
        near_t = sorted(g.adj[t] - {s})
        if kind == "st":
            e = (s, t)
        elif kind == "s-near-t" and near_t:
            e = pair(s, data.draw(st.sampled_from(near_t)))
        elif kind == "any":
            nodes = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
            e = pair(*data.draw(nodes))
        else:
            e = pair(s, data.draw(st.integers(1, n - 1)))
        present = not g.has(*e)
        moved_fast = fast.update(e, present)
        moved_scan = scan.update(e, present)
        g.flip(*e)
        assert type(moved_fast) is int and moved_fast == moved_scan, e
        assert fast.c == scan.c, e
        assert fast.ops == scan.ops, e
        for x in (s, t, e[1]):
            for skip in ((s,), (s, t), ()):
                assert fast.row_total(x, skip) == scan.row_total(x, skip), (e, x, skip)


class TableSTPath3Counter:
    """Reference: st3 as a fold of a t-excluded TwoPathTable's moved set."""

    def __init__(self, g, s, t):
        self.g, self.s, self.t = g, s, t
        self.two = TwoPathTable(g, s, t)
        self._ops = 0
        self.c = sum(self.two.c[u] for u in g.adj[t] if u != s)

    @property
    def ops(self):
        return self._ops + self.two.ops

    def update(self, e, now_present):
        if e is None:
            return
        s, t = self.s, self.t
        a, b = e
        if {a, b} == {s, t}:
            return
        delta = 1 if now_present else -1
        if a == t or b == t:
            self.c += delta * self.two.c[b if a == t else a]
            self._ops += 1
            self.two.update(e, now_present)
        else:
            moved = nodes_of(self.two.update(e, now_present))
            self.c += delta * len(self.g.adj[t] & moved)
            self._ops += len(moved)

    def query(self):
        return self.c


class TableSTriangleCounter:
    """Reference: twice the s-triangle count as a fold of a TwoPathTable."""

    def __init__(self, g, s):
        self.g, self.s = g, s
        self.two = TwoPathTable(g, s)
        self._ops = 0
        self.c2 = sum(self.two.c[u] for u in g.adj[s])

    @property
    def ops(self):
        return self._ops + self.two.ops

    def update(self, e, now_present):
        if e is None:
            return
        s = self.s
        a, b = e
        delta = 1 if now_present else -1
        if a == s or b == s:
            self.c2 += delta * self.two.c[b if a == s else a]
            self._ops += 1
        moved = nodes_of(self.two.update(e, now_present))
        self.c2 += delta * len(self.g.adj[s] & moved)
        self._ops += len(moved)

    def query(self):
        assert self.c2 % 2 == 0
        return self.c2 // 2


def _draw_step(data, g, s, t):
    """One s-, t-, (s,t)-, interior or null step on g, with s, t = 0, 1."""
    n = g.n
    kind = data.draw(st.sampled_from(["s", "t", "st", "s-near-t", "interior", "null"]))
    near_t = sorted(g.adj[t] - {s})
    if kind == "st":
        return (s, t)
    if kind == "s-near-t" and near_t:
        return pair(s, data.draw(st.sampled_from(near_t)))
    if kind in ("s", "s-near-t"):
        return pair(s, data.draw(st.integers(2, n - 1)))
    if kind == "t":
        return pair(t, data.draw(st.integers(2, n - 1)))
    if kind == "interior":
        nodes = st.lists(st.integers(2, n - 1), min_size=2, max_size=2, unique=True)
        return pair(*data.draw(nodes))
    return None


def _drive_pairs(data, make_pairs):
    """Draw a graph of up to 160 nodes, far above the rows TwoPathTable
    walks node by node, and a stream of s-, t-, (s,t)-, interior and null
    steps; each (fast, reference) pair agrees on (ops, query) throughout."""
    n = data.draw(st.integers(5, 160), label="n")
    s, t = 0, 1
    g = random_graph(n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    pairs = make_pairs(g, s, t)
    for fast, table in pairs:
        assert (fast.ops, fast.query()) == (table.ops, table.query())
    for _ in range(data.draw(st.integers(1, 60), label="steps")):
        e = _draw_step(data, g, s, t)
        present = e is not None and not g.has(*e)
        for fast, table in pairs:
            fast.update(e, present)
            table.update(e, present)
        if e is not None:
            g.flip(*e)
        for fast, table in pairs:
            assert (fast.ops, fast.query()) == (table.ops, table.query()), e


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_intersection_counters_match_the_table_fold(data):
    _drive_pairs(data, lambda g, s, t: [
        (STPath3Counter(g, s, t), TableSTPath3Counter(g, s, t)),
        (STriangleCounter(g, s), TableSTriangleCounter(g, s)),
    ])


def _st3_charge(g, s, t, e):
    """The ops one st3 update charges on the pre-flip g, branch by branch."""
    if e is None or {s, t} == set(e):
        return 0
    a, b = e
    ns = g.adj[s]
    if s in e:
        v = a + b - s
        return g.n + 2 * (g.degree(v) - (v in ns))
    if t in e:
        return 3 + (a + b - t in ns)
    return 2 + 2 * ((a in ns) + (b in ns))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_st3_matches_brute_force_and_its_ops_formula(data):
    """After every s-, t-, (s,t)-, interior or null step, st3's count is
    the brute-force count, its ops total grows by the formula's charge,
    and st4's 2-path tables, moved inline on interior steps, equal tables
    built afresh."""
    n = data.draw(st.integers(5, 40), label="n")
    s, t = 0, 1
    g = random_graph(n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    st3, st4 = STPath3Counter(g, s, t), STPath4Counter(g, s, t)
    ops = st3.ops
    for _ in range(data.draw(st.integers(1, 60), label="steps")):
        e = _draw_step(data, g, s, t)
        present = e is not None and not g.has(*e)
        ops += _st3_charge(g, s, t, e)
        st3.update(e, present)
        st4.update(e, present)
        if e is not None:
            g.flip(*e)
        assert (st3.query(), st3.ops) == (bf_st_paths(g, s, t, 3), ops), e
        assert list(st4.sside.c) == list(TwoPathTable(g, s, t).c), e
        assert list(st4.tside.c) == list(TwoPathTable(g, t, s).c), e


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_table_counters_match_the_walked_tables(data):
    """st4 and s-4-cycle on ScanTwoPathTables, which move and fold the
    table one node at a time, agree with the vectorised tables."""

    def make_pairs(g, s, t):
        walked4 = STPath4Counter(g, s, t)
        walked4.sside, walked4.tside = ScanTwoPathTable(g, s, t), ScanTwoPathTable(g, t, s)
        walked_cycles = SFourCycleCounter(g, s)
        walked_cycles.two = ScanTwoPathTable(g, s)
        return [(STPath4Counter(g, s, t), walked4), (SFourCycleCounter(g, s), walked_cycles)]

    _drive_pairs(data, make_pairs)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_table_build_matches_the_adjacency_sets(data):
    """A fresh table's counts and ops, from the adjacency sets alone: c[u]
    counts the middles v in N(s) - {t_excluded} adjacent to u, and the
    build charges |N(v) - {s}| for each middle v."""
    n = data.draw(st.integers(5, 160), label="n")
    s, t = 0, 1
    g = random_graph(n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    hub = data.draw(st.sampled_from(["random", "isolated", "adjacent to all"]), label="hub")
    if hub != "random":
        for v in range(1, n):
            if g.has(s, v) != (hub == "adjacent to all"):
                g.flip(s, v)
    excluded = data.draw(st.sampled_from([None, t]), label="t_excluded")
    table = TwoPathTable(g, s, excluded)
    mids = [v for v in range(n) if v != excluded and s in g.adj[v]]
    expected = [0 if u == s else sum(u in g.adj[v] for v in mids) for u in range(n)]
    assert list(table.c) == expected
    assert all(type(k) is int for k in table.c)
    assert table.ops == sum(len(g.adj[v] - {s}) for v in mids)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_each_flip_unpacks_its_row_once_for_every_table(data):
    """st4, s-4-cycle and a t-excluded TwoPathTable on one n = 160 graph,
    whose rows are long enough for the vector path, share the unpack of
    the flipped row: at most one ``_unpack`` miss per flip, and every
    array it returns is a read-only int64 row of length n."""
    n, s, t = 160, 0, 1
    g = random_graph(n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    observers = [STPath4Counter(g, s, t), SFourCycleCounter(g, s), TwoPathTable(g, s, t)]
    returned = []

    def recording_unpack(mask, size):
        returned.append(_unpack(mask, size))
        return returned[-1]

    _unpack.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counters, "_unpack", recording_unpack)
        for _ in range(data.draw(st.integers(1, 40), label="steps")):
            e = _draw_step(data, g, s, t)
            misses = _unpack.cache_info().misses
            present = e is not None and not g.has(*e)
            for observer in observers:
                observer.update(e, present)
            assert _unpack.cache_info().misses - misses <= 1, e
            if e is not None:
                g.flip(*e)
    # the oracles stop at n = 64; a fresh build reads the graph afresh
    assert observers[0].query() == STPath4Counter(g, s, t).query()
    assert observers[1].query() == SFourCycleCounter(g, s).query()
    assert observers[2].c == TwoPathTable(g, s, t).c
    for bits in returned:
        assert bits.dtype == np.int64 and bits.shape == (n,)
        with pytest.raises(ValueError):
            bits += 1


def test_unpack_keys_on_the_node_count():
    """Two graphs of different n whose row 0 is the same int: each flip of
    (0, 56) moves its table by a row of its own graph's length."""
    graphs = [DynamicGraph(n, [(0, v) for v in range(1, 56)]) for n in (60, 100)]
    assert graphs[0].rows[0] == graphs[1].rows[0]
    cycles = [SFourCycleCounter(g, 56) for g in graphs]
    _unpack.cache_clear()
    for g, counter in zip(graphs, cycles):
        counter.update((0, 56), True)
        g.flip(0, 56)
        assert list(counter.two.c) == [0] + [1] * 55 + [0] * (g.n - 56)
    assert _unpack.cache_info().misses == 2
    assert [_unpack(graphs[0].rows[0] & ~(1 << 56), g.n).shape for g in graphs] == [(60,), (100,)]


def test_update_cost_profile():
    # an update at s costs Theta(n) membership checks; elsewhere O(1)
    n = 500
    g = DynamicGraph(n, [(2, 3), (3, 4)])
    table = TwoPathTable(g, 0)
    base = table.ops
    table.update((2, 4), True)
    cheap = table.ops - base
    base = table.ops
    moved = table.update((0, 3), True)
    expensive = table.ops - base
    assert cheap <= 4
    assert expensive >= n - 2
    # the modelled scan charges n ops up front, plus one per table write
    assert moved == 1 << 2 | 1 << 4
    assert expensive == n + moved.bit_count()


def test_worst_case_s_flips_stay_linear():
    # p=1 adversarial script hammering s-incident edges: O(n) per update
    n = 200
    rng = np.random.default_rng(0)
    g = random_graph(n, rng)
    counter = STPath3Counter(g, 0, 1)
    for step in range(300):
        v = 2 + step % (n - 2)
        e = pair(0, v)
        before = counter.ops
        present = not g.has(*e)
        counter.update(e, present)
        g.flip(*e)
        assert counter.ops - before <= 3 * n


# -- deciders ------------------------------------------------------------


def test_trivial_decider_answers():
    decider = TrivialDecider()
    assert decider.query() is True
    decider.update((0, 1), True)
    assert decider.query() is True
