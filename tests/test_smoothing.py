import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from smoothdyn.graph import DynamicGraph, GraphError, all_pairs, pair, random_graph
from smoothdyn.harness import MODELS, make_model_source
from smoothdyn.rng import adversary_stream, smoothing_stream, stream
from smoothdyn.smoothing import (
    ChangeEvent,
    ContractViolation,
    FlipSimulatingARAdversary,
    Kind,
    Model,
    Provenance,
    ScriptedFlipAdversary,
    SmoothedSource,
    SmoothingParams,
    StarFlipAdversary,
    UniformFlipAdversary,
    apply_event,
    p_prime,
    run_sequence,
    smooth_initial,
    write_event_log,
)


def test_params_validation():
    with pytest.raises(ValueError):
        SmoothingParams(1.5)
    with pytest.raises(ValueError):
        SmoothingParams(0.5, restriction=())
    SmoothingParams(0.0)
    SmoothingParams(1.0, restriction=((0, 1),))
    # the restriction is stored once, as a tuple of canonical pairs
    assert SmoothingParams(0.5, restriction=((1, 0), (2, 0))).restriction == ((0, 1), (0, 2))
    with pytest.raises(ValueError):
        SmoothingParams(0.5, restriction=((1, 1),))


def test_smooth_initial_p1_identity():
    rng = np.random.default_rng(0)
    h0 = random_graph(10, rng)
    out = smooth_initial(h0, SmoothingParams(1.0), rng)
    assert out.edge_set() == h0.edge_set()


def test_smooth_initial_marginals():
    rng = np.random.default_rng(1)
    h0 = DynamicGraph(4, [(0, 1)])
    present_in = present_out = 0
    for _ in range(10000):
        g = smooth_initial(h0, SmoothingParams(0.5), rng)
        present_in += g.has(0, 1)
        present_out += g.has(2, 3)
    assert abs(present_in / 10000 - 0.75) < 0.02  # p + (1-p)/2
    assert abs(present_out / 10000 - 0.25) < 0.02  # (1-p)/2


def test_smooth_initial_p0_marginal_half():
    rng = np.random.default_rng(2)
    h0 = DynamicGraph(4, [(0, 1)])
    hits = sum(
        smooth_initial(h0, SmoothingParams(0.0), rng).has(0, 1) for _ in range(10000)
    )
    assert abs(hits / 10000 - 0.5) < 0.02


def _smooth_initial_by_zip(h0, params, rng):
    """The stream contract in ``smooth_initial``'s docstring, written out
    as the reference any faster selection must match."""
    if params.restriction is not None:
        allowed = [pair(u, v) for u, v in params.restriction]
    else:
        allowed = list(all_pairs(h0.n))
    keep = rng.random(len(allowed)) < params.p
    resample = rng.random(len(allowed)) < 0.5
    return {e for e, k, r in zip(allowed, keep, resample) if (h0.has_pair(e) if k else r)}


@pytest.mark.parametrize(
    "n, restricted",
    [(n, False) for n in (0, 1, 2, 3, 30, 100)] + [(n, True) for n in (2, 3, 30, 100)],
)
def test_smooth_initial_matches_zip_reference(n, restricted):
    pairs = list(all_pairs(n))
    for seed in (0, 5, 104):
        restriction = None
        if restricted:
            picks = stream(seed, 1).permutation(len(pairs))[: max(1, len(pairs) // 3)]
            restriction = tuple(pairs[i][::-1] for i in picks)  # unsorted, reversed
        h0 = random_graph(n, stream(seed, 2), restriction=restriction)
        for p in (0.0, 0.3, 1.0):
            params = SmoothingParams(p, restriction=restriction)
            rng, twin = stream(seed, 3), stream(seed, 3)
            g = smooth_initial(h0, params, rng)
            expected = _smooth_initial_by_zip(h0, params, twin)
            assert g.edge_set() == expected
            adj = [set() for _ in range(n)]
            for u, v in expected:
                adj[u].add(v)
                adj[v].add(u)
            assert [set(g.neighbors(v)) for v in range(n)] == adj
            assert rng.bit_generator.state == twin.bit_generator.state


def test_next_change_p1_scripted():
    adv = ScriptedFlipAdversary([(0, 1)])
    source = SmoothedSource(
        Model.OBLIVIOUS_FLIP, SmoothingParams(1.0), adv, 4, rng=smoothing_stream(3)
    )
    for _ in range(20):
        ev = source.next_change()
        assert ev == ChangeEvent((0, 1), Kind.FLIP, Provenance.ADVERSARIAL)


def test_scripted_adversary_needs_a_proposal():
    with pytest.raises(ValueError):
        ScriptedFlipAdversary([])
    with pytest.raises(ValueError):
        StarFlipAdversary(1)  # a lone hub has no incident pair


def test_next_change_p0_uniform_chi2():
    restriction = tuple(all_pairs(5))[:6]
    params = SmoothingParams(0.0, restriction=restriction)
    adv = ScriptedFlipAdversary([restriction[0]])
    source = SmoothedSource(
        Model.OBLIVIOUS_FLIP, params, adv, 5, rng=np.random.default_rng(4)
    )
    counts = {e: 0 for e in restriction}
    draws = 12000
    for _ in range(draws):
        counts[source.next_change().edge] += 1
    _, pvalue = stats.chisquare(list(counts.values()))
    assert pvalue > 1e-3


def test_adversarial_fraction():
    adv = UniformFlipAdversary(8, np.random.default_rng(5))
    source = SmoothedSource(
        Model.OBLIVIOUS_FLIP, SmoothingParams(0.5), adv, 8, rng=np.random.default_rng(6)
    )
    hits = sum(
        source.next_change().provenance is Provenance.ADVERSARIAL for _ in range(10000)
    )
    assert abs(hits / 10000 - 0.5) < 0.02


def test_restriction_contract_violation():
    params = SmoothingParams(1.0, restriction=((0, 1),))
    adv = ScriptedFlipAdversary([(2, 3)])
    source = SmoothedSource(Model.OBLIVIOUS_FLIP, params, adv, 4, rng=smoothing_stream(0))
    with pytest.raises(ContractViolation):
        source.next_change()


def test_restriction_pairs_out_of_range_rejected():
    params = SmoothingParams(0.0, restriction=((0, 99), (0, 1)))
    adv = UniformFlipAdversary(10, adversary_stream(0), params.restriction)
    with pytest.raises(ValueError, match=r"restriction pair \(0, 99\) out of range for n=10"):
        SmoothedSource(Model.OBLIVIOUS_FLIP, params, adv, 10, rng=smoothing_stream(0))


def test_realized_edges_respect_restriction():
    restriction = tuple(all_pairs(6))[:5]
    for seed in range(30):
        params = SmoothingParams(0.4, restriction=restriction)
        adv = UniformFlipAdversary(6, adversary_stream(seed), restriction)
        source = SmoothedSource(
            Model.OBLIVIOUS_FLIP, params, adv, 6, rng=smoothing_stream(seed)
        )
        for _ in range(200):
            assert source.next_change().edge in restriction


def test_oblivious_replay_invariance():
    # same adversary seed, different smoothing seeds -> identical proposals
    def realized_adversarial(smoothing_seed):
        adv = UniformFlipAdversary(10, adversary_stream(42))
        source = SmoothedSource(
            Model.OBLIVIOUS_FLIP,
            SmoothingParams(0.5),
            adv,
            10,
            rng=smoothing_stream(smoothing_seed),
        )
        return [
            (ev.edge if ev.provenance is Provenance.ADVERSARIAL else None)
            for ev in (source.next_change() for _ in range(300))
        ]

    a = realized_adversarial(1)
    b = realized_adversarial(2)
    # wherever both runs kept the adversarial proposal, the edges agree
    agreements = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    assert agreements and all(x == y for x, y in agreements)


def test_run_sequence_basics():
    g = DynamicGraph(4, [(0, 1)])
    adv = ScriptedFlipAdversary([(0, 1)])
    source = SmoothedSource(
        Model.OBLIVIOUS_FLIP, SmoothingParams(1.0), adv, 4, rng=smoothing_stream(0)
    )
    assert run_sequence(g, source, 0) == []
    log = run_sequence(g, source, 2)
    assert len(log) == 2
    assert g.edge_set() == {(0, 1)}  # flip twice restores


def test_run_sequence_mixing_density():
    rng = np.random.default_rng(7)
    densities = []
    for seed in range(20):
        g = DynamicGraph(10)
        adv = ScriptedFlipAdversary([(0, 1)])
        source = SmoothedSource(
            Model.OBLIVIOUS_FLIP,
            SmoothingParams(0.0),
            adv,
            10,
            rng=np.random.default_rng(seed),
        )
        run_sequence(g, source, 10000)
        densities.append(g.edge_count() / 45)
    assert abs(float(np.mean(densities)) - 0.5) < 0.05


BLOCKS = [16, 32, 64, 128, 256, 512, 1024] + [2048] * 4  # 10,000 steps and more


def _reference_changes(model, params, n, seed, trial, steps):
    """Stream v2 written with plain numpy array draws, block by block: the
    uniform adversary's k proposal indices (then its k Add/Remove coins),
    and the source's k smoothing coins, then its k replacement indices,
    each index into the restriction, else into all pairs in row-major
    order."""
    adv_rng, smooth_rng = adversary_stream(seed, trial), smoothing_stream(seed, trial)
    pairs = [pair(u, v) for u, v in params.restriction or all_pairs(n)]
    events = []
    for k in BLOCKS:
        props = [pairs[i] for i in adv_rng.integers(len(pairs), size=k)]
        kinds = [Kind.FLIP] * k
        if model == "oblivious-ar":
            kinds = [Kind.ADD if c < 0.5 else Kind.REMOVE for c in adv_rng.random(k)]
        coins = smooth_rng.random(k)
        replacements = [pairs[i] for i in smooth_rng.integers(len(pairs), size=k)]
        for prop, kind, coin, replacement in zip(props, kinds, coins, replacements):
            if coin < params.p:
                events.append(ChangeEvent(prop, kind, Provenance.ADVERSARIAL))
            else:
                events.append(ChangeEvent(replacement, Kind.FLIP, Provenance.RANDOM))
    return events[:steps]


@pytest.mark.parametrize("restricted", [False, True])
@pytest.mark.parametrize("model", MODELS)
def test_routed_draws_match_plain_numpy(model, restricted):
    n = 30
    restriction = tuple(pair(u, u + 1 + u % 7) for u in range(20)) if restricted else None
    params = SmoothingParams(0.3, restriction=restriction)
    source = make_model_source(model, params, n, 12, 3)
    g = DynamicGraph(n)  # read by the adaptive model only, and ignored there
    got = [source.next_change(g) for _ in range(10_000)]
    assert got == _reference_changes(model, params, n, 12, 3, 10_000)
    assert all(type(u) is int and type(v) is int for (u, v), _, _ in got)


@pytest.mark.parametrize("model", MODELS)
def test_split_runs_equal_one_run(model):
    """T steps driven by one ``run_sequence`` call equal the same T steps
    driven by many calls of uneven lengths, across the block boundaries
    16, 48, 112, ... of stream v2: blocks are drawn by step, not by call."""
    n, steps = 20, 5000

    def drive(chunks):
        g = random_graph(n, stream(3, 0))
        source = make_model_source(model, SmoothingParams(0.4), n, 3, 1)
        log = [ev for c in chunks for ev in run_sequence(g, source, c)]
        return log, g.edge_set()

    cuts = [1, 15, 1, 31, 2, 63, 7, 100, 333, 1, 1000, 2047]
    uneven = cuts + [steps - sum(cuts)]
    assert drive([steps]) == drive(uneven) == drive([1] * steps)


@pytest.mark.parametrize("bad, step", [((0, 9), 40), ((3, 3), 17), ((-1, 2), 16)])
def test_out_of_range_proposal_raises_at_its_step(bad, step):
    """A block is checked as a whole, but a bad proposal raises at the step
    that proposed it, after every earlier step was served."""
    script = [(0, 1)] * step + [bad]
    source = SmoothedSource(
        Model.OBLIVIOUS_FLIP, SmoothingParams(0.5), ScriptedFlipAdversary(script), 6,
        rng=smoothing_stream(1),
    )
    for _ in range(step):
        source.next_change()
    with pytest.raises((ContractViolation, GraphError)):
        source.next_change()


def test_proposal_outside_restriction_raises_at_its_step():
    restriction = ((0, 1), (1, 2), (2, 3))
    params = SmoothingParams(0.5, restriction=restriction)
    adv = ScriptedFlipAdversary([(1, 0)] * 20 + [(0, 3)])  # uncanonical pairs are fine
    source = SmoothedSource(Model.OBLIVIOUS_FLIP, params, adv, 4, rng=smoothing_stream(2))
    assert all(source.next_change().edge in restriction for _ in range(20))
    with pytest.raises(ContractViolation, match="outside the allowed set"):
        source.next_change()
    adaptive = SmoothedSource(
        Model.ADAPTIVE, params, UniformFlipAdversary(4, adversary_stream(2)), 4,
        rng=smoothing_stream(2),
    )
    with pytest.raises(ContractViolation, match="outside the allowed set"):
        for _ in range(100):
            adaptive.next_change(DynamicGraph(4))


def test_add_remove_kind_is_checked_at_its_step():
    adv = ScriptedFlipAdversary([(0, 1), (1, 2), (2, 3)], [Kind.ADD, Kind.REMOVE, Kind.FLIP])
    source = SmoothedSource(Model.OBLIVIOUS_AR, SmoothingParams(0.5), adv, 4, rng=smoothing_stream(3))
    source.next_change(), source.next_change()
    with pytest.raises(ContractViolation, match="kind"):
        source.next_change()


class _PreFlipProbe:
    """Observer that checks the counters' ordering contract: ``update``
    runs while the graph still holds the pre-flip state."""

    def __init__(self, g):
        self.g = g
        self.updates = 0

    def update(self, e, now_present):
        if e is None:
            assert not now_present  # a null step
        else:
            assert self.g.has_pair(e) != now_present
        self.updates += 1


@pytest.mark.parametrize("model", MODELS)
def test_observers_see_the_pre_flip_graph(model):
    """Every step reaches every observer once: a flip before it lands, a
    null step as ``update(None, False)``."""
    n = 12
    g = random_graph(n, stream(7, 0))
    probe = _PreFlipProbe(g)
    log = run_sequence(g, make_model_source(model, SmoothingParams(0.5), n, 7, 0), 200, [probe])
    assert probe.updates == len(log)


def test_event_log_determinism_and_format():
    def render(seed):
        adv_rng = adversary_stream(seed)
        adv = FlipSimulatingARAdversary(UniformFlipAdversary(6, adv_rng), adv_rng)
        source = SmoothedSource(
            Model.OBLIVIOUS_AR, SmoothingParams(0.5), adv, 6, rng=smoothing_stream(seed)
        )
        g = DynamicGraph(6)
        log = run_sequence(g, source, 100)
        buf = io.StringIO()
        write_event_log(log, buf)
        return buf.getvalue()

    one, two = render(9), render(9)
    assert one == two
    assert one.startswith("step,kind,u,v,provenance\n")
    assert "\r" not in one


class _RecordingObserver:
    def __init__(self):
        self.calls = []

    def update(self, edge, now_present):
        self.calls.append((edge, now_present))


def test_run_sequence_feeds_null_steps_as_updates():
    """Step by step, an ineffective add/remove event reaches the observer
    as ``update(None, False)`` and an effective one as
    ``update(edge, now_present)``."""
    n = 6
    g = random_graph(n, stream(11, 0))
    start = g.copy()
    obs = _RecordingObserver()
    source = make_model_source("oblivious-ar", SmoothingParams(0.5), n, 11, 0)
    log = run_sequence(g, source, 300, [obs])
    expected = []
    for ev in log:
        effective, present = apply_event(start, ev)
        if effective:
            expected.append((ev.edge, present))
            start.flip(*ev.edge)
        else:
            expected.append((None, False))
    assert (None, False) in expected
    assert obs.calls == expected
    assert g.edge_set() == start.edge_set()


@given(st.lists(st.tuples(st.sampled_from(list(all_pairs(5))), st.booleans()), max_size=60))
@settings(max_examples=50, deadline=None)
def test_null_steps_count_like_a_direct_run_on_the_realized_flips(ops):
    """A counter fed an add/remove stream, with each null step as
    ``update(None, False)``, counts what a direct run on the induced flips
    counts."""
    from smoothdyn.counters import STriangleCounter

    g1 = DynamicGraph(5)
    lazy = STriangleCounter(g1, 0)
    g2 = DynamicGraph(5)
    direct = STriangleCounter(g2, 0)
    for e, is_add in ops:
        ev = ChangeEvent(e, Kind.ADD if is_add else Kind.REMOVE, Provenance.ADVERSARIAL)
        effective, present = apply_event(g1, ev)
        if effective:
            lazy.update(e, present)
            g1.flip(*e)
            direct.update(e, present)
            g2.flip(*e)
        else:
            lazy.update(None, False)
    assert lazy.query() == direct.query()
    assert g1.edge_set() == g2.edge_set()


def test_p_prime_values():
    assert p_prime(0.0) == 0.0
    assert p_prime(1.0) == 1.0
    assert abs(p_prime(0.5) - 1 / 3) < 1e-12


def test_ar_simulation_null_fraction():
    # the add/remove strategy copying a flip strategy yields nulls w.p. p/2
    p = 0.5
    flip_adv = UniformFlipAdversary(8, adversary_stream(11))
    adv = FlipSimulatingARAdversary(flip_adv, stream(11, 99))
    source = SmoothedSource(
        Model.OBLIVIOUS_AR, SmoothingParams(p), adv, 8, rng=smoothing_stream(11)
    )
    g = DynamicGraph(8)
    nulls = 0
    steps = 10000
    for _ in range(steps):
        ev = source.next_change()
        effective, _ = apply_event(g, ev)
        if effective:
            g.flip(*ev.edge)
        else:
            nulls += 1
    assert abs(nulls / steps - p / 2) < 0.02
