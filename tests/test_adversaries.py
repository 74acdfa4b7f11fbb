from itertools import count

import pytest

from smoothdyn.adversaries import (
    EmbeddingTask,
    EmbedResult,
    InfeasibleTaskError,
    PhaseScript,
    multiphase_embed,
    oblivious_ar_failure_bound,
    run_adaptive_embed,
    run_oblivious_ar_embed,
)
from smoothdyn.graph import all_pairs, pair, random_graph
from smoothdyn.rng import trial_stream
from smoothdyn.smoothing import Kind, Provenance, SmoothedSource


def region_around(nodes):
    nodes = list(nodes)
    return [pair(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]


def test_task_validation():
    with pytest.raises(InfeasibleTaskError):
        EmbeddingTask(10, frozenset({(0, 1)}), ((2, 3),), 0.5, 10)
    with pytest.raises(InfeasibleTaskError):
        EmbeddingTask(10, frozenset({(0, 1)}), ((0, 1), (1, 0)), 0.5, 10)
    task = EmbeddingTask(30, frozenset({(1, 0)}), ((0, 1),), 0.5, 10)
    assert task.flips == ((0, 1),)
    assert task.feasible
    infeasible = EmbeddingTask(5, frozenset(region_around(range(5))), (), 0.1, 10)
    assert not infeasible.feasible
    with pytest.raises(InfeasibleTaskError):
        infeasible.require_feasible()


def test_adaptive_embed_p1_exact_steps():
    # with p=1 every proposal lands: exactly r' steps, always successful
    rng = trial_stream(0, 0)
    for trial in range(25):
        g = random_graph(20, rng)
        region = region_around(range(6))
        flips = tuple(region[:4])
        task = EmbeddingTask(20, frozenset(region), flips, 1.0, 100)
        before = {e: g.has_pair(e) for e in flips}
        res = run_adaptive_embed(g, task, rng)
        assert res.success and res.steps_used == len(flips)
        assert res.random_hits_on_region == 0
        for e in flips:
            assert g.has_pair(e) != before[e]


def test_adaptive_embed_realizes_exact_flip_set():
    rng = trial_stream(1, 0)
    successes = 0
    for trial in range(60):
        g = random_graph(40, rng)
        region = region_around(range(7))
        flips = tuple(region[:5])
        snapshot = {e: g.has_pair(e) for e in region}
        task = EmbeddingTask(40, frozenset(region), flips, 0.6, 600)
        res = run_adaptive_embed(g, task, rng)
        if res.success:
            successes += 1
            for e in region:
                assert (g.has_pair(e) != snapshot[e]) == (e in set(flips))
    assert successes >= 55  # budget is generous; failures should be rare


def test_adaptive_embed_mean_steps_monotone_in_p():
    region = region_around(range(6))
    flips = tuple(region[:5])

    def mean_steps(p, seed):
        rng = trial_stream(2, seed)
        total = 0
        for _ in range(80):
            g = random_graph(30, rng)
            task = EmbeddingTask(30, frozenset(region), flips, p, 4000)
            total += run_adaptive_embed(g, task, rng).steps_used
        return total / 80

    assert mean_steps(1.0, 0) < mean_steps(0.7, 1) < mean_steps(0.4, 2)


def test_adaptive_embed_rejects_p0_task():
    # at p = 0 no region is feasible: r <= p n^2 / 18 fails for any r >= 1
    rng = trial_stream(3, 0)
    g = random_graph(50, rng)
    region = region_around(range(5))
    task = EmbeddingTask(50, frozenset(region), tuple(region[:4]), 0.0, 8)
    with pytest.raises(InfeasibleTaskError):
        run_adaptive_embed(g, task, rng)


def test_multiphase_embed_within_budget():
    rng = trial_stream(4, 0)
    region = region_around(range(8))
    phases = tuple(tuple(region[i : i + 3]) for i in range(0, 12, 3))
    within = 0
    for _ in range(30):
        g = random_graph(40, rng)
        res = multiphase_embed(g, PhaseScript(frozenset(region), phases), 0.8, rng)
        assert res.success
        assert len(res.per_phase_steps) == len(phases)
        within += res.within_budget
    assert within >= 27


def test_multiphase_k1_degenerates_to_single_embed():
    rng = trial_stream(5, 0)
    g = random_graph(30, rng)
    region = region_around(range(5))
    script = PhaseScript(frozenset(region), (tuple(region[:3]),))
    res = multiphase_embed(g, script, 1.0, rng)
    assert res.success and res.total_steps == 3
    empty = multiphase_embed(g, PhaseScript(frozenset(region), ()), 1.0, rng)
    assert empty.success and empty.total_steps == 0
    with pytest.raises(InfeasibleTaskError):
        multiphase_embed(g, script, 0.0, rng)


def test_oblivious_ar_embed_q0_single_pass():
    # q=0: one pass over the targets suffices, state matches exactly
    rng = trial_stream(6, 0)
    region = region_around(range(6))
    flips = region[:4]
    res = run_oblivious_ar_embed(50, region, flips, 1.0, len(flips), rng)
    assert res.success and res.random_hits_on_region == 0


def test_oblivious_ar_embed_tight_budget_fails_often():
    # budget l = r' leaves no slack: any kept-coin miss or region hit kills it
    rng = trial_stream(7, 0)
    region = region_around(range(8))
    flips = region[:8]
    failures = sum(
        not run_oblivious_ar_embed(30, region, flips, 0.5, len(flips), rng).success
        for _ in range(200)
    )
    assert failures >= 150


def test_oblivious_ar_embed_initial_state_and_region_isolation():
    rng = trial_stream(8, 0)
    region = region_around(range(4))
    # at p = 1 every proposal is kept, so the run succeeds from any start
    res = run_oblivious_ar_embed(100, region, region[:2], 1.0, 10, rng)
    assert res.success


@pytest.mark.parametrize("flips", [[], [(0, 9)], [(0, 1), (1, 0)]])
def test_oblivious_ar_embed_rejects_a_bad_flip_set_before_any_draw(flips):
    """An empty R', a pair outside R and a repeated pair are rejected as
    ``EmbeddingTask`` rejects them, and the generator does not move."""
    rng = trial_stream(9, 0)
    state = rng.bit_generator.state
    with pytest.raises(InfeasibleTaskError):
        run_oblivious_ar_embed(20, region_around(range(4)), flips, 0.5, 10, rng)
    assert rng.bit_generator.state == state


def test_oblivious_ar_embed_rejects_a_repeated_region_pair_before_any_draw():
    """A region that lists a pair twice, in either orientation, would draw
    a start bit per copy; it is rejected and the generator does not move."""
    rng = trial_stream(9, 0)
    state = rng.bit_generator.state
    with pytest.raises(InfeasibleTaskError, match="duplicate pairs in R"):
        run_oblivious_ar_embed(10, [(0, 1), (1, 0), (0, 2)], [(0, 1)], 1.0, 5, rng)
    assert rng.bit_generator.state == state


def _smoothing_steps(rng, m):
    """Stream v2's smoothing draws step by step, from plain numpy array
    draws: per block of 16, 32, ... up to 2048 steps, k coins then k
    replacement indices, a block drawn when its first step is asked for."""
    for i in count():
        k = min(16 << i, 2048)
        yield from zip(rng.random(k), rng.integers(m, size=k).tolist())


def _reference_adaptive_embed(g, task, rng):
    """``run_adaptive_embed`` with plain numpy array draws: propose the
    first pending flip, keep it w.p. p, else flip a uniform pair."""
    pairs = list(all_pairs(g.n))
    pending = dict.fromkeys(task.flips)
    steps = hits = 0
    draws = _smoothing_steps(rng, len(pairs))
    while pending and steps < task.budget:
        e = next(iter(pending))
        coin, i = next(draws)
        kept = coin < task.p
        if not kept:
            e = pairs[i]
        if e in task.region:
            hits += not kept
            if e in pending:
                del pending[e]
            else:
                pending[e] = None
        g.flip(*e)
        steps += 1
    return EmbedResult(not pending, steps, hits)


def _reference_oblivious_ar_embed(n, region, flips, p, budget, rng):
    """``run_oblivious_ar_embed`` with plain numpy array draws: step i
    proposes the move of flips[i mod r'] to its target, whatever the
    earlier coins were."""
    pairs = list(all_pairs(n))
    state = {e: bool(b) for e, b in zip(region, rng.random(len(region)) < 0.5)}
    start = dict(state)
    hits = 0
    draws = _smoothing_steps(rng, len(pairs))
    for i in range(budget):
        coin, j = next(draws)
        if coin < p:
            e = flips[i % len(flips)]
            state[e] = not start[e]
        else:
            f = pairs[j]
            if f in state:
                state[f] = not state[f]
                hits += 1
    success = all((state[e] != start[e]) == (e in flips) for e in region)
    return EmbedResult(success, budget, hits)


@pytest.mark.parametrize("trial", range(6))
def test_embeddings_hand_back_the_generator_as_plain_draws_would(trial):
    """Both embeddings draw what plain numpy array draws of stream v2 would,
    and leave the caller's generator after the last block drawn, so a
    caller that goes on drawing (``multiphase_embed``, C04) sees the same
    stream.  Budgets 20 + 15 trial and 30 end inside, and at, a block."""
    n = 40
    region = sorted(region_around(range(9)))
    flips = region[: 2 + trial]
    task = EmbeddingTask(n, frozenset(region), tuple(flips), 0.5, 20 + 15 * trial)
    rng, twin = trial_stream(11, trial), trial_stream(11, trial)
    g, h = random_graph(n, rng), random_graph(n, twin)
    assert run_adaptive_embed(g, task, rng) == _reference_adaptive_embed(h, task, twin)
    assert g.edge_set() == h.edge_set()
    assert rng.bit_generator.state == twin.bit_generator.state
    got = run_oblivious_ar_embed(n, region, flips, 0.6, 30, rng)
    assert got == _reference_oblivious_ar_embed(n, region, flips, 0.6, 30, twin)
    assert rng.bit_generator.state == twin.bit_generator.state
    assert rng.integers(435) == twin.integers(435)


def test_oblivious_ar_embed_proposals_follow_the_step_index(monkeypatch):
    """Every adversarial event at step i is the move of flips[i mod r'] toward
    its target, whatever the coins were: the adversary gets no feedback."""
    events = []
    next_change = SmoothedSource.next_change

    def recording(self, graph=None):
        events.append(next_change(self, graph))
        return events[-1]

    monkeypatch.setattr(SmoothedSource, "next_change", recording)
    n, region = 30, sorted(region_around(range(6)))
    flips = [(b, a) for a, b in region[:4]]  # given uncanonical
    rng, twin = trial_stream(12, 0), trial_stream(12, 0)
    start = dict(zip(region, twin.random(len(region)) < 0.5))
    run_oblivious_ar_embed(n, region, flips, 0.5, 40, rng)
    kept = [(i, ev) for i, ev in enumerate(events) if ev.provenance is Provenance.ADVERSARIAL]
    assert len(events) == 40 and 0 < len(kept) < 40
    for i, ev in kept:
        e = pair(*flips[i % len(flips)])
        assert ev.edge == e
        assert ev.kind is (Kind.REMOVE if start[e] else Kind.ADD)


def test_failure_bound_values():
    assert oblivious_ar_failure_bound(8, 3200, 400, 0.0, 100) == 0.0
    v = oblivious_ar_failure_bound(2, 10, 100, 0.5, 4)
    assert v == pytest.approx(2 * 0.25 + 0.5 * 4 * 10 / 100**2)
