"""The benchmark's four workloads.

Each workload is a function ``fn(run, **params)``.  It builds its inputs
from ``run.seed`` through ``smoothdyn.rng`` streams, then loops while
``run.more()``.  Every timed unit of work goes through ``run.item()``,
per-trial construction between items through ``run.prepare()``, the
benchmark's own correctness checks outside items through
``run.validating()``, and each item's answer through ``run.record``.
One function serves both the untraced and the traced pass; only
``run.tracer`` differs, and its wrappers forward every call unchanged.

The item of each workload, and why the workload is in the benchmark:

* ``simulate-small``: one query interval of ``smoothdyn simulate``
  traffic (C01).  Change generation dominates, counters mostly take the
  cheap path, and it is the only workload that runs the brute-force
  oracles and all three ``next_change`` branches.
* ``stream-hub``: one short query interval of ``smoothdyn bench``
  traffic (C02) on a dense n=1000 start; half the steps hit s, so the
  counters' O(n) scans dominate, and set-up builds a large graph and
  four counters.
* ``embed-adaptive``: one C04 trial, a fresh ``random_graph(100)`` plus
  ``run_adaptive_embed``; graph construction dominates.
* ``reduce-oumv``: one online round of the parity OuMv solver with real
  s-t 3-path counters (C06 / ``reduce --mode sol``).
"""

from __future__ import annotations

from itertools import islice

from smoothdyn import harness, rng
from smoothdyn.adversaries import EmbeddingTask, run_adaptive_embed
from smoothdyn.counters import STPath3Counter
from smoothdyn.graph import all_pairs, random_graph
from smoothdyn.reduction import ParityOuMvSolver, f2_oumv_oracle, random_oumv_instance
from smoothdyn.smoothing import (
    Model,
    SmoothedSource,
    SmoothingParams,
    StarFlipAdversary,
    run_sequence,
)

PROBLEMS = ("st2", "st3", "st4", "s-triangle", "s-4-cycle")
MODELS = ("oblivious-flip", "oblivious-ar", "adaptive")
HUB_KINDS = ("st3", "st4", "s-triangle", "s-4-cycle")


def _ints(values) -> tuple:
    return tuple(int(v) for v in values)


def simulate_small(run, n=30, p=0.3, T=2000, query_every=250):
    """Trials cycle over the 5 counter problems x the 3 models."""
    tr = run.tracer
    sequence = tr.wrap("smoothing.run_sequence", run_sequence)
    make_graph = tr.wrap("graph.random_graph", random_graph)

    def build(trial):
        problem = PROBLEMS[trial % len(PROBLEMS)]
        model = MODELS[trial // len(PROBLEMS) % len(MODELS)]
        # the harness's own problem table, so each trial is what simulate_trial runs
        make_counter, oracle = harness._COUNTER_SPECS[problem]
        g = make_graph(n, rng.trial_stream(run.seed, trial, 1))
        counter = tr.wrap(f"counters.{problem}.build", make_counter)(g)
        source = harness.make_model_source(model, SmoothingParams(p), n, run.seed, trial)
        return problem, g, counter, tr.wrap("oracles.check", oracle), source

    first = run.setup(lambda: build(0))
    run.info.update(steps_per_item=query_every, expensive_frac_prediction=(
        harness.expensive_frac_prediction(0.0, n)  # uniform proposals: every step is uniform
    ))
    trial = 0
    while run.more():
        if trial == 0:
            state = first
        else:
            with run.prepare():
                state = build(trial)
        problem, g, counter, oracle, source = state
        observers = [tr.observer(problem, counter, st=(0, 1))]
        query = tr.wrap(f"counters.{problem}.query", harness._counter_query)
        for start in range(0, T, query_every):
            if not run.more():
                break
            ops = counter.ops
            with run.item():
                sequence(g, source, min(query_every, T - start), observers)
                got = query(problem, counter)
                ok = got == oracle(g)
            run.count(ops=counter.ops - ops, ops_steps=min(query_every, T - start))
            run.record((trial, _ints(got) if problem == "st2" else int(got)), ok)
        trial += 1


def stream_hub(run, n=1000, p=0.5, steps=10, checkpoint_every=200):
    """st3, st4, s-triangle and s-4-cycle share one graph; the adversary flips s-edges."""
    tr = run.tracer
    sequence = tr.wrap("smoothing.run_sequence", run_sequence)
    makers = {kind: harness._COUNTER_SPECS[kind][0] for kind in HUB_KINDS}

    def build():
        g = tr.wrap("graph.random_graph", random_graph)(n, rng.trial_stream(run.seed, 0, 1))
        counters = {kind: tr.wrap(f"counters.{kind}.build", make)(g) for kind, make in makers.items()}
        source = SmoothedSource(
            Model.OBLIVIOUS_FLIP, SmoothingParams(p), StarFlipAdversary(n, hub=0), n,
            rng=rng.smoothing_stream(run.seed, 0),
        )
        return g, counters, source

    g, counters, source = run.setup(build)
    run.info.update(steps_per_item=steps, expensive_frac_prediction=harness.expensive_frac_prediction(p, n))
    observers = [tr.observer(kind, c, st=(0, 1)) for kind, c in counters.items()]
    queries = [tr.wrap(f"counters.{kind}.query", c.query) for kind, c in counters.items()]

    def verify(index, answer):
        # an incremental count must equal a from-scratch rebuild on the same graph
        with run.validating():
            fresh = tuple(make(g).query() for make in makers.values())
        run.check(fresh == answer, index)

    interval = 0
    answer = None
    while run.more():
        ops = sum(c.ops for c in counters.values())
        with run.item():
            sequence(g, source, steps, observers)
            answer = tuple(q() for q in queries)
        run.count(ops=sum(c.ops for c in counters.values()) - ops, ops_steps=steps)
        run.record(_ints(answer))
        interval += 1
        if interval % checkpoint_every == 0:
            verify(interval - 1, answer)
    if interval % checkpoint_every:
        verify(interval - 1, answer)


def embed_adaptive(run, n=100, p=0.5, region=250, flips=10, budget=200):
    """C04: a fresh random graph, then the adaptive embedding of R' inside R."""
    tr = run.tracer
    make_graph = tr.wrap("graph.random_graph", random_graph)
    embed = tr.wrap("adversaries.run_adaptive_embed", run_adaptive_embed)

    def build():
        area = frozenset(islice(all_pairs(n), region))
        return EmbeddingTask(n, area, tuple(sorted(area)[:flips]), p, budget)

    task = run.setup(build)
    wanted = set(task.flips)
    trial = 0
    while run.more():
        stream = rng.trial_stream(run.seed, trial)
        with run.item():
            g = make_graph(n, stream)
            before = tr.wrap("bench.snapshot", g.edge_set)()
            res = embed(g, task, stream)
        with run.validating():
            ok = not res.success or (g.edge_set() ^ before) & task.region == wanted
        run.count(embed_steps=res.steps_used, successes=res.success,
                  region_hits=res.random_hits_on_region)
        run.record((res.success, res.steps_used, res.random_hits_on_region), ok)
        trial += 1


def reduce_oumv(run, n=16, p=0.5):
    """Random OuMv instances answered round by round with real s-t 3-path counters."""
    tr = run.tracer

    def factory(g, s, t):
        counter = tr.wrap("counters.st3.build", STPath3Counter)(g, s, t)
        return tr.observer("st3", counter)

    def build(instance):
        stream = rng.trial_stream(run.seed, instance)
        inst = random_oumv_instance(n, stream)
        u0, v0 = inst.rounds[0]
        solver = tr.wrap("reduction.solver_init", ParityOuMvSolver)(inst.M, u0, v0, p, factory, stream)
        return inst, solver

    first = run.setup(lambda: build(0))
    instance = 0
    while run.more():
        if instance == 0:
            inst, solver = first
        else:
            with run.prepare():
                inst, solver = build(instance)
        answer_round = tr.wrap("reduction.round", solver.round)
        for k, (u, v) in enumerate(inst.rounds[1:], 1):
            if not run.more():
                break
            with run.item():
                answer = answer_round(u, v)
            with run.validating():
                ok = answer == f2_oumv_oracle(inst.M, u, v)
            counts = _ints(getattr(c, "counter", c).query() for c in solver.counters)
            run.record((instance, k, int(answer)) + counts, ok)
        instance += 1


WORKLOADS = {
    "simulate-small": simulate_small,
    "stream-hub": stream_hub,
    "embed-adaptive": embed_adaptive,
    "reduce-oumv": reduce_oumv,
}

# Items every run completes before the clock may stop it; the digest of
# their answers is comparable across machines and run lengths.
DIGEST_ITEMS = {"simulate-small": 120, "stream-hub": 100, "embed-adaptive": 100, "reduce-oumv": 64}
