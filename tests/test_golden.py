"""Golden digests: seeded outputs pinned byte for byte.

Each digest is the first 16 hex digits of the sha256 of a run's output:
the CSV of ``write_metrics`` for the three experiment commands, and the
``repr`` of plain-int result tuples for the code paths whose CSV shows
only an error rate (counter queries of the OuMv solver, the histogram
check's edge-type counts, embedding results and final graphs, the
sixteen-graph queries and a sixteen-graph pack's full state).  A seed must keep
its meaning: if one of these moves, the RNG stream changed, and that is
a deliberate, versioned decision, never a side effect of a refactor.
The pins are of stream version 3 (``smoothdyn.rng.STREAM_VERSION``).
"""

import hashlib
import io
from itertools import islice

import pytest

from smoothdyn.adversaries import (
    EmbeddingTask,
    PhaseScript,
    multiphase_embed,
    run_adaptive_embed,
    run_oblivious_ar_embed,
)
from smoothdyn.counters import (
    SFourCycleCounter,
    STPath3Counter,
    STPath4Counter,
    STriangleCounter,
)
from smoothdyn.graph import all_pairs, random_graph
from smoothdyn.harness import (
    EXPERIMENTS,
    MODELS,
    PROBLEMS,
    ExperimentConfig,
    bench_point,
    cmd_bench,
    cmd_simulate,
    write_metrics,
)
from smoothdyn.oracles import bf_st_paths
from smoothdyn.reduction import (
    P3Layout,
    ParityOuMvSolver,
    SixteenPack,
    dadvp_verify_histogram,
    random_oumv_instance,
    run_p3_to_general,
    sol_solve,
)
from smoothdyn.rng import trial_stream
from smoothdyn.smoothing import (
    Model,
    SmoothedSource,
    SmoothingParams,
    StarFlipAdversary,
    run_sequence,
)

SEED = 5


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _csv(rows) -> str:
    buf = io.StringIO()
    write_metrics(rows, buf)
    return buf.getvalue()


def _edges(g) -> tuple:
    return tuple(sorted(g.edges()))


# -- the experiment commands -----------------------------------------------

SIMULATE_DIGESTS = {
    ("st2", "oblivious-flip"): "ab2b8505a4d9116c",
    ("st2", "oblivious-ar"): "b401df51926edc91",
    ("st2", "adaptive"): "57968d488b591007",
    ("st3", "oblivious-flip"): "04ef8a8c143308b2",
    ("st3", "oblivious-ar"): "14eea2e096ed7387",
    ("st3", "adaptive"): "bd4d5afd6e1d88ac",
    ("st4", "oblivious-flip"): "c265b3baa69ac574",
    ("st4", "oblivious-ar"): "8c72151109acc432",
    ("st4", "adaptive"): "c11bd62c28f41f5a",
    ("s-triangle", "oblivious-flip"): "292bd37697a8961d",
    ("s-triangle", "oblivious-ar"): "815f48ea9044608d",
    ("s-triangle", "adaptive"): "c166b38465cda975",
    ("s-4-cycle", "oblivious-flip"): "8cee1433dbdf4475",
    ("s-4-cycle", "oblivious-ar"): "68f72a56365c2820",
    ("s-4-cycle", "adaptive"): "05d190c7d1f36dbd",
    ("connectivity-trivial", "oblivious-flip"): "2d92de388c4c0c7f",
    ("connectivity-trivial", "oblivious-ar"): "b41fdc7c2f08fa56",
    ("connectivity-trivial", "adaptive"): "0bd08cce1f43e450",
    ("perfect-matching-trivial", "oblivious-flip"): "c651bd6c6ff67c55",
    ("perfect-matching-trivial", "oblivious-ar"): "f1b01215e30eeb7b",
    ("perfect-matching-trivial", "adaptive"): "7d38f2946f73bb7d",
}


def simulate_output(problem: str, model: str) -> str:
    cfg = ExperimentConfig(
        problem=problem, model=model, n=12, p=0.3, T=300, trials=2, seed=SEED
    )
    return _csv(cmd_simulate(cfg))


def test_simulate_digests_cover_every_problem_and_model():
    assert set(SIMULATE_DIGESTS) == {(p, m) for p in PROBLEMS for m in MODELS}


@pytest.mark.parametrize("problem,model", list(SIMULATE_DIGESTS))
def test_simulate_digest(problem, model):
    assert _digest(simulate_output(problem, model)) == SIMULATE_DIGESTS[problem, model]


def bench_output() -> str:
    cfg = ExperimentConfig(n=40, T=500, trials=2, seed=SEED, p_grid=[0.0, 0.3, 1.0])
    return _csv(cmd_bench(cfg))


def reduce_output(mode: str, **kwargs) -> str:
    rows, ok = EXPERIMENTS[f"reduce --mode {mode}"].run(
        ExperimentConfig(mode=mode, seed=SEED, **kwargs)
    )
    return _csv(rows) + repr(ok)


# -- the code paths behind them ------------------------------------------


def solver_output() -> str:
    """Every round's answer and the three st3 counters' queries."""
    rng = trial_stream(SEED, 0)
    inst = random_oumv_instance(6, rng)
    u0, v0 = inst.rounds[0]
    solver = ParityOuMvSolver(inst.M, u0, v0, 0.5, STPath3Counter, rng)
    out = [(solver.initial_answer(),) + tuple(c.query() for c in solver.counters)]
    for u, v in inst.rounds[1:]:
        answer = solver.round(u, v)
        out.append((answer,) + tuple(c.query() for c in solver.counters))
    rng = trial_stream(SEED, 1)
    outcome = sol_solve(random_oumv_instance(5, rng), 0.3, STPath3Counter, rng)
    return repr((out, outcome.answers, outcome.oracle_answers))


def histogram_output() -> str:
    """Edge-type counts of genuine and the solver's change sequences."""
    fit = dadvp_verify_histogram(0.5, 4, 60, trial_stream(SEED, 0))
    return repr(fit.type_counts.tolist())


def _region(n: int, size: int) -> frozenset:
    return frozenset(islice(all_pairs(n), size))


def adaptive_embed_output() -> str:
    """Result tuples and final graphs of the adaptive and multiphase
    embeddings."""
    n = 40
    region = _region(n, 40)
    flips = tuple(sorted(region)[:6])
    out = []
    for trial in range(4):
        rng = trial_stream(SEED, trial)
        g = random_graph(n, rng)
        res = run_adaptive_embed(g, EmbeddingTask(n, region, flips, 0.5, 100), rng)
        out.append((res.success, res.steps_used, res.random_hits_on_region, _edges(g)))
    rng = trial_stream(SEED, 10)
    g = random_graph(n, rng)
    ordered = sorted(region)
    script = PhaseScript(region, tuple(tuple(ordered[i : i + 3]) for i in (0, 3, 6)))
    res = multiphase_embed(g, script, 0.5, rng)
    out.append((res.success, res.per_phase_steps, res.total_steps, res.budget, _edges(g)))
    return repr(out)


def oblivious_ar_embed_output() -> str:
    n = 40
    region = sorted(_region(n, 40))
    out = []
    for trial, (p, budget) in enumerate([(0.5, 60), (0.5, 60), (0.9, 30), (0.9, 30)]):
        rng = trial_stream(SEED, trial)
        res = run_oblivious_ar_embed(EmbeddingTask(n, region, tuple(region[:5]), p, budget), rng)
        out.append((res.success, res.steps_used, res.random_hits_on_region))
    return repr(out)


def p3_to_general_output() -> str:
    run = run_p3_to_general(3, 0.5, 300, 20, trial_stream(SEED, 0))
    return repr((run.queries, run.interior_steps))


def sixteen_pack_output() -> str:
    """Step results, the sixteen graphs, the interior and the recovered
    count of a pack driven directly by a seeded interior source."""
    layout = P3Layout(4)
    interior_pairs = layout.interior_edges()
    rng = trial_stream(SEED, 0)
    interior = random_graph(layout.n_nodes, rng, restriction=interior_pairs)
    pack = SixteenPack(layout, interior, 0.5, rng)
    source = trial_stream(SEED, 1)
    steps = [
        pack.step(lambda: interior_pairs[int(source.integers(len(interior_pairs)))], rng)
        for _ in range(300)
    ]
    count = pack.query(lambda g: bf_st_paths(g, layout.s, layout.t, 3))
    return repr((steps, [_edges(g) for g in pack.graphs], _edges(pack.interior), count))


OUTPUTS = {
    "bench": bench_output,
    "reduce-sol": lambda: reduce_output("sol", n=4, p=0.5, trials=3),
    "reduce-p3general": lambda: reduce_output("p3general", n=4, p=0.5, T=200, trials=2),
    "reduce-omv-chain": lambda: reduce_output("omv-chain", n=4, trials=10),
    "sol-solver-st3": solver_output,
    "dadvp-histogram": histogram_output,
    "adaptive-embed": adaptive_embed_output,
    "oblivious-ar-embed": oblivious_ar_embed_output,
    "p3-to-general": p3_to_general_output,
    "sixteen-pack": sixteen_pack_output,
}

DIGESTS = {
    "bench": "e2b9862a2132e0f9",
    "reduce-sol": "c9b4d7030056c34a",
    "reduce-p3general": "8a8eed373b5bc96d",
    "reduce-omv-chain": "729caec3b199d93f",
    "sol-solver-st3": "8b621a75848efc53",
    "dadvp-histogram": "3e835c75f464564f",
    "adaptive-embed": "ff04ddcf124d9aca",
    "oblivious-ar-embed": "9e77cea5c4adbbac",
    "p3-to-general": "f410d5f3e90b788a",
    "sixteen-pack": "2a3df97c1d413265",
}


@pytest.mark.parametrize("name", list(OUTPUTS))
def test_output_digest(name):
    assert _digest(OUTPUTS[name]()) == DIGESTS[name]


# -- the modelled cost ---------------------------------------------------
# ``ops`` is the paper's cost currency (C02 gates on it), so it is pinned
# as exact values: a faster implementation must charge the same ops.

HUB_COUNTER_PINS = {
    "st3": (322727, 11000),
    "st4": (353409, 1625681),
    "s-triangle": (323993, 5005),
    "s-4-cycle": (323491, 748379),
}

T_HUB_COUNTER_PINS = {
    "st3": (24933, 10179),
    "st4": (353255, 1505246),
    "s-triangle": (26027, 4751),
    "s-4-cycle": (26025, 704224),
}


def _hub_counter_results(hub: int) -> dict:
    """(ops, query) of the four s-counters after a stream flipping hub's edges."""
    n = 300
    g = random_graph(n, trial_stream(SEED, 0))
    counters = {
        "st3": STPath3Counter(g, 0, 1),
        "st4": STPath4Counter(g, 0, 1),
        "s-triangle": STriangleCounter(g, 0),
        "s-4-cycle": SFourCycleCounter(g, 0),
    }
    source = SmoothedSource(
        Model.OBLIVIOUS_FLIP,
        SmoothingParams(0.5),
        StarFlipAdversary(n, hub=hub),
        n,
        rng=trial_stream(SEED, 1),
    )
    run_sequence(g, source, 1000, list(counters.values()))
    return {k: (c.ops, c.query()) for k, c in counters.items()}


def test_hub_counter_ops_and_answers():
    """Hub = s: every proposal is an s-edge, the counters' O(n) branch."""
    assert _hub_counter_results(0) == HUB_COUNTER_PINS


def test_t_hub_counter_ops_and_answers():
    """Hub = t: the t-edge branches of st3 and st4."""
    assert _hub_counter_results(1) == T_HUB_COUNTER_PINS


@pytest.mark.parametrize(
    "p,expected",
    [(0.0, (0.023, 4.7515)), (0.5, (0.508, 106.6765)), (1.0, (1.0, 198.9))],
)
def test_bench_point_pin(p, expected):
    assert bench_point(200, p, 2000, 3) == expected
