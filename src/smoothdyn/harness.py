"""Experiment harness: seeded trials, cost accounting, CSV metrics.

All experiment randomness derives from ``(seed, trial)`` stream splitting,
so a (config, seed) pair reproduces its CSV byte-for-byte.  Wall-clock
timings are written to a separate optional file to keep the main CSV
deterministic.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, fields
from fractions import Fraction
from numbers import Integral, Real
from typing import (
    IO,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from . import rng as rngmod
from .adversaries import EmbeddingTask, run_adaptive_embed
from .counters import (
    SFourCycleCounter,
    STPath3Counter,
    STPath4Counter,
    STriangleCounter,
    TrivialDecider,
    TwoPathTable,
)
from .graph import DynamicGraph, all_pairs, pair_count, random_graph
from .oracles import (
    ENUM_CAP,
    bf_bipartite_matching,
    bf_connected,
    bf_s_cycles,
    bf_st_paths,
    bf_two_paths,
)
from .reduction import (
    ChangeDistribution,
    ExactST3Counter,
    P3Layout,
    alpha_of,
    f2_oumv_oracle,
    int_oumv_oracle,
    omv_parity_reduction,
    poisson_even_mass,
    poisson_sample,
    random_oumv_instance,
    run_p3_to_general,
    sol_solve,
    worstcase_to_average_split,
)
from .smoothing import (
    FlipSimulatingARAdversary,
    Model,
    SmoothedSource,
    SmoothingParams,
    StarFlipAdversary,
    UniformFlipAdversary,
    run_sequence,
)


@dataclass
class ExperimentConfig:
    problem: str = "st3"
    model: str = "oblivious-flip"
    n: int = 20
    p: float = 0.5
    p_grid: Optional[List[float]] = None
    T: int = 500
    trials: int = 5
    seed: int = 0
    query_every: int = 0  # 0 -> T // 10
    out: Optional[str] = None
    timings_out: Optional[str] = None
    mode: str = "sol"  # for reduce

    @classmethod
    def read_fields(cls, path: str) -> Dict[str, object]:
        """The fields a JSON config file sets; each must be a known field."""
        with open(path) as fp:
            try:
                data = json.load(fp)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{exc.lineno}: invalid config JSON: {exc.msg}")
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config JSON must be an object of fields")
        known = {f.name for f in fields(cls)}
        for key in data:
            if key not in known:
                raise ValueError(f"{path}: unknown config field {key!r}")
        return data

    def validate(self) -> "ExperimentConfig":
        """Reject field types, names and ranges the commands cannot run."""
        for name in ("n", "T", "trials", "seed", "query_every"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name, low in (("n", 2), ("T", 1), ("trials", 1), ("seed", 0), ("query_every", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.p_grid is not None and not (isinstance(self.p_grid, list) and self.p_grid):
            raise ValueError(f"p-grid must be a nonempty list, got {self.p_grid!r}")
        for p in [self.p] + (self.p_grid or []):
            if not isinstance(p, Real) or isinstance(p, bool) or not 0.0 <= p <= 1.0:
                raise ValueError(f"p={p!r} is not a number in [0,1]")
        for name in ("out", "timings_out"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError(f"{name} must be a path, got {getattr(self, name)!r}")
        for name, known in CHOICES.items():
            value = getattr(self, name)
            if not (isinstance(value, str) and value in known):
                raise ValueError(f"unknown {name} {value!r}; choose from {', '.join(known)}")
        return self

    def validate_for(self, command: str) -> "ExperimentConfig":
        """:meth:`validate`, then reject what ``command`` cannot run as stated."""
        self.validate()
        if command == "simulate":
            if self.problem == "perfect-matching-trivial" and self.n % 2:
                raise ValueError(f"perfect-matching-trivial needs an even n, got {self.n}")
            if self.problem in _ENUMERATED and self.n > ENUM_CAP:
                raise ValueError(f"{self.problem}'s oracle takes n <= {ENUM_CAP}, got {self.n}")
        elif command == "bench" and not self.p_grid:
            raise ValueError("bench requires --p-grid or a p_grid in the config")
        elif command == "reduce":
            if self.mode == "sol" and self.p <= 0.0:
                raise ValueError("reduce --mode sol requires p > 0")
            nodes = P3Layout(self.n).n_nodes
            if self.mode != "omv-chain" and nodes > ENUM_CAP:
                raise ValueError(f"{self.mode}'s oracle takes <= {ENUM_CAP} nodes, got {nodes}")
        return self


class MetricRow(NamedTuple):
    """One CSV row; its fields, in order, are the CSV columns."""

    trial: int
    p: float
    n: int
    T: int
    problem: str
    model: str
    metric: str
    value: float

    def as_list(self) -> List:
        return list(self._replace(p=repr(float(self.p)), value=repr(float(self.value))))


CSV_HEADER = list(MetricRow._fields)


def write_metrics(rows: Sequence[MetricRow], fp: IO[str]) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row.as_list())


MODELS = tuple(m.value for m in Model)


def make_model_source(
    model_name: str,
    params: SmoothingParams,
    n: int,
    seed: int,
    trial: int,
) -> SmoothedSource:
    model = Model(model_name)
    adv_rng = rngmod.adversary_stream(seed, trial)
    adv = UniformFlipAdversary(n, adv_rng, params.restriction)
    if model is Model.OBLIVIOUS_AR:  # per block the pairs, then the Add/Remove coins
        adv = FlipSimulatingARAdversary(adv, adv_rng)
    return SmoothedSource(model, params, adv, n, rng=rngmod.smoothing_stream(seed, trial))


_COUNTER_SPECS: Dict[str, Tuple[Callable, Callable]] = {
    # problem -> (counter factory(g), oracle(g))
    "st2": (
        lambda g: TwoPathTable(g, 0, 1),
        lambda g: [bf_two_paths(g, 0, u, 1) for u in range(g.n)],
    ),
    "st3": (
        lambda g: STPath3Counter(g, 0, 1),
        lambda g: bf_st_paths(g, 0, 1, 3),
    ),
    "st4": (
        lambda g: STPath4Counter(g, 0, 1),
        lambda g: bf_st_paths(g, 0, 1, 4),
    ),
    "s-triangle": (
        lambda g: STriangleCounter(g, 0),
        lambda g: bf_s_cycles(g, 0, 3),
    ),
    "s-4-cycle": (
        lambda g: SFourCycleCounter(g, 0),
        lambda g: bf_s_cycles(g, 0, 4),
    ),
}


def _counter_query(problem: str, counter) -> object:
    if problem == "st2":
        return [counter.query(u) for u in range(len(counter.c))]
    return counter.query()


def _connectivity(config: ExperimentConfig, init_rng):
    return random_graph(config.n, init_rng), TrivialDecider(), bf_connected, None


def _perfect_matching(config: ExperimentConfig, init_rng):
    side = config.n // 2
    left = list(range(side))
    right = list(range(side, 2 * side))
    restriction = tuple(itertools.product(left, right))  # canonical: left < right
    g = random_graph(2 * side, init_rng, restriction=restriction)
    oracle = lambda g: bf_bipartite_matching(g, left, right)[1]
    return g, TrivialDecider(), oracle, restriction


# problem -> setup(config, init_rng) -> (graph, decider, oracle, restriction)
_DECIDERS: Dict[str, Callable] = {
    "connectivity-trivial": _connectivity,
    "perfect-matching-trivial": _perfect_matching,
}

PROBLEMS = (*_COUNTER_SPECS, *_DECIDERS)
_ENUMERATED = ("st3", "st4", "s-triangle", "s-4-cycle")  # oracles capped at ENUM_CAP nodes


def simulate_trial(config: ExperimentConfig, trial: int) -> List[MetricRow]:
    """One seeded trial of cmd_simulate; returns metric rows."""
    n, p, T = config.n, config.p, config.T
    query_every = config.query_every or max(1, T // 10)
    init_rng = rngmod.trial_stream(config.seed, trial, 1)
    problem, model = config.problem, config.model

    def row(metric: str, value: float) -> MetricRow:
        return MetricRow(trial, p, n, T, problem, model, metric, value)

    if problem in _COUNTER_SPECS:
        make_counter, oracle = _COUNTER_SPECS[problem]
        g = random_graph(n, init_rng)
        algorithm, restriction = make_counter(g), None
    elif problem in _DECIDERS:
        g, algorithm, oracle, restriction = _DECIDERS[problem](config, init_rng)
    else:
        raise ValueError(f"unknown simulate problem {problem!r}")
    params = SmoothingParams(p, restriction=restriction)
    source = make_model_source(model, params, g.n, config.seed, trial)
    errors = queries = 0
    for start in range(0, T, query_every):
        run_sequence(g, source, min(query_every, T - start), observers=[algorithm])
        queries += 1
        if _counter_query(problem, algorithm) != oracle(g):
            errors += 1
    rows = [row("error_rate", errors / queries), row("queries", queries)]
    if problem in _COUNTER_SPECS:
        rows.insert(1, row("mean_ops", algorithm.ops / T))
    return rows


def cmd_simulate(config: ExperimentConfig) -> List[MetricRow]:
    config.validate_for("simulate")
    return [row for trial in range(config.trials) for row in simulate_trial(config, trial)]


def expensive_frac_prediction(p: float, n: int) -> float:
    """The share of :func:`bench_point`'s steps on an edge touching s = 0 or t = 1:
    the adversary's s-edge w.p. p, else a uniform pair, 2n - 3 of C(n,2) of which do."""
    return p + (1.0 - p) * (2 * n - 3) / pair_count(n)


def bench_point(
    n: int, p: float, T: int, seed: int, trial: int = 0
) -> Tuple[float, float]:
    """(expensive_frac, mean_ops) for st3 under an s-edge-flipping adversary."""
    # an empty start, because C02 and the bench golden pin this start's profile;
    # the profile does depend on it (a dense start roughly doubles st3's ops)
    g = DynamicGraph(n)
    counter = STPath3Counter(g, 0, 1)
    adv = StarFlipAdversary(n, hub=0)
    source = SmoothedSource(
        Model.OBLIVIOUS_FLIP,
        SmoothingParams(p),
        adv,
        n,
        rng=rngmod.smoothing_stream(seed, trial),
    )
    ops_before = counter.ops
    log = run_sequence(g, source, T, [counter])
    expensive = sum(1 for ev in log if 0 in ev.edge or 1 in ev.edge)  # touches s or t
    return expensive / T, (counter.ops - ops_before) / T


def cmd_bench(config: ExperimentConfig) -> List[MetricRow]:
    config.validate_for("bench")
    rows: List[MetricRow] = []
    for trial in range(config.trials):
        for p in config.p_grid:
            frac, mean_ops = bench_point(config.n, p, config.T, config.seed, trial)
            common = dict(
                trial=trial, p=p, n=config.n, T=config.T, problem="st3", model="oblivious-flip"
            )
            rows.append(MetricRow(metric="expensive_frac", value=frac, **common))
            rows.append(MetricRow(metric="mean_ops", value=mean_ops, **common))
    return rows


def _reduce_sol(config: ExperimentConfig) -> Iterator[Tuple[int, int, int, int]]:
    for trial in range(config.trials):
        rng = rngmod.trial_stream(config.seed, trial)
        inst = random_oumv_instance(config.n, rng)
        outcome = sol_solve(inst, config.p, ExactST3Counter, rng)
        yield trial, len(outcome.answers), outcome.errors, len(outcome.answers)


def _reduce_p3general(config: ExperimentConfig) -> Iterator[Tuple[int, int, int, int]]:
    for trial in range(config.trials):
        rng = rngmod.trial_stream(config.seed, trial)
        run = run_p3_to_general(config.n, config.p, config.T, max(1, config.T // 20), rng)
        mism = sum(1 for _, rec, orc in run.queries if rec != orc)
        yield trial, config.T, mism, len(run.queries)


def _reduce_omv_chain(config: ExperimentConfig) -> Iterator[Tuple[int, int, int, int]]:
    n, trials, errors = config.n, config.trials, 0
    rng = rngmod.trial_stream(config.seed, 0)
    parity_via_split = lambda M, u, v: worstcase_to_average_split(M, u, v, f2_oumv_oracle, rng)
    for _ in range(trials):
        M = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        u = rng.integers(0, 2, size=n, dtype=np.uint8)
        v = rng.integers(0, 2, size=n, dtype=np.uint8)
        got = omv_parity_reduction(M, u, v, parity_via_split, 20, rng)
        errors += got != int(int_oumv_oracle(M, u, v) > 0)
    yield 0, trials, errors, trials


def _reduction(problem: str, results: Callable) -> Callable:
    """A reduce mode's run: one error-rate row, in CSV problem ``problem``, per
    ``(trial, T, errors, checks)`` of ``results(config)``, and whether none erred."""

    def run(config: ExperimentConfig) -> Tuple[List[MetricRow], bool]:
        done = list(results(config.validate_for("reduce")))
        row = lambda trial, T, errors, checks: MetricRow(
            trial, config.p, config.n, T, problem, "reduction", "error_rate", errors / checks
        )
        return [row(*result) for result in done], all(errors == 0 for _, _, errors, _ in done)

    return run


class Experiment(NamedTuple):
    reads: Tuple[str, ...]  # the config fields it reads, besides out and timings_out
    run: Callable  # config -> (rows, whether every check agreed)


# the command line that runs each experiment -> what it reads and how it runs;
# the CLI's flags and its unread-field check follow from this table
EXPERIMENTS: Dict[str, Experiment] = {
    "simulate": Experiment(
        ("problem", "model", "n", "p", "T", "trials", "seed", "query_every"),
        lambda config: (cmd_simulate(config), True),
    ),
    "bench": Experiment(
        ("n", "p_grid", "T", "trials", "seed"), lambda config: (cmd_bench(config), True)
    ),
    "reduce --mode sol": Experiment(
        ("mode", "n", "p", "trials", "seed"), _reduction("sol-exact", _reduce_sol)
    ),
    "reduce --mode p3general": Experiment(
        ("mode", "n", "p", "T", "trials", "seed"), _reduction("p3general", _reduce_p3general)
    ),
    "reduce --mode omv-chain": Experiment(
        ("mode", "n", "trials", "seed"), _reduction("omv-chain", _reduce_omv_chain)
    ),
}

# the allowed names of each field that names a choice
MODES = tuple(key.split()[-1] for key in EXPERIMENTS if key.startswith("reduce --mode "))
CHOICES = {"problem": PROBLEMS, "model": MODELS, "mode": MODES}


def cmd_verify(seed: int = 0) -> List[Tuple[str, bool, str]]:
    """Pinned-seed invariant battery; returns (suite, passed, detail) rows."""
    results: List[Tuple[str, bool, str]] = []

    def check(name: str, fn: Callable[[], None]) -> None:
        try:
            fn()
            results.append((name, True, "ok"))
        except Exception as exc:  # noqa: BLE001 -- report, don't crash
            results.append((name, False, f"{type(exc).__name__}: {exc}"))

    def counters_exact() -> None:
        for problem in _COUNTER_SPECS:
            cfg = ExperimentConfig(
                problem=problem, model="oblivious-flip", n=12, p=0.3, T=400,
                trials=2, seed=seed,
            )
            for row in cmd_simulate(cfg):
                if row.metric == "error_rate" and row.value != 0.0:
                    raise AssertionError(f"{problem} disagreed with the oracle")

    def partition_invariant() -> None:
        rng = rngmod.stream(seed, 1)
        run = run_p3_to_general(4, 0.5, 120, 30, rng, check_every_step=True)
        for _, rec, orc in run.queries:
            if rec != orc:
                raise AssertionError("sixteen-pack recombination mismatch")

    def distribution_checks() -> None:
        for n in (2, 5, 8):
            for p in (Fraction(0), Fraction(1, 3), Fraction(1)):
                if ChangeDistribution(p, n).total_mass() != 1:
                    raise AssertionError("change distribution does not normalize")
                alpha_of(float(p), n)
        rng = rngmod.stream(seed, 2)
        evens = sum(poisson_sample(1.0, rng) % 2 == 0 for _ in range(20000))
        if abs(evens / 20000 - poisson_even_mass(1.0)) > 0.02:
            raise AssertionError("Poisson parity mass off")

    def embed_invariants() -> None:
        rng = rngmod.stream(seed, 3)
        region = frozenset(list(all_pairs(30))[:40])
        flips = tuple(sorted(region)[:5])
        g = random_graph(30, rng)
        before = g.edge_set()
        task = EmbeddingTask(30, region, flips, 1.0, 50)
        res = run_adaptive_embed(g, task, rng)
        if not (res.success and res.steps_used == len(flips)):
            raise AssertionError("p=1 embedding not deterministic")
        if (g.edge_set() ^ before) & region != set(flips):
            raise AssertionError("realized flips do not match R'")

    check("counter-oracle-equivalence", counters_exact)
    check("sixteen-pack-partition", partition_invariant)
    check("distributions", distribution_checks)
    check("adaptive-embedding", embed_invariants)
    return results
