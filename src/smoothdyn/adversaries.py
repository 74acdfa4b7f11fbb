"""Constructive adversary strategies: edge embedding under smoothing noise.

An embedding task asks an adversary to realize a prescribed flip set
R' inside a controlled region R of node pairs, while each step is only
kept with probability p (and replaced by a uniformly random flip
otherwise), both drawn by :class:`~smoothdyn.smoothing.SmoothedSource`.
The adaptive strategy watches the realized graph and re-proposes
still-needed flips; the oblivious add/remove strategy cycles idempotent
add/remove proposals toward known targets by step index.

:func:`multiphase_embed` realizes k flip batches of at most r_hat flips
one after another, each as an adaptive embedding cut off after
ceil(40 (c+2) r_hat max(ln k, 1) / p) steps with c = 1, against the
advertised total budget 12 k r_hat / p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .graph import DynamicGraph, Pair, pair
from .smoothing import (
    Kind,
    Model,
    Provenance,
    ScriptedFlipAdversary,
    SmoothedSource,
    SmoothingParams,
    notify_and_flip,
)


class InfeasibleTaskError(ValueError):
    pass


@dataclass(frozen=True)
class EmbeddingTask:
    n: int
    region: frozenset  # controlled region R of canonical pairs
    flips: Tuple[Pair, ...]  # R' -- the flips to realize, subset of R
    p: float
    budget: int  # step budget l

    def __post_init__(self):
        region = frozenset(pair(u, v) for u, v in self.region)
        flips = tuple(pair(u, v) for u, v in self.flips)
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "flips", flips)
        if not set(flips) <= region:
            raise InfeasibleTaskError("flip set must lie inside the region")
        if len(set(flips)) != len(flips):
            raise InfeasibleTaskError("duplicate flips in R'")

    @property
    def feasible(self) -> bool:
        """Feasibility proviso r <= p n^2 / 18."""
        return len(self.region) <= self.p * self.n * self.n / 18.0

    def require_feasible(self) -> "EmbeddingTask":
        if not self.feasible:
            raise InfeasibleTaskError(
                f"|R|={len(self.region)} exceeds p*n^2/18={self.p * self.n ** 2 / 18:.1f}"
            )
        return self


@dataclass
class EmbedResult:
    success: bool
    steps_used: int
    random_hits_on_region: int = 0


class AdaptiveEmbedAdversary:
    """Adaptive flip adversary realizing R' inside R.

    Keeps the pending set (edges of R whose state differs from target)
    incrementally: it observes each realized flip through
    :meth:`update`, costing O(1) per event, and never reads the graph, so
    it may see a flip before the flip lands.  Every proposal is a pending
    edge, hence always inside R.
    """

    def __init__(self, task: EmbeddingTask):
        self._region = task.region
        # insertion-ordered; proposal picks an arbitrary (first) element
        self._pending: Dict[Pair, None] = dict.fromkeys(task.flips)

    @property
    def done(self) -> bool:
        return not self._pending

    def propose(self, graph: DynamicGraph) -> Pair:
        return next(iter(self._pending))

    def update(self, edge: Pair, now_present: bool) -> None:
        if edge in self._region:
            if edge in self._pending:
                del self._pending[edge]
            else:
                self._pending[edge] = None


def run_adaptive_embed(
    g: DynamicGraph,
    task: EmbeddingTask,
    rng: np.random.Generator,
) -> EmbedResult:
    """Drive the adaptive embedding until success or budget exhaustion.

    Raises :class:`InfeasibleTaskError` before any draw unless the task
    meets the proviso r <= p n^2 / 18.  The smoothing draws come from
    ``rng`` in blocks (stream v2, see :mod:`smoothdyn.rng`), and ``rng`` is
    left after the last block drawn, so the caller may go on drawing
    from it."""
    task.require_feasible()
    adversary = AdaptiveEmbedAdversary(task)
    source = SmoothedSource(
        Model.ADAPTIVE, SmoothingParams(task.p), adversary, g.n, rng=rng
    )
    observers = [adversary]
    hits = 0
    steps = 0
    while not adversary.done and steps < task.budget:
        ev = source.next_change(g)
        notify_and_flip(g, ev.edge, not g.has_pair(ev.edge), observers)
        if ev.provenance is Provenance.RANDOM and ev.edge in task.region:
            hits += 1
        steps += 1
    return EmbedResult(adversary.done, steps, hits)


@dataclass(frozen=True)
class PhaseScript:
    region: frozenset
    phases: Tuple[Tuple[Pair, ...], ...]  # per-phase flip sets, each <= r_hat

    @property
    def r_hat(self) -> int:
        return max((len(ph) for ph in self.phases), default=0)


@dataclass
class MultiphaseResult:
    success: bool
    per_phase_steps: List[int]
    total_steps: int
    budget: float  # 12 k r_hat / p
    within_budget: bool


# failure-exponent constant c of the per-phase cutoff
PHASE_C = 1.0


def multiphase_embed(
    g: DynamicGraph,
    script: PhaseScript,
    p: float,
    rng: np.random.Generator,
) -> MultiphaseResult:
    """Realize k flip batches in sequence with a per-phase step cutoff.

    Each phase is an adaptive embedding of its batch with budget
    ceil(40 (c+2) r_hat max(ln k, 1) / p), c = :data:`PHASE_C`; the log
    floor makes k = 1 a single adaptive embedding with a positive budget.
    The advertised total budget is 12 k r_hat / p.  Requires p > 0.
    """
    k = len(script.phases)
    r_hat = script.r_hat
    if k == 0:
        return MultiphaseResult(True, [], 0, 0.0, True)
    if p <= 0:
        raise InfeasibleTaskError("phased embedding requires p > 0")
    cutoff = math.ceil(40.0 * (PHASE_C + 2.0) * r_hat * max(math.log(k), 1.0) / p)
    budget = 12.0 * k * r_hat / p
    per_phase: List[int] = []
    success = True
    for flips in script.phases:
        task = EmbeddingTask(g.n, script.region, tuple(flips), p, cutoff)
        result = run_adaptive_embed(g, task, rng)
        per_phase.append(result.steps_used)
        if not result.success:
            success = False
            break
    total = sum(per_phase)
    return MultiphaseResult(success, per_phase, total, budget, success and total <= budget)


def run_oblivious_ar_embed(
    n: int,
    region: Sequence[Pair],
    flips: Sequence[Pair],
    p: float,
    budget: int,
    rng: np.random.Generator,
) -> EmbedResult:
    """Oblivious add/remove embedding of R' inside R on :class:`SmoothedSource`.

    The adversary knows the intended pre-state of every R' edge and at
    step i proposes the idempotent Add/Remove toward R'[i mod r']'s
    flipped target; it gets no feedback, not even the coins.  Success is
    measured post hoc as (G xor G_start) intersected with R equal to R'
    exactly.  Only the region's edge states are tracked; flips outside R
    cannot affect the outcome.  A bad R', or a region that names a pair
    twice, raises :class:`InfeasibleTaskError` before any draw.
    """
    flip_list = EmbeddingTask(n, region, flips, p, budget).flips  # R' in R, no repeats
    if not flip_list:
        raise InfeasibleTaskError("the oblivious embedding needs a nonempty R'")
    region_pairs = [pair(u, v) for u, v in region]
    if len(set(region_pairs)) != len(region_pairs):
        # one start bit is drawn per listed pair, so a repeat would draw twice
        raise InfeasibleTaskError("duplicate pairs in R")
    bits = rng.random(len(region_pairs)) < 0.5
    start = {e: bool(b) for e, b in zip(region_pairs, bits)}
    state = dict(start)
    moves = ScriptedFlipAdversary(flip_list, [Kind.REMOVE if start[e] else Kind.ADD for e in flip_list])
    source = SmoothedSource(Model.OBLIVIOUS_AR, SmoothingParams(p), moves, n, rng=rng)
    hits = 0
    for _ in range(budget):
        e, kind, provenance = source.next_change()
        if provenance is Provenance.ADVERSARIAL:
            state[e] = kind is Kind.ADD
        elif e in state:
            state[e] = not state[e]
            hits += 1
    flip_set = set(flip_list)
    success = all(
        (state[e] != start[e]) == (e in flip_set) for e in region_pairs
    )
    return EmbedResult(success, budget, hits)


def oblivious_ar_failure_bound(r_prime: int, r: int, n: int, q: float, budget: int) -> float:
    """Numeric value of the failure bound r' q^{l/r'} + q l r / n^2."""
    return r_prime * q ** (budget / r_prime) + q * budget * r / float(n * n)
