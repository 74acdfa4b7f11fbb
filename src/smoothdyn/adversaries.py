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
from typing import Dict, List, Tuple

import numpy as np

from .graph import DynamicGraph, Pair, pair
from .smoothing import (
    Model,
    Provenance,
    ScriptedFlipAdversary,
    SmoothedSource,
    SmoothingParams,
    notify_and_flip,
)


# Members read once per step, bound here: a module global reads several
# times faster than an Enum member lookup.
_RANDOM, _ADVERSARIAL = Provenance.RANDOM, Provenance.ADVERSARIAL


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
        if not 0.0 <= self.p <= 1.0:
            raise InfeasibleTaskError(f"p={self.p} outside [0,1]")
        if self.budget < 0:
            raise InfeasibleTaskError(f"negative step budget {self.budget}")
        listed = [pair(u, v) for u, v in self.region]
        region = frozenset(listed)
        flips = tuple(pair(u, v) for u, v in self.flips)
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "flips", flips)
        if len(region) != len(listed):
            raise InfeasibleTaskError("duplicate pairs in R")
        if listed and max(v for _, v in listed) >= self.n:  # canonical: v is the larger node
            raise InfeasibleTaskError(f"a pair of R names a node outside [0, {self.n})")
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
    region = task.region
    hits = steps = 0

    def changes():
        # each step is drawn after the last flip landed, as in run_sequence
        nonlocal hits, steps
        while not adversary.done and steps < task.budget:
            edge, _, provenance = source.next_change(g)
            if provenance is _RANDOM and edge in region:
                hits += 1
            steps += 1
            yield edge

    notify_and_flip(g, changes(), (adversary,))
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


def run_oblivious_ar_embed(task: EmbeddingTask, rng: np.random.Generator) -> EmbedResult:
    """Oblivious add/remove embedding of R' inside R on :class:`SmoothedSource`.

    One start bit is drawn per pair of R, and R' takes the first r' bits,
    in its own order, as its pairs' intended pre-states.  At step i the
    adversary proposes the idempotent Add/Remove toward R'[i mod r']'s
    flipped target; it gets no feedback, not even the coins.  Success is
    measured post hoc as (G xor G_start) intersected with R equal to R'
    exactly, so only which region pairs changed is tracked: a kept move
    marks its pair changed, and a random flip inside R toggles the mark.
    The task need not meet the proviso r <= p n^2 / 18; an empty R'
    raises :class:`InfeasibleTaskError` before any draw.
    """
    flips = task.flips
    if not flips:
        raise InfeasibleTaskError("the oblivious embedding needs a nonempty R'")
    start = rng.random(len(task.region)) < 0.5
    moves = ScriptedFlipAdversary(flips, ~start[: len(flips)])  # Add iff absent
    source = SmoothedSource(Model.OBLIVIOUS_AR, SmoothingParams(task.p), moves, task.n, rng=rng)
    region = task.region
    changed = set()
    hits = 0
    for _ in range(task.budget):
        e, _, provenance = source.next_change()
        if provenance is _ADVERSARIAL:
            changed.add(e)
        elif e in region:
            changed ^= {e}
            hits += 1
    return EmbedResult(changed == set(flips), task.budget, hits)


def oblivious_ar_failure_bound(r_prime: int, r: int, n: int, q: float, budget: int) -> float:
    """Numeric value of the failure bound r' q^{l/r'} + q l r / n^2."""
    return r_prime * q ** (budget / r_prime) + q * budget * r / float(n * n)
