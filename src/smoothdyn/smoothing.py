"""p-smoothed change sequences for the three adversary models.

A :class:`SmoothedSource` produces one change per call: with probability
``p`` the adversary's proposal is realized, otherwise a uniformly random
flip over the allowed pair set replaces it.  Initial graphs are smoothed
the same way, pair by pair, against a Bernoulli(1/2) resample.

Adversary handles:

* oblivious flip:        ``propose(step) -> pair``
* oblivious add/remove:  ``propose(step) -> (pair, Kind.ADD | Kind.REMOVE)``
* adaptive:              ``propose(graph) -> pair`` (sees the realized graph,
  never the upcoming smoothing coin)

Oblivious proposals are drawn every step regardless of the smoothing coin,
so the proposal stream is a pure function of the adversary seed and the
step index (replayable under different smoothing seeds).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .graph import DynamicGraph, Pair, pair, uniform_pair
from .rng import smoothing_stream


class Kind(Enum):
    FLIP = "flip"
    ADD = "add"
    REMOVE = "remove"


class Provenance(Enum):
    ADVERSARIAL = "adversarial"
    RANDOM = "random"


class Model(Enum):
    OBLIVIOUS_FLIP = "oblivious-flip"
    OBLIVIOUS_AR = "oblivious-ar"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class ChangeEvent:
    edge: Pair
    kind: Kind
    provenance: Provenance  # diagnostic only; never shown to observers


@dataclass(frozen=True)
class SmoothingParams:
    p: float
    seed: int = 0
    restriction: Optional[Tuple[Pair, ...]] = None

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p={self.p} outside [0,1]")
        if self.restriction is not None and len(self.restriction) == 0:
            raise ValueError("restriction, when present, must be nonempty")


class ContractViolation(RuntimeError):
    """An adversary proposed an edge outside the allowed set."""


class SmoothedSource:
    """Stateful generator of one p-smoothed change per :meth:`next_change`."""

    def __init__(
        self,
        model: Model,
        params: SmoothingParams,
        adversary,
        n: int,
        rng: Optional[np.random.Generator] = None,
    ):
        self.model = model
        self.params = params
        self.adversary = adversary
        self.n = n
        self._rng = rng if rng is not None else smoothing_stream(params.seed)
        self._step = 0
        if params.restriction is not None:
            self._allowed: Optional[List[Pair]] = [pair(u, v) for u, v in params.restriction]
            self._allowed_set = frozenset(self._allowed)
        else:
            self._allowed = None
            self._allowed_set = None

    def _check(self, e: Pair) -> Pair:
        e = pair(*e)
        if self._allowed_set is not None and e not in self._allowed_set:
            raise ContractViolation(f"adversary proposed {e} outside the allowed set")
        if e[1] >= self.n:
            raise ContractViolation(f"adversary proposed {e} out of range for n={self.n}")
        return e

    def next_change(self, graph: Optional[DynamicGraph] = None) -> ChangeEvent:
        i = self._step
        self._step += 1
        if self.model is Model.ADAPTIVE:
            if graph is None:
                raise ValueError("adaptive model requires the realized graph")
            prop, kind = self._check(self.adversary.propose(graph)), Kind.FLIP
        elif self.model is Model.OBLIVIOUS_FLIP:
            prop, kind = self._check(self.adversary.propose(i)), Kind.FLIP
        else:
            prop, kind = self.adversary.propose(i)
            prop = self._check(prop)
            if kind not in (Kind.ADD, Kind.REMOVE):
                raise ContractViolation(f"add/remove adversary proposed kind {kind}")
        if self._rng.random() < self.params.p:
            return ChangeEvent(prop, kind, Provenance.ADVERSARIAL)
        # the random replacement is always a flip, in every model
        return ChangeEvent(
            uniform_pair(self.n, self._rng, self._allowed), Kind.FLIP, Provenance.RANDOM
        )


def smooth_initial(
    h0: DynamicGraph, params: SmoothingParams, rng: np.random.Generator
) -> DynamicGraph:
    """Keep each allowed pair per ``h0`` w.p. p, else resample Bernoulli(1/2).

    Stream contract: two draws of k values, where k is the number of
    allowed pairs (binom(n,2) without a restriction): first
    ``keep = rng.random(k) < p``, then ``resample = rng.random(k) < 0.5``.
    The i-th allowed pair, in :func:`pair_index` order or the restriction's
    order, is present iff ``h0`` has it when ``keep[i]``, else iff
    ``resample[i]``.
    """
    if params.restriction is not None:
        allowed: Sequence[Pair] = [pair(u, v) for u, v in params.restriction]
        allowed_set = set(allowed)
        for e in h0.edges():
            if e not in allowed_set:
                raise ValueError(f"h0 edge {e} violates the restriction")
    else:
        from .graph import all_pairs

        allowed = list(all_pairs(h0.n))
    m = len(allowed)
    keep = rng.random(m) < params.p
    resample = rng.random(m) < 0.5
    edges = [
        e
        for e, k, r in zip(allowed, keep, resample)
        if (h0.has_pair(e) if k else r)
    ]
    return DynamicGraph(h0.n, edges)


def apply_event(g: DynamicGraph, ev: ChangeEvent) -> Tuple[bool, bool]:
    """Classify an event against the current graph.

    Returns ``(effective, present_after)``: whether the event actually
    toggles the edge, and the edge's membership after application.  Does
    not mutate the graph.
    """
    present = g.has_pair(ev.edge)
    if ev.kind is Kind.FLIP:
        return True, not present
    if ev.kind is Kind.ADD:
        return (not present), True
    return present, False  # REMOVE


def notify_and_flip(g: DynamicGraph, e: Pair, observers: Iterable) -> bool:
    """Call every observer's ``update(e, now_present)`` while ``g`` still
    holds the pre-flip state (the counters' ordering contract), then flip
    ``e`` in ``g``; returns ``now_present``."""
    now_present = not g.has_pair(e)
    for obs in observers:
        obs.update(e, now_present)
    g.flip(*e)
    return now_present


def run_sequence(
    g: DynamicGraph,
    source: SmoothedSource,
    T: int,
    observers: Iterable = (),
) -> List[ChangeEvent]:
    """Drive T steps, applying realized events and notifying observers.

    :func:`apply_event` classifies each event; an effective one goes
    through :func:`notify_and_flip`, the one place that implements the
    counters' ordering contract (``update(edge, now_present)`` before the
    flip lands on the shared graph).  Observers that define ``null_step()``
    get it for each ineffective add/remove event.  Provenance is never
    passed on.
    """
    observers = list(observers)
    log: List[ChangeEvent] = []
    for _ in range(T):
        ev = source.next_change(g)
        effective, _ = apply_event(g, ev)
        if effective:
            notify_and_flip(g, ev.edge, observers)
        else:
            for obs in observers:
                null = getattr(obs, "null_step", None)
                if null is not None:
                    null()
        log.append(ev)
    return log


def write_event_log(events: Iterable[ChangeEvent], fp: IO[str]) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["step", "kind", "u", "v", "provenance"])
    for i, ev in enumerate(events):
        writer.writerow([i, ev.kind.value, *ev.edge, ev.provenance.value])


class LazyFlipAdapter:
    """Run a flip-model algorithm on an add/remove event stream.

    Ineffective events become null steps; on the next effective flip the
    wrapped algorithm is fed one ``update(None, False)`` per banked null
    step (catch-up) before the real flip, so its per-step computation
    budget matches a direct flip-model run.
    """

    def __init__(self, algorithm):
        self._algorithm = algorithm
        self._banked_nulls = 0

    def null_step(self) -> None:
        self._banked_nulls += 1

    def update(self, edge: Pair, now_present: bool) -> None:
        for _ in range(self._banked_nulls):
            self._algorithm.update(None, False)
        self._banked_nulls = 0
        self._algorithm.update(edge, now_present)

    def query(self, *args, **kwargs):
        return self._algorithm.query(*args, **kwargs)


# -- adversary handles ---------------------------------------------------


class UniformFlipAdversary:
    """Oblivious flip proposals drawn uniformly from the allowed set."""

    def __init__(self, n: int, rng: np.random.Generator, restriction=None):
        self.n = n
        self._rng = rng
        self._allowed = [pair(u, v) for u, v in restriction] if restriction else None

    def propose(self, step: int) -> Pair:
        return uniform_pair(self.n, self._rng, self._allowed)


class UniformAdaptiveAdversary(UniformFlipAdversary):
    """Adaptive handle with the uniform strategy: ``propose(graph)`` ignores
    the graph exactly as the oblivious one ignores the step."""


class UniformAddRemoveAdversary(UniformFlipAdversary):
    def propose(self, step: int) -> Tuple[Pair, Kind]:  # type: ignore[override]
        e = uniform_pair(self.n, self._rng, self._allowed)
        kind = Kind.ADD if self._rng.random() < 0.5 else Kind.REMOVE
        return e, kind


class ScriptedFlipAdversary:
    """Oblivious flip proposals cycling through a fixed edge list."""

    def __init__(self, edges: Sequence[Pair]):
        self._edges = [pair(u, v) for u, v in edges]

    def propose(self, step: int) -> Pair:
        return self._edges[step % len(self._edges)]


class StarFlipAdversary(ScriptedFlipAdversary):
    """Oblivious proposals cycling over all edges incident to a hub node."""

    def __init__(self, n: int, hub: int = 0):
        super().__init__([(hub, v) for v in range(n) if v != hub])


def p_prime(p: float) -> float:
    """Effective flip-smoothing parameter of the lazy simulation."""
    return p / (2.0 - p)


class FlipSimulatingARAdversary:
    """Oblivious add/remove strategy simulating a flip strategy.

    Copies the wrapped flip strategy's edge choice each step and picks
    Add or Remove by a fair private coin; the realized process is then a
    lazy flip process with parameter ``p_prime(p) = p/(2-p)`` (each step
    is null with probability p/2).
    """

    def __init__(self, flip_adversary, rng: np.random.Generator):
        self._flip_adversary = flip_adversary
        self._rng = rng

    def propose(self, step: int) -> Tuple[Pair, Kind]:
        e = self._flip_adversary.propose(step)
        kind = Kind.ADD if self._rng.random() < 0.5 else Kind.REMOVE
        return e, kind
