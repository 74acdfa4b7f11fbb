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
from typing import IO, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .graph import DynamicGraph, Pair, pair, uniform_pair
from .rng import BlockDraws


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


class ChangeEvent(NamedTuple):
    """One realized change; a named tuple, which builds about twice as
    fast as a frozen dataclass on the per-step path."""

    edge: Pair
    kind: Kind
    provenance: Provenance  # diagnostic only; never shown to observers


@dataclass(frozen=True)
class SmoothingParams:
    p: float
    restriction: Optional[Tuple[Pair, ...]] = None

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p={self.p} outside [0,1]")
        if self.restriction is not None:  # stored once, as a tuple of canonical pairs
            object.__setattr__(self, "restriction", tuple(pair(u, v) for u, v in self.restriction))
            if not self.restriction:
                raise ValueError("restriction, when present, must be nonempty")


class ContractViolation(RuntimeError):
    """An adversary proposed an edge outside the allowed set."""


class SmoothedSource:
    """Stateful generator of one p-smoothed change per :meth:`next_change`.

    Owns ``rng`` through a :class:`~smoothdyn.rng.BlockDraws`: nothing
    else may draw from it until :meth:`close` hands it back.
    """

    def __init__(
        self,
        model: Model,
        params: SmoothingParams,
        adversary,
        n: int,
        rng: np.random.Generator,
    ):
        self._allowed = params.restriction
        self._allowed_set = None
        if params.restriction is not None:
            for e in params.restriction:  # canonical, so e[1] is the larger node
                if e[1] >= n:
                    raise ValueError(f"restriction pair {e} out of range for n={n}")
            self._allowed_set = frozenset(params.restriction)
        self.model = model
        self.params = params
        self.adversary = adversary
        self.n = n
        self._draws = BlockDraws(rng)
        self._step = 0

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
        if self._draws.random() < self.params.p:
            return ChangeEvent(prop, kind, Provenance.ADVERSARIAL)
        # the random replacement is always a flip, in every model
        return ChangeEvent(
            uniform_pair(self.n, self._draws, self._allowed), Kind.FLIP, Provenance.RANDOM
        )

    def close(self) -> None:
        """Hand the smoothing generator back in the state plain numpy draws
        would have left it in."""
        self._draws.close()


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
        allowed: Sequence[Pair] = params.restriction
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


def notify_and_flip(g: DynamicGraph, e: Pair, observers: Iterable) -> None:
    """Call every observer's ``update(e, now_present)`` while ``g`` still
    holds the pre-flip state (the counters' ordering contract), then flip
    ``e`` in ``g``."""
    now_present = not g.has_pair(e)
    for obs in observers:
        obs.update(e, now_present)
    g.flip(*e)


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
    flip lands on the shared graph).  An ineffective add/remove event is a
    null step of the lazy flip process: every observer gets
    ``update(None, False)`` at that step.  Provenance is never passed on.
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
                obs.update(None, False)
        log.append(ev)
    return log


def write_event_log(events: Iterable[ChangeEvent], fp: IO[str]) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["step", "kind", "u", "v", "provenance"])
    for i, ev in enumerate(events):
        writer.writerow([i, ev.kind.value, *ev.edge, ev.provenance.value])


# -- adversary handles ---------------------------------------------------


class UniformFlipAdversary:
    """The uniform strategy of every model: ``propose`` ignores its argument
    (the step, or the adaptive model's graph) and draws from ``draws`` a
    uniform pair of ``restriction``, indexed as given, else of all pairs."""

    def __init__(self, n: int, draws, restriction: Optional[Sequence[Pair]] = None):
        self.n = n
        self._draws = draws
        self._allowed = restriction

    def propose(self, _) -> Pair:
        return uniform_pair(self.n, self._draws, self._allowed)


class ScriptedFlipAdversary:
    """Oblivious proposals cycling through a fixed list by step index:
    pairs, or ``(pair, kind)`` for the add/remove model."""

    def __init__(self, edges: Sequence):
        self._edges = list(edges)
        if not self._edges:
            raise ValueError("ScriptedFlipAdversary needs at least one proposal")

    def propose(self, step: int):
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
    is null with probability p/2).  The coin comes from ``draws``, after
    the wrapped proposal, which may draw from the same ``draws``.
    """

    def __init__(self, flip_adversary, draws):
        self._flip_adversary = flip_adversary
        self._draws = draws

    def propose(self, step: int) -> Tuple[Pair, Kind]:
        e = self._flip_adversary.propose(step)
        kind = Kind.ADD if self._draws.random() < 0.5 else Kind.REMOVE
        return e, kind
