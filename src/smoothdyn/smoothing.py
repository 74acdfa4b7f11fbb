"""p-smoothed change sequences for the three adversary models.

A :class:`SmoothedSource` produces one change per call: with probability
``p`` the adversary's proposal is realized, otherwise a uniformly random
flip over the allowed pair set replaces it.  Initial graphs are smoothed
the same way, pair by pair, against a Bernoulli(1/2) resample.

Adversary handles:

* oblivious flip:        ``propose_block(step, k) -> (u, v)``, int arrays
  holding the proposals of steps ``step`` to ``step + k - 1``
* oblivious add/remove:  ``propose_block(step, k) -> (u, v, kinds)``, with
  a list of ``Kind.ADD | Kind.REMOVE``
* adaptive:              ``propose(graph) -> pair`` (sees the realized graph,
  never the upcoming smoothing coin)

Oblivious proposals are drawn for every step regardless of the smoothing
coin, so the proposal stream is a pure function of the adversary seed and
the step index (replayable under different smoothing seeds).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import chain, repeat
from typing import IO, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .graph import DynamicGraph, Pair, pair, uniform_pairs
from .rng import block_sizes


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


def _pair_array(pairs: Sequence[Pair]) -> np.ndarray:
    """Pairs as the rows of an (m, 2) int64 array, in their given order."""
    return np.fromiter(chain.from_iterable(pairs), dtype=np.int64).reshape(len(pairs), 2)


def _checked(n: int, allowed: Optional[frozenset], e: Pair) -> Pair:
    """The canonical form of proposal ``e``, or the error it violates."""
    e = pair(*e)
    if allowed is not None and e not in allowed:
        raise ContractViolation(f"adversary proposed {e} outside the allowed set")
    if e[1] >= n:
        raise ContractViolation(f"adversary proposed {e} out of range for n={n}")
    return e


_PROVENANCE = np.array([Provenance.RANDOM, Provenance.ADVERSARIAL], dtype=object)  # by coin


# A ChangeEvent from one (edge, kind, provenance) tuple, built in C: several
# times faster than the named tuple's own __new__ on the per-step path.
_event = partial(tuple.__new__, ChangeEvent)


def _change_blocks(model: Model, p: float, adversary, n: int, rng, allowed, check):
    """Yield each block's per-step entries, in the draws of stream v2 (see
    :mod:`smoothdyn.rng`): an oblivious model's events, or for the adaptive
    model, per step, whether the coin keeps the proposal and the
    replacement pair.  An oblivious block's proposals are checked as a
    whole; at the first bad one the block stops, and ``check`` raises at
    its step."""
    allowed_codes = None if allowed is None else allowed[:, 0] * n + allowed[:, 1]
    step = 0
    for k in block_sizes():
        proposals = None if model is Model.ADAPTIVE else adversary.propose_block(step, k)
        kept = rng.random(k) < p
        ru, rv = uniform_pairs(n, rng, k, allowed)
        step += k
        if proposals is None:
            yield zip(kept.tolist(), zip(ru.tolist(), rv.tolist()))
            continue
        u, v, *proposed = proposals
        a, b = np.minimum(u, v), np.maximum(u, v)
        ok = (a >= 0) & (a != b) & (b < n)
        if allowed_codes is not None:
            ok &= np.isin(a * n + b, allowed_codes)
        kinds = repeat(Kind.FLIP)  # a replacement is a flip in every model
        if model is Model.OBLIVIOUS_AR:
            (proposed,) = proposed
            # list.count compares by identity first, without hashing each Kind
            if proposed.count(Kind.ADD) + proposed.count(Kind.REMOVE) != k:
                ok &= np.array([kd is Kind.ADD or kd is Kind.REMOVE for kd in proposed])
            kinds = [kd if kp else Kind.FLIP for kd, kp in zip(proposed, kept.tolist())]
        edges = zip(np.where(kept, a, ru).tolist(), np.where(kept, b, rv).tolist())
        events = list(map(_event, zip(edges, kinds, _PROVENANCE[kept.view(np.uint8)].tolist())))
        if not ok.all():
            j = int(np.argmin(ok))
            yield events[:j]
            check((int(u[j]), int(v[j])))
            raise ContractViolation(f"add/remove adversary proposed kind {proposed[j]}")
        yield events


class SmoothedSource:
    """Stateful generator of one p-smoothed change per :meth:`next_change`.

    Draws ``rng`` in stream v2 (see :mod:`smoothdyn.rng`): per block of k
    steps the coins, then a replacement pair for every step, used or not.
    An oblivious adversary's ``propose_block`` is asked for the same k
    steps as the block is drawn; an adaptive adversary's ``propose(graph)``
    is asked at every step.  Every proposal goes through ``_check``, an
    oblivious block's once per block, so a violation raises at the step
    that proposed it, and ends an oblivious source.  The source leaves
    ``rng`` after the last block it drew, and nothing else should draw
    from ``rng`` while it is in use.
    """

    def __init__(
        self,
        model: Model,
        params: SmoothingParams,
        adversary,
        n: int,
        rng: np.random.Generator,
    ):
        allowed = allowed_set = None
        if params.restriction is not None:
            allowed = _pair_array(params.restriction)
            out = np.flatnonzero(allowed[:, 1] >= n)  # canonical, so column 1 is the larger node
            if out.size:
                raise ValueError(f"restriction pair {params.restriction[out[0]]} out of range for n={n}")
            allowed_set = frozenset(params.restriction)
        self.adversary = adversary
        self._adaptive = model is Model.ADAPTIVE
        self._check = partial(_checked, n, allowed_set)
        blocks = _change_blocks(model, params.p, adversary, n, rng, allowed, self._check)
        self._next = chain.from_iterable(blocks).__next__

    def next_change(self, graph: Optional[DynamicGraph] = None) -> ChangeEvent:
        if not self._adaptive:
            return self._next()
        if graph is None:
            raise ValueError("adaptive model requires the realized graph")
        prop = self._check(self.adversary.propose(graph))
        kept, replacement = self._next()
        if kept:
            return _event((prop, Kind.FLIP, Provenance.ADVERSARIAL))
        return _event((replacement, Kind.FLIP, Provenance.RANDOM))


def smooth_initial(
    h0: DynamicGraph, params: SmoothingParams, rng: np.random.Generator
) -> DynamicGraph:
    """Keep each allowed pair per ``h0`` w.p. p, else resample Bernoulli(1/2).

    Stream contract: two draws of k values, where k is the number of
    allowed pairs (binom(n,2) without a restriction): first
    ``keep = rng.random(k) < p``, then ``resample = rng.random(k) < 0.5``.
    The i-th allowed pair, in row-major order or the restriction's
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


def notify_and_flip(g: DynamicGraph, e: Pair, now_present: bool, observers: Iterable) -> None:
    """Call every observer's ``update(e, now_present)`` while ``g`` still
    holds the pre-flip state (the counters' ordering contract), then flip
    ``e`` in ``g``; ``now_present`` is ``not g.has_pair(e)``, which the
    caller has already read."""
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

    :func:`apply_event` classifies each event; an effective one goes, with
    the membership ``apply_event`` read, through :func:`notify_and_flip`,
    the one place that implements the counters' ordering contract
    (``update(edge, now_present)`` before the flip lands on the shared
    graph).  An ineffective add/remove event is a null step of the lazy
    flip process: every observer gets ``update(None, False)`` at that
    step.  Provenance is never passed on.
    """
    observers = list(observers)
    log: List[ChangeEvent] = []
    for _ in range(T):
        ev = source.next_change(g)
        effective, present = apply_event(g, ev)
        if effective:
            notify_and_flip(g, ev.edge, present, observers)
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


def _uniform_blocks(n: int, rng: np.random.Generator, allowed: Optional[np.ndarray]):
    """Each block of a uniform adversary's proposals, as an iterator of pairs."""
    for k in block_sizes():
        u, v = uniform_pairs(n, rng, k, allowed)
        yield zip(u.tolist(), v.tolist())


class UniformFlipAdversary:
    """The uniform strategy of every model: uniform pairs of ``restriction``,
    indexed as given, else of all pairs, drawn from ``rng`` a block at a
    time.  An oblivious model asks :meth:`propose_block` for k steps at a
    time; the adaptive model asks :meth:`propose` at every step, which
    ignores the graph and serves blocks of :func:`~smoothdyn.rng.block_sizes`
    one pair at a time.  Either way the draws are the same."""

    def __init__(self, n: int, rng: np.random.Generator, restriction: Optional[Sequence[Pair]] = None):
        self.n = n
        self._rng = rng
        self._allowed = None if restriction is None else _pair_array(restriction)
        self._next = chain.from_iterable(_uniform_blocks(n, rng, self._allowed)).__next__

    def propose_block(self, step: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
        return uniform_pairs(self.n, self._rng, k, self._allowed)

    def propose(self, _graph) -> Pair:
        return self._next()


class ScriptedFlipAdversary:
    """Oblivious proposals cycling through a fixed list of pairs by step
    index; for the add/remove model, pair i comes with ``kinds[i]``."""

    def __init__(self, edges: Sequence[Pair], kinds: Optional[Sequence[Kind]] = None):
        self._edges = _pair_array(edges)
        if not len(self._edges):
            raise ValueError("ScriptedFlipAdversary needs at least one proposal")
        self._kinds = None if kinds is None else list(kinds)
        if kinds is not None and len(self._kinds) != len(self._edges):
            raise ValueError("ScriptedFlipAdversary needs one kind per pair")

    def propose_block(self, step: int, k: int):
        at = np.arange(step, step + k) % len(self._edges)
        u, v = self._edges[at].T
        if self._kinds is None:
            return u, v
        return u, v, [self._kinds[i] for i in at.tolist()]


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
    is null with probability p/2).  A block's coins are ``rng.random(k)``,
    drawn after the wrapped block, which may come from the same ``rng``.
    """

    def __init__(self, flip_adversary, rng: np.random.Generator):
        self._flip_adversary = flip_adversary
        self._rng = rng

    def propose_block(self, step: int, k: int):
        u, v = self._flip_adversary.propose_block(step, k)
        add = (self._rng.random(k) < 0.5).tolist()
        return u, v, [Kind.ADD if a else Kind.REMOVE for a in add]
