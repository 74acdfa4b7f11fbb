"""Deterministic RNG streams.

All randomness in the library flows through numpy's PCG64 generator,
seeded through ``numpy.random.SeedSequence`` with an explicit hierarchical
key.  A stream is fully named by ``(seed, *key)`` where the key components
are small integers, so any experiment can be replayed (or re-implemented
in another language: the algorithm is "PCG64 seeded by SeedSequence over
the entropy tuple").

Conventional top-level key components:

* ``ADVERSARY`` -- the adversary's private coins
* ``SMOOTHING`` -- the smoothing coins and uniform replacement edges
* ``TRIAL``     -- per-trial derived streams in the harness

Stream version 2 (:data:`STREAM_VERSION`) draws change sequences a block
of k steps at a time, as numpy arrays, with k from :func:`block_sizes`:
16, then doubling up to 2048.  A short-lived stream (a 20-step embedding)
thus pays for few draws, and a long one amortizes numpy's call overhead.
Per block, in this order on each generator:

* a ``SmoothedSource``'s generator: the coins ``random(k)`` (step i keeps
  the adversary's proposal iff ``coins[i] < p``), then one replacement
  per step, used or not: ``integers(m, size=k)`` over the m allowed pairs
  (``graph.uniform_pairs``, the restriction in its given order, else the
  row-major order of all pairs);
* a ``UniformFlipAdversary``'s generator: its proposals,
  ``integers(m, size=k)`` in the same way;
* a ``FlipSimulatingARAdversary``'s generator: the wrapped adversary's
  block first, then the Add/Remove coins ``random(k)`` (Add iff < 1/2).

A source draws a block when its first step is asked for, and leaves its
generator after the last block it drew, whether or not every step of
that block was used; so does a uniform adversary.

Scalar ``standard_exponential()`` draws (the reduction's Poisson
sampling, numpy's ziggurat) go through :class:`ExponentialDraws`, which
keeps the stream of scalar calls.  It relies on one contract of the
installed numpy, which ``tests/test_rng.py`` checks:
``standard_exponential(k)`` returns the same values as ``k`` scalar calls
and leaves the generator in the same state.  It is a scope that owns its
generator from construction until ``close()`` and serves scalar calls
from arrays fetched ahead in blocks of :func:`block_sizes`.  While it is
open nothing else may draw from its generator: what it fetched ahead is
not yet drawn as far as the generator knows.  ``close()`` restores the
state saved on open and fetches exactly the values used as one array,
which leaves the generator where the same scalar calls would have.  Each
value comes from one ``_next()``, a chain over a generator of blocks that
holds no reference to its scope, so a scope nobody closes is freed by
reference counting when dropped, not left to the cyclic collector.
"""

from __future__ import annotations

from functools import partial
from itertools import chain

import numpy as np

ADVERSARY = 0xAD
SMOOTHING = 0x5E
TRIAL = 0x7A

# The change-sequence stream described in the module docstring; a seeded
# output of another version is not comparable to one of this version.
STREAM_VERSION = 2

_FIRST_BLOCK = 16
_MAX_BLOCK = 2048


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator named by ``(seed, *key)``."""
    entropy = (int(seed),) + tuple(int(k) for k in key)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def adversary_stream(seed: int, trial: int = 0) -> np.random.Generator:
    return stream(seed, ADVERSARY, trial)


def smoothing_stream(seed: int, trial: int = 0) -> np.random.Generator:
    return stream(seed, SMOOTHING, trial)


def trial_stream(seed: int, trial: int, *key: int) -> np.random.Generator:
    return stream(seed, TRIAL, trial, *key)


def block_sizes():
    """The block sizes of every array-drawn stream: 16, 32, ..., then 2048 forever."""
    size = _FIRST_BLOCK
    while True:
        yield size
        size = min(2 * size, _MAX_BLOCK)


def _blocks(fetch, fetched: list):
    """Yield each ``fetch(k).tolist()`` block's iterator, keeping
    ``fetched`` as [values fetched, current block]; never given a scope."""
    for size in block_sizes():
        fetched[1] = block = iter(fetch(size).tolist())
        fetched[0] += size
        yield block


def _closed(name: str):
    raise RuntimeError(f"{name} used after close()")


class ExponentialDraws:
    """Scalar ``standard_exponential()`` draws of a generator, served from
    array draws (see the module docstring); a context manager that closes
    on exit."""

    __slots__ = ("_gen", "_state", "_fetched", "_next")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._state = gen.bit_generator.state
        self._fetched = [0, None]
        self._next = chain.from_iterable(_blocks(gen.standard_exponential, self._fetched)).__next__

    def standard_exponential(self) -> float:
        """``Generator.standard_exponential()``: an Exp(1) float."""
        return self._next()

    def close(self) -> None:
        """Hand the generator back in the state plain draws would leave."""
        gen = self._gen
        if gen is None:
            return
        fetched, block = self._fetched
        if fetched:
            gen.bit_generator.state = self._state
            used = fetched - block.__length_hint__()
            if used:
                gen.standard_exponential(used)
        self._gen = None
        self._next = partial(_closed, type(self).__name__)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
