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

Since stream version 2, change sequences are drawn a block of k steps
at a time, as numpy arrays, with k from :func:`block_sizes`:
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

Stream version 3 (:data:`STREAM_VERSION`) keeps version 2's change
sequences and draws every Poisson count of the reduction with numpy's
exact ``Generator.poisson``; ``smoothdyn.reduction`` gives the draw
order.  Version 2 drew each count by exponential spacings, one scalar
Exp(1) draw per unit of the count.
"""

from __future__ import annotations

import numpy as np

ADVERSARY = 0xAD
SMOOTHING = 0x5E
TRIAL = 0x7A

# The stream described in the module docstring; a seeded output of
# another version is not comparable to one of this version.
STREAM_VERSION = 3

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

