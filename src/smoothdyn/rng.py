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

Per-step scalar draws go through :class:`BlockDraws`, which decodes raw
PCG64 words in pure Python into exactly the values numpy's own scalar
calls return, without numpy's per-call overhead.  Its stream contract,
for the installed numpy's PCG64 (Lemire, "Fast Random Integer Generation
in an Interval", 2019; O'Neill, "PCG", 2014):

* ``random()`` is ``(w >> 11) * 2**-53`` for the next 64-bit word ``w``;
* ``integers(N)`` with ``N == 1`` is 0 and draws nothing; with
  ``N <= 2**32`` it is 32-bit Lemire rejection over ``next_uint32``,
  which returns the low half of a fresh word and buffers its high half
  for the next ``next_uint32`` (``has_uint32``/``uinteger`` in the
  state); at ``N == 2**32`` that is one plain ``next_uint32``, which is
  never rejected; a larger ``N`` is 64-bit Lemire rejection over whole
  words.

Scalar ``standard_exponential()`` draws (numpy's ziggurat) go through
:class:`ExponentialDraws`, which decodes nothing.  It relies on one
contract of the installed numpy, which ``tests/test_rng.py`` checks:
``standard_exponential(k)`` returns the same values as ``k`` scalar
calls and leaves the generator in the same state (the ziggurat reads
whole 64-bit words, so the 32-bit half-word buffer is untouched).

Both are scopes that own their generator from construction until
``close()`` and serve scalar calls from arrays fetched ahead
(``random_raw(k)`` words, ``standard_exponential(k)`` values).  While
one is open nothing else may draw from its generator: what it fetched
ahead is not yet drawn as far as the generator knows.  ``close()``
restores the state saved on open and fetches exactly the values used as
one array, which leaves the generator where the same scalar calls would
have; ``BlockDraws`` then writes back its 32-bit half-word buffer.
Each value comes from one ``_next()`` that refills itself, a chain over
a generator of blocks that holds no reference to its scope: a scope
nobody closes (``simulate`` leaves its own open) is then freed by
reference counting when dropped, not left to the cyclic collector.
"""

from __future__ import annotations

from functools import partial
from itertools import chain

import numpy as np

ADVERSARY = 0xAD
SMOOTHING = 0x5E
TRIAL = 0x7A

# Raw words fetched by the first refill; each later refill doubles it up
# to the cap.  A short-lived stream (a 10-step embedding) thus pays for
# few words, and a long one amortizes numpy's call overhead.
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


def _blocks(fetch, fetched: list):
    """Yield each ``fetch(k).tolist()`` block's iterator, keeping
    ``fetched`` as [values fetched, current block]; never given a scope."""
    size = _FIRST_BLOCK
    while True:
        fetched[1] = block = iter(fetch(size).tolist())
        fetched[0] += size
        yield block
        size = min(2 * size, _MAX_BLOCK)


def _closed(name: str):
    raise RuntimeError(f"{name} used after close()")


class _DrawsAhead:
    """Scalar draws served from ``fetch(k).tolist()`` arrays of a generator
    (see the module docstring); a context manager that closes on exit.
    ``_next()`` chains the iterators of a :func:`_blocks` generator, which
    shares only ``_fetched`` with the scope, never the scope itself."""

    __slots__ = ("_gen", "_state", "_fetch", "_fetched", "_next")

    def __init__(self, gen: np.random.Generator, fetch):
        self._gen = gen
        self._state = gen.bit_generator.state
        self._fetch = fetch
        self._fetched = [0, None]
        self._next = chain.from_iterable(_blocks(fetch, self._fetched)).__next__

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
                self._fetch(used)
        self._gen = None
        self._next = partial(_closed, type(self).__name__)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BlockDraws(_DrawsAhead):
    """Scalar ``random()`` and ``integers(N)`` draws of a PCG64 generator,
    decoded from blocks of raw words (see the module docstring), each
    fetched with one self-refilling ``self._next()``."""

    __slots__ = ("_has_half", "_half")

    def __init__(self, gen: np.random.Generator):
        bitgen = gen.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(f"BlockDraws decodes PCG64 only, not {type(bitgen).__name__}")
        super().__init__(gen, bitgen.random_raw)
        self._has_half = bool(self._state["has_uint32"])
        self._half = self._state["uinteger"]

    def _uint32(self) -> int:
        if self._has_half:
            self._has_half = False
            return self._half
        w = self._next()
        self._has_half = True
        self._half = w >> 32
        return w & 0xFFFFFFFF

    def random(self) -> float:
        """``Generator.random()``: a float in [0, 1)."""
        return (self._next() >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        """``Generator.integers(n)``: an int in [0, n), for 1 <= n <= 2**63."""
        if 1 < n <= 0x100000000:
            m = self._uint32() * n
            if m & 0xFFFFFFFF < n:
                threshold = 0x100000000 % n
                while m & 0xFFFFFFFF < threshold:
                    m = self._uint32() * n
            return m >> 32
        if n == 1:
            return 0
        if not 0x100000000 < n <= 1 << 63:
            raise ValueError(f"integers({n}) outside 1 <= n <= 2**63")
        x = self._next()
        if x * n & 0xFFFFFFFFFFFFFFFF < n:
            threshold = (1 << 64) % n
            while x * n & 0xFFFFFFFFFFFFFFFF < threshold:
                x = self._next()
        return x * n >> 64

    def close(self) -> None:
        """Hand the generator back, the 32-bit half-word buffer included."""
        gen = self._gen
        if gen is None:
            return
        super().close()
        state = gen.bit_generator.state
        state["has_uint32"] = int(self._has_half)
        state["uinteger"] = self._half
        gen.bit_generator.state = state
        self._has_half = False


class ExponentialDraws(_DrawsAhead):
    """Scalar ``standard_exponential()`` draws of a generator, served from
    array draws (see the module docstring)."""

    __slots__ = ()

    def __init__(self, gen: np.random.Generator):
        super().__init__(gen, gen.standard_exponential)

    def standard_exponential(self) -> float:
        """``Generator.standard_exponential()``: an Exp(1) float."""
        return self._next()
