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
  ``N < 2**32`` it is 32-bit Lemire rejection over ``next_uint32``,
  which returns the low half of a fresh word and buffers its high half
  for the next ``next_uint32`` (``has_uint32``/``uinteger`` in the
  state); ``N == 2**32`` is one plain ``next_uint32``; a larger ``N`` is
  64-bit Lemire rejection over whole words.

So a ``BlockDraws`` over a generator yields the same values as the same
calls on the generator itself, and :meth:`BlockDraws.close` leaves the
generator in the state those calls would have left.  While a
``BlockDraws`` is open nothing else may draw from its generator: the
words it has fetched ahead are not yet drawn as far as the generator
knows, and are handed back only at ``close``.

Scalar ``standard_exponential()`` draws (numpy's ziggurat) go through
:class:`ExponentialDraws`, which does not decode anything.  It relies
on one contract of the installed numpy, which ``tests/test_rng.py``
checks: ``standard_exponential(k)`` returns the same values as ``k``
scalar calls and leaves the generator in the same state (the ziggurat
reads whole 64-bit words, so the 32-bit half-word buffer is untouched).
It serves scalar calls from such arrays; :meth:`ExponentialDraws.close`
restores the state saved on open and redraws exactly the values used
as one array, which leaves the generator where that many scalar calls
would have.  The same rule holds: nothing else draws from the generator
while the scope is open.
"""

from __future__ import annotations

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


class BlockDraws:
    """Scalar ``random()`` and ``integers(N)`` draws of a PCG64 generator,
    decoded from blocks of raw words (see the module docstring).

    Owns the generator from construction until :meth:`close`, which
    rewinds the words fetched but not drawn and restores the 32-bit
    half-word buffer.  Also a context manager that closes on exit.

    Each draw fetches its word inline (``self._next()``, refilling on
    ``StopIteration``): a helper method would cost about as much as the
    decoding it serves.
    """

    __slots__ = ("_bitgen", "_words", "_next", "_size", "_has_half", "_half")

    def __init__(self, gen: np.random.Generator):
        bitgen = gen.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(f"BlockDraws decodes PCG64 only, not {type(bitgen).__name__}")
        state = bitgen.state
        self._bitgen = bitgen
        self._has_half = bool(state["has_uint32"])
        self._half = state["uinteger"]
        self._size = _FIRST_BLOCK
        self._words = iter(())
        self._next = self._words.__next__

    def _refill(self) -> int:
        """Fetch the next block and return its first word."""
        if self._bitgen is None:
            raise RuntimeError("BlockDraws used after close()")
        self._words = iter(self._bitgen.random_raw(self._size).tolist())
        self._next = self._words.__next__
        self._size = min(2 * self._size, _MAX_BLOCK)
        return self._next()

    def _uint32(self) -> int:
        if self._has_half:
            self._has_half = False
            return self._half
        try:
            w = self._next()
        except StopIteration:
            w = self._refill()
        self._has_half = True
        self._half = w >> 32
        return w & 0xFFFFFFFF

    def random(self) -> float:
        """``Generator.random()``: a float in [0, 1)."""
        try:
            w = self._next()
        except StopIteration:
            w = self._refill()
        return (w >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        """``Generator.integers(n)``: an int in [0, n), for 1 <= n <= 2**63."""
        if 1 < n < 0x100000000:
            m = self._uint32() * n
            if m & 0xFFFFFFFF < n:
                threshold = 0x100000000 % n
                while m & 0xFFFFFFFF < threshold:
                    m = self._uint32() * n
            return m >> 32
        if n == 1:
            return 0
        if n == 0x100000000:
            return self._uint32()
        if not 0x100000000 < n <= 1 << 63:
            raise ValueError(f"integers({n}) outside 1 <= n <= 2**63")
        try:
            x = self._next()
        except StopIteration:
            x = self._refill()
        if x * n & 0xFFFFFFFFFFFFFFFF < n:
            threshold = (1 << 64) % n
            while x * n & 0xFFFFFFFFFFFFFFFF < threshold:
                try:
                    x = self._next()
                except StopIteration:
                    x = self._refill()
        return x * n >> 64

    def close(self) -> None:
        """Hand the generator back in the state plain draws would leave."""
        bitgen = self._bitgen
        if bitgen is None:
            return
        unused = self._words.__length_hint__()
        if unused:
            bitgen.advance(-unused)
        state = bitgen.state
        state["has_uint32"] = int(self._has_half)
        state["uinteger"] = self._half
        bitgen.state = state
        self._bitgen = None
        self._words = iter(())
        self._next = self._words.__next__
        self._has_half = False

    def __enter__(self) -> "BlockDraws":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ExponentialDraws:
    """Scalar ``standard_exponential()`` draws of a generator, served from
    array draws (see the module docstring).

    Owns the generator from construction until :meth:`close`, which
    restores the state saved on open and redraws the values used in one
    array call.  Also a context manager that closes on exit.
    """

    __slots__ = ("_gen", "_state", "_values", "_next", "_size", "_fetched")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._state = gen.bit_generator.state
        self._size = _FIRST_BLOCK
        self._fetched = 0
        self._values = iter(())
        self._next = self._values.__next__

    def standard_exponential(self) -> float:
        """``Generator.standard_exponential()``: an Exp(1) float."""
        try:
            return self._next()
        except StopIteration:
            pass
        if self._gen is None:
            raise RuntimeError("ExponentialDraws used after close()")
        self._values = iter(self._gen.standard_exponential(self._size).tolist())
        self._next = self._values.__next__
        self._fetched += self._size
        self._size = min(2 * self._size, _MAX_BLOCK)
        return self._next()

    def close(self) -> None:
        """Hand the generator back in the state plain draws would leave."""
        gen = self._gen
        if gen is None:
            return
        if self._fetched:
            gen.bit_generator.state = self._state
            used = self._fetched - self._values.__length_hint__()
            if used:
                gen.standard_exponential(used)
        self._gen = None
        self._values = iter(())
        self._next = self._values.__next__

    def __enter__(self) -> "ExponentialDraws":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
