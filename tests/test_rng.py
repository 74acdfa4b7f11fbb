"""``BlockDraws`` and ``ExponentialDraws`` against the installed numpy's
own ``Generator``.

The decoder reimplements numpy's scalar ``random()`` and ``integers(N)``
over raw PCG64 words; ``ExponentialDraws`` and the OuMv solver rely on
numpy's array draws (``standard_exponential(k)``, ``integers(n, size=k)``)
giving the same values and end state as ``k`` scalar calls.  If a numpy
release changes how it draws, these tests fail: the code must then
follow numpy, and no pin is moved.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothdyn.rng import BlockDraws, ExponentialDraws, stream

# Every branch of numpy's bounded-integer draw: no draw (1), 32-bit Lemire
# with rare and frequent (2**31 + 1) rejection, the plain 32-bit word
# (2**32), and 64-bit Lemire above it, whose rejection only 2**64 // 3 + 1
# makes frequent (about a third of draws).
BOUNDS = [1, 2, 7, 435, 19900, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**63 - 1,
          2**64 // 3 + 1]

DRAW = st.one_of(st.just(None), st.sampled_from(BOUNDS))  # None: random()


def _draw(source, bound):
    return source.random() if bound is None else int(source.integers(bound))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32),
    st.lists(st.lists(DRAW, max_size=300), min_size=1, max_size=4),
    st.lists(st.sampled_from(BOUNDS), max_size=3),
)
def test_block_draws_match_numpy(seed, rounds, between):
    """Each round opens and closes a ``BlockDraws`` on the generator;
    between rounds both sides draw directly, so the half-word buffer
    crosses every hand-back in both directions."""
    gen, twin = stream(seed), stream(seed)
    for ops in rounds:
        with BlockDraws(gen) as draws:
            assert [_draw(draws, b) for b in ops] == [_draw(twin, b) for b in ops]
        assert gen.bit_generator.state == twin.bit_generator.state
        assert [_draw(gen, b) for b in between] == [_draw(twin, b) for b in between]


def test_long_runs_cross_every_block_size():
    gen, twin = stream(3), stream(3)
    draws = BlockDraws(gen)
    bounds = [None, 435, 2**40, 7, 2**32] * 4000
    assert [_draw(draws, b) for b in bounds] == [_draw(twin, b) for b in bounds]
    draws.close()
    assert gen.bit_generator.state == twin.bit_generator.state
    assert gen.random() == twin.random()


def test_rejects_what_it_cannot_decode():
    with pytest.raises(TypeError):
        BlockDraws(np.random.Generator(np.random.MT19937(0)))
    draws = BlockDraws(stream(0))
    for bound in (0, -1, 2**63 + 1):
        with pytest.raises(ValueError):
            draws.integers(bound)
    draws.close()
    draws.close()  # a second close is a no-op
    with pytest.raises(RuntimeError):
        draws.random()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32),
    st.lists(st.integers(0, 600), min_size=1, max_size=4),
    st.lists(DRAW, max_size=5),
)
def test_exponential_draws_match_numpy(seed, counts, between):
    """Between scopes both sides draw ``random()`` and ``integers(N)``
    directly, so a scope often opens with the half-word buffer set."""
    gen, twin = stream(seed), stream(seed)
    for count in counts:
        with ExponentialDraws(gen) as draws:
            got = [draws.standard_exponential() for _ in range(count)]
        assert got == [twin.standard_exponential() for _ in range(count)]
        assert gen.bit_generator.state == twin.bit_generator.state
        assert [_draw(gen, b) for b in between] == [_draw(twin, b) for b in between]


def test_exponential_long_run_crosses_refills_and_the_tail():
    gen, twin = stream(11), stream(11)
    draws = ExponentialDraws(gen)
    got = [draws.standard_exponential() for _ in range(120_000)]
    draws.close()
    assert got == [twin.standard_exponential() for _ in range(120_000)]
    assert max(got) > 7.7  # the ziggurat's tail starts at about 7.70
    assert gen.bit_generator.state == twin.bit_generator.state
    assert gen.integers(435) == twin.integers(435)


def test_exponential_draws_close_is_final():
    gen = stream(0)
    state = gen.bit_generator.state
    draws = ExponentialDraws(gen)
    draws.close()
    assert gen.bit_generator.state == state  # nothing drawn, nothing moved
    draws.close()  # a second close is a no-op
    with pytest.raises(RuntimeError):
        draws.standard_exponential()


def _live_scopes() -> int:
    return sum(isinstance(o, (BlockDraws, ExponentialDraws)) for o in gc.get_objects())


def test_unclosed_scopes_are_freed_at_del():
    """A scope dropped without ``close()`` is freed by reference counting:
    nothing it owns refers back to it, so it never waits for the cyclic
    collector.  Callers such as ``simulate`` leave their scopes unclosed."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = _live_scopes()
        block, expo = BlockDraws(stream(3)), ExponentialDraws(stream(4))
        for _ in range(100):  # crosses refills
            block.random()
            block.integers(435)
            expo.standard_exponential()
        del block, expo
        assert _live_scopes() == before
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("bound", [2, 3, 8, 16, 17, 100, 2**31 + 1, 2**32 - 1])
def test_array_integers_match_scalar_calls(bound):
    """``integers(n, size=k)`` is ``k`` scalar ``integers(n)`` calls, the
    half-word buffer included; the OuMv solver draws AB endpoints so."""
    gen, twin = stream(bound), stream(bound)
    for size in (0, 1, 2, 31, 64, 257):
        gen.random(), twin.random()
        gen.integers(7), twin.integers(7)  # leaves a buffered half-word
        assert gen.integers(bound, size=size).tolist() == [
            int(twin.integers(bound)) for _ in range(size)]
        assert gen.bit_generator.state == twin.bit_generator.state
