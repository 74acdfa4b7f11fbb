"""Stream v2's blocks and ``ExponentialDraws`` against the installed
numpy's own ``Generator``.

``ExponentialDraws`` and the OuMv solver rely on numpy's array draws
(``standard_exponential(k)``, ``integers(n, size=k)``) giving the same
values and end state as ``k`` scalar calls.  If a numpy release changes
how it draws, these tests fail: the code must then follow numpy, and no
pin is moved.
"""

import gc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothdyn.graph import all_pairs
from smoothdyn.rng import STREAM_VERSION, ExponentialDraws, block_sizes, stream
from smoothdyn.smoothing import UniformFlipAdversary

BOUNDS = [1, 2, 7, 435, 19900, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**63 - 1,
          2**64 // 3 + 1]

DRAW = st.one_of(st.just(None), st.sampled_from(BOUNDS))  # None: random()


def _draw(source, bound):
    return source.random() if bound is None else int(source.integers(bound))


def test_block_sizes_double_to_the_cap():
    assert STREAM_VERSION == 2
    assert list(islice(block_sizes(), 10)) == [16, 32, 64, 128, 256, 512, 1024, 2048, 2048, 2048]


def test_long_runs_cross_every_block_size():
    """A uniform adversary asked once per step (the adaptive model) serves
    exactly the ``integers(m, size=k)`` blocks an oblivious model asks for,
    block after block."""
    n, steps = 12, 8000
    pairs = list(all_pairs(n))
    adv = UniformFlipAdversary(n, stream(3))
    got = [adv.propose(None) for _ in range(steps)]
    twin = stream(3)
    expected = [pairs[i] for k in islice(block_sizes(), 11) for i in twin.integers(len(pairs), size=k)]
    assert got == expected[:steps]
    blocks = UniformFlipAdversary(n, stream(3))
    drawn = [blocks.propose_block(step, k) for step, k in ((0, 16), (16, 32), (48, 64))]
    assert [e for u, v in drawn for e in zip(u.tolist(), v.tolist())] == got[:112]


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
    return sum(isinstance(o, ExponentialDraws) for o in gc.get_objects())


def test_unclosed_scopes_are_freed_at_del():
    """A scope dropped without ``close()`` is freed by reference counting:
    nothing it owns refers back to it, so it never waits for the cyclic
    collector."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = _live_scopes()
        expo = ExponentialDraws(stream(4))
        for _ in range(100):  # crosses refills
            expo.standard_exponential()
        del expo
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
