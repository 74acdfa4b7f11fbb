"""``BlockDraws`` against the installed numpy's own ``Generator``.

The decoder reimplements numpy's scalar ``random()`` and ``integers(N)``
over raw PCG64 words.  If a numpy release changes how it draws, these
tests fail: the decoder must then follow numpy, and no pin is moved.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothdyn.rng import BlockDraws, stream

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
