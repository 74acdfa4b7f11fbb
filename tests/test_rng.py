"""Stream v3's array draws against the installed numpy's own
``Generator``.

The change-sequence blocks and the OuMv solver's AB endpoints rely on
``integers(n, size=k)`` giving the same values and end state as ``k``
scalar calls, and a uniform adversary asked once per step on its blocks
giving the per-step proposals.  If a numpy release changes how it draws,
these tests fail: the code must then follow numpy, and no pin is moved.
"""

from itertools import islice

import pytest

from smoothdyn.graph import all_pairs
from smoothdyn.rng import STREAM_VERSION, block_sizes, stream
from smoothdyn.smoothing import UniformFlipAdversary


def test_block_sizes_double_to_the_cap():
    assert STREAM_VERSION == 3
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
