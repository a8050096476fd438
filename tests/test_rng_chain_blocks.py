"""``chain_blocks`` == the per-run NumPy calls, value for value.

:func:`repro.rng.chain_blocks` decodes many runs' node-pick and
proposal-position blocks from one raw PCG64 draw.  It must return what
``integer_block(gen, bound, s)`` / ``uniform_block(gen, s)`` per run
return and leave the bit generator — including the half-word buffer
that integer draws carry across calls — in the same state.  Bounds near
``2**31`` make Lemire rejections likely and so exercise the fallback;
bounds above ``2**32`` (NumPy's 64-bit path) and a non-PCG64 generator
must take the per-run calls directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import (
    _decode_pcg64_chain_blocks,
    _decoder_matches_numpy,
    chain_blocks,
    integer_block,
    uniform_block,
)

BOUNDS = st.one_of(
    st.integers(min_value=1, max_value=64),
    st.sampled_from([1, 2, 2**31 - 1, 2**31, 2**31 + 1, 2**31 + 12_345,
                     2**32 - 1, 2**32, 2**32 + 1, 2**40]),
    st.integers(min_value=1, max_value=2**32),
)
RUNS = st.lists(st.integers(min_value=0, max_value=12), max_size=9)


def per_run(gen, bound, runs):
    ints, uniforms = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for s in runs:
        ints.append(integer_block(gen, bound, s))
        uniforms.append(uniform_block(gen, s))
    return np.concatenate(ints), np.concatenate(uniforms)


def make(seed, buffered, philox):
    gen = (np.random.Generator(np.random.Philox(seed)) if philox
           else np.random.default_rng(seed))
    if buffered:
        gen.integers(5)  # leaves one buffered 32-bit half (has_uint32=1)
    return gen


def plain(state):
    """A bit-generator state with its arrays (Philox keeps some) as
    lists, so two states compare with ``==``."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    if isinstance(state, np.ndarray):
        return state.tolist()
    return state


def assert_same(ours, numpy_calls, got, want):
    assert got[0].dtype == want[0].dtype
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tobytes() == want[1].tobytes()
    assert plain(ours.bit_generator.state) == \
        plain(numpy_calls.bit_generator.state)
    # The streams stay locked afterwards, for both kinds of draw.
    assert ours.integers(1000, size=3).tolist() == \
        numpy_calls.integers(1000, size=3).tolist()
    assert ours.random(2).tobytes() == numpy_calls.random(2).tobytes()


@given(st.integers(0, 2**32), BOUNDS, RUNS, st.booleans(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_chain_blocks_equals_per_run_calls(seed, bound, runs, buffered,
                                           philox):
    ours, numpy_calls = (make(seed, buffered, philox) for _ in range(2))
    assert_same(ours, numpy_calls, chain_blocks(ours, bound, runs),
                per_run(numpy_calls, bound, runs))


def test_carry_in_states_are_both_covered():
    for buffered in (False, True):
        gen = make(3, buffered, False)
        assert gen.bit_generator.state["has_uint32"] == int(buffered)


def test_decoder_self_check_passes_and_decodes_small_bounds():
    assert _decoder_matches_numpy()
    for bound in (1, 2, 7, 40):
        for buffered in (False, True):
            ours, numpy_calls = make(11, buffered, False), \
                make(11, buffered, False)
            got = _decode_pcg64_chain_blocks(ours, bound, [9, 0, 8, 1])
            assert got is not None
            assert_same(ours, numpy_calls, got,
                        per_run(numpy_calls, bound, [9, 0, 8, 1]))


def test_lemire_rejection_restores_state_and_falls_back():
    # With bound 2**31 + 1 about half of all draws are rejected, so a
    # 40-value block almost surely needs a redraw.
    bound, runs = 2**31 + 1, [20, 20]
    probe = make(5, True, False)
    before = probe.bit_generator.state
    assert _decode_pcg64_chain_blocks(probe, bound, runs) is None
    assert probe.bit_generator.state == before
    ours, numpy_calls = make(5, True, False), make(5, True, False)
    assert_same(ours, numpy_calls, chain_blocks(ours, bound, runs),
                per_run(numpy_calls, bound, runs))


def test_negative_run_length_is_rejected():
    with pytest.raises(ValueError):
        chain_blocks(np.random.default_rng(0), 3, [2, -1])
