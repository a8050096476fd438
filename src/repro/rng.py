"""Seedable random-number helpers.

Every stochastic component in the library accepts either a seed or a
:class:`numpy.random.Generator`; this module centralises the coercion so
experiments are reproducible end to end.

It also hosts the *batch-draw* utilities the vectorized samplers share
with their scalar reference counterparts.  NumPy's ``Generator`` fills
arrays element by element from the same bit stream that scalar calls
consume, so a block draw of ``k`` values is bitwise-identical to ``k``
successive scalar draws of the same kind (asserted by the test suite).
The samplers exploit this: both the vectorized and the scalar-reference
decision paths pre-draw identical blocks in a *canonical order* (all
direction draws, then all chord positions) and therefore replay
bitwise-identically from the same per-decision seed — the contract the
differential replay suite under ``tests/golden/`` locks in.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Tuple, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def as_generator(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh nondeterministic generator, an ``int`` seeds a new
    generator, and an existing generator is passed through unchanged.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def spawn(rng: np.random.Generator, n: int) -> list:
    """Derive ``n`` independent child generators from ``rng``.

    Used when an experiment fans out trials that must not share streams.
    """
    seeds = rng.integers(0, 2**63 - 1, size=n)
    return [np.random.default_rng(int(s)) for s in seeds]


# ----------------------------------------------------------------------
# Batch draws (shared by vectorized samplers and their scalar references)
# ----------------------------------------------------------------------

def direction_block(gen: np.random.Generator, steps: int,
                    dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """``steps`` pre-normalised isotropic directions in ``R^dim``.

    Returns ``(unit, norms)`` where ``unit`` is ``(steps, dim)`` with each
    row ``z / |z|`` and ``norms`` the raw Gaussian norms (a zero norm marks
    a measure-zero degenerate row the caller must skip).  The Gaussian
    block consumes the stream exactly like ``steps`` successive
    ``standard_normal(dim)`` calls; the squared-norm reduction is a
    row-wise pairwise sum, which NumPy evaluates identically for a
    contiguous row and a standalone vector — so scalar and vectorized
    consumers see bitwise-identical directions.
    """
    z = gen.standard_normal((steps, dim))
    norms = np.sqrt((z * z).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = z / norms[:, None]
    return unit, norms


def uniform_block(gen: np.random.Generator, count: int) -> np.ndarray:
    """``count`` raw uniforms on ``[0, 1)``; block == successive scalars.

    Rescale with :func:`scale_uniform` to reproduce
    ``Generator.uniform(low, high)`` bitwise.
    """
    return gen.random(count)


def scale_uniform(u, low, high):
    """Map raw uniforms to ``[low, high)`` exactly as ``Generator.uniform``
    does (``low + (high - low) * u``), so pre-drawn blocks reproduce the
    scalar call bitwise."""
    return low + (high - low) * u


def integer_block(gen: np.random.Generator, bound: int,
                  count: int) -> np.ndarray:
    """``count`` draws from ``range(bound)``; block == successive scalars
    (Lemire rejection consumes the stream per element in fill order)."""
    return gen.integers(bound, size=count)


_UINT32_SPAN = 2 ** 32
_LOW32 = np.uint64(0xFFFFFFFF)


def chain_blocks(gen: np.random.Generator, bound: int,
                 runs: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """The :func:`integer_block` / :func:`uniform_block` pairs of many runs.

    For each ``s`` in ``runs`` (non-negative), in order, the per-run
    calls ``integer_block(gen, bound, s)`` then ``uniform_block(gen, s)``
    are what this returns: all integer blocks concatenated, and all
    uniform blocks concatenated.  ``gen`` is left in exactly the state
    those calls would leave it in.

    For a PCG64 generator every value is decoded from one
    ``random_raw`` draw (see :func:`_decode_pcg64_chain_blocks`), which
    removes the per-call overhead that dominates short runs.  The
    per-run calls are made instead when the generator is not PCG64,
    when ``bound`` lies outside NumPy's 32-bit integer path, when a
    draw would hit a Lemire rejection, or when the once-per-process
    self-check of the decoder against NumPy's own calls fails — so the
    result is bitwise identical under any NumPy.
    """
    runs = [int(s) for s in runs]
    if runs and min(runs) < 0:
        raise ValueError("run lengths must be non-negative")
    if (type(gen.bit_generator) is np.random.PCG64
            and 1 <= bound <= _UINT32_SPAN and _decoder_matches_numpy()):
        blocks = _decode_pcg64_chain_blocks(gen, bound, runs)
        if blocks is not None:
            return blocks
    return _per_run_chain_blocks(gen, bound, runs)


def _per_run_chain_blocks(gen: np.random.Generator, bound: int,
                          runs: Sequence[int]
                          ) -> Tuple[np.ndarray, np.ndarray]:
    ints = [np.empty(0, dtype=np.int64)]
    uniforms = [np.empty(0)]
    for s in runs:
        ints.append(integer_block(gen, bound, s))
        uniforms.append(uniform_block(gen, s))
    return np.concatenate(ints), np.concatenate(uniforms)


def _decode_pcg64_chain_blocks(gen: np.random.Generator, bound: int,
                               runs: Sequence[int]
                               ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """:func:`chain_blocks` decoded from one raw PCG64 draw.

    The contract mirrors NumPy's own fill loops:

    * ``random()`` consumes one 64-bit word per double and returns
      ``(w >> 11) * 2**-53``;
    * ``integers(bound)`` (``bound <= 2**32``) consumes one 32-bit half
      word per value through the bit generator's ``has_uint32`` /
      ``uinteger`` buffer — a fresh word yields its low half and
      buffers its high half for the next integer draw, in this call or
      a later one, and ``random()`` never touches the buffer — and maps
      a half ``h`` to ``(h * bound) >> 32`` unless Lemire's test
      ``(h * bound) mod 2**32 < (2**32 - bound) % bound`` asks for a
      redraw;
    * ``bound == 1`` consumes nothing.

    ``random_raw`` advances the state word by word without touching the
    buffer, so the buffer is read before the draw and written back
    after it.  Returns ``None``, with ``gen`` restored to its state on
    entry, when any value would need a Lemire redraw.
    """
    bit_gen = gen.bit_generator
    saved = bit_gen.state
    carry = int(saved["has_uint32"])
    lengths = np.asarray(runs, dtype=np.int64)
    total = int(lengths.sum())
    # Words each run's integer block takes: the halves still needed
    # after the buffered one, two per word.
    if bound == 1:
        int_words = np.zeros_like(lengths)
    else:
        needed = np.maximum(np.cumsum(lengths) - carry, 0)
        int_words = np.diff((needed + 1) // 2, prepend=0)
    layout = np.empty(2 * len(runs), dtype=np.int64)
    layout[0::2] = int_words
    layout[1::2] = lengths
    raw = bit_gen.random_raw(int(layout.sum()))
    is_int = np.repeat(np.tile([True, False], len(runs)), layout)
    uniforms = (raw[~is_int] >> np.uint64(11)).astype(float) * 2.0 ** -53
    if bound == 1:
        return np.zeros(total, dtype=np.int64), uniforms
    words = raw[is_int]
    halves = np.empty(carry + 2 * len(words), dtype=np.uint64)
    if carry:
        halves[0] = saved["uinteger"]
    halves[carry::2] = words & _LOW32
    halves[carry + 1::2] = words >> np.uint64(32)
    scaled = halves[:total] * np.uint64(bound)
    threshold = (_UINT32_SPAN - bound) % bound
    if threshold and bool(((scaled & _LOW32) < threshold).any()):
        bit_gen.state = saved
        return None
    left = len(halves) - total
    if len(words) or left != carry:
        state = bit_gen.state
        state["has_uint32"] = left
        if len(words):
            # NumPy leaves the last buffered half in place once consumed.
            state["uinteger"] = int(words[-1] >> np.uint64(32))
        bit_gen.state = state
    return (scaled >> np.uint64(32)).astype(np.int64), uniforms


@functools.lru_cache(maxsize=None)
def _decoder_matches_numpy() -> bool:
    """Whether the raw-draw decoder reproduces this NumPy's own calls
    (values and final bit-generator state) on fixed cases covering an
    empty buffer, a buffered half, ``bound == 1`` and empty runs."""
    cases = ((7, [5, 0, 3, 8], False), (40, [9, 8, 1, 8], True),
             (1, [4, 2], True), (65_537, [0, 6, 7], False))
    for bound, runs, buffered in cases:
        ours = np.random.default_rng(bound)
        numpy_calls = np.random.default_rng(bound)
        if buffered:
            ours.integers(3)
            numpy_calls.integers(3)
        got = _decode_pcg64_chain_blocks(ours, bound, runs)
        want = _per_run_chain_blocks(numpy_calls, bound, runs)
        if (got is None
                or got[0].tolist() != want[0].tolist()
                or got[1].tobytes() != want[1].tobytes()
                or ours.bit_generator.state
                != numpy_calls.bit_generator.state):
            return False
    return True


def choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The cumulative distribution ``Generator.choice(..., p=probs)``
    builds internally (cumsum, then normalised by its last entry).

    Precomputing it once per node and sampling via
    :func:`choice_from_cdf` replays ``choice`` bitwise while skipping its
    per-call validation and cumsum — the coloring chain's hottest win.
    """
    cdf = np.asarray(probs, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf


def choice_from_cdf(cdf: np.ndarray, u) -> np.ndarray:
    """Indices drawn from a precomputed CDF for raw uniforms ``u`` —
    bitwise-identical to ``Generator.choice(len(cdf), p=probs)`` fed the
    same uniforms."""
    return cdf.searchsorted(u, side="right")


def random_subset(rng: np.random.Generator, n: int,
                  min_size: int = 1, max_size: Optional[int] = None) -> frozenset:
    """A uniformly random non-empty subset of ``range(n)``.

    When ``max_size`` is ``None`` the subset is uniform over all non-empty
    subsets (each element included with probability 1/2, resampled if empty) —
    the paper's "random query" model (footnote 6).  Otherwise the size is
    drawn uniformly from ``[min_size, max_size]`` and the members uniformly
    without replacement.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if max_size is None:
        while True:
            mask = rng.integers(0, 2, size=n).astype(bool)
            if mask.any():
                return frozenset(int(i) for i in np.flatnonzero(mask))
    max_size = min(max_size, n)
    min_size = max(1, min(min_size, max_size))
    size = int(rng.integers(min_size, max_size + 1))
    members = rng.choice(n, size=size, replace=False)
    return frozenset(int(i) for i in members)
