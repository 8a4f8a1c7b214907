"""The exact blocked sum behind every kernel total equals ``math.fsum`` bit
for bit: on 1-D arrays and on each column of a 2-D array, at every size
around the fsum cut-off and the block size, for any split into blocks
(a small first block included), and with inf and nan giving fsum's value
or fsum's exception."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snpwoe.evidence import _FSUM_ROWS, _SUM_BLOCK, _exact_sum, _exact_sums

MAX = np.finfo(float).max
# Magnitudes up to 1e300 keep fsum's own partial sums finite at these sizes.
FINITE = st.floats(-1e300, 1e300, allow_subnormal=True)
EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                         1.0, -1.0, 1e16, -1e16, 3.0e300, -1e300])
# Arrays are drawn from a small pool of values, so they repeat and cancel.
POOLS = st.lists(st.one_of(FINITE, EDGES), min_size=1, max_size=30)
SIZES = st.sampled_from([1, 2, _FSUM_ROWS - 1, _FSUM_ROWS, _FSUM_ROWS + 1, _SUM_BLOCK - 1,
                         _SUM_BLOCK, _SUM_BLOCK + 1, 3 * _SUM_BLOCK + 5])
SEEDS = st.integers(0, 2**32 - 1)
SPECIALS = st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), min_size=1, max_size=3)


def draw(pool, shape, seed):
    return np.random.default_rng(seed).choice(np.array(pool), shape)


def outcome(fn):
    """``fn()``'s value, or the type and message of what it raised."""
    try:
        return fn()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def assert_same(got, want):
    """Equal with the same sign of zero, or both nan, or the same error."""
    if isinstance(want, float) and math.isnan(want):
        assert isinstance(got, float) and math.isnan(got)
    else:
        assert got == want
        if isinstance(want, float):
            assert math.copysign(1.0, got) == math.copysign(1.0, want)


def split(x, cuts):
    """``x`` (n, c) cut into nonempty row blocks at the positions ``cuts``."""
    edges = sorted({0, len(x), *(c % len(x) for c in cuts)})
    return [x[a:b] for a, b in zip(edges, edges[1:])]


@settings(deadline=None)
@given(POOLS, SIZES, SEEDS)
def test_1d_equals_fsum(pool, n, seed):
    x = draw(pool, n, seed)
    assert_same(_exact_sum(x), math.fsum(x.tolist()))


@settings(deadline=None)
@given(POOLS, SIZES, SEEDS, st.lists(st.integers(0, 4 * _SUM_BLOCK), max_size=5))
def test_any_split_into_blocks(pool, n, seed, cuts):
    x = draw(pool, (n, 1), seed)
    assert_same(float(_exact_sums(split(x, cuts))[0]), math.fsum(x[:, 0].tolist()))


@settings(deadline=None)
@given(POOLS, st.integers(1, 5), st.sampled_from([1, _FSUM_ROWS - 1, _FSUM_ROWS, 4000]),
       SEEDS, st.lists(st.integers(0, 4000), max_size=3))
def test_2d_columns_equal_fsum(pool, columns, n, seed, cuts):
    x = draw(pool, (n, columns), seed)
    sums = _exact_sums(split(x, cuts))
    assert sums.shape == (columns,)
    for got, col in zip(sums.tolist(), x.T.tolist()):
        assert_same(got, math.fsum(col))


@settings(deadline=None)
@given(POOLS, SPECIALS, st.sampled_from([1, 5, _FSUM_ROWS + 1, _SUM_BLOCK + 1]),
       st.integers(1, 3), SEEDS)
def test_non_finite_as_fsum(pool, specials, n, columns, seed):
    rng = np.random.default_rng(seed)
    x = draw(pool, (n, columns), seed)
    for value in specials:
        x[rng.integers(n), rng.integers(columns)] = value
    blocks = split(x, rng.integers(0, n, 2).tolist())
    got = outcome(lambda: _exact_sums(blocks).tolist())
    want = outcome(lambda: [math.fsum(col) for col in x.T.tolist()])
    if isinstance(want, tuple):
        assert got == want
    else:
        for g, w in zip(got, want):
            assert_same(g, w)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30),
       st.sampled_from([1, 7, _FSUM_ROWS + 1]), SEEDS)
def test_full_range_is_the_rounded_exact_sum(pool, n, seed):
    """Over the whole float range the result is the exact sum rounded once,
    and OverflowError where that rounds beyond the largest float."""
    x = draw(pool, n, seed).tolist()
    exact = sum(map(Fraction, x))
    negative_zeros = all(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in x)
    want = outcome(lambda: float(exact) if exact or not negative_zeros else math.fsum(x))
    assert_same(outcome(lambda: _exact_sum(np.array(x))), want)


@pytest.mark.parametrize("n", [4, _FSUM_ROWS + 2])
def test_finite_sum_past_fsums_intermediate_overflow(n):
    """fsum raises when its partial sums overflow; the exact sum does not."""
    x = [MAX, -MAX] * (n // 2 - 1) + [MAX, MAX, -MAX]
    with pytest.raises(OverflowError):
        math.fsum(x)
    assert _exact_sum(np.array(x)) == MAX


def test_first_block_then_more_blocks():
    """A first block, small or not, followed by more blocks of any size
    sums as fsum does over all of them, column by column."""
    rng = np.random.default_rng(3)
    n = 2 * _SUM_BLOCK + 5
    x = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-20, 20, (n, 2))
    want = [math.fsum(col) for col in x.T.tolist()]
    for first in (1, 2, _FSUM_ROWS - 1, _FSUM_ROWS, _SUM_BLOCK + 1):
        for step in (5, _FSUM_ROWS - 1, _SUM_BLOCK, 2 * _SUM_BLOCK + 3):
            blocks = [x[:first]] + [x[i:i + step] for i in range(first, n, step)]
            for got, w in zip(_exact_sums(blocks).tolist(), want):
                assert_same(got, w)
