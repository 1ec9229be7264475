import random
import re

import pytest
from hypothesis import given, strategies as st

from semimat import scalars

WIDTHS = (8, 16, 32)


def test_sat_limit():
    assert scalars.sat_limit(8) == 255
    assert scalars.sat_limit(16) == 65535
    assert scalars.sat_limit(32) == 2**32 - 1
    for bad in (12, 8.0):
        with pytest.raises(ValueError, match=re.escape(f"unsupported width {bad}, expected one of (8, 16, 32)")):
            scalars.sat_limit(bad)


def test_bool_ops_table():
    assert scalars.bool_add(0, 0) == 0
    assert scalars.bool_add(1, 0) == 1
    assert scalars.bool_add(0, 1) == 1
    assert scalars.bool_add(1, 1) == 1
    assert scalars.bool_mul(1, 1) == 1
    assert scalars.bool_mul(1, 0) == 0
    assert scalars.bool_mul(0, 1) == 0
    assert scalars.bool_mul(0, 0) == 0


def test_sat_mul_examples():
    assert scalars.sat_mul(250, 252, 8) == 247  # distances 5 + 3 = 8
    assert scalars.sat_mul(10, 20, 8) == 0
    for a in (0, 1, 17, 128, 254, 255):
        assert scalars.sat_mul(a, 255, 8) == a
        assert scalars.sat_mul(255, a, 8) == a
        assert scalars.sat_mul(a, 0, 8) == 0


def test_sat_neg_and_delta_examples():
    assert scalars.sat_neg(0, 8) == 255
    assert scalars.sat_neg(250, 8) == 5
    assert scalars.sat_neg(65535, 16) == 0
    assert scalars.sat_neg(255, 8) == 0
    assert scalars.sat_neg(0, 8) == 255
    assert scalars.sat_neg(200, 8) == 55


def test_dist_mul_examples():
    assert scalars.dist_mul(3, 4, 8) == 7
    assert scalars.dist_mul(255, 1, 8) == 255
    for a in (0, 9, 254, 255):
        assert scalars.dist_mul(a, 0, 8) == a


def test_exhaustive_width8_negation_is_bit_complement():
    for a in range(256):
        assert scalars.sat_neg(a, 8) == (~a) & 0xFF
        assert scalars.sat_neg(scalars.sat_neg(a, 8), 8) == a


def test_exhaustive_width8_scalar_de_morgan():
    for a in range(256):
        for b in range(0, 256, 5):
            assert 255 - max(a, b) == min(255 - a, 255 - b)
            assert 255 - scalars.sat_mul(a, b, 8) == scalars.dist_mul(255 - a, 255 - b, 8)


def test_sat_mul_matches_definition_width8():
    # independent formula, never used by the implementation
    for a in range(256):
        for b in range(256):
            assert scalars.sat_mul(a, b, 8) == max(a + b - 255, 0)


@given(
    st.sampled_from(WIDTHS),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_semiring_laws(width, a, b, c):
    limit = scalars.sat_limit(width)
    a, b, c = a % (limit + 1), b % (limit + 1), c % (limit + 1)
    mul = scalars.sat_mul
    assert mul(a, b, width) == mul(b, a, width)
    assert mul(mul(a, b, width), c, width) == mul(a, mul(b, c, width), width)
    assert mul(max(a, b), c, width) == max(mul(a, c, width), mul(b, c, width))
    assert mul(a, limit, width) == a
    assert mul(a, 0, width) == 0


@given(st.sampled_from(WIDTHS), st.integers(min_value=0, max_value=2**32 - 1))
def test_neg_involution_and_duality(width, a):
    limit = scalars.sat_limit(width)
    a = a % (limit + 1)
    assert scalars.sat_neg(scalars.sat_neg(a, width), width) == a
    assert scalars.sat_neg(a, width) == a ^ limit


def test_dist_mul_is_the_complement_dual():
    rng = random.Random(7)
    for width in WIDTHS:
        limit = scalars.sat_limit(width)
        for _ in range(2000):
            a, b = rng.randrange(limit + 1), rng.randrange(limit + 1)
            lhs = scalars.dist_mul(a, b, width)
            rhs = limit - scalars.sat_mul(limit - a, limit - b, width)
            assert lhs == rhs
