"""Scalar arithmetic for the two path semirings.

Reachability works over the Booleans with max as addition and min as
multiplication. Shortest paths work over saturated "anti-distance" values:
an unsigned ``width``-bit integer ``a`` stands for the distance ``S - a``,
where ``S = 2**width - 1`` is the saturation limit. Value 0 means
unreachable, value S means distance zero, and multiplying two values adds
the distances they encode, clipping the total at S.

The dual convention stores plain distances (0 short, S unreachable). The two
encodings are exchanged by complementing at width, which is what
:func:`sat_neg` does; on plain distances the multiplicative role is played
by saturating addition, :func:`dist_mul`.
"""

SAT_WIDTHS = (8, 16, 32)


def sat_limit(width: int) -> int:
    """Saturation limit S for a lane width, i.e. ``2**width - 1``."""
    if width not in SAT_WIDTHS:
        raise ValueError(f"unsupported width {width}, expected one of {SAT_WIDTHS}")
    return (1 << width) - 1


def bool_add(a: int, b: int) -> int:
    """Boolean addition: numeric "or", the larger of the two bits."""
    return a if a >= b else b


def bool_mul(a: int, b: int) -> int:
    """Boolean multiplication: numeric "and", the smaller of the two bits."""
    return a if a <= b else b


def sat_mul(a: int, b: int, width: int = 8) -> int:
    """Anti-distance product: max(a + b - S, 0).

    Adds the encoded distances with saturation. Evaluated as the saturating
    subtraction b - (S - a) so no intermediate ever leaves [0, S].
    """
    gap = sat_limit(width) - a
    return b - gap if b > gap else 0


def sat_neg(a: int, width: int = 8) -> int:
    """Complement at width: S - a, identical to flipping all ``width`` bits.

    Converts an anti-distance value into the plain distance it encodes, and
    back again.
    """
    return sat_limit(width) - a


delta = sat_neg


def dist_mul(a: int, b: int, width: int = 8) -> int:
    """Plain-distance product: saturating addition min(a + b, S).

    The complement-dual of :func:`sat_mul`; 0 is its neutral element and S
    (unreachable) absorbs.
    """
    total = a + b
    limit = sat_limit(width)
    return total if total < limit else limit
