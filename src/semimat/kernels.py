"""Saturating lane kernels on 128-bit blocks, with a pure-Python fallback.

A block is 128 bits split into equal unsigned lanes: 16 lanes of 8 bits,
8 of 16, or 4 of 32. The public lane ops accept flat sequences whose length
is any multiple of the block's lane count and always return plain lists, so
the two execution paths can be compared verbatim. The block is a rule of
these ops alone: the matrix types store exactly rows x cols lanes, and the
array-level ``np_*`` forms they share take arrays of any shape.

Path selection: numpy's vectorised ufunc loops are the vector engine, and
they are exact on every machine, so the vector path is the default
everywhere. Setting the environment variable ``SEMIMAT_FORCE_SCALAR`` to
anything other than "" or "0" pins the per-lane Python implementation
instead, and :func:`forced_scalar` / :func:`forced_vector` pin the choice
for a code region. The pin lives in a :class:`contextvars.ContextVar`, so it
holds for the thread (or asyncio task) that set it and never flips the path
of another. Each operation reads :func:`use_vector` once and runs wholly on
the path it got. The two-array ops take their path's form from one
helper, ``_path_op``: the ``np_*`` form on the arrays, or the ``py_*`` form
on their flat lists of Python ints. The lane ops here and the matrix types'
entrywise algebra both go through it. The test suite and the benchmark rely
on both paths producing bit-identical results.

numpy has no saturating integer ufuncs, so the vector path uses the
branch-free rewrites ``max(a, b) - b`` for saturating subtraction and
``min(a, S - b) + b`` for saturating addition, at every width. (A wrapping
add followed by flooding the lanes that wrapped would work for the addition
as well.) The scalar path computes the definitions directly, which keeps the
two sides independent of each other.

One lane rule serves both paths: a lane holds a whole number in [0, S].
:func:`as_lanes` is the only check of it, and every value that becomes a
lane goes through it before the path is taken (the lane ops, :func:`clonenot`,
the matrix types' ``from_lists`` and ``set``, and the weights of
``from_edges``), so the two paths refuse exactly the same inputs with the
same message and never round, wrap or cast a value in silence.
"""

import numbers
import os
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .scalars import sat_limit

BLOCK_BITS = 128
FORCE_SCALAR_ENV = "SEMIMAT_FORCE_SCALAR"

_DTYPES = {8: np.uint8, 16: np.uint16, 32: np.uint32}

_forced = ContextVar("semimat_forced_path", default=None)  # None, "scalar" or "vector"


def lane_count(width: int) -> int:
    """Lanes per 128-bit block: 16, 8 or 4."""
    sat_limit(width)  # validates the width
    return BLOCK_BITS // width


def dtype_for(width: int):
    """numpy dtype matching a lane width."""
    sat_limit(width)
    return _DTYPES[width]


def use_vector() -> bool:
    """Whether the next kernel call takes the vector path."""
    forced = _forced.get()
    if forced is not None:
        return forced == "vector"
    return os.environ.get(FORCE_SCALAR_ENV, "0") in ("", "0")


@contextmanager
def _forced_path(path):
    token = _forced.set(path)
    try:
        yield
    finally:
        _forced.reset(token)


def forced_scalar():
    """Pin the pure-Python path within the block for the calling thread,
    regardless of environment."""
    return _forced_path("scalar")


def forced_vector():
    """Pin the vector path within the block for the calling thread
    (benchmark and test helper)."""
    return _forced_path("vector")


def as_lanes(values, width: int, noun: str = "entry"):
    """``values`` (a number or an array-like of any shape) as an array of the
    lane dtype for ``width``.

    Every entry must be a whole number in [0, S]; otherwise ``ValueError``
    names the first entry, in row-major order, of the first rule it breaks:
    ``entry v is not a number``, ``entry v outside [0, S]`` (NaN included)
    or ``entry v is not a whole number``, with ``noun`` in place of "entry".
    Whole floats such as 2.0 pass.
    """
    try:
        entries = np.asarray(values)
    except ValueError:  # ragged nesting: some entry is a sequence
        entries = np.asarray(values, dtype=object)
    if entries.dtype.kind not in "biuf":  # strings, None, ints wider than int64, ...
        # numpy turns [2, "1"] into two strings; an object array keeps the 2.
        for v in np.asarray(values, dtype=object).ravel().tolist():
            if not isinstance(v, numbers.Real):
                raise ValueError(f"{noun} {v!r} is not a number")
    limit = sat_limit(width)
    exact = entries.dtype.kind in "biu"  # integers in range cast exactly
    if not exact or entries.size and (entries.min() < 0 or entries.max() > limit):
        bad = ~((entries >= 0) & (entries <= limit))  # NaN fails both sides
        if bad.any():
            raise ValueError(f"{noun} {entries[bad][:1].tolist()[0]!r} outside [0, {limit}]")
    lanes = entries.astype(_DTYPES[width], order="C")
    if not exact:
        bad = lanes != entries
        if bad.any():
            raise ValueError(f"{noun} {entries[bad][:1].tolist()[0]!r} is not a whole number")
    return lanes


def _path_op(np_form, py_form):
    """The two-array lane op of the path :func:`use_vector` gives now:
    ``np_form`` itself, or ``py_form`` on the operands' flat lists of Python
    ints, rebuilt in the first operand's shape and dtype."""
    if use_vector():
        return np_form

    def scalar_form(a, b):
        return np.array(py_form(a.reshape(-1).tolist(), b.reshape(-1).tolist()), a.dtype).reshape(a.shape)

    return scalar_form


def _lanewise(a, b, width, np_form, py_form):
    """A lane op on one path, read once: both operands checked as flat lanes
    of equal length, then the path's op (:func:`_path_op`) on them, as a
    list."""
    op = _path_op(np_form, py_form)
    x, y = as_lanes(a, width), as_lanes(b, width)
    block = lane_count(width)
    if x.ndim != 1 or y.ndim != 1 or x.size % block or y.size % block:
        raise ValueError(f"expected a flat sequence of a multiple of {block} lanes")
    if x.size != y.size:
        raise ValueError(f"lane count mismatch: {x.size} vs {y.size}")
    return op(x, y).tolist()


def clonenot(value: int, width: int = 8, count: int | None = None) -> list[int]:
    """Width-complement of ``value`` copied into every lane.

    Returns one block's worth of lanes unless ``count`` (a multiple of the
    lane count) asks for more.
    """
    limit = sat_limit(width)
    block = lane_count(width)
    n = block if count is None else count
    if n <= 0 or n % block:
        raise ValueError(f"count must be a positive multiple of {block}, got {count}")
    value = as_lanes(value, width).item()
    if use_vector():
        return np.invert(np.full(n, value, dtype=_DTYPES[width])).tolist()
    return [limit - value] * n


def subsat(a, b, width: int = 8) -> list[int]:
    """Lanewise saturating subtraction max(a - b, 0)."""
    return _lanewise(a, b, width, np_subsat, py_subsat)


def addsat(a, b, width: int = 8) -> list[int]:
    """Lanewise saturating addition min(a + b, S)."""
    return _lanewise(a, b, width, lambda x, y: np_addsat(x, y, sat_limit(width)),
                     lambda x, y: py_addsat(x, y, sat_limit(width)))


def maxlanes(a, b, width: int = 8) -> list[int]:
    """Lanewise maximum."""
    return _lanewise(a, b, width, np.maximum, py_max)


def minlanes(a, b, width: int = 8) -> list[int]:
    """Lanewise minimum."""
    return _lanewise(a, b, width, np.minimum, py_min)


def absdiff(a, b, width: int = 8) -> list[int]:
    """Lanewise absolute difference |a - b|.

    The vector path ORs the two one-sided saturating differences, which is
    exact because at least one of them is zero in every lane.
    """
    return _lanewise(a, b, width, np_absdiff, py_absdiff)


# Array-level forms of the same rewrites, shared with the matrix vector paths
# (operands must already carry an unsigned dtype; broadcasting is allowed).

def np_subsat(a, b):
    return np.maximum(a, b) - b


def np_addsat(a, b, limit):
    return np.minimum(a, limit - b) + b


def np_absdiff(a, b):
    return np.bitwise_or(np_subsat(a, b), np_subsat(b, a))


# List-level forms computed straight from the definitions, shared with the
# matrix scalar paths (operands are lists of in-range lane values).

def py_subsat(x, y):
    return [p - q if p > q else 0 for p, q in zip(x, y)]


def py_addsat(x, y, limit):
    return [s if (s := p + q) < limit else limit for p, q in zip(x, y)]


def py_max(x, y):
    return [p if p >= q else q for p, q in zip(x, y)]


def py_min(x, y):
    return [p if p <= q else q for p, q in zip(x, y)]


def py_absdiff(x, y):
    return [p - q if p >= q else q - p for p, q in zip(x, y)]
