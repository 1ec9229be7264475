"""Dense saturated matrices for all-pairs shortest paths.

An :class:`AntidistMatrix` entry is an unsigned lane value a encoding the
distance S - a (S = 2**width - 1): 0 is unreachable, S is distance zero,
larger values mean shorter distances. Addition of matrices takes the lanewise
maximum (shorter distance wins) and the product accumulates, for every pair
(i, j), the best saturated sum over intermediate k, so the closure of an
adjacency matrix holds all-pairs shortest path values clipped at S.

:class:`DistMatrix` is the complement view: entries are plain distances,
S means unreachable, matrix addition is the lanewise minimum and the product
accumulates saturating sums with min. The two classes are exchanged by ``~``
and never mix silently; their raw bytes are identical up to complement.
Because complementing turns min-plus into max-plus, the distance product,
closure and adjacency builder are the anti-distance ones run on complemented
storage; min-plus has no engine of its own.

A matrix stores exactly rows x cols lanes in one row-major numpy array.
numpy's ufuncs take rows of any length, so the 128-bit block stays a rule of
the lane ops in :mod:`semimat.kernels` and never shapes the storage.

Matrix products and closures dispatch between the numpy vector path and the
pure-Python scalar path exactly like :mod:`semimat.kernels`, reading the
choice once per operation; the in-place closure variants need exclusive
access to the receiver while they run.

A product and a closure run the same max-plus outer-product sweep, one per
path; the closure is the product with the matrix passed as output and both
factors, swept in place. On the vector path a step whose column hits fewer
than half the rows gathers and updates just those rows; a denser step
updates every row in place, in row tiles of about 512 KiB (``_TILE_BYTES``)
that stay in L2.
"""

import numpy as np

from . import kernels
from .boolmat import BoolMatrix, _Matrix, _pack_bits, _unpack_bits, _vertex
from .scalars import sat_limit


class _LaneMatrix(_Matrix):
    """Shared storage and entrywise algebra of the two saturated matrix types."""

    __slots__ = ("width", "_data")

    _EMPTY_IS_LIMIT = False  # a matrix built without data is all S, else all 0

    def __init__(self, rows: int, cols: int, width: int = 8, _data=None):
        super().__init__(rows, cols)
        dtype = kernels.dtype_for(width)
        self.width = width
        if _data is None:
            _data = np.full((rows, cols), sat_limit(width) if self._EMPTY_IS_LIMIT else 0, dtype)
        elif _data.shape != (rows, cols) or _data.dtype != dtype:
            raise ValueError(
                f"backing array {_data.shape} {_data.dtype} is not {rows}x{cols} {np.dtype(dtype)}"
            )
        self._data = _data

    # -- basics ----------------------------------------------------------

    @property
    def limit(self) -> int:
        """Saturation limit S for this width."""
        return sat_limit(self.width)

    @property
    def data(self):
        """Raw lane storage, a (rows, cols) array, as a read-only view."""
        view = self._data.view()
        view.flags.writeable = False
        return view

    def copy(self):
        return type(self)(self.rows, self.cols, self.width, self._data.copy())

    def get(self, i: int, j: int) -> int:
        i, j = self._check_index(i, j)
        return int(self._data[i, j])

    def set(self, i: int, j: int, value: int) -> None:
        i, j = self._check_index(i, j)
        self._data[i, j] = kernels.as_lanes(value, self.width)

    def to_lists(self) -> list[list[int]]:
        return self._data.tolist()

    @classmethod
    def from_lists(cls, rows, width: int = 8):
        """Matrix of a rectangular 2-D array-like (nested lists or an array)
        of whole numbers in [0, S]."""
        ncols = cls._row_length(rows)
        return cls(len(rows), ncols, width, kernels.as_lanes(rows, width))

    # -- entrywise algebra -------------------------------------------------

    def _entrywise(self, other, np_op, py_op):
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if (self.rows, self.cols, self.width) != (other.rows, other.cols, other.width):
            raise ValueError(
                f"shape/width mismatch: {self.rows}x{self.cols}/w{self.width} vs "
                f"{other.rows}x{other.cols}/w{other.width}"
            )
        if kernels.use_vector():
            data = np_op(self._data, other._data)
        else:
            flat = py_op(self._data.reshape(-1).tolist(), other._data.reshape(-1).tolist())
            data = np.array(flat, dtype=self._data.dtype).reshape(self._data.shape)
        return type(self)(self.rows, self.cols, self.width, data)

    def __and__(self, other):
        """Lanewise minimum."""
        return self._entrywise(other, np.minimum, kernels.py_min)

    def __or__(self, other):
        """Lanewise maximum."""
        return self._entrywise(other, np.maximum, kernels.py_max)

    def __xor__(self, other):
        """Lanewise absolute difference."""
        return self._entrywise(other, kernels.np_absdiff, kernels.py_absdiff)

    def __invert__(self):
        """Complement at width, switching between the two encodings."""
        return self.copy()._flip()

    def _flip(self):
        """Complement the storage in place and return it wrapped as the other
        class. The receiver shares that storage, so it holds the complement
        until the result is flipped back."""
        np.subtract(self.limit, self._data, out=self._data)
        cls = DistMatrix if isinstance(self, AntidistMatrix) else AntidistMatrix
        return cls(self.rows, self.cols, self.width, self._data)

    def _check_factor(self, other):
        """Width and inner-dimension agreement of the product ``self * other``."""
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")
        self._check_inner(other)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            (self.rows, self.cols, self.width)
            == (other.rows, other.cols, other.width)
            and np.array_equal(self._data, other._data)
        )

    def __repr__(self):
        return f"<{type(self).__name__} {self.rows}x{self.cols} width={self.width}>"


class AntidistMatrix(_LaneMatrix):
    """Matrix of anti-distance values; see the module docstring."""

    @classmethod
    def zeros(cls, rows: int, cols: int, width: int = 8) -> "AntidistMatrix":
        """All-unreachable matrix (the empty graph), neutral for ``|``."""
        return cls(rows, cols, width)

    @classmethod
    def identity(cls, dim: int, width: int = 8) -> "AntidistMatrix":
        """Distance zero on the diagonal, unreachable elsewhere; neutral for ``*``."""
        m = cls(dim, dim, width)
        idx = np.arange(dim)
        m._data[idx, idx] = m.limit
        return m

    @classmethod
    def from_edges(cls, dim: int, edges, width: int = 8) -> "AntidistMatrix":
        """Adjacency matrix of weighted directed edges (u, v, w).

        Weights must be whole numbers in [0, S]. Parallel edges keep the
        shortest distance, i.e. the largest encoded value.
        """
        m = cls(dim, dim, width)
        limit = m.limit
        data = m._data
        for u, v, w in edges:
            u, v = _vertex(u), _vertex(v)
            if not 0 <= u < dim:
                raise ValueError(f"source vertex {u} out of range [0, {dim})")
            if not 0 <= v < dim:
                raise ValueError(f"target vertex {v} out of range [0, {dim})")
            try:
                in_range = 0 <= w <= limit
            except TypeError:  # a string, None, ...: cheaper than an isinstance per edge
                raise ValueError(f"weight {w!r} is not a number") from None
            if not in_range:
                raise ValueError(f"weight {w} outside [0, {limit}]")
            if w != int(w):
                raise ValueError(f"weight {w} is not a whole number")
            value = limit - w
            if value > int(data[u, v]):
                data[u, v] = value
        return m

    @classmethod
    def from_boolmat(cls, mat: BoolMatrix, width: int = 8) -> "AntidistMatrix":
        """Lift a Boolean matrix: 1 becomes distance zero (value S), 0 stays 0."""
        bits = _unpack_bits(mat.blocks, mat.cols).astype(kernels.dtype_for(width))
        return cls(mat.rows, mat.cols, width, bits * sat_limit(width))

    def to_boolmat(self) -> BoolMatrix:
        """Reachability structure: any finite distance becomes 1."""
        return BoolMatrix(self.rows, self.cols, _pack_bits(self._data > 0))

    def __mul__(self, other) -> "AntidistMatrix":
        """Semiring product: entry (i, j) is the best saturated sum over k.

        Outer-product form: for every k, each output row i with left entry
        e = (i, k) > 0 accumulates max(current, row k of other minus (S - e),
        clipped at zero). Zero left entries are skipped, exact because 0
        absorbs multiplication and is neutral for max.
        """
        if not isinstance(other, AntidistMatrix):
            return NotImplemented
        self._check_factor(other)
        data = np.zeros((self.rows, other.cols), dtype=self._data.dtype)
        if kernels.use_vector():
            _maxplus_sweep(data, self._data, other._data, self.limit)
        else:
            work = data.tolist()
            _maxplus_sweep_scalar(work, self._data.tolist(), other._data.tolist(), self.limit)
            data[...] = work
        return AntidistMatrix(self.rows, other.cols, self.width, data)

    def transitive_close(self) -> None:
        """In-place variant of :meth:`transitive_closure`."""
        self._check_square()
        if kernels.use_vector():
            _maxplus_sweep(self._data, self._data, self._data, self.limit)
        else:
            work = self._data.tolist()
            _maxplus_sweep_scalar(work, work, work, self.limit)
            self._data[...] = work

    def transitive_closure(self) -> "AntidistMatrix":
        """Best saturated path value for every ordered pair (>= 1 edge).

        Entry (i, j) becomes S - min(d(i, j), S) for the shortest-path
        distance d; the diagonal reports the shortest cycle through each
        vertex, 0 if none exists within S. Same in-place sweep as the
        Boolean closure, with updated rows feeding later steps.
        """
        out = self.copy()
        out.transitive_close()
        return out


class DistMatrix(_LaneMatrix):
    """Matrix of plain distances; the complement view of AntidistMatrix."""

    _EMPTY_IS_LIMIT = True

    @classmethod
    def unreachable(cls, rows: int, cols: int, width: int = 8) -> "DistMatrix":
        """All-S matrix (no connections), neutral for ``&``."""
        return cls(rows, cols, width)

    @classmethod
    def identity(cls, dim: int, width: int = 8) -> "DistMatrix":
        """Zero on the diagonal, S elsewhere; neutral for the min-plus product."""
        return AntidistMatrix.identity(dim, width)._flip()

    @classmethod
    def from_edges(cls, dim: int, edges, width: int = 8) -> "DistMatrix":
        """Adjacency matrix storing edge weights directly; parallel edges keep the minimum."""
        return AntidistMatrix.from_edges(dim, edges, width)._flip()

    def __mul__(self, other) -> "DistMatrix":
        """Min-plus product: entry (i, j) is min over k of the saturating sum.

        Computed as the complement of the max-plus product of the complements;
        the factors are checked first, so a mismatch copies nothing.
        """
        if not isinstance(other, DistMatrix):
            return NotImplemented
        self._check_factor(other)
        return (~self * ~other)._flip()

    def transitive_close(self) -> None:
        """In-place variant of :meth:`transitive_closure`.

        Complements the storage in place, runs the max-plus closure on it and
        complements it back, so no second matrix is ever allocated.
        """
        anti = self._flip()
        try:
            anti.transitive_close()
        finally:
            anti._flip()

    def transitive_closure(self) -> "DistMatrix":
        """Min-plus closure: shortest distances over >= 1 edge, clipped at S.

        The diagonal holds the minimum cycle length through each vertex,
        S when there is none.
        """
        out = self.copy()
        out.transitive_close()
        return out


# -- compute engines ---------------------------------------------------------
#
# There are two engines, both the max-plus sweep (out, left, right, limit):
# a vector form (numpy, whole rows at a time) and a scalar form
# (per-lane Python arithmetic on plain lists). They must stay bit-identical;
# the benchmark checks that on every run. Min-plus runs through them on
# complemented storage.
#
# Step k folds row k of ``right``, shifted down by S minus each row's entry
# in column k of ``left``, into ``out``. A product passes a fresh zero
# ``out``; the closure passes the matrix itself as all three, so later steps
# read rows that earlier steps updated (Warshall's and Floyd's order). Rows
# whose left entry is 0 are "missed", the others "hit".
#
# Vector form:
#
# - Gather branch (fewer than half the rows hit): copy out the hit rows,
#   combine them with the candidate and scatter them back.
# - Dense branch (at least half hit): update every row in place, walking
#   ``out`` in row tiles of about _TILE_BYTES so that a tile and its candidate
#   buffer stay in L2 across the three ufunc passes. This is exact: a missed
#   row's candidate is 0, which leaves it as it was. In a closure, step k
#   never changes row k or column k (subsat(x, S - e) <= x), so no row reads
#   a value the same step wrote.
#
# The half threshold keeps sparse sweeps (few rows per step) on the gather
# branch, where touching every row would cost more than the copies save.

_TILE_BYTES = 512 * 1024


def _row_tiles(out):
    """Row slices of ``out`` of about _TILE_BYTES each, each paired with a
    view of one shared scratch buffer of the same shape."""
    rows = out.shape[0]
    step = max(1, _TILE_BYTES // out[0].nbytes)
    buf = np.empty((min(step, rows), out.shape[1]), dtype=out.dtype)
    return [(slice(r, r + step), buf[: min(step, rows - r)]) for r in range(0, rows, step)]


def _maxplus_sweep(out, left, right, limit):
    rows = out.shape[0]
    tiles = _row_tiles(out)
    gap = np.empty((rows, 1), dtype=out.dtype)
    for k in range(right.shape[0]):
        column = left[:, k]
        hit = np.nonzero(column != 0)[0]  # a contiguous mask: faster than the strided column
        row_k = right[k]
        if 2 * hit.size >= rows:
            np.subtract(limit, column, out=gap[:, 0])
            for span, cand in tiles:
                np.maximum(row_k, gap[span], out=cand)
                cand -= gap[span]
                tile = out[span]
                np.maximum(tile, cand, out=tile)
        elif hit.size:
            cand = kernels.np_subsat(row_k[None, :], (limit - column[hit])[:, None])
            np.maximum(out[hit], cand, out=cand)
            out[hit] = cand


def _maxplus_sweep_scalar(out, left, right, limit):
    for k, row_k in enumerate(right):
        for r, row_l in enumerate(left):
            e = row_l[k]
            if e:
                gap = limit - e
                row = out[r]
                row[:] = [v if (v := x - gap) > p else p for x, p in zip(row_k, row)]
