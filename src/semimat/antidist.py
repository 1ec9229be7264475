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
factors, swept in place. The vector path is blocked, planned from the
matrix's structure, and picks each step's branch by one rule; the comment
block above the compute engines describes it. The scalar path is the plain
unblocked sweep.
"""

import numpy as np

from . import kernels
from .boolmat import (
    BoolMatrix,
    _block_count,
    _components,
    _edge_table,
    _Matrix,
    _pack_bits,
    _unpack_bits,
)
from .scalars import sat_limit


class _LaneMatrix(_Matrix):
    """Width, lane access and entrywise algebra of the two saturated matrix
    types; the storage rules are those of every matrix, in ``_Matrix``."""

    __slots__ = ("width",)

    _EMPTY_IS_LIMIT = False  # a matrix built without data is all S, else all 0

    def __init__(self, rows: int, cols: int, width: int = 8, _data=None):
        super().__init__(rows, cols)
        dtype = kernels.dtype_for(width)
        self.width = width
        fill = self.limit if self._EMPTY_IS_LIMIT else 0
        self._hold(_data, self.cols, dtype, f"a {self.rows}x{self.cols} matrix of width {width}", fill)

    def _like(self, store):
        return type(self)(self.rows, self.cols, self.width, store)

    # -- basics ----------------------------------------------------------

    @property
    def limit(self) -> int:
        """Saturation limit S for this width."""
        return sat_limit(self.width)

    data = property(_Matrix._view, doc="Raw lane storage, a (rows, cols) array, as a read-only view.")

    def get(self, i: int, j: int) -> int:
        i, j = self._check_index(i, j)
        return int(self._store[i, j])

    def set(self, i: int, j: int, value: int) -> None:
        i, j = self._check_index(i, j)
        lane = kernels.as_lanes(value, self.width)
        if lane.ndim:
            raise ValueError(f"entry {value!r} is not a number")
        self._store[i, j] = lane

    def to_lists(self) -> list[list[int]]:
        return self._store.tolist()

    @classmethod
    def from_lists(cls, rows, width: int = 8):
        """Matrix of a rectangular 2-D array-like (nested lists or an array)
        of whole numbers in [0, S]."""
        ncols = cls._row_length(rows)
        lanes = kernels.as_lanes(rows, width)
        if lanes.ndim != 2:  # every entry is a sequence, all of one shape
            raise ValueError(f"entry {rows[0][0]!r} is not a number")
        return cls(len(rows), ncols, width, lanes)

    # -- entrywise algebra -------------------------------------------------

    def _lanewise(self, other, np_op, py_op):
        """The entrywise op on this call's path, read before the operands are
        checked: ``np_op`` on the arrays, or ``py_op`` on their flat lists of
        Python ints."""
        return self._entrywise(other, kernels._path_op(np_op, py_op))

    def __and__(self, other):
        """Lanewise minimum."""
        return self._lanewise(other, np.minimum, kernels.py_min)

    def __or__(self, other):
        """Lanewise maximum."""
        return self._lanewise(other, np.maximum, kernels.py_max)

    def __xor__(self, other):
        """Lanewise absolute difference."""
        return self._lanewise(other, kernels.np_absdiff, kernels.py_absdiff)

    def __invert__(self):
        """Complement at width, switching between the two encodings."""
        return self.copy()._flip()

    def _flip(self):
        """Complement the storage in place and return it wrapped as the other
        class. The receiver shares that storage, so it holds the complement
        until the result is flipped back."""
        np.subtract(self.limit, self._store, out=self._store)
        cls = DistMatrix if isinstance(self, AntidistMatrix) else AntidistMatrix
        return cls(self.rows, self.cols, self.width, self._store)

    def _check_factor(self, other):
        """Width and inner-dimension agreement of the product ``self * other``."""
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")
        self._check_inner(other)

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
        m._store[idx, idx] = m.limit
        return m

    @classmethod
    def from_edges(cls, dim: int, edges, width: int = 8) -> "AntidistMatrix":
        """Adjacency matrix of weighted directed edges (u, v, w), given as a
        list, an iterator or an (m, 3) array.

        Weights must be whole numbers in [0, S]. Parallel edges keep the
        shortest distance, i.e. the largest encoded value.
        """
        m = cls(dim, dim, width)
        ends, weights = _edge_table(dim, edges)
        lanes = kernels.as_lanes(weights, width, "weight")
        flat = ends[:, 0] * dim
        flat += ends[:, 1]  # in place: one index array per edge, not two
        np.maximum.at(m._store.reshape(-1), flat, m.limit - lanes)
        return m

    @classmethod
    def from_boolmat(cls, mat: BoolMatrix, width: int = 8) -> "AntidistMatrix":
        """Lift a Boolean matrix: 1 becomes distance zero (value S), 0 stays 0."""
        bits = _unpack_bits(mat.blocks, mat.cols).astype(kernels.dtype_for(width))
        return cls(mat.rows, mat.cols, width, bits * sat_limit(width))

    def to_boolmat(self) -> BoolMatrix:
        """Reachability structure: any finite distance becomes 1."""
        return BoolMatrix(self.rows, self.cols, _pack_bits(self._store > 0))

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
        out = AntidistMatrix(self.rows, other.cols, self.width)
        if kernels.use_vector():
            _maxplus_sweep(out._store, self._store, other._store, self.limit)
        else:
            work = out._store.tolist()
            _maxplus_sweep_scalar(work, self._store.tolist(), other._store.tolist(), self.limit)
            out._store[...] = work
        return out

    def transitive_close(self) -> None:
        """In-place variant of :meth:`transitive_closure`."""
        self._check_square()
        if kernels.use_vector():
            _maxplus_close(self._store, self.limit)
        else:
            work = self._store.tolist()
            _maxplus_sweep_scalar(work, work, work, self.limit)
            self._store[...] = work

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
# whose left entry is 0 are "missed", the others "hit". The scalar form is
# that plain sweep, step by step over all rows.
#
# The vector form is blocked (Venkataraman, Sahni & Mukhopadhyaya, "A Blocked
# All-Pairs Shortest-Paths Algorithm", ACM JEA 8, 2003). It takes the steps in
# blocks of _BLOCK. A closure first runs the block's steps in order on the
# block's own pivot rows (_sweep_rows), which closes those rows over the
# block. Every other row then takes, in one product, the block's columns of
# the matrix as they were before the block times the closed pivot rows: a
# path through the block enters it at a first pivot vertex k, so the entry
# (i, k) and the closed pivot row k cover it. The saturated closure is the
# unique fixpoint, so the result is the unblocked sweep's. A product is that
# same second phase with no pivot phase, and a matrix that fits in one tile
# is a single block.
#
# Each block reads and writes one window of columns, cols: from the first to
# the last column where any of the block's rows of ``right`` is nonzero, as
# they stand when the block starts. A block with no such column is skipped.
# Step k changes only the columns where row k of ``right`` is nonzero,
# because subsat(0, .) = 0, so the window bounds every step of the block. It
# holds while the block runs: a product never writes ``right``, and in a
# closure's pivot phase a pivot row gains entries only from the block's other
# pivot rows, whose nonzero entries stay in the window by induction. The
# pivot phase, the tables and the tile steps all run on columns cols only,
# with scratch carved from the tile buffer.
#
# The left panel of a block's product is fixed while it runs, so
# _sweep_block plans the block once, in whole-array calls: a transposed copy
# of the panel; the hits of each (tile, step), one count_nonzero per tile of
# about _TILE_BYTES, and from them whether the step is dense in the tile (at
# least half its rows hit); and the distinct entries of each step that is
# dense in some tile (_few_distinct), by one bincount of entry + 256 * step
# at width 8 and by a sort at wider widths. A step with at most a quarter as
# many distinct entries as a tile has rows gets a table of its candidate rows
# subsat(right[k], S - e), one per distinct entry e, and the rank of each
# row's entry in it (the Four Russians idea of one table per block,
# Arlazarov et al. 1970). The table steps are grouped so that one group's
# tables fit in a tile. Then each tile gets the group's steps that hit it, in
# order, as (step, dense) pairs; a step with no hit is skipped, and a tile
# with no hit in the group is not visited.
#
# _sweep_tile is the one place where a step's branch is chosen:
#
# - a sparse step gathers the hit rows by fancy indexing, which reads only
#   those rows of a tile, contiguous or a strided window alike, combines them
#   with their candidates and scatters them back;
# - a dense step with a table takes one candidate row per row from the table
#   by rank and one maximum;
# - any other dense step broadcasts: one candidate row per row and the
#   maximum, three passes over the tile.
#
# The last two update the whole tile in place. This is exact: a missed row's
# candidate is 0, which leaves it as it was, and no tile holds a pivot row.
#
# The pivot phase (_sweep_rows) runs each step over the block's pivot rows,
# len(buf) rows at a time, and hands each run with a hit to _sweep_tile as a
# one-step tile with no tables, on live views of the matrix: its transpose as
# the panel and its window as the right factor, so each step reads what the
# earlier ones wrote. A closure that fits in one tile runs _sweep_rows on all
# its rows, half a tile at a time so that the rows and their candidates fit
# in a tile. Step k never changes row k or column k (subsat(x, S - e) <= x),
# so no row reads a value the same step wrote.
#
# A closure on the vector path that does not fit in one tile is planned first
# (_maxplus_close). A lane is nonzero only where a path exists, so the
# support's structure bounds the saturated closure's. The plan has three
# parts:
#
# - Components (boolmat._components): the support is packed as the rows of a
#   Boolean matrix, and one path-based depth-first search along them (Purdom
#   1970, Gabow 2000) closes the strongly connected components one by one,
#   sinks first, with no transposed copy.
#   With one component every window would be full, and the blocked sweep
#   above runs on the matrix as it is.
# - Order: otherwise the components follow each other sinks first, each
#   component's vertices in their input order. At step k a row hits column
#   k when a path from it reaches k through earlier pivots only, and those
#   are ancestors of k. Sinks first, every ancestor of k outside k's
#   component comes after k, so only a row with an edge into k or into an
#   earlier vertex of k's component hits: most tiles skip every step, and
#   the pivot phase does the work.
# - Relabel in place (_permute): columns move _BLOCK rows at a time through
#   one buffer, then rows move along the permutation's cycles. A closure
#   commutes with relabelling rows and columns together, so the relabelled
#   closure is exact. The inverse order restores the labels the same way.

_BLOCK = 128
_TILE_BYTES = 512 * 1024


def _maxplus_sweep(out, left, right, limit):
    rows, steps = out.shape[0], right.shape[0]
    height = max(1, _TILE_BYTES // out[0].nbytes)
    block = _BLOCK if rows > height else steps  # one tile gains nothing from blocks
    if out is right:  # a closure's tiles never hold the block's pivot rows
        height = min(height, max(1, rows - block))
    buf = np.empty((min(rows, max(height, block)), out.shape[1]), out.dtype)  # a tile or the pivot rows
    for k0 in range(0, steps, block):
        ks = range(k0, min(k0 + block, steps))
        nonzero = np.flatnonzero(right[ks.start : ks.stop].any(axis=0))
        if not nonzero.size:  # every candidate of the block is 0
            continue
        cols = slice(nonzero[0], nonzero[-1] + 1)  # the block's window
        parts = ((0, rows),)
        if out is right:
            _sweep_rows(out, ks, limit, buf, cols)
            parts = ((0, ks.start), (ks.stop, rows))
        _sweep_block(out, left, right, limit, ks, parts, height, buf, cols)


def _sweep_rows(out, ks, limit, buf, cols):
    """Run steps ``ks`` in order on columns ``cols`` of rows ``ks`` of
    ``out``, ``len(buf)`` rows at a time: a closure's pivot phase, where each
    step reads what the earlier ones wrote."""
    panel, right = out.T, out[:, cols]  # live views: row k of panel is column k
    for k in ks:
        for lo in range(ks.start, ks.stop, len(buf)):
            hi = min(lo + len(buf), ks.stop)
            hits = np.count_nonzero(panel[k, lo:hi])
            if hits:
                _sweep_tile(right[lo:hi], lo, panel, right, limit, ((k, 2 * hits >= hi - lo),), {}, buf)


def _sweep_block(out, left, right, limit, ks, parts, height, buf, cols):
    """Fold steps ``ks`` into columns ``cols`` of the rows ``parts`` of
    ``out``, tiles of at most ``height`` rows, with the block's columns of
    ``left`` fixed meanwhile."""
    tiles = [(lo, min(lo + height, end)) for first, end in parts for lo in range(first, end, height)]
    if not tiles:
        return
    panel = left[:, ks.start : ks.stop].copy().T.copy()  # row k - ks.start is column k
    right = right[ks.start : ks.stop, cols]
    hits = np.array([np.count_nonzero(panel[:, lo:hi], axis=1) for lo, hi in tiles])
    dense = 2 * hits >= np.array([hi - lo for lo, hi in tiles])[:, None]
    most = max(hi - lo for lo, hi in tiles) // 4  # distinct entries a table may hold
    tabled, counts, entries, ranks = _few_distinct(panel, np.flatnonzero(dense.any(axis=0)), most)

    # Group the table steps so that one group's candidate rows fit in a tile.
    width = right.shape[1]
    cap = _TILE_BYTES // out.itemsize
    bounds, total = [0], 0
    for i, count in enumerate(counts):
        if total + count * width > cap:
            bounds.append(i)
            total = 0
        total += count * width
    bounds.append(len(tabled))
    starts = np.cumsum([0] + counts).tolist()  # of each table step's entries
    store = np.empty(min(cap, starts[-1] * width), out.dtype)

    for i0, i1 in zip(bounds, bounds[1:]):
        tables = {}
        if i0 < i1:  # the group's candidate rows as one table
            gap = (limit - entries[starts[i0] : starts[i1]])[:, None]
            table = store[: gap.size * width].reshape(gap.size, width)
            right.take(np.repeat(tabled[i0:i1], counts[i0:i1]), axis=0, out=table, mode="clip")
            np.maximum(table, gap, out=table)
            table -= gap
            for i in range(i0, i1):
                tables[tabled[i]] = table[starts[i] - starts[i0] : starts[i + 1] - starts[i0]], ranks[i]
        g0 = tabled[i0] if i0 else 0
        g1 = tabled[i1] if i1 < len(tabled) else len(ks)
        for (lo, hi), hit, tile_dense in zip(tiles, hits[:, g0:g1], dense[:, g0:g1]):
            todo = hit.nonzero()[0]
            if todo.size:
                steps = zip((todo + g0).tolist(), tile_dense[todo].tolist())
                _sweep_tile(out[lo:hi, cols], lo, panel, right, limit, steps, tables, buf)


def _few_distinct(panel, steps, most):
    """The rows ``steps`` of ``panel`` that hold at most ``most`` distinct
    entries. Returns their indices and their counts of distinct entries, as
    lists; their distinct entries, row after row and each row's in
    increasing order, as one array; and for each of them the rank of every
    entry among its row's distinct entries, a row of the panel's dtype.

    At width 8 one bincount of the keys entry + 256 * row counts the entries
    of many rows at once. Wider rows are sorted, and one search of the
    distinct entries tagged with their row ranks every entry.
    """
    found, counts, distinct, ranks = [], [], [], []
    chunk = max(1, _TILE_BYTES // (32 * panel.shape[1]))  # rows whose int64 keys fill a quarter tile
    for c0 in range(0, steps.size, chunk):
        rows = steps[c0 : c0 + chunk]
        part = panel.take(rows, axis=0)
        if part.dtype == np.uint8:
            keys = part.astype(np.intp)
            keys += np.arange(0, rows.size << 8, 256)[:, None]
            present = np.bincount(keys.reshape(-1), minlength=rows.size << 8).reshape(-1, 256) != 0
            count = present.sum(axis=1)
            few = np.flatnonzero(count <= most)
            distinct.append(present[few].nonzero()[1].astype(np.uint8))
            ranks += list((present.cumsum(axis=1) - 1).astype(np.uint8).reshape(-1).take(keys[few]))
        else:
            ordered = np.sort(part, axis=1)
            new = np.ones(part.shape, bool)
            np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new[:, 1:])
            count = new.sum(axis=1)
            few = np.flatnonzero(count <= most)
            distinct.append(ordered[few][new[few]])  # row after row, increasing
            tags = np.arange(few.size, dtype=np.uint64) << np.uint64(8 * part.itemsize)
            keys = part[few].astype(np.uint64)
            keys |= tags[:, None]
            rank = (np.repeat(tags, count[few]) | distinct[-1]).searchsorted(keys)
            rank -= (np.cumsum(count[few]) - count[few])[:, None]
            ranks += list(rank.astype(part.dtype))
        found += rows[few].tolist()
        counts += count[few].tolist()
    entries = np.concatenate(distinct) if distinct else np.empty(0, panel.dtype)
    return found, counts, entries, ranks


def _sweep_tile(tile, lo, panel, right, limit, steps, tables, buf):
    """Run ``steps``, (step, dense) pairs in order, on ``tile``: the rows of
    ``out`` from ``lo`` on, in the block's window. A dense step with a table
    takes it, another dense step broadcasts and a sparse one gathers its hit
    rows."""
    hi = lo + len(tile)
    cand = _scratch(buf, len(tile), tile.shape[1])
    for k, dense in steps:
        if not dense:
            column = panel[k, lo:hi]
            hit = column.nonzero()[0]
            _gather_step(tile, hit, column[hit], right[k], limit, cand)
        elif k in tables:
            table, ranks = tables[k]
            _table_step(tile, table, ranks[lo:hi], cand)
        else:
            _broadcast_step(tile, panel[k, lo:hi], right[k], limit, cand)


def _scratch(buf, rows, cols):
    """A contiguous rows x cols array carved from the start of ``buf``."""
    return buf.reshape(-1)[: rows * cols].reshape(rows, cols)


def _table_step(tile, table, ranks, cand):
    table.take(ranks, axis=0, out=cand, mode="clip")  # ranks are in range; no out buffering
    np.maximum(tile, cand, out=tile)


def _broadcast_step(tile, column, row_k, limit, cand):
    gap = (limit - column)[:, None]
    np.maximum(row_k, gap, out=cand)
    cand -= gap
    np.maximum(tile, cand, out=tile)


def _gather_step(tile, hit, entries, row_k, limit, buf):
    cand = buf[: hit.size]
    gap = (limit - entries)[:, None]
    np.maximum(row_k, gap, out=cand)
    cand -= gap
    np.maximum(tile[hit], cand, out=cand)  # fancy indexing reads a strided tile's rows only
    tile[hit] = cand


def _maxplus_sweep_scalar(out, left, right, limit):
    for k, row_k in enumerate(right):
        for r, row_l in enumerate(left):
            e = row_l[k]
            if e:
                gap = limit - e
                row = out[r]
                row[:] = [v if (v := x - gap) > p else p for x, p in zip(row_k, row)]


# -- closure plan ------------------------------------------------------------


def _maxplus_close(data, limit):
    """Max-plus closure of the square lane matrix ``data`` in place."""
    n = data.shape[0]
    height = max(1, _TILE_BYTES // data[0].nbytes)
    if n <= height:
        # One tile: the plan costs more than it saves. Every row is a pivot
        # row, half a tile at a time, so rows and candidates fit in a tile.
        _sweep_rows(data, range(n), limit, np.empty((min(n, max(1, height // 2)), n), data.dtype), slice(None))
        return
    support = np.empty((n, _block_count(n)), np.uint64)
    for lo in range(0, n, height):
        support[lo : lo + height] = _pack_bits(data[lo : lo + height] != 0)
    component = _components(support)
    del support
    if not component.any():  # strongly connected: every window would be full
        _maxplus_sweep(data, data, data, limit)
        return
    order = np.argsort(component, kind="stable")
    _permute(data, order)
    try:
        _maxplus_sweep(data, data, data, limit)
    finally:
        _permute(data, np.argsort(order))


def _permute(data, order):
    """Relabel square ``data`` in place: entry (i, j) becomes the entry
    (order[i], order[j]). Columns move _BLOCK rows at a time through one
    buffer, then rows move along the permutation's cycles."""
    n = data.shape[0]
    buf = np.empty((min(n, _BLOCK), n), data.dtype)
    for lo in range(0, n, _BLOCK):
        rows = data[lo : lo + _BLOCK]
        np.take(rows, order, axis=1, out=buf[: rows.shape[0]])
        rows[...] = buf[: rows.shape[0]]
    row = buf[0]
    order = order.tolist()
    done = bytearray(n)
    for start in range(n):
        if done[start]:
            continue
        row[...] = data[start]
        i = start
        while order[i] != start:
            done[i] = 1
            data[i] = data[order[i]]
            i = order[i]
        done[i] = 1
        data[i] = row
