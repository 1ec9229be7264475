"""Bit-packed Boolean matrices for directed-graph reachability.

Each row is stored as 64-bit blocks: bit j of row i lives in block j // 64
at bit position j % 64 (least significant bit first). Bits past the column
count are padding and stay zero after every operation.

Besides the matrix type, the module holds the packing helpers and the
strongly connected component search over packed rows (``_components``),
which plans the saturated closures of :mod:`semimat.antidist`.
"""

import reprlib
from operator import index

import numpy as np

BLOCK_BITS = 64

# Bits that BoolMatrix._set_bits sets at a time: each of its temporaries
# holds 8 bytes per bit of a chunk, 32 KiB.
_SET_CHUNK = 1 << 12


def _block_count(cols: int) -> int:
    return (cols + BLOCK_BITS - 1) // BLOCK_BITS


def _pack_bits(bits):
    """Blocks of a dense (rows, cols) array of 0/1 or bool entries."""
    rows, cols = bits.shape
    raw = np.zeros((rows, _block_count(cols) * 8), dtype=np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little")
    raw[:, : packed.shape[1]] = packed
    return raw.view("<u8").astype(np.uint64, copy=False)


def _unpack_bits(blocks, cols):
    """The (rows, cols) uint8 array of 0/1 entries held in ``blocks``."""
    raw = blocks.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, axis=1, count=cols, bitorder="little")


def _components(support):
    """The strongly connected components of the square Boolean matrix held in
    the blocks ``support``, sinks first: each vertex's component index,
    numbered so that no edge runs from a component to a later one.

    One path-based depth-first search (Purdom 1970, Gabow 2000). The open
    vertices, reached but not yet in a component, sit on a stack in the
    order they were reached, and a stack of boundaries marks where each
    candidate component starts on it, each with the set of the open vertices
    below it. A vertex, once reached, pushes its own boundary and then pops
    the top boundary while it has an edge to an open vertex below it: the
    candidates it closes a cycle through are one component. (Testing before
    its own boundary is pushed would leave the vertex out of that cycle.) A
    vertex whose search ends with its own boundary on top closes the
    component from there up, so components close sinks first. Sets of
    vertices are the bits of Python ints, so a vertex's next unvisited
    successor is the lowest bit of its row ANDed with them.
    """
    n = support.shape[0]
    bits = memoryview(support.astype("<u8", copy=False)).cast("B")
    size = support.shape[1] * 8
    component = np.empty(n, np.intp)
    unvisited, opened, closed = (1 << n) - 1, 0, 0  # closed: components so far
    path = []  # the vertices whose search runs, each with its row
    stack, bounds = [], []  # open vertices; boundaries, each its start on stack and the open set below it
    while path or unvisited:
        free = path[-1][1] & unvisited if path else unvisited  # with no search running, the next root
        if free:  # reach the lowest vertex of free
            low = free & -free
            v = low.bit_length() - 1
            unvisited ^= low
            row = int.from_bytes(bits[v * size : (v + 1) * size], "little")
            bounds.append((len(stack), opened))
            while row & bounds[-1][1]:  # an edge back under the top boundary
                bounds.pop()
            stack.append(v)
            opened |= low
            path.append((v, row))
        else:  # the search from path[-1] ends
            v = path.pop()[0]
            if stack[bounds[-1][0]] == v:
                start, opened = bounds.pop()
                component[stack[start:]] = closed
                closed += 1
                del stack[start:]
    return component


def _edge_table(dim: int, edges):
    """The edges (u, v, w) of a graph on ``dim`` vertices, given as a list,
    an iterator or an (m, 3) array-like such as a parsed edge table, as their
    ends (an (m, 2) intp array) and their weight column. An integer table is
    read in place, without a copy.

    An end must be an integer in [0, dim). A float or any other non-integer
    end raises ``IndexError`` (it is never truncated), and ``ValueError``
    names the first end out of range, in edge order. Weights pass unchecked.
    """
    if not hasattr(edges, "__array__"):
        edges = list(edges)
    try:
        # numpy reads an empty list as a float array of shape (0,)
        table = np.asarray(edges) if len(edges) else np.empty((0, 3), np.intp)
    except ValueError:  # ragged: some entry is a sequence
        table = None
    if table is None or table.dtype.kind not in "iu":
        # A float, a string or an int wider than 64 bits: the object table
        # keeps each end as given, so that a float is refused, not truncated.
        table = np.asarray(edges, dtype=object)
    if table.ndim != 2 or table.shape[1] != 3:
        raise ValueError("edges must be (u, v, w) triples")
    ends = table[:, :2]
    if ends.dtype == object:
        for end in ends.ravel().tolist():
            try:
                index(end)
            except TypeError:
                raise IndexError(f"edge end {end!r} is not a vertex index") from None
    bad = np.flatnonzero((ends < 0) | (ends >= dim))
    if bad.size:
        end = "target" if bad[0] % 2 else "source"
        raise ValueError(f"{end} vertex {ends.flat[bad[0]]} out of range [0, {dim})")
    return ends.astype(np.intp, copy=False), table[:, 2]


class _Matrix:
    """Shape and storage rules shared by the Boolean and the saturated matrix
    types. A matrix holds one row-major array, ``_store``; each type builds
    another matrix of its kind, shape and width around an array with
    ``_like(store)``."""

    __slots__ = ("rows", "cols", "_store")

    def __init__(self, rows: int, cols: int):
        try:
            self.rows, self.cols = index(rows), index(cols)
        except TypeError:
            self.rows = self.cols = 0  # refused below
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"matrix dimensions must be positive integers, got {rows!r}x{cols!r}")

    def _hold(self, store, row_length: int, dtype, what: str, fill=0) -> None:
        """Allocate the storage, ``row_length`` entries of ``dtype`` a row, all
        ``fill``, or adopt ``store``, which must have that shape and dtype;
        ``what`` names the matrix if numpy cannot address its storage."""
        dtype = np.dtype(dtype)
        self._check_storage(row_length * dtype.itemsize, what)
        shape = (self.rows, row_length)
        if store is None:
            store = np.zeros(shape, dtype) if fill == 0 else np.full(shape, fill, dtype)
        elif store.shape != shape or store.dtype != dtype:
            raise ValueError(f"backing array {store.shape} {store.dtype} is not {shape} {dtype}")
        self._store = store

    def _check_storage(self, row_bytes: int, what: str) -> None:
        """Refuse a matrix whose storage, ``row_bytes`` a row, numpy cannot
        address: ``what`` names its shape."""
        if self.rows * row_bytes > np.iinfo(np.intp).max:
            raise ValueError(f"{what} needs {self.rows * row_bytes} bytes, more than numpy can address")

    def copy(self):
        return self._like(self._store.copy())

    def _view(self):
        """The storage as a read-only view."""
        view = self._store.view()
        view.flags.writeable = False
        return view

    def _form(self):
        """Rows, columns and dtype: the shape and the width of the storage."""
        return self.rows, self.cols, self._store.dtype

    def _entrywise(self, other, op):
        """``op`` of the two storages, as a matrix like ``self``. ``other``
        must be of the same type (else TypeError), shape and width (else
        ValueError)."""
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self._form() != other._form():
            raise ValueError(f"shape mismatch: {self!r} vs {other!r}")
        return self._like(op(self._store, other._store))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._form() == other._form() and np.array_equal(self._store, other._store)

    @staticmethod
    def _row_length(rows) -> int:
        """Common length of the rows of a 2-D array-like; refuses ragged rows,
        and a scalar or a sequence with an entry that is not a row."""
        try:
            ncols = len(rows[0]) if len(rows) else 0
            if ncols == 0:
                raise ValueError("matrix dimensions must be positive")
            if not (isinstance(rows, np.ndarray) and rows.ndim == 2):  # else rows of one length
                for i, row in enumerate(rows):
                    if len(row) != ncols:
                        raise ValueError(f"row {i} has {len(row)} entries, expected {ncols}")
        except TypeError:
            raise ValueError(f"expected a 2-D array-like of rows, got {reprlib.repr(rows)}") from None
        return ncols

    def _check_index(self, i, j):
        """``(i, j)`` as Python ints; a non-integer or out-of-range index is
        refused, never truncated."""
        try:
            i, j = index(i), index(j)
        except TypeError:
            raise IndexError(f"index ({i!r}, {j!r}) is not a pair of integers") from None
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) out of range for {self.rows}x{self.cols}")
        return i, j

    def _check_inner(self, other):
        if self.cols != other.rows:
            raise ValueError(
                f"inner dimensions disagree: {self.rows}x{self.cols} times "
                f"{other.rows}x{other.cols}"
            )

    def _check_square(self):
        if self.rows != self.cols:
            raise ValueError(f"closure needs a square matrix, got {self.rows}x{self.cols}")


class BoolMatrix(_Matrix):
    """R x C matrix over {0, 1} under the (or, and) semiring.

    Read as an adjacency matrix, the product A * B has entry (i, j) set
    exactly when some k has A[i,k] = B[k,j] = 1, and transitive_closure()
    marks every ordered pair joined by a path of one or more edges.
    Operations return new matrices; a constructed matrix is safe to share
    across threads as long as set() is not used concurrently.
    """

    __slots__ = ()

    def __init__(self, rows: int, cols: int, _blocks=None):
        super().__init__(rows, cols)
        self._hold(_blocks, _block_count(self.cols), np.uint64, f"a {self.rows}x{self.cols} Boolean matrix")

    def _like(self, store):
        return BoolMatrix(self.rows, self.cols, store)

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BoolMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, dim: int) -> "BoolMatrix":
        m = cls(dim, dim)
        idx = np.arange(dim)
        m._set_bits(idx, idx)
        return m

    @classmethod
    def from_lists(cls, rows) -> "BoolMatrix":
        """Matrix of a rectangular 2-D array-like (nested lists or an array)
        of 0/1 or bool entries."""
        ncols = cls._row_length(rows)
        try:
            bits = np.asarray(rows)
        except ValueError:  # an entry is a sequence; the scan below names it
            bits = None
        if (
            bits is None
            or bits.shape != (len(rows), ncols)
            or bits.dtype.kind not in "biuf"
            or not ((bits == 0) | (bits == 1)).all()
        ):
            for row in rows:
                for v in row:
                    if v not in (0, 1):
                        raise ValueError(f"entry must be 0 or 1, got {v!r}")
        return cls(len(rows), ncols, _pack_bits(bits != 0))

    # -- access --------------------------------------------------------

    @property
    def block_columns(self) -> int:
        return self._store.shape[1]

    blocks = property(_Matrix._view, doc="Raw 64-bit block storage, as a read-only view.")

    def get(self, i: int, j: int) -> int:
        i, j = self._check_index(i, j)
        return (int(self._store[i, j >> 6]) >> (j & 63)) & 1

    def _set_bits(self, rows, cols) -> None:
        """Set the bits at the intp index arrays (rows, cols), repeats
        allowed, _SET_CHUNK at a time: a flat word index and a mask per bit
        of a chunk, so the temporaries stay small whatever the bit count."""
        words = self._store.reshape(-1)
        for start in range(0, len(rows), _SET_CHUNK):
            part = cols[start : start + _SET_CHUNK]
            index = rows[start : start + _SET_CHUNK] * self.block_columns
            index += part >> 6
            masks = np.left_shift(np.uint64(1), (part & 63).astype(np.uint64))
            np.bitwise_or.at(words, index, masks)

    def set(self, i: int, j: int, value: int) -> None:
        i, j = self._check_index(i, j)
        if value not in (0, 1):
            raise ValueError(f"entry must be 0 or 1, got {value!r}")
        word = int(self._store[i, j >> 6])
        bit = 1 << (j & 63)
        self._store[i, j >> 6] = np.uint64(word | bit if value else word & ~bit)

    def to_lists(self) -> list[list[int]]:
        return _unpack_bits(self._store, self.cols).tolist()

    # -- entrywise operations -------------------------------------------

    def __or__(self, other) -> "BoolMatrix":
        return self._entrywise(other, np.bitwise_or)

    def __and__(self, other) -> "BoolMatrix":
        return self._entrywise(other, np.bitwise_and)

    def __xor__(self, other) -> "BoolMatrix":
        return self._entrywise(other, np.bitwise_xor)

    def __invert__(self) -> "BoolMatrix":
        flipped = ~self._store
        tail = self.cols & (BLOCK_BITS - 1)
        if tail:
            flipped[:, -1] &= np.uint64((1 << tail) - 1)
        return self._like(flipped)

    # -- semiring product and closures -----------------------------------

    def __mul__(self, other) -> "BoolMatrix":
        """Semiring product: OR over k of row i of self AND column j of other.

        Computed as a sum of outer products, eight at a time (the method of
        Four Russians): for each group of eight k, the 256 unions of the
        group's rows of the right factor form a table, and each output row
        ORs in the union its left entries (i, k) in the group select.
        """
        if not isinstance(other, BoolMatrix):
            return NotImplemented
        self._check_inner(other)
        out = BoolMatrix(self.rows, other.cols)
        _table_sweep(out._store, self._store, other._store)
        return out

    def transitive_closure(self) -> "BoolMatrix":
        """Reachability by one or more edges; diagonal set only for cycles.

        The product's sweep run in place over a copy, passed as output and
        both factors (Warshall's algorithm, eight pivots per table lookup):
        the table of the unions of a group's eight pivot rows is built as in
        a product, and each row, pivot rows included, ORs in the union of the
        pivots that its bits in the group's columns reach inside the group.
        The updated matrix feeds later groups. The result equals Warshall's
        one-pivot-at-a-time sweep.
        """
        self._check_square()
        out = self.copy()
        _table_sweep(out._store, out._store, out._store)
        return out

    def reflexive_transitive_closure(self) -> "BoolMatrix":
        """Transitive closure joined with the identity (paths of length >= 0)."""
        closure = self.transitive_closure()
        closure._set_bits(*np.diag_indices(self.rows))
        return closure

    def __repr__(self):
        return f"<BoolMatrix {self.rows}x{self.cols}>"


# Four Russians sweep (Arlazarov, Dinic, Kronrod & Faradzev 1970): the pivots
# k are taken in byte-aligned groups of _GROUP. The 2**_GROUP unions of the
# group's rows of ``right`` form a table, and each output row ORs in the one
# entry that its byte of ``left`` in the group's columns selects: eight outer
# products per lookup. A closure passes the matrix as all three arrays and
# selects through the group's closed map: byte S picks table[reach[S]], the
# union of the rows of every pivot that S reaches inside the group. reach[S]
# starts as S joined with the group bits of table[S] (the pivots one step
# from S) and is squared until it covers paths of _GROUP steps. Every row,
# pivot rows included, then takes the same update as in a product, and the
# result equals Warshall's one-pivot-at-a-time sweep bit for bit. A product
# never writes ``right``.
#
# As in the lane sweep, a group whose byte is nonzero in at least half the
# rows updates every row in place (a zero byte selects the empty union);
# sparser groups gather and update only the rows that hit.

_GROUP = 8  # divides 64, so a group's bits lie in one block


def _table_sweep(out, left, right):
    rows = out.shape[0]
    group_bits = np.uint64((1 << _GROUP) - 1)
    table = np.zeros((1 << _GROUP, right.shape[1]), dtype=np.uint64)
    for k0 in range(0, right.shape[0], _GROUP):
        shift = np.uint64(k0 & 63)
        for b, row in enumerate(right[k0 : k0 + _GROUP]):
            np.bitwise_or(table[: 1 << b], row, out=table[1 << b : 2 << b])
        byte = (left[:, k0 >> 6] >> shift) & group_bits
        if out is right and ((right[k0 : k0 + _GROUP, k0 >> 6] >> shift) & group_bits).any():
            # the closed map (the identity if no pivot row has a group bit);
            # three squarings cover paths of 2**3 = _GROUP steps
            reach = np.arange(1 << _GROUP) | ((table[:, k0 >> 6] >> shift) & group_bits).astype(np.intp)
            for _ in range(3):
                reach = reach[reach]
            byte = reach[byte]
        hit = np.nonzero(byte)[0]
        if 2 * hit.size >= rows:
            out |= table[byte]
        elif hit.size:
            out[hit] |= table[byte[hit]]
