"""Bit-packed Boolean matrices for directed-graph reachability.

Each row is stored as 64-bit blocks: bit j of row i lives in block j // 64
at bit position j % 64 (least significant bit first). Bits past the column
count are padding and stay zero after every operation.
"""

import numpy as np

BLOCK_BITS = 64


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


class BoolMatrix:
    """R x C matrix over {0, 1} under the (or, and) semiring.

    Read as an adjacency matrix, the product A * B has entry (i, j) set
    exactly when some k has A[i,k] = B[k,j] = 1, and transitive_closure()
    marks every ordered pair joined by a path of one or more edges.
    Operations return new matrices; a constructed matrix is safe to share
    across threads as long as set() is not used concurrently.
    """

    __slots__ = ("rows", "cols", "_blocks")

    def __init__(self, rows: int, cols: int, _blocks=None):
        if rows < 1 or cols < 1:
            raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        if _blocks is None:
            _blocks = np.zeros((rows, _block_count(cols)), dtype=np.uint64)
        elif _blocks.shape != (rows, _block_count(cols)) or _blocks.dtype != np.uint64:
            raise ValueError("backing array does not match the blocked shape")
        self._blocks = _blocks

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
    def from_lists(cls, rows: list[list[int]]) -> "BoolMatrix":
        if not rows or not rows[0]:
            raise ValueError("matrix dimensions must be positive")
        ncols = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError(f"row {i} has {len(row)} entries, expected {ncols}")
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

    def copy(self) -> "BoolMatrix":
        return BoolMatrix(self.rows, self.cols, self._blocks.copy())

    # -- access --------------------------------------------------------

    @property
    def block_columns(self) -> int:
        return self._blocks.shape[1]

    @property
    def blocks(self):
        """Raw 64-bit block storage, as a read-only view."""
        view = self._blocks.view()
        view.flags.writeable = False
        return view

    def _check_index(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) out of range for {self.rows}x{self.cols}")

    def get(self, i: int, j: int) -> int:
        self._check_index(i, j)
        return (int(self._blocks[i, j >> 6]) >> (j & 63)) & 1

    def _set_bits(self, rows, cols) -> None:
        """Set the bits at the index arrays (rows, cols), repeats allowed."""
        cols = np.asarray(cols, dtype=np.intp)
        masks = np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64))
        np.bitwise_or.at(self._blocks, (rows, cols >> 6), masks)

    def set(self, i: int, j: int, value: int) -> None:
        self._check_index(i, j)
        if value not in (0, 1):
            raise ValueError(f"entry must be 0 or 1, got {value!r}")
        word = int(self._blocks[i, j >> 6])
        bit = 1 << (j & 63)
        self._blocks[i, j >> 6] = np.uint64(word | bit if value else word & ~bit)

    def to_lists(self) -> list[list[int]]:
        return _unpack_bits(self._blocks, self.cols).tolist()

    # -- entrywise operations -------------------------------------------

    def _check_same_shape(self, other):
        if not isinstance(other, BoolMatrix):
            raise TypeError(f"expected BoolMatrix, got {type(other).__name__}")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __or__(self, other) -> "BoolMatrix":
        self._check_same_shape(other)
        return BoolMatrix(self.rows, self.cols, self._blocks | other._blocks)

    def __and__(self, other) -> "BoolMatrix":
        self._check_same_shape(other)
        return BoolMatrix(self.rows, self.cols, self._blocks & other._blocks)

    def __xor__(self, other) -> "BoolMatrix":
        self._check_same_shape(other)
        return BoolMatrix(self.rows, self.cols, self._blocks ^ other._blocks)

    def __invert__(self) -> "BoolMatrix":
        flipped = ~self._blocks
        tail = self.cols & (BLOCK_BITS - 1)
        if tail:
            flipped[:, -1] &= np.uint64((1 << tail) - 1)
        return BoolMatrix(self.rows, self.cols, flipped)

    def __eq__(self, other):
        if not isinstance(other, BoolMatrix):
            return NotImplemented
        return (
            (self.rows, self.cols) == (other.rows, other.cols)
            and np.array_equal(self._blocks, other._blocks)
        )

    __hash__ = None

    # -- semiring product and closures -----------------------------------

    def __mul__(self, other) -> "BoolMatrix":
        """Semiring product: OR over k of row i of self AND column j of other.

        Computed as a sum of outer products: for every k, row k of the right
        factor is OR-ed into each output row whose left entry (i, k) is set.
        """
        if not isinstance(other, BoolMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"inner dimensions disagree: {self.rows}x{self.cols} times "
                f"{other.rows}x{other.cols}"
            )
        out = BoolMatrix(self.rows, other.cols)
        _or_sweep(out._blocks, self._blocks, other._blocks)
        return out

    def transitive_closure(self) -> "BoolMatrix":
        """Reachability by one or more edges; diagonal set only for cycles.

        The product's sweep run in place over a copy, passed as output and
        both factors (Warshall's algorithm): for each k, row k is OR-ed into
        every row whose column-k bit is set, and the updated matrix feeds
        later steps.
        """
        if self.rows != self.cols:
            raise ValueError(f"closure needs a square matrix, got {self.rows}x{self.cols}")
        t = self._blocks.copy()
        _or_sweep(t, t, t)
        return BoolMatrix(self.rows, self.cols, t)

    def reflexive_transitive_closure(self) -> "BoolMatrix":
        """Transitive closure joined with the identity (paths of length >= 0)."""
        if self.rows != self.cols:
            raise ValueError(f"closure needs a square matrix, got {self.rows}x{self.cols}")
        return BoolMatrix.identity(self.rows) | self.transitive_closure()

    def __repr__(self):
        return f"<BoolMatrix {self.rows}x{self.cols}>"


def _or_sweep(out, left, right):
    """Outer-product sweep: OR row k of ``right`` into every row of ``out``
    whose bit k of ``left`` is set, for each k in turn."""
    one = np.uint64(1)
    for k in range(right.shape[0]):
        column = (left[:, k >> 6] >> np.uint64(k & 63)) & one
        hit = np.nonzero(column)[0]
        if hit.size:
            out[hit] |= right[k]
