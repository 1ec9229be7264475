"""Edge-list graph files and their parsed form.

The format is one header line ``p <vertex_count>`` followed by one edge per
line, ``u v`` or ``u v w``. ``#`` starts a comment, blank lines are ignored,
and edges without a weight get weight 1.

Every body becomes one (m, 3) int64 table. The text, a str or its UTF-8
bytes, is read one ``matio._slabs`` slab of about 64 KiB of whole lines at a
time, as text matrices are, bytes decoded a slab at a time: each slab by one
``np.loadtxt`` call, with its ranges checked by whole-column reductions. The
line loop reads a slab only when that fails or finds a fault, to name the
line, or for the rare slab it cannot take: 2- and 3-field lines mixed,
non-ASCII text outside comments (such as a non-ASCII digit), ``1_0`` or a
run of 19 digits. Both readers write their rows into one table of ones,
sized from the text's newlines, so a parsed graph has one edge type and a
line without a weight keeps weight 1. A field beyond int64 is refused,
naming its line.
"""

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .antidist import AntidistMatrix, DistMatrix
from .boolmat import BoolMatrix, _edge_table
from .matio import _read_integers, _slabs


class GraphParseError(ValueError):
    """Malformed edge-list text; carries the offending line number when known."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class EdgeTable(Sequence):
    """Parsed edges: an (m, 3) int64 array of rows (u, v, w), read as a
    sequence of (u, v, w) tuples of ints that compares equal to a list of
    them. A slice is the EdgeTable of those rows. ``np.asarray`` returns the
    array itself, so the adjacency builders read it without a copy."""

    __slots__ = ("array",)

    def __init__(self, array):
        self.array = array

    def __len__(self):
        return len(self.array)

    def __getitem__(self, i):
        rows = self.array[i]
        return EdgeTable(rows) if isinstance(i, slice) else tuple(rows.tolist())

    def __iter__(self):
        return map(tuple, self.array.tolist())

    def __array__(self, dtype=None, copy=None):
        # numpy 1.x has no copy=None: pass copy only when it asks for one
        return np.array(self.array, dtype=dtype) if copy else np.asarray(self.array, dtype=dtype)

    def __eq__(self, other):
        if isinstance(other, (list, tuple, EdgeTable)):
            return list(self) == list(other)
        return NotImplemented


@dataclass
class GraphSpec:
    """A directed graph as parsed from an edge list."""

    vertex_count: int
    edges: Sequence[tuple[int, int, int]] = field(default_factory=list)
    weighted: bool = False


def parse_edge_list(text: str | bytes) -> GraphSpec:
    """Parse edge-list text into a validated GraphSpec.

    Vertex ids must lie in [0, vertex_count) and weights must be nonnegative
    integers that fit int64; whether a weight fits a lane width is checked
    when the matrix is built. Problems raise GraphParseError naming the line
    and the value. The edges are always an EdgeTable over an (m, 3) int64
    array, the rows of the body's slabs in one table, whichever reader took
    each, and ``weighted`` says whether any line gave a weight. ``text`` is
    a str or its UTF-8 bytes.
    """
    count, body = _header(_slabs(text))
    # a row per "\n" holds every edge unless lines end in "\r" alone (or
    # another break str.splitlines takes), when the table grows; a weight
    # column of ones is the weight of 2-field lines
    edges = np.ones((text.count(b"\n" if isinstance(text, bytes) else "\n") + 1, 3), np.int64)
    m, weighted = 0, False
    for lineno, lines in body:
        if lines:
            # numpy 1.x loadtxt reads a field beyond int64 through a float and
            # an undefined cast, so a slab with a run of 19 digits takes the
            # line loop; the vertex count may be beyond int64, so the ends
            # are compared with it as a Python int
            long = b"0" * 19 in "\n".join(lines).encode(errors="replace").translate(_DIGITS)
            table = None if long else _read_integers(lines, comments="#")
            if table is None or table.shape[1] not in (2, 3) or table.min() < 0 or int(table[:, :2].max()) >= count:
                table = _parse_lines(lines, count, lineno)
            if m + len(table) > len(edges):
                edges = np.concatenate((edges[:m], np.ones((m + len(table), 3), np.int64)))
            edges[m : m + len(table), : table.shape[1]] = table
            m += len(table)
            weighted |= table.shape[1] == 3
    # a body of mostly comments or blank lines keeps only its edges' rows
    return GraphSpec(count, EdgeTable(edges[:m] if 2 * m > len(edges) else edges[:m].copy()), weighted)


# Each ASCII digit as "0": a run of 19 digits becomes 19 zeros.
_DIGITS = bytes.maketrans(b"123456789", b"000000000")


def _header(slabs):
    """The vertex count of the header found in the text's ``slabs``, and the
    slabs of the body after it, each with the number of its first line."""
    for first, lines in slabs:
        for lineno, raw in enumerate(lines, first):
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if parts[0] != "p" or len(parts) != 2:
                raise GraphParseError("expected header 'p <vertex_count>'", lineno)
            try:
                count = int(parts[1])
            except ValueError:
                raise GraphParseError(f"vertex count {parts[1]!r} is not an integer", lineno) from None
            if count < 1:
                raise GraphParseError(f"vertex count must be positive, got {count}", lineno)
            return count, itertools.chain([(lineno + 1, lines[lineno - first + 1 :])], slabs)
    raise GraphParseError("missing 'p <vertex_count>' header")


def _parse_lines(lines, count, lineno):
    """The edges of the lines, numbered from ``lineno``, read one line at a
    time, as an int64 table: (m, 2) when no line has a weight, else (m, 3)
    with weight 1 for the lines without one. The first faulty line raises
    the GraphParseError that names it."""
    edges = []
    cols = 2
    for lineno, raw in enumerate(lines, start=lineno):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphParseError(f"expected 'u v [w]', got {line!r}", lineno)
        try:
            fields = [int(p) for p in parts]
        except ValueError:
            raise GraphParseError(f"non-integer field in {line!r}", lineno) from None
        u, v, w = fields + [1] * (3 - len(fields))
        for end, value in (("source", u), ("target", v)):
            if not 0 <= value < count:
                raise GraphParseError(f"{end} vertex {value} out of range [0, {count})", lineno)
        if w < 0:
            raise GraphParseError(f"negative weight {w}", lineno)
        if (big := max(fields)) >= 1 << 63:
            raise GraphParseError(f"value {big} does not fit int64", lineno)
        cols = max(cols, len(fields))
        edges.append((u, v, w))
    return np.array(edges, dtype=np.int64).reshape(-1, 3)[:, :cols]


def bool_adjacency(spec: GraphSpec) -> BoolMatrix:
    """Unweighted adjacency matrix: a set bit per edge."""
    m = BoolMatrix(spec.vertex_count, spec.vertex_count)
    ends, _ = _edge_table(spec.vertex_count, spec.edges)
    m._set_bits(ends[:, 0], ends[:, 1])
    return m


def antidist_adjacency(spec: GraphSpec, width: int = 8) -> AntidistMatrix:
    return AntidistMatrix.from_edges(spec.vertex_count, spec.edges, width)


def dist_adjacency(spec: GraphSpec, width: int = 8) -> DistMatrix:
    return DistMatrix.from_edges(spec.vertex_count, spec.edges, width)
