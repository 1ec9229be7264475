"""Edge-list graph files and their parsed form.

The format is one header line ``p <vertex_count>`` followed by one edge per
line, ``u v`` or ``u v w``. ``#`` starts a comment, blank lines are ignored,
and edges without a weight get weight 1.

Every body becomes one (m, 3) int64 table. The text, a str or its UTF-8
bytes, is read one ``matio._cuts`` slab of about 64 KiB of whole lines at a
time, as text matrices are. Each slab is read from its bytes, a str's
encoded one slab at a time: a few passes check it, then one
``np.fromstring`` call reads all its integers, and one reduction compares
the ends with the vertex count. That bytes reader takes slabs of ASCII
digits, blanks (spaces and tabs), blank lines, ``#`` comments and line ends
("\\n" or "\\r\\n") in which every line that holds fields holds 2, or
every one 3. It declines, to the line loop, a slab with 2- and 3-field
lines mixed or a line of another count; anything else outside comments,
such as a sign, ``1_0``, a non-ASCII digit or other whitespace; a lone
"\\r" or another break str.splitlines takes, even in a comment; a run of 19
digits; or an end out of range. The line loop reads such a slab one line
at a time and names the first faulty line. Both readers write their rows
into one table of ones, sized from the text's newlines, so a parsed graph
has one edge type and a line without a weight keeps weight 1. A field
beyond int64 is refused, naming its line.
"""

import re
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .antidist import AntidistMatrix, DistMatrix
from .boolmat import BoolMatrix, _edge_table
from .matio import _cuts


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
    count, lineno, start = _header(text)
    newline = b"\n" if isinstance(text, bytes) else "\n"
    # a row per "\n" holds every edge unless lines end in "\r" alone (or
    # another break str.splitlines takes), when the table grows; a weight
    # column of ones is the weight of 2-field lines
    edges = np.ones((text.count(newline) + 1, 3), np.int64)
    m, weighted = 0, False
    for slab in _cuts(text, start):
        plain = _plain(slab)
        table = None if plain is None else _read_fields(*plain)
        # the vertex count may be beyond int64, so the ends are compared with
        # it as a Python int; the line loop names the end out of range
        if table is None or int(table[:, :2].max(initial=0)) >= count:
            lines = (slab.decode() if isinstance(slab, bytes) else slab).splitlines()
            table = _parse_lines(lines, count, lineno)
            lineno += len(lines)
            del lines
        else:
            lineno += slab.count(newline)
        if m + len(table) > len(edges):
            edges = np.concatenate((edges[:m], np.ones((m + len(table), 3), np.int64)))
        edges[m : m + len(table), : table.shape[1]] = table
        m += len(table)
        weighted |= table.shape[1] == 3
        del slab, plain, table  # before the next slab is cut
    # a body of mostly comments or blank lines keeps only its edges' rows
    return GraphSpec(count, EdgeTable(edges[:m] if 2 * m > len(edges) else edges[:m].copy()), weighted)


def _header(text):
    """The vertex count of the header line of ``text``, the number of the
    line below it, and the offset where that line starts. The lines are
    read one at a time, as str.splitlines numbers them."""
    newline = b"\n" if isinstance(text, bytes) else "\n"
    start, lineno = 0, 1
    while start < len(text):
        stop = text.find(newline, start) + 1 or len(text)
        chunk = text[start:stop]
        lines = (chunk.decode() if isinstance(chunk, bytes) else chunk).splitlines(keepends=True)
        for i, raw in enumerate(lines):
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if parts[0] != "p" or len(parts) != 2:
                raise GraphParseError("expected header 'p <vertex_count>'", lineno + i)
            try:
                count = int(parts[1])
            except ValueError:
                raise GraphParseError(f"vertex count {parts[1]!r} is not an integer", lineno + i) from None
            if count < 1:
                raise GraphParseError(f"vertex count must be positive, got {count}", lineno + i)
            head = "".join(lines[: i + 1])
            return count, lineno + i + 1, start + len(head.encode() if isinstance(text, bytes) else head)
        start, lineno = stop, lineno + len(lines)
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


# Each byte of a slab as a class: 0 a blank (space, tab, or "\r", which must
# end its line with "\n"), 1 a digit, 2 "\n", 3 anything else.
_CLASSES = bytes(
    1 if c in b"0123456789" else 0 if c in b" \t\r" else 2 if c == 10 else 3 for c in range(256)
)
# A byte's class times 4 plus the class before it marks a field's first
# digit (4 or 6) and a "\n" that ends a line of fields or blanks (8 or 9);
# as events they read "0" and "\n", and every other pair is dropped.
_EVENTS = bytes(48 if c in (4, 6) else 10 if c in (8, 9) else 0 for c in range(256))
_QUIET = bytes(c for c in range(256) if c not in (4, 6, 8, 9))
# A comment runs to the end of its line, which str.splitlines may also end
# with one of these ASCII breaks: they stay for the class check to refuse.
_COMMENT = re.compile(rb"#[^\n\r\x0b\x0c\x1c-\x1e]*")
# The UTF-8 of the other breaks str.splitlines takes: U+0085, U+2028, U+2029.
_BREAKS = (b"\xc2\x85", b"\xe2\x80\xa8", b"\xe2\x80\xa9")


def _plain(slab):
    """The bytes of a slab of whole lines with its comments dropped, and the
    number of fields, 2 or 3, of each of its lines that holds any; None if
    the slab holds anything else outside comments than ASCII digits, blanks
    and line ends ("\\n" or "\\r\\n"), a line break of another kind (a
    comment's too), a run of 19 digits, or lines of unequal field counts.
    A slab without fields gives empty bytes.

    The checks are a few passes over the bytes: a class per byte, a pair
    code per byte, and one event string, a "0" per field and a "\\n" per
    line, that must repeat one line's fields."""
    data = slab.encode(errors="surrogatepass") if isinstance(slab, str) else slab
    if b"#" in data:
        if not data.isascii() and any(brk in data for brk in _BREAKS):
            return None
        data = _COMMENT.sub(b"", data)
    classes = data.translate(_CLASSES)
    # np.fromstring reads a field beyond int64 as int64's maximum without a
    # word, so a run of 19 digits takes the line loop, which names its line
    if b"\x03" in classes or b"\x01" * 19 in classes:
        return None
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None
    codes = bytearray(len(classes))
    pairs = np.frombuffer(codes, np.uint8)
    np.multiply(np.frombuffer(classes, np.uint8), 4, out=pairs)
    pairs[:1] += 2  # a slab starts a line
    pairs[1:] += np.frombuffer(classes, np.uint8)[:-1]
    del pairs, classes
    events = codes.translate(_EVENTS, _QUIET).lstrip(b"\n")
    del codes
    while b"\n\n" in events:  # lines of blanks
        events = events.replace(b"\n\n", b"\n")
    if not events:
        return b"", 2
    if not events.endswith(b"\n"):
        events += b"\n"
    fields = events.find(b"\n")
    if fields not in (2, 3) or events != (b"0" * fields + b"\n") * (len(events) // (fields + 1)):
        return None
    return data, fields


def _read_fields(data, fields):
    """The integers of ``data``, bytes that ``_plain`` passed, as an int64
    table of ``fields`` columns."""
    return np.fromstring(data, np.int64, sep=" ").reshape(-1, fields)


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
