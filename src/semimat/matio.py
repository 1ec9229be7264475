"""Text and binary serialization for the three matrix types.

Text: a header line ("bool R C", "antidist W R C" or "dist W R C") followed
by R data lines, Boolean rows as runs of 0/1 characters, lane rows as
space-separated decimals. Text is read and written in slabs of about
``_SLAB_CHARS`` (64 Ki) characters, whole lines each: the reader fills the
storage the matrix constructor allocates from the header, one slab of rows
at a time, and ``save`` writes the text one slab of rows at a time. Either
costs the matrix's own storage plus one slab, besides the text being read.
The reader takes a str or its UTF-8 bytes, and decodes bytes one slab at a
time, so ``load``, which hands it a file's bytes once they are checked to
be UTF-8, holds the file's bytes and one decoded slab, never the whole text
decoded. A header whose rows the text is too short to hold is refused
before any storage is allocated.

Binary: a 16-byte header (magic ``SRMAT1``, a type byte, a width byte,
row and column counts as little-endian uint32) followed by the row-major
payload: packed 64-bit little-endian blocks for Boolean matrices (padding
bits zero), bare little-endian entries without padding for lane matrices.
"""

import contextlib
import functools
import itertools
import os
import re
import stat
import struct
import sys
from pathlib import Path

import numpy as np

from . import kernels
from .antidist import AntidistMatrix, DistMatrix
from .boolmat import BoolMatrix, _block_count, _pack_bits, _unpack_bits

MAGIC = b"SRMAT1"
_HEADER = struct.Struct("<6sBBII")

# Each matrix class with its text name and its binary type byte. Widths and
# dimensions are the classes' own rules: a value they refuse is reported as
# a MatrixFormatError.
_KINDS = {BoolMatrix: ("bool", ord("B")), AntidistMatrix: ("antidist", ord("A")), DistMatrix: ("dist", ord("D"))}
_BY_NAME = {name: cls for cls, (name, _) in _KINDS.items()}
_BY_TAG = {tag: cls for cls, (_, tag) in _KINDS.items()}


class MatrixFormatError(ValueError):
    """Unreadable or inconsistent matrix file content."""


def _kind(m):
    """The text name and the type byte of matrix ``m``."""
    for cls, kind in _KINDS.items():
        if isinstance(m, cls):
            return kind
    raise TypeError(f"cannot serialize {type(m).__name__}")


def _build(make, *args):
    """``make(*args)``, with a ValueError it raises reported as a
    MatrixFormatError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise MatrixFormatError(str(exc)) from None


# -- text -------------------------------------------------------------------

# Characters of text read or written at a time: whole lines, about this many.
_SLAB_CHARS = 1 << 16


def format_text(m, start: int = 0, stop: int | None = None) -> str:
    """The text of rows ``start`` to ``stop`` (exclusive, default the last)
    of ``m``, led by the header line when ``start`` is 0: by default the
    whole text."""
    name = _kind(m)[0]
    if isinstance(m, BoolMatrix):
        head = f"{name} {m.rows} {m.cols}\n"
        bits = _unpack_bits(m.blocks[start:stop], m.cols)
        chars = np.full((len(bits), m.cols + 1), ord("\n"), dtype=np.uint8)
        np.add(bits, ord("0"), out=chars[:, :-1])
    else:
        head = f"{name} {m.width} {m.rows} {m.cols}\n"
        chars = _decimal_rows(m.data[start:stop])
    return (head if start == 0 else "") + str(chars, "ascii")


def _rows_per_slab(m) -> int:
    """How many rows of ``m`` fill at most a slab of text, or one row."""
    _kind(m)
    row_chars = m.cols + 1 if isinstance(m, BoolMatrix) else m.cols * (len(str(m.limit)) + 1)
    return max(1, _SLAB_CHARS // row_chars)


def _decimal_rows(entries):
    """The rows of a 2-D array of nonnegative integers as text lines of
    space-separated decimals, one uint8 array of ASCII bytes.

    Every entry first gets D + 1 bytes, D the digit count of the largest
    entry: its digits with leading zeros, then a space, or a newline after a
    row's last entry. One boolean mask then drops the leading zeros, the
    bytes of place 10**i in front of an entry below 10**i.
    """
    digits = len(str(int(entries.max(initial=0))))
    chars = np.empty(entries.shape + (digits + 1,), np.uint8)
    rest, digit = entries, np.empty_like(entries)
    for place in reversed(range(digits)):
        # a floor division and a subtraction take half the time of np.divmod
        quotient = rest // 10
        np.subtract(rest, np.multiply(quotient, 10, out=digit), out=digit)
        np.add(digit, ord("0"), out=chars[..., place], casting="unsafe")
        rest = quotient
    chars[..., digits] = ord(" ")
    chars[:, -1, digits] = ord("\n")
    keep = np.ones(chars.shape, bool)
    for place in range(digits - 1):
        np.greater_equal(entries, 10 ** (digits - 1 - place), out=keep[..., place])
    return chars[keep]


def _cuts(text, start=0):
    """The text of ``text``, a str or its UTF-8 bytes, from ``start`` on, in
    slabs of about _SLAB_CHARS characters (bytes, for bytes): each slab ends
    at the first newline that many characters past its start, so a cut never
    splits a line, a character's UTF-8 bytes or the two characters of
    "\\r\\n"."""
    newline = b"\n" if isinstance(text, bytes) else "\n"
    while start < len(text):
        stop = text.find(newline, start + _SLAB_CHARS)
        stop = len(text) if stop < 0 else stop + 1
        yield text[start:stop]
        start = stop


def _slabs(text):
    """The lines of ``text``, a str or its UTF-8 bytes, as the str's
    ``splitlines()`` gives them, one list for each of its ``_cuts``, each
    with the number of its first line. Bytes are decoded one slab at a
    time, and a list is let go before the next slab is cut, so a caller
    that drops its own reference holds one slab's lines at a time."""
    lineno = 1
    for slab in _cuts(text):
        lines = (slab.decode() if isinstance(slab, bytes) else slab).splitlines()
        del slab
        yield lineno, lines
        lineno += len(lines)
        del lines


_INTEGER = re.compile(r"[+-]?[0-9]+")


# The bytes that may stand between integers: ASCII whitespace, as str.split
# and np.loadtxt read it.
_SPACES = bytes(c for c in range(128) if chr(c).isspace())
_INTEGER_BYTES = b"0123456789+-" + _SPACES


def _read_integers(lines):
    """ASCII lines of whitespace-separated decimal integers as one int64
    array, a row per line that holds any; None if any line holds anything
    else, the rows differ in length, or no line holds an integer.

    The lines are checked before np.loadtxt runs, so no warning filter is
    touched and threads may parse at once.
    """
    if not _integer_text(lines):
        return None
    try:
        return np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None


def _integer_text(lines):
    """Whether the lines hold at least one integer and no byte but digits,
    signs and whitespace: numpy takes some non-ASCII letters for digits,
    numpy 1.x reads "1.5" as 1 and only warns, and loadtxt warns on input
    without data. The lines are joined once, so a caller passes at most one
    slab: about 64 KiB, small enough to leave the heap as loadtxt finds
    it."""
    try:
        raw = "\n".join(lines).encode("ascii")
    except UnicodeEncodeError:
        return False
    return not raw.translate(None, _INTEGER_BYTES) and bool(raw.strip(_SPACES))


def _bad_line(lines, cols, lineno):
    """The error naming the first of the data lines, numbered from
    ``lineno``, that does not hold ``cols`` integers _read_integers accepts."""
    for lineno, line in enumerate(lines, start=lineno):
        fields = line.split()
        if len(fields) != cols:
            return MatrixFormatError(f"line {lineno}: expected {cols} values, found {len(fields)}")
        if _read_integers([line]) is None:
            # a line of well-formed integers fails only if one overflows int64
            what = "out-of-range" if all(map(_INTEGER.fullmatch, fields)) else "non-integer"
            return MatrixFormatError(f"line {lineno}: {what} entry")


def _lane_rows(width, lines, cols, lineno):
    """The lane rows of data lines numbered from ``lineno``, as an array of
    the lane dtype for ``width``. A malformed line is a MatrixFormatError,
    an entry out of range (or the width) a ValueError."""
    entries = _read_integers(lines)
    if entries is None or entries.shape != (len(lines), cols):  # loadtxt skips blank lines
        raise _bad_line(lines, cols, lineno)
    return kernels.as_lanes(entries, width)


def _bool_rows(lines, cols, lineno):
    """The packed blocks of Boolean data lines numbered from ``lineno``."""
    rows = [line.strip() for line in lines]
    for lineno, row in enumerate(rows, start=lineno):
        if len(row) != cols or row.strip("01"):
            raise MatrixFormatError(f"line {lineno}: expected {cols} characters of 0/1")
    chars = np.frombuffer("".join(rows).encode(), dtype=np.uint8).reshape(len(rows), cols)
    return _pack_bits(chars == ord("1"))


def _line_count_fault(text, rows):
    """The error for text with fewer than ``rows`` lines below its header,
    or with a line that is not blank below them; None if it has neither."""
    lineno = 0
    for first, lines in _slabs(text):
        for lineno, line in enumerate(lines, first):
            if lineno > rows + 1 and line.strip():
                return MatrixFormatError(f"line {lineno}: the header declares {rows} rows, found more")
        del lines  # before the next slab is cut
    if lineno - 1 < rows:
        return MatrixFormatError(f"expected {rows} data rows, found {lineno - 1}")


def parse_text(text: str | bytes):
    """The matrix of a text, given as a str or as its UTF-8 bytes."""
    slabs = _slabs(text)
    _, lines = next(slabs, (1, []))
    if not lines or not lines[0].split():
        raise MatrixFormatError("empty input, expected a matrix header line")
    header = lines[0]
    kind, *fields = header.split()
    cls = _BY_NAME.get(kind)
    if cls is None:
        raise MatrixFormatError(f"unknown matrix type {kind!r}")
    form = "R C" if cls is BoolMatrix else "W R C"  # a lane header names the width first
    if len(fields) != len(form.split()):
        raise MatrixFormatError(f"{kind} header must be '{kind} {form}'")
    try:
        *width, rows, cols = map(int, fields)
    except ValueError:
        raise MatrixFormatError(f"non-integer header field in {fields!r}") from None
    if width:
        parse, row_chars = functools.partial(_lane_rows, *width), 2 * cols - 1
    else:
        parse, row_chars = _bool_rows, cols
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"matrix dimensions must be positive, got {rows}x{cols}")
    # Faults are reported as if the text were checked whole: the line count
    # and lines below the rows first, then the first malformed row, then the
    # width and the first entry out of range.
    m = storage = late = None
    if len(text) - len(header) < rows * (row_chars + 1):
        # Too short to hold the rows and their line breaks: refused before any
        # storage is allocated, by the line count or else by a short row. Of
        # bytes, the length bounds the characters from above, so a text beyond
        # ASCII may pass here and meet the same fault once parsed.
        fault = _line_count_fault(text, rows)
        if fault is not None:
            raise fault
    else:
        try:
            m = cls(rows, cols, *width)
        except ValueError as exc:  # the width
            late = MatrixFormatError(str(exc))
        else:
            storage = m._store
    row = 0
    for lineno, lines in itertools.chain([(2, lines[1:])], slabs):
        data = lines[: rows - row]
        if data:
            try:
                part = parse(data, cols, lineno)
            except MatrixFormatError as fault:
                raise _line_count_fault(text, rows) or fault from None
            except ValueError as exc:  # an entry out of range, or the width
                late, storage = late or MatrixFormatError(str(exc)), None
            else:
                if storage is not None:
                    storage[row : row + len(data)] = part
                del part
            row += len(data)
        if any(line.strip() for line in lines[len(data) :]):
            raise _line_count_fault(text, rows)
        del lines, data  # before the next slab is cut
    if row < rows:
        raise _line_count_fault(text, rows)
    if late is not None:
        raise late
    return m


# -- binary -----------------------------------------------------------------

def to_binary(m, file=None):
    """The binary form of ``m`` as bytes or, given a path or a binary file,
    written to it: the header, then the payload straight from the matrix's
    own buffer. A path is opened only once ``m`` is known to be a matrix."""
    header = _HEADER.pack(MAGIC, _kind(m)[1], getattr(m, "width", 0), m.rows, m.cols)
    payload = m._store.astype(m._store.dtype.newbyteorder("<"), copy=False)
    if file is None:
        return b"".join((header, payload))
    with _opened(file, "wb") as out:
        out.writelines((header, payload))


def _binary_matrix(header, payload):
    """The zero matrix that a binary ``header`` declares, for a payload of
    ``payload`` bytes, which must fill its storage exactly. The matrix type
    refuses a width or a dimension it does not take."""
    if len(header) < _HEADER.size:
        raise MatrixFormatError(f"truncated header: {len(header)} bytes")
    magic, tag, width, rows, cols = _HEADER.unpack_from(header)
    if magic != MAGIC:
        raise MatrixFormatError(f"bad magic {magic!r}")
    cls = _BY_TAG.get(tag)
    if cls is None:
        raise MatrixFormatError(f"unknown type byte {tag:#x}")
    if cls is BoolMatrix:
        if width != 0:
            raise MatrixFormatError(f"bool matrices carry width byte 0, got {width}")
        shape, row_bytes = (rows, cols), _block_count(cols) * 8
    else:
        shape, row_bytes = (rows, cols, width), cols * np.dtype(_build(kernels.dtype_for, width)).itemsize
    expected = rows * row_bytes
    if payload != expected:
        raise MatrixFormatError(f"payload is {payload} bytes, expected {expected}")
    return _build(cls, *shape)


def _filled(m):
    """``m``, once its storage holds a little-endian payload, in native byte
    order. A lane of the payload's own width is always in range; a Boolean
    matrix's padding bits must be zero."""
    if sys.byteorder == "big":
        m._store.byteswap(inplace=True)
    tail = m.cols & 63
    if isinstance(m, BoolMatrix) and tail and int(m._store[:, -1].max(initial=0)) >> tail:
        raise MatrixFormatError("nonzero padding bits in final block")
    return m


def from_binary(data: bytes):
    """The matrix of a binary form, its payload copied once into the storage
    the matrix type allocates."""
    m = _binary_matrix(data[: _HEADER.size], len(data) - _HEADER.size)
    memoryview(m._store).cast("B")[:] = memoryview(data)[_HEADER.size :]
    return _filled(m)


# -- files ------------------------------------------------------------------

@contextlib.contextmanager
def _opened(file, mode):
    """``file`` opened in ``mode`` if it is a path, else ``file`` itself."""
    if isinstance(file, (str, os.PathLike)):
        with open(file, mode) as out:
            yield out
    else:
        yield file


def save(m, path, binary: bool = False) -> None:
    """Write ``m`` to a path or to an open file, binary or text, the text
    one slab of rows at a time. A path is opened only once ``m`` is known
    to be a matrix."""
    if binary:
        to_binary(m, path)
        return
    step = _rows_per_slab(m)
    with _opened(path, "w") as out:
        for start in range(0, m.rows, step):
            out.write(format_text(m, start, start + step))


def _check_utf8(data: bytes) -> None:
    """Raise UnicodeDecodeError unless ``data`` is UTF-8 text, keeping no
    decoded copy: ASCII is UTF-8, and only other bytes are decoded."""
    if not data.isascii():
        data.decode("utf-8")


def load(path):
    """Read a matrix file, sniffing binary vs text by the magic bytes. The
    payload of a binary file is read into the storage the matrix type
    allocates. A text is checked to be UTF-8 and parsed from the file's
    bytes, which the parser decodes one slab at a time; so is the binary
    form read from a pipe or another file that is not a regular one."""
    if stat.S_ISREG(os.stat(path).st_mode):
        with open(path, "rb") as file:
            header = file.read(_HEADER.size)
            if header.startswith(MAGIC):
                m = _binary_matrix(header, os.fstat(file.fileno()).st_size - len(header))
                if file.readinto(memoryview(m._store).cast("B")) != m._store.nbytes:
                    raise MatrixFormatError(f"{path}: changed while it was read")
                return _filled(m)
    data = Path(path).read_bytes()
    if data.startswith(MAGIC):
        return from_binary(data)
    try:
        _check_utf8(data)
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: neither a binary matrix nor utf-8 text") from exc
    return parse_text(data)
