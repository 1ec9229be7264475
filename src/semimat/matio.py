"""Text and binary serialization for the three matrix types.

Text: a header line ("bool R C", "antidist W R C" or "dist W R C") followed
by R data lines, Boolean rows as runs of 0/1 characters, lane rows as
space-separated decimals.

Binary: a 16-byte header (magic ``SRMAT1``, a type byte, a width byte,
row and column counts as little-endian uint32) followed by the row-major
payload: packed 64-bit little-endian blocks for Boolean matrices (padding
bits zero), bare little-endian entries without padding for lane matrices.
"""

import re
import struct
import warnings
from pathlib import Path

import numpy as np

from .antidist import AntidistMatrix, DistMatrix
from .boolmat import BoolMatrix, _block_count, _unpack_bits

MAGIC = b"SRMAT1"
_HEADER = struct.Struct("<6sBBII")

_TYPE_BOOL = ord("B")
_TYPE_ANTIDIST = ord("A")
_TYPE_DIST = ord("D")

_LANE_DTYPES = {8: "<u1", 16: "<u2", 32: "<u4"}


class MatrixFormatError(ValueError):
    """Unreadable or inconsistent matrix file content."""


# -- text -------------------------------------------------------------------

def format_text(m) -> str:
    if isinstance(m, BoolMatrix):
        chars = np.full((m.rows, m.cols + 1), ord("\n"), dtype=np.uint8)
        np.add(_unpack_bits(m.blocks, m.cols), ord("0"), out=chars[:, :-1])
        return f"bool {m.rows} {m.cols}\n" + chars.tobytes().decode()
    if isinstance(m, (AntidistMatrix, DistMatrix)):
        kind = "antidist" if isinstance(m, AntidistMatrix) else "dist"
        body = (" ".join(str(v) for v in row) for row in m.to_lists())
        return "\n".join([f"{kind} {m.width} {m.rows} {m.cols}", *body]) + "\n"
    raise TypeError(f"cannot serialize {type(m).__name__}")


def _parse_header_ints(parts):
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise MatrixFormatError(f"non-integer header field in {parts!r}") from None


def _data_lines(lines, rows, cols):
    """The R data lines below the header; only blank lines may follow them."""
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"matrix dimensions must be positive, got {rows}x{cols}")
    body = lines[1 : rows + 1]
    if len(body) != rows:
        raise MatrixFormatError(f"expected {rows} data rows, found {len(body)}")
    for lineno, line in enumerate(lines[rows + 1 :], start=rows + 2):
        if line.strip():
            raise MatrixFormatError(f"line {lineno}: the header declares {rows} rows, found more")
    return body


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _read_integers(lines):
    """ASCII lines of whitespace-separated decimal integers as one int64
    array, a row per line; None if any line holds anything else."""
    if not all(map(str.isascii, lines)):
        return None  # numpy's integer parser takes some non-ASCII letters for digits
    with warnings.catch_warnings():
        # numpy 1.x reads "1.5" as 1 and only warns; make that an error
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
        except (ValueError, DeprecationWarning):
            return None


def _bad_line(body, cols):
    """The error naming the first data line that does not hold ``cols``
    integers _read_integers accepts."""
    for lineno, line in enumerate(body, start=2):
        fields = line.split()
        if len(fields) != cols:
            return MatrixFormatError(f"line {lineno}: expected {cols} values, found {len(fields)}")
        if _read_integers([line]) is None:
            # a line of well-formed integers fails only if one overflows int64
            what = "out-of-range" if all(map(_INTEGER.fullmatch, fields)) else "non-integer"
            return MatrixFormatError(f"line {lineno}: {what} entry")


def parse_text(text: str):
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise MatrixFormatError("empty input, expected a matrix header line")
    head = lines[0].split()
    kind = head[0]
    if kind == "bool":
        if len(head) != 3:
            raise MatrixFormatError("bool header must be 'bool R C'")
        rows, cols = _parse_header_ints(head[1:])
        body = [line.strip() for line in _data_lines(lines, rows, cols)]
        for lineno, row in enumerate(body, start=2):
            if len(row) != cols or row.strip("01"):
                raise MatrixFormatError(f"line {lineno}: expected {cols} characters of 0/1")
        chars = np.frombuffer("".join(body).encode(), dtype=np.uint8).reshape(rows, cols)
        return BoolMatrix.from_lists(chars == ord("1"))
    if kind in ("antidist", "dist"):
        if len(head) != 4:
            raise MatrixFormatError(f"{kind} header must be '{kind} W R C'")
        width, rows, cols = _parse_header_ints(head[1:])
        cls = AntidistMatrix if kind == "antidist" else DistMatrix
        body = _data_lines(lines, rows, cols)
        entries = _read_integers(body)
        if entries is None or entries.shape != (rows, cols):  # loadtxt skips blank lines
            raise _bad_line(body, cols)
        try:
            return cls.from_lists(entries, width)
        except ValueError as exc:
            raise MatrixFormatError(str(exc)) from None
    raise MatrixFormatError(f"unknown matrix type {kind!r}")


# -- binary -----------------------------------------------------------------

def to_binary(m) -> bytes:
    if isinstance(m, BoolMatrix):
        header = _HEADER.pack(MAGIC, _TYPE_BOOL, 0, m.rows, m.cols)
        return header + m.blocks.astype("<u8", copy=False).tobytes()
    if isinstance(m, (AntidistMatrix, DistMatrix)):
        tag = _TYPE_ANTIDIST if isinstance(m, AntidistMatrix) else _TYPE_DIST
        header = _HEADER.pack(MAGIC, tag, m.width, m.rows, m.cols)
        entries = m.data.astype(_LANE_DTYPES[m.width], copy=False)
        return header + entries.tobytes()
    raise TypeError(f"cannot serialize {type(m).__name__}")


def from_binary(data: bytes):
    if len(data) < _HEADER.size:
        raise MatrixFormatError(f"truncated header: {len(data)} bytes")
    magic, tag, width, rows, cols = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise MatrixFormatError(f"bad magic {magic!r}")
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"matrix dimensions must be positive, got {rows}x{cols}")
    payload = data[_HEADER.size :]
    if tag == _TYPE_BOOL:
        if width != 0:
            raise MatrixFormatError(f"bool matrices carry width byte 0, got {width}")
        blocks_per_row = _block_count(cols)
        expected = rows * blocks_per_row * 8
        if len(payload) != expected:
            raise MatrixFormatError(f"payload is {len(payload)} bytes, expected {expected}")
        blocks = (
            np.frombuffer(payload, dtype="<u8")
            .astype(np.uint64)
            .reshape(rows, blocks_per_row)
        )
        tail = cols & 63
        if tail and int(blocks[:, -1].max(initial=0)) >> tail:
            raise MatrixFormatError("nonzero padding bits in final block")
        return BoolMatrix(rows, cols, blocks)
    if tag in (_TYPE_ANTIDIST, _TYPE_DIST):
        if width not in _LANE_DTYPES:
            raise MatrixFormatError(f"unsupported width byte {width}")
        expected = rows * cols * (width // 8)
        if len(payload) != expected:
            raise MatrixFormatError(f"payload is {len(payload)} bytes, expected {expected}")
        cls = AntidistMatrix if tag == _TYPE_ANTIDIST else DistMatrix
        entries = np.frombuffer(payload, dtype=_LANE_DTYPES[width]).reshape(rows, cols)
        return cls.from_lists(entries, width)
    raise MatrixFormatError(f"unknown type byte {tag:#x}")


# -- files ------------------------------------------------------------------

def save(m, path, binary: bool = False) -> None:
    path = Path(path)
    if binary:
        path.write_bytes(to_binary(m))
    else:
        path.write_text(format_text(m))


def load(path):
    """Read a matrix file, sniffing binary vs text by the magic bytes."""
    data = Path(path).read_bytes()
    if data.startswith(MAGIC):
        return from_binary(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: neither a binary matrix nor utf-8 text") from exc
    return parse_text(text)
