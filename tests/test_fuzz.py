"""Fuzzing of the three readers of outside input.

Whatever text or bytes arrive, a reader either returns a matrix (or graph)
whose matrices survive a trip through both file formats unchanged, or raises
its own module's error type. Any other exception fails the test.

Besides free-form text and bytes, each reader gets well-formed input with at
most one field, line or length spoiled, so that both outcomes occur often.
"""

import struct

from hypothesis import assume, given, settings, strategies as st

from semimat import graphio, matio
from semimat.graphio import GraphParseError
from semimat.matio import MatrixFormatError

FUZZ = settings(max_examples=150, deadline=None)

# Graphs up to this many vertices are built and round-tripped. A valid header
# may name any count; refusing counts too large to allocate is a separate,
# still open check, so larger graphs are only parsed.
BUILD_LIMIT = 200

_JUNK = st.one_of(
    st.integers(-2, 3),
    st.integers(250, 70000),
    st.sampled_from(["x", "1.5", "", "#", "2 2", "4294967296", "\x00", "٣"]),
).map(str)


def assert_round_trips(m):
    assert matio.parse_text(matio.format_text(m)) == m
    assert matio.from_binary(matio.to_binary(m)) == m


@st.composite
def _spoiled(draw, lines):
    """``lines`` (lists of fields) joined as text, with at most one field
    replaced, one line dropped or one junk line added."""
    lines = [list(line) for line in lines]
    where = draw(st.integers(0, len(lines) - 1))
    spoil = draw(st.sampled_from(["none", "none", "none", "field", "drop", "add"]))
    if spoil == "field" and lines[where]:
        lines[where][draw(st.integers(0, len(lines[where]) - 1))] = draw(_JUNK)
    elif spoil == "drop":
        del lines[where]
    elif spoil == "add":
        lines.insert(where, draw(st.lists(_JUNK, max_size=4)))
    return draw(st.sampled_from(["\n", "\r\n"])).join(" ".join(line) for line in lines)


@st.composite
def _edge_texts(draw):
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1).map(str)
    edge = st.tuples(vertex, vertex) | st.tuples(vertex, vertex, st.integers(0, 300).map(str))
    return draw(_spoiled([("p", str(n)), *draw(st.lists(edge, max_size=6))]))


@st.composite
def _matrix_texts(draw):
    kind = draw(st.sampled_from(["bool", "antidist", "dist"]))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    if kind == "bool":
        header = ("bool", str(rows), str(cols))
        row = st.text("01", min_size=cols, max_size=cols).map(lambda r: (r,))
    else:
        width = draw(st.sampled_from([8, 16, 32]))
        header = (kind, str(width), str(rows), str(cols))
        entry = st.integers(0, 2**width - 1).map(str)
        row = st.lists(entry, min_size=cols, max_size=cols)
    body = draw(st.lists(row, min_size=rows, max_size=rows))
    return draw(_spoiled([header, *body]))


@st.composite
def _binary_matrices(draw):
    kind = draw(st.sampled_from(["B", "A", "D"]))
    width = 0 if kind == "B" else draw(st.sampled_from([8, 16, 32]))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 70))
    fields = [matio.MAGIC, ord(kind), width, rows, cols]
    spoil = draw(st.sampled_from([None] * 4 + list(range(len(fields) + 1))))
    if spoil is not None and spoil < len(fields):
        fields[spoil] = draw(
            [st.just(b"SRMAT2"), st.integers(0, 255), st.integers(0, 255),
             st.sampled_from([0, 2**32 - 1]), st.sampled_from([0, 2**32 - 1])][spoil]
        )
    size = rows * (-(-cols // 64)) * 8 if kind == "B" else rows * cols * width // 8
    size += draw(st.sampled_from([-1, 1])) if spoil == len(fields) else 0
    return struct.pack("<6sBBII", *fields) + draw(st.binary(min_size=size, max_size=size))


@FUZZ
@given(st.text(max_size=120) | _edge_texts())
def test_edge_list_parses_or_raises_graph_parse_error(text):
    try:
        spec = graphio.parse_edge_list(text)
    except GraphParseError:
        return
    n = spec.vertex_count
    assert n >= 1
    assert all(0 <= u < n and 0 <= v < n and w >= 0 for u, v, w in spec.edges)
    assume(n <= BUILD_LIMIT)
    assert_round_trips(graphio.bool_adjacency(spec))
    try:
        anti = graphio.antidist_adjacency(spec, 8)
    except ValueError as exc:
        assert "weight" in str(exc)
        return
    dist = graphio.dist_adjacency(spec, 8)
    assert dist == ~anti
    assert_round_trips(anti)
    assert_round_trips(dist)


@FUZZ
@given(st.text(max_size=120) | _matrix_texts())
def test_text_parses_or_raises_matrix_format_error(text):
    try:
        m = matio.parse_text(text)
    except MatrixFormatError:
        return
    assert_round_trips(m)


@FUZZ
@given(st.binary(max_size=64) | _binary_matrices())
def test_binary_reads_or_raises_matrix_format_error(data):
    try:
        m = matio.from_binary(data)
    except MatrixFormatError:
        return
    assert_round_trips(m)
