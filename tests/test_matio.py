import functools
import random
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semimat import graphio, matio
from semimat.antidist import AntidistMatrix, DistMatrix
from semimat.boolmat import BoolMatrix, _Matrix
from semimat.matio import MatrixFormatError
from semimat.scalars import sat_limit

WIDTHS = (8, 16, 32)

# Slab sizes far below the module's: a few dozen characters put each
# golden row in a slab of its own, and one character cuts the text after
# every line, so blank and trailing lines land in later slabs.
SMALL_SLABS = (24, 1)


def over_slabs(test):
    """Run ``test`` at the module's slab size, then at each of SMALL_SLABS."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        for size in (matio._SLAB_CHARS, *SMALL_SLABS):
            with mock.patch.object(matio, "_SLAB_CHARS", size):
                test(*args, **kwargs)

    return run


def random_bool(rng, rows, cols):
    return BoolMatrix.from_lists(
        [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
    )


def random_lane(cls, rng, rows, cols, width):
    limit = sat_limit(width)
    return cls.from_lists(
        [[rng.randrange(limit + 1) for _ in range(cols)] for _ in range(rows)], width
    )


DIMS = [(1, 1), (3, 65), (65, 3), (4, 64), (5, 17)]


@pytest.mark.parametrize("dims", DIMS)
def test_bool_roundtrip(dims):
    rng = random.Random(str(dims))
    m = random_bool(rng, *dims)
    assert matio.parse_text(matio.format_text(m)) == m
    assert matio.from_binary(matio.to_binary(m)) == m


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("cls", (AntidistMatrix, DistMatrix))
@pytest.mark.parametrize("dims", DIMS)
def test_lane_roundtrip(width, cls, dims):
    rng = random.Random(f"{width}-{dims}")
    m = random_lane(cls, rng, *dims, width)
    assert matio.parse_text(matio.format_text(m)) == m
    assert matio.from_binary(matio.to_binary(m)) == m


def test_text_headers():
    m = random_bool(random.Random(0), 2, 3)
    assert matio.format_text(m).splitlines()[0] == "bool 2 3"
    a = random_lane(AntidistMatrix, random.Random(0), 2, 3, 16)
    assert matio.format_text(a).splitlines()[0] == "antidist 16 2 3"
    d = random_lane(DistMatrix, random.Random(0), 2, 3, 32)
    assert matio.format_text(d).splitlines()[0] == "dist 32 2 3"


@over_slabs
def test_parse_text_errors():
    with pytest.raises(MatrixFormatError):
        matio.parse_text("")
    with pytest.raises(MatrixFormatError):
        matio.parse_text("floatmat 2 2\n")
    with pytest.raises(MatrixFormatError):
        matio.parse_text("bool 2 2\n01\n")  # missing a row
    with pytest.raises(MatrixFormatError):
        matio.parse_text("bool 1 2\n012\n")
    with pytest.raises(MatrixFormatError):
        matio.parse_text("antidist 8 1 2\n1 300\n")
    with pytest.raises(MatrixFormatError):
        matio.parse_text("antidist 8 1 2\n1\n")
    with pytest.raises(MatrixFormatError):
        matio.parse_text("antidist 9 1 1\n1\n")
    for empty in ("bool 0 3\n", "bool 2 0\n\n\n", "antidist 8 0 3\n", "dist 8 2 0\n\n\n"):
        with pytest.raises(MatrixFormatError, match="dimensions must be positive"):
            matio.parse_text(empty)


@pytest.mark.parametrize(
    "text, message",
    [
        ("bool 2 3\n010\n01\n", "line 3: expected 3 characters of 0/1"),
        ("bool 2 3\n010\n0110\n", "line 3: expected 3 characters of 0/1"),
        ("bool 2 3\n010\n0x1\n", "line 3: expected 3 characters of 0/1"),
        ("bool 2 3\n01\u00e9\n010\n", "line 2: expected 3 characters of 0/1"),
        ("antidist 8 2 2\n1 2\n3\n", "line 3: expected 2 values, found 1"),
        ("dist 16 3 2\n1 2\n3 4\n5 6 7\n", "line 4: expected 2 values, found 3"),
        ("dist 16 3 2\n1 2\n \n5 6\n", "line 3: expected 2 values, found 0"),
        ("antidist 8 2 2\n1 2\n\n", "line 3: expected 2 values, found 0"),
        ("antidist 8 2 2\n1 2\n3 x\n", "line 3: non-integer entry"),
        ("dist 8 2 2\n1 1.5\n3 4\n", "line 2: non-integer entry"),
        ("antidist 32 2 1\n1\n\u0663\n", "line 3: non-integer entry"),
        ("antidist 16 1 1\n1\u01fe2\n", "line 2: non-integer entry"),
        ("antidist 8 2 1\n1\n99999999999999999999\n", "line 3: out-of-range entry"),
        ("antidist 8 1 2\n1 300\n", r"entry 300 outside \[0, 255\]"),
        ("dist 16 2 2\n1 2\n-1 4\n", r"entry -1 outside \[0, 65535\]"),
    ],
)
@over_slabs
def test_parse_text_errors_name_their_line(text, message):
    with pytest.raises(MatrixFormatError, match=message):
        matio.parse_text(text)


@pytest.mark.parametrize(
    "lines, comments, want",
    [
        (["1 2", "3 4"], None, [[1, 2], [3, 4]]),
        (["+1\t-2", "", " 3 4 "], None, [[1, -2], [3, 4]]),
        (["1\x1f2"], None, [[1, 2]]),  # whitespace to str.split and to loadtxt
        (["1 1.5"], None, None),
        (["1e3"], None, None),
        (["1_0"], None, None),
        (["\u0663"], None, None),
        (["1\u20002"], None, None),
        (["", "  "], None, None),
        ([], None, None),
        (["0 1 # a comment"], None, None),
    ],
)
def test_read_integers_checks_before_loadtxt(lines, comments, want):
    """Anything but digits, signs and whitespace, and input without an
    integer, are refused before np.loadtxt runs."""
    got = matio._read_integers(lines)
    assert (got if got is None else got.tolist()) == want


@pytest.mark.parametrize("shape", ["blank first line", "lane rows"])
def test_integer_check_joins_about_64_kib_at_a_time(shape):
    """The parsers hand their check a slab at a time: the integer check
    joins a slab's lane rows once, the edge-list check reads a slab's text.
    Each holds at most 65 KiB plus one line, whatever the first line's
    length. A blank line above an edge list's body does not size the
    slabs, and lane rows of thousands of characters are joined a few at a
    time."""
    rng = random.Random(shape)
    if shape == "blank first line":
        lines = ["p 2048", ""] + [f"{rng.randrange(2048)} {rng.randrange(2048)} {rng.randint(1, 9)}" for _ in range(20000)]
        parse, owner, check, size = graphio.parse_edge_list, graphio, "_plain", len
    else:
        lines = ["antidist 8 64 1024"] + [" ".join(str(rng.randrange(256)) for _ in range(1024)) for _ in range(64)]
        parse, owner, check, size = matio.parse_text, matio, "_integer_text", lambda rows: len("\n".join(rows))
    text = "\n".join(lines) + "\n"
    with mock.patch.object(owner, check, wraps=getattr(owner, check)) as spy:
        got = parse(text)
    assert got == parse(text)
    joins = [size(call.args[0]) for call in spy.call_args_list]
    assert len(joins) > 1 and max(joins) <= 65 * 1024 + max(map(len, lines))


def test_parsers_run_in_threads_at_once():
    """Four threads, more than the cores, parse bad and good text at once,
    many times over with a short switch interval: each gets its own
    answer, and the process's warning filters are never touched."""
    rng = random.Random("threads")
    good = random_lane(AntidistMatrix, rng, 40, 30, 8)
    sources = {"good": matio.format_text(good), "bad": "dist 8 2 2\n1 1.5\n3 4\n"}
    filters = warnings.filters
    start = threading.Barrier(4, timeout=10)
    results = {}

    def parse(name, source):
        start.wait()
        answers = []
        for _ in range(100):
            try:
                answers.append(matio.parse_text(source) == good)
            except MatrixFormatError as exc:
                answers.append(str(exc))
        results[name] = answers

    threads = [
        threading.Thread(target=parse, args=(f"{kind}{i}", sources[kind]))
        for i in range(2)
        for kind in sources
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for i in range(2):
        assert results[f"good{i}"] == [True] * 100
        assert results[f"bad{i}"] == ["line 2: non-integer entry"] * 100
    assert warnings.filters is filters


@over_slabs
def test_format_text_golden():
    b = BoolMatrix.zeros(2, 70)
    for j in range(0, 70, 3):
        b.set(0, j, 1)
    for j in (0, 63, 64, 69):
        b.set(1, j, 1)
    assert matio.format_text(b) == (
        "bool 2 70\n"
        "1001001001001001001001001001001001001001001001001001001001001001001001\n"
        "1000000000000000000000000000000000000000000000000000000000000001100001\n"
    )
    d = DistMatrix.from_lists([[0, 65535, 7], [65535, 1, 300]], 16)
    assert matio.format_text(d) == "dist 16 2 3\n0 65535 7\n65535 1 300\n"
    assert matio.parse_text(matio.format_text(b)) == b
    assert matio.parse_text(matio.format_text(d)) == d


def test_to_binary_golden():
    # 3 columns of 16-bit lanes: any padding to a whole 128-bit block would show
    d = DistMatrix.from_lists([[0, 7, 65535], [65535, 0, 7]], 16)
    assert matio.to_binary(d) == (
        b"SRMAT1D\x10\x02\x00\x00\x00\x03\x00\x00\x00"
        b"\x00\x00\x07\x00\xff\xff"
        b"\xff\xff\x00\x00\x07\x00"
    )
    assert matio.from_binary(matio.to_binary(d)) == d


@pytest.mark.parametrize(
    "m, text, binary",
    [
        (BoolMatrix.from_lists([[1, 0, 1]]), "bool 1 3\n101\n",
         b"SRMAT1B\x00\x01\x00\x00\x00\x03\x00\x00\x00" b"\x05\x00\x00\x00\x00\x00\x00\x00"),
        (AntidistMatrix.from_lists([[1, 255]], 8), "antidist 8 1 2\n1 255\n",
         b"SRMAT1A\x08\x01\x00\x00\x00\x02\x00\x00\x00" b"\x01\xff"),
        (DistMatrix.from_lists([[0x01020304]], 32), "dist 32 1 1\n16909060\n",
         b"SRMAT1D\x20\x01\x00\x00\x00\x01\x00\x00\x00" b"\x04\x03\x02\x01"),
    ],
    ids=("bool", "antidist w8", "dist w32"),
)
@over_slabs
def test_golden_per_kind(m, text, binary):
    """Each kind's name and type byte, and lane payloads little-endian."""
    assert matio.format_text(m) == text
    assert matio.to_binary(m) == binary
    assert matio.parse_text(text) == m
    assert matio.from_binary(binary) == m


def test_parse_text_accepts_signs_and_whitespace():
    m = matio.parse_text("antidist 8 2 3\n  +1\t2   3 \n0 -0 255\n")
    assert m == AntidistMatrix.from_lists([[1, 2, 3], [0, 0, 255]], 8)


@pytest.mark.parametrize(
    "head, row",
    [("bool 1 2", "01"), ("antidist 8 1 2", "1 2"), ("dist 16 1 2", "3 4")],
)
def test_parse_text_trailing_lines(head, row):
    want = matio.parse_text(f"{head}\n{row}\n")
    assert matio.parse_text(f"{head}\n{row}\n\n  \n") == want
    with pytest.raises(MatrixFormatError, match="line 3: the header declares 1 rows"):
        matio.parse_text(f"{head}\n{row}\n{row}\n")
    with pytest.raises(MatrixFormatError, match="line 4"):
        matio.parse_text(f"{head}\n{row}\n\n{row}\n")


def test_binary_errors():
    m = random_bool(random.Random(1), 2, 65)
    blob = matio.to_binary(m)
    with pytest.raises(MatrixFormatError, match="magic"):
        matio.from_binary(b"NOTMAT" + blob[6:])
    with pytest.raises(MatrixFormatError, match="truncated"):
        matio.from_binary(blob[:10])
    with pytest.raises(MatrixFormatError, match="payload"):
        matio.from_binary(blob[:-8])
    with pytest.raises(MatrixFormatError, match="type byte"):
        matio.from_binary(blob[:6] + b"Z" + blob[7:])
    # flip a padding bit in the final block of the first row
    corrupt = bytearray(blob)
    corrupt[16 + 8 + 1] |= 0x80  # bit 15 of block 1, column 79 >= 65
    with pytest.raises(MatrixFormatError, match="padding"):
        matio.from_binary(bytes(corrupt))
    # the matrix types' own rules, reported as MatrixFormatError
    with pytest.raises(MatrixFormatError, match="dimensions must be positive"):
        matio.from_binary(blob[:8] + (0).to_bytes(4, "little") + blob[12:16])
    lanes = matio.to_binary(AntidistMatrix.from_lists([[1, 2]], 8))
    for width in (7, 64):
        with pytest.raises(MatrixFormatError, match=f"unsupported width {width}"):
            matio.from_binary(lanes[:7] + bytes([width]) + lanes[8:])
    with pytest.raises(MatrixFormatError, match="width byte 0, got 8"):
        matio.from_binary(blob[:7] + bytes([8]) + blob[8:])


def test_file_roundtrip_with_sniffing(tmp_path):
    rng = random.Random(2)
    matrices = [random_bool(rng, 3, 65)]
    for width in WIDTHS:
        matrices.append(random_lane(AntidistMatrix, rng, 4, 17, width))
        matrices.append(random_lane(DistMatrix, rng, 4, 17, width))
    for i, m in enumerate(matrices):
        t = tmp_path / f"m{i}.txt"
        b = tmp_path / f"m{i}.mat"
        matio.save(m, t)
        matio.save(m, b, binary=True)
        assert matio.load(t) == m
        assert matio.load(b) == m


def test_types_do_not_compare_equal():
    rng = random.Random(3)
    a = random_lane(AntidistMatrix, rng, 2, 2, 8)
    d = DistMatrix.from_lists(a.to_lists(), 8)
    assert a != d
    assert matio.format_text(a) != matio.format_text(d)


def test_saved_binary_file_holds_to_binary(tmp_path):
    rng = random.Random(4)
    matrices = [random_bool(rng, 3, 65)]
    for width in WIDTHS:
        matrices.append(random_lane(AntidistMatrix, rng, 4, 17, width))
        matrices.append(random_lane(DistMatrix, rng, 4, 17, width))
    for i, m in enumerate(matrices):
        path = tmp_path / f"m{i}.mat"
        matio.save(m, path, binary=True)
        assert path.read_bytes() == matio.to_binary(m)
        assert isinstance(matio.to_binary(m), bytes)


def test_saving_a_non_matrix_leaves_the_file_alone(tmp_path):
    path = tmp_path / "kept.mat"
    path.write_bytes(b"keep me")
    with pytest.raises(TypeError, match="cannot serialize object"):
        matio.save(object(), path, binary=True)
    assert path.read_bytes() == b"keep me"
    with pytest.raises(TypeError):
        matio.save(object(), tmp_path / "absent.mat", binary=True)
    assert not (tmp_path / "absent.mat").exists()


@st.composite
def lane_matrices(draw):
    """Lane matrices of 1x1, 1xN, Nx1 and other shapes whose entries are
    often 0, S or a power of ten or one less (a digit count's edges)."""
    cls = draw(st.sampled_from((AntidistMatrix, DistMatrix)))
    width = draw(st.sampled_from(WIDTHS))
    limit = sat_limit(width)
    n = draw(st.integers(1, 12))
    rows, cols = draw(st.sampled_from([(1, 1), (1, n), (n, 1), (draw(st.integers(2, 5)), n)]))
    edges = [0, limit] + [v for p in range(1, 10) for v in (10**p - 1, 10**p) if v <= limit]
    entry = st.integers(0, limit) | st.sampled_from(edges)
    row = st.lists(entry, min_size=cols, max_size=cols)
    return cls.from_lists(draw(st.lists(row, min_size=rows, max_size=rows)), width)


@settings(max_examples=200, deadline=None)
@given(lane_matrices())
def test_lane_text_is_space_separated_decimals(m):
    kind = "antidist" if isinstance(m, AntidistMatrix) else "dist"
    body = "".join(" ".join(str(v) for v in row) + "\n" for row in m.to_lists())
    text = matio.format_text(m)
    assert text == f"{kind} {m.width} {m.rows} {m.cols}\n" + body
    assert matio.parse_text(text) == m


# -- slabs --------------------------------------------------------------------

def traced_peak(work):
    """The tracemalloc peak, in bytes, of ``work()``."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "header, row",
    [("antidist 8 100000 100000", " ".join(["255"] * 100000)), ("bool 100000 100000", "01" * 50000)],
    ids=("lanes", "bool"),
)
def test_header_beyond_the_text_is_refused_before_allocating(header, row):
    """A header declaring more rows than the text can hold (10 GB of
    storage here) is refused with the line count, allocating under 1 MiB:
    no matrix constructor is reached."""
    text = f"{header}\n{row}\n"

    def parse():
        with pytest.raises(MatrixFormatError, match="^expected 100000 data rows, found 1$"):
            matio.parse_text(text)

    reached = AssertionError("a matrix constructor was reached")
    with mock.patch.object(_Matrix, "_check_storage", side_effect=reached):
        assert traced_peak(parse) < 1 << 20


@pytest.mark.parametrize("kind", ["lanes", "bool"])
def test_text_io_costs_the_storage_plus_one_slab(kind, tmp_path):
    """Parsing and saving an n=1024 w8 lane text (4 MB) or an n=2048
    Boolean text (4 MB) peaks under the matrix's storage plus 1 MiB."""
    rng = np.random.default_rng(kind == "bool")
    if kind == "lanes":
        m = AntidistMatrix.from_lists(rng.integers(0, 256, (1024, 1024), dtype=np.uint8), 8)
        storage = m.data.nbytes
    else:
        m = BoolMatrix.from_lists(rng.integers(0, 2, (2048, 2048), dtype=np.uint8))
        storage = m.blocks.nbytes
    text = matio.format_text(m)
    parsed = []
    assert traced_peak(lambda: parsed.append(matio.parse_text(text))) < storage + (1 << 20)
    assert parsed == [m]
    path = tmp_path / "m.txt"
    assert traced_peak(lambda: matio.save(m, path)) < storage + (1 << 20)
    assert path.read_text() == text


@pytest.mark.parametrize("kind", ["lanes", "bool"])
def test_load_costs_the_file_plus_the_storage(kind, tmp_path):
    """Loading an n=1024 w8 lane text or an n=2048 Boolean text from a file
    (about 4 MB each) peaks under the file's size plus the matrix's storage
    plus 1 MiB: the file's bytes are decoded one slab at a time, so no
    decoded copy of the whole text is held beside them."""
    rng = np.random.default_rng(kind == "bool")
    if kind == "lanes":
        m = AntidistMatrix.from_lists(rng.integers(0, 256, (1024, 1024), dtype=np.uint8), 8)
        storage = m.data.nbytes
    else:
        m = BoolMatrix.from_lists(rng.integers(0, 2, (2048, 2048), dtype=np.uint8))
        storage = m.blocks.nbytes
    path = tmp_path / "m.txt"
    matio.save(m, path)
    loaded = []
    assert traced_peak(lambda: loaded.append(matio.load(path))) < path.stat().st_size + storage + (1 << 20)
    assert loaded == [m]


@pytest.mark.parametrize(
    "cls, width, n",
    [(AntidistMatrix, 8, 2048), (DistMatrix, 16, 1024), (BoolMatrix, None, 4096)],
    ids=("antidist w8", "dist w16", "bool"),
)
def test_binary_load_costs_the_storage_plus_a_mib(cls, width, n, tmp_path):
    """Loading a binary file of 2 to 4 MiB of storage peaks under the
    storage plus 1 MiB: the payload is read into the storage the matrix
    constructor allocates, with no copy of the file's bytes beside it."""
    rng = np.random.default_rng(n)
    if cls is BoolMatrix:
        m = BoolMatrix.from_lists(rng.integers(0, 2, (n, n), dtype=np.uint8))
    else:
        m = cls.from_lists(rng.integers(0, 1 << width, (n, n)), width)
    path = tmp_path / "m.mat"
    matio.save(m, path, binary=True)
    loaded = []
    assert traced_peak(lambda: loaded.append(matio.load(path))) < m._store.nbytes + (1 << 20)
    assert loaded == [m]


def cut_texts():
    """Texts whose lines end in "\\r\\n", with blank lines inside and below
    the rows, each good or with one fault."""
    yield "antidist 8 3 4\r\n1 2 3 4\r\n\t5 6 7 8 \r\n9 10 11 12\r\n\r\n \r\n"
    yield "dist 16 2 3\n1 2 3\r\n4 5 6\n\n\n"
    yield "bool 3 5\r\n01101\r\n  10000\r\n11111\r\n\r\n"
    yield "bool 3 5\r\n01101\r\n\r\n11111\r\n"
    yield "antidist 8 2 4\r\n1 2 3 4\r\n5 6 7 8\r\n\r\n\r\n1"
    yield "bool 2 5\n01101\n10000\n\n\n\n11111\n"
    yield "antidist 8 3 2\n1 2\n3 300\n5 x\n"
    yield "dist 8 3 2\n1 2\n3 4\n"


@pytest.mark.parametrize("text", list(cut_texts()))
def test_every_slab_cut_reads_the_same(text, monkeypatch):
    """Every slab size, from one character to the whole text, reads the
    same matrix or reports the same fault."""

    def outcome():
        try:
            return matio.parse_text(text)
        except MatrixFormatError as exc:
            return str(exc)

    want = outcome()
    for size in range(1, len(text) + 1):
        monkeypatch.setattr(matio, "_SLAB_CHARS", size)
        assert outcome() == want, size


def non_ascii_texts():
    """Texts with UTF-8 characters of two and three bytes: an ideographic
    space a Boolean row may carry, a lane entry that is no integer, and the
    line breaks U+0085 and U+2028, which end a line as "\\n" does."""
    yield "bool 2 3\n\u3000101\n010\u3000\n"
    yield "bool 2 3\n\u3000\u3000\u3000\n"
    yield "bool 2 2\n01\x8510\n"
    yield "antidist 8 2 2\n1 2\n3 \u00e9\n"
    yield "dist 8 2 2\n1 2\u20283 4\n"
    yield "dist 8 1 2\n1 2\n\u2028\u00e9\n"


@pytest.mark.parametrize("text", list(cut_texts()) + list(non_ascii_texts()))
def test_bytes_read_as_their_text_at_every_slab_cut(text, monkeypatch):
    """The UTF-8 bytes of a text read the same matrix, or report the same
    fault, as the text itself, at every slab size from one byte to the
    whole."""

    def outcome(text):
        try:
            return matio.parse_text(text)
        except MatrixFormatError as exc:
            return str(exc)

    want = outcome(text)
    data = text.encode()
    for size in range(1, len(data) + 1):
        monkeypatch.setattr(matio, "_SLAB_CHARS", size)
        assert outcome(data) == want, size


def test_load_refuses_what_is_neither_binary_nor_utf8(tmp_path):
    """A file that is neither is refused naming its path, even below a
    header that is itself at fault: the UTF-8 check comes first."""
    path = tmp_path / "m.txt"
    for data in (b"bool 1 2\n0\xff\n", b"matrix 1 2\n0\xff\n", b"\xc3("):
        path.write_bytes(data)
        with pytest.raises(MatrixFormatError) as err:
            matio.load(path)
        assert str(err.value) == f"{path}: neither a binary matrix nor utf-8 text"
        assert isinstance(err.value.__cause__, UnicodeDecodeError)


def test_load_reads_valid_utf8_beyond_ascii(tmp_path):
    """A valid non-ASCII character passes the UTF-8 check, and the parser
    then names the line it spoils."""
    path = tmp_path / "m.txt"
    path.write_text("antidist 8 2 2\n1 \u00e9\n3 4\n", encoding="utf-8")
    with pytest.raises(MatrixFormatError, match="^line 2: non-integer entry$"):
        matio.load(path)
    path.write_text("bool 2 3\n\u3000101\n010\n", encoding="utf-8")
    assert matio.load(path) == BoolMatrix.from_lists([[1, 0, 1], [0, 1, 0]])


@pytest.mark.parametrize(
    "cls, width",
    [(BoolMatrix, None)] + [(cls, width) for cls in (AntidistMatrix, DistMatrix) for width in WIDTHS],
)
def test_roundtrip_over_many_slabs(cls, width, tmp_path, monkeypatch):
    """Each kind and width, cut into many slabs, writes the whole text's
    bytes slab by slab and reads back the matrix."""
    rng = random.Random(f"{cls.__name__}-{width}")
    m = random_bool(rng, 37, 70) if cls is BoolMatrix else random_lane(cls, rng, 37, 23, width)
    text = matio.format_text(m)
    monkeypatch.setattr(matio, "_SLAB_CHARS", 1000)
    step = matio._rows_per_slab(m)
    assert 1 < step < m.rows
    assert "".join(matio.format_text(m, start, start + step) for start in range(0, m.rows, step)) == text
    matio.save(m, tmp_path / "m.txt")
    assert (tmp_path / "m.txt").read_text() == text
    assert matio.parse_text(text) == m
    assert matio.load(tmp_path / "m.txt") == m


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["bool 2 3", "antidist 8 2 3", "dist 16 3 2", "antidist 9 2 2"]),
    st.text(alphabet="0123 \n\r\t-x", max_size=30),
    st.integers(1, 12),
)
def test_faults_do_not_depend_on_the_slab(header, body, size):
    """Small texts, most with several faults, read or fail the same way at
    any slab size."""

    def outcome():
        try:
            return matio.parse_text(f"{header}\n{body}")
        except MatrixFormatError as exc:
            return str(exc)

    want = outcome()
    with mock.patch.object(matio, "_SLAB_CHARS", size):
        assert outcome() == want


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["bool 2 3", "antidist 8 2 3", "dist 16 3 2", "antidist 9 2 2"]),
    st.text(alphabet="01 2\n\r\t-x\u3000\u00e9\u2028\x85", max_size=30),
    st.integers(1, 12),
)
def test_bytes_beyond_ascii_read_as_their_text(header, body, size):
    """Small texts with characters of two and three UTF-8 bytes, among them
    line breaks and whitespace beyond ASCII, read or fail as their bytes do,
    at any slab size."""

    def outcome(text):
        try:
            return matio.parse_text(text)
        except MatrixFormatError as exc:
            return str(exc)

    text = f"{header}\n{body}"
    with mock.patch.object(matio, "_SLAB_CHARS", size):
        assert outcome(text.encode()) == outcome(text)
