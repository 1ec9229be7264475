import random

import pytest

from semimat import matio
from semimat.antidist import AntidistMatrix, DistMatrix
from semimat.boolmat import BoolMatrix
from semimat.matio import MatrixFormatError
from semimat.scalars import sat_limit

WIDTHS = (8, 16, 32)


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
def test_parse_text_errors_name_their_line(text, message):
    with pytest.raises(MatrixFormatError, match=message):
        matio.parse_text(text)


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
