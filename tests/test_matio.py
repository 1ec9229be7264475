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
