import operator
import random
import re
import threading
import tracemalloc

import numpy as np
import pytest

from semimat import antidist, kernels, oracle
from semimat.antidist import AntidistMatrix, DistMatrix
from semimat.boolmat import BoolMatrix
from semimat.scalars import dist_mul, sat_limit

WIDTHS = (8, 16, 32)


def random_values(rng, rows, cols, limit, zero_chance=0.3):
    return [
        [0 if rng.random() < zero_chance else rng.randrange(limit + 1) for _ in range(cols)]
        for _ in range(rows)
    ]


def random_antidist(rng, rows, cols, width, zero_chance=0.3):
    limit = sat_limit(width)
    return AntidistMatrix.from_lists(random_values(rng, rows, cols, limit, zero_chance), width)


def random_digraph(rng, max_dim=24):
    dim = rng.randint(2, max_dim)
    p = rng.uniform(0.1, 0.5)
    edges = [
        (u, v, rng.randint(1, 10))
        for u in range(dim)
        for v in range(dim)
        if u != v and rng.random() < p
    ]
    return dim, edges


def assert_no_padding(m):
    assert m.data.shape == (m.rows, m.cols)


# -- construction -------------------------------------------------------------

def test_zeros_identity_examples():
    i = AntidistMatrix.identity(2, 8)
    assert i.to_lists() == [[255, 0], [0, 255]]
    z = AntidistMatrix.zeros(2, 2, 8)
    assert z.to_lists() == [[0, 0], [0, 0]]
    with pytest.raises(ValueError):
        AntidistMatrix.zeros(0, 2, 8)
    with pytest.raises(ValueError):
        AntidistMatrix.zeros(2, 2, 12)


@pytest.mark.parametrize("width", WIDTHS)
def test_identity_and_zero_neutral(width):
    rng = random.Random(width)
    a = random_antidist(rng, 6, 6, width)
    assert (AntidistMatrix.identity(6, width) * a) == a
    assert (a * AntidistMatrix.identity(6, width)) == a
    assert (AntidistMatrix.zeros(6, 6, width) | a) == a


def test_from_edges_examples():
    m = AntidistMatrix.from_edges(2, [(0, 1, 3)], 8)
    assert m.get(0, 1) == 252
    assert m.get(0, 0) == 0 and m.get(1, 0) == 0 and m.get(1, 1) == 0
    dup = AntidistMatrix.from_edges(2, [(0, 1, 3), (0, 1, 5)], 8)
    assert dup.get(0, 1) == 252  # shorter distance wins
    loop = AntidistMatrix.from_edges(1, [(0, 0, 0)], 8)
    assert loop.get(0, 0) == 255
    with pytest.raises(ValueError, match="vertex 5"):
        AntidistMatrix.from_edges(2, [(0, 5, 1)], 8)
    with pytest.raises(ValueError, match="weight 300"):
        AntidistMatrix.from_edges(2, [(0, 1, 300)], 8)
    for cls in (AntidistMatrix, DistMatrix):
        with pytest.raises(ValueError, match="weight 1.5 is not a whole number"):
            cls.from_edges(2, [(0, 1, 1.5)], 8)
    assert AntidistMatrix.from_edges(2, [(0, 1, 2.0)], 8).get(0, 1) == 253  # whole floats pass


def test_get_set_bounds():
    m = AntidistMatrix.zeros(2, 2, 8)
    m.set(0, 1, 17)
    assert m.get(0, 1) == 17
    with pytest.raises(ValueError):
        m.set(0, 0, 256)
    with pytest.raises(IndexError):
        m.get(0, 2)


@pytest.mark.parametrize("cls", (AntidistMatrix, DistMatrix))
def test_lane_index_must_be_an_integer(cls):
    m = cls.from_lists([[0, 0], [0, 0]], 8)
    with pytest.raises(IndexError, match=r"index \(0.5, 1\) is not a pair of integers"):
        m.get(0.5, 1)
    with pytest.raises(IndexError, match=r"index \(0, 1.5\) is not a pair of integers"):
        m.set(0, 1.5, 1)
    m.set(np.int64(0), np.int64(1), 17)
    assert m.get(np.int64(0), np.int64(1)) == 17


@pytest.mark.parametrize("cls", (AntidistMatrix, DistMatrix))
def test_from_edges_ends_must_be_vertex_indices(cls):
    with pytest.raises(IndexError, match="edge end 0.5 is not a vertex index"):
        cls.from_edges(2, [(0.5, 1, 1)], 8)
    with pytest.raises(IndexError, match="edge end 1.0 is not a vertex index"):
        cls.from_edges(2, [(0, 1.0, 1)], 8)
    m = cls.from_edges(2, [(np.int64(0), np.int64(1), 3)], 8)
    assert m == cls.from_edges(2, [(0, 1, 3)], 8)


@pytest.mark.parametrize("cls", (AntidistMatrix, DistMatrix))
def test_lane_entries_must_be_whole_numbers(cls):
    with pytest.raises(ValueError, match="entry 1.5 is not a whole number"):
        cls.from_lists([[1.5, 2.9]], 8)
    m = cls.from_lists([[2.0, 255.0]], 8)  # whole floats are accepted
    assert m.to_lists() == [[2, 255]]
    with pytest.raises(ValueError, match="entry 7.9 is not a whole number"):
        m.set(0, 0, 7.9)
    with pytest.raises(ValueError, match="entry nan outside"):
        m.set(0, 0, float("nan"))
    m.set(0, 0, 7.0)
    assert m.get(0, 0) == 7


@pytest.mark.parametrize("junk", ("1", None, [2]))
@pytest.mark.parametrize("cls", (AntidistMatrix, DistMatrix))
def test_lane_entries_must_be_numbers(cls, junk):
    message = re.escape(f"entry {junk!r} is not a number")
    with pytest.raises(ValueError, match=message):
        cls.from_lists([[2, junk]], 8)
    m = cls.from_lists([[2]], 8)
    with pytest.raises(ValueError, match=message):
        m.set(0, 0, junk)
    assert m.to_lists() == [[2]]


@pytest.mark.parametrize("rows, entry", [([[[1], [2]]], [1]), ([[1, [2]]], [2])])
@pytest.mark.parametrize("cls", (AntidistMatrix, DistMatrix))
def test_from_lists_names_a_nested_entry(cls, rows, entry):
    with pytest.raises(ValueError, match=re.escape(f"entry {entry!r} is not a number")):
        cls.from_lists(rows, 8)


@pytest.mark.parametrize(
    "rows, shown",
    [
        ([0, 1], "[0, 1]"),
        (np.array([0, 1]), "array([0, 1])"),
        (5, "5"),
        (np.array(5), "array(5)"),
        ([[0, 1], 1], "[[0, 1], 1]"),
    ],
    ids=range(5),
)
@pytest.mark.parametrize("cls", (BoolMatrix, AntidistMatrix, DistMatrix))
def test_from_lists_refuses_input_that_is_not_rows(cls, rows, shown):
    """A scalar, a 1-D sequence or array, or a row that is a scalar is a
    ValueError naming the input, not a TypeError from len()."""
    with pytest.raises(ValueError, match=re.escape(f"expected a 2-D array-like of rows, got {shown}")):
        cls.from_lists(rows)


@pytest.mark.parametrize("dim", (2.0, 2.5, "2", None, 0, -1), ids=repr)
@pytest.mark.parametrize("cls", (BoolMatrix, AntidistMatrix, DistMatrix))
def test_matrix_dimensions_must_be_positive_integers(cls, dim):
    for build, shape in (
        (lambda: cls(dim, 3), f"{dim!r}x3"),
        (lambda: cls(3, dim), f"3x{dim!r}"),
        (lambda: cls.identity(dim), f"{dim!r}x{dim!r}"),
    ):
        message = f"matrix dimensions must be positive integers, got {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
    m = cls(np.int64(2), np.uint8(3))
    assert (m.rows, m.cols) == (2, 3) and type(m.rows) is int
    assert cls.identity(np.int32(2)) == cls.identity(2)


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda: AntidistMatrix(10**20, 2), "a 100000000000000000000x2 matrix of width 8"),
        (lambda: AntidistMatrix(2**62, 4, 32), "a 4611686018427387904x4 matrix of width 32"),
        (lambda: DistMatrix.unreachable(3, 2**62, 16), "a 3x4611686018427387904 matrix of width 16"),
        (lambda: AntidistMatrix.identity(2**32, 8), "a 4294967296x4294967296 matrix of width 8"),
        (lambda: BoolMatrix(10**20, 2), "a 100000000000000000000x2 Boolean matrix"),
        (lambda: BoolMatrix.identity(2**33), "a 8589934592x8589934592 Boolean matrix"),
    ],
    ids=range(6),
)
def test_storage_numpy_cannot_address_is_refused(build, what):
    """A shape whose bytes exceed numpy's address range is refused before
    any allocation, with its rows, columns and lane width named."""
    with pytest.raises(ValueError, match=re.escape(what) + r" needs \d+ bytes, more than numpy can address"):
        build()


@pytest.mark.parametrize("cls", (BoolMatrix, AntidistMatrix, DistMatrix))
def test_every_type_holds_copies_and_compares_its_array_alike(cls):
    """The storage rules the three types share: a backing array is checked,
    a copy shares nothing, equality needs the type, shape and width, and an
    entrywise operand of another type, shape or width is refused."""
    lanes = cls is not BoolMatrix

    def build(cols, width=8, store=None):
        return cls(2, cols, width, store) if lanes else cls(2, cols, store)

    def storage(m):
        return m.data if lanes else m.blocks

    m = build(65)
    expected = storage(m)
    for bad in (np.zeros((2, expected.shape[1] + 1), expected.dtype), np.zeros(expected.shape, np.int64)):
        message = f"backing array {bad.shape} {bad.dtype} is not {expected.shape} {expected.dtype}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build(65, store=bad)

    twin = m.copy()
    assert type(twin) is cls and twin == m
    assert not np.shares_memory(storage(twin), storage(m))
    twin.set(0, 0, 1)
    assert twin != m and m.get(0, 0) != 1

    if lanes:  # equal stored zeros at two widths; equal bytes of the other type
        assert cls.from_lists([[0] * 65] * 2, 8) != cls.from_lists([[0] * 65] * 2, 16)
        other = (AntidistMatrix if cls is DistMatrix else DistMatrix)(2, 65, 8, storage(m).copy())
    else:  # the same two zero blocks a row at 65 and at 100 columns
        assert build(65) != build(100)
        other = AntidistMatrix.zeros(2, 65)
    assert m != other and other != m
    for op in (operator.or_, operator.and_, operator.xor):
        with pytest.raises(TypeError, match=f"expected {cls.__name__}, got {type(other).__name__}"):
            op(m, other)
        for odd in (build(64), build(65, 16)) if lanes else (build(64),):
            with pytest.raises(ValueError, match=re.escape(f"{m!r} vs {odd!r}")):
                op(m, odd)


def test_from_lists_names_the_first_bad_entry():
    # A Python int wider than any numpy integer still gets the range message.
    with pytest.raises(ValueError, match=r"entry 1180591620717411303424 outside \[0, 255\]"):
        AntidistMatrix.from_lists([[2**70]], 8)
    # Row-major order: the first bad entry of row 0 comes before row 1's.
    with pytest.raises(ValueError, match=r"entry 70000 outside \[0, 65535\]"):
        DistMatrix.from_lists([[3, 70000], [-1, 2]], 16)
    with pytest.raises(ValueError, match=r"entry -1 outside \[0, 65535\]"):
        DistMatrix.from_lists(np.array([[3, 2], [-1, 70000]]), 16)
    with pytest.raises(ValueError, match="row 1 has 1 entries, expected 2"):
        AntidistMatrix.from_lists([[1, 2], [3]], 8)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("cls", (AntidistMatrix, DistMatrix))
def test_from_lists_takes_arrays(width, cls):
    rows = random_values(random.Random(width), 3, 21, sat_limit(width))
    want = cls.from_lists(rows, width)
    assert cls.from_lists(np.array(rows), width) == want
    assert cls.from_lists(np.array(rows, dtype=kernels.dtype_for(width)), width) == want


# -- entrywise ops -------------------------------------------------------------

def test_entrywise_examples():
    a = AntidistMatrix.from_lists([[10] * 16], 8)
    b = AntidistMatrix.from_lists([[3] * 16], 8)
    assert (a ^ b).to_lists() == [[7] * 16]
    assert (a & a) == a
    assert (a | a) == a
    assert (~(~a)) == a
    assert isinstance(~a, DistMatrix)
    with pytest.raises(ValueError):
        a | AntidistMatrix.zeros(2, 16, 8)
    with pytest.raises(TypeError):
        a | (~b)


@pytest.mark.parametrize("width", WIDTHS)
def test_entrywise_scalar_path_matches(width):
    rng = random.Random(width + 1)
    a = random_antidist(rng, 5, 21, width)
    b = random_antidist(rng, 5, 21, width)
    vec = [(a | b), (a & b), (a ^ b), ~a]
    with kernels.forced_scalar():
        sca = [(a | b), (a & b), (a ^ b), ~a]
    for x, y in zip(vec, sca):
        assert x == y
        assert_no_padding(x)
        assert_no_padding(y)


def test_operations_read_the_path_once(monkeypatch):
    rng = random.Random(27)
    a = random_antidist(rng, 5, 5, 8)
    b = random_antidist(rng, 5, 5, 8)
    d = ~a
    calls = []
    real = kernels.use_vector
    monkeypatch.setattr(kernels, "use_vector", lambda: calls.append(1) or real())
    ops = [
        lambda: a | b, lambda: a & b, lambda: a ^ b, lambda: a * b, lambda: d * d,
        lambda: a.copy().transitive_close(), lambda: d.copy().transitive_close(),
    ]
    for forced in (kernels.forced_scalar, kernels.forced_vector):
        for op in ops:
            calls.clear()
            with forced():
                op()
            assert len(calls) == 1


def test_dist_padding_restored_after_xor():
    a = DistMatrix.unreachable(2, 17, 8)
    b = DistMatrix.unreachable(2, 17, 8)
    x = a ^ b
    assert_no_padding(x)
    assert x.to_lists() == [[0] * 17] * 2


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("cls", (AntidistMatrix, DistMatrix))
@pytest.mark.parametrize("rows, cols", [(3, 17), (5, 9), (1, 1), (2, 33)])
def test_storage_is_exactly_rows_by_cols(width, cls, rows, cols):
    rng = random.Random(f"storage-{width}-{rows}-{cols}")
    limit = sat_limit(width)
    a = cls.from_lists(random_values(rng, rows, cols, limit), width)
    b = cls.from_lists(random_values(rng, rows, cols, limit), width)
    tall = cls.from_lists(random_values(rng, cols, rows, limit), width)
    square = cls.from_lists(random_values(rng, cols, cols, limit), width)
    bits = BoolMatrix.from_lists([[rng.randrange(2) for _ in range(cols)] for _ in range(rows)])
    empty = AntidistMatrix.zeros if cls is AntidistMatrix else DistMatrix.unreachable
    built = [
        cls(rows, cols, width), a, empty(rows, cols, width), cls.identity(cols, width),
        AntidistMatrix.from_boolmat(bits, width), ~AntidistMatrix.from_boolmat(bits, width),
        a | b, a & b, a ^ b, ~a, a * tall, tall * a,
    ]
    for forced in (kernels.forced_vector, kernels.forced_scalar):
        with forced():
            inplace = square.copy()
            inplace.transitive_close()
            built += [a | b, a ^ b, a * tall, square.transitive_closure(), inplace]
    for m in built:
        assert_no_padding(m)
    # the sweeps walk rows: a column-major input must not become row-strided storage
    fortran = np.asfortranarray(np.asarray(a.data))
    assert cls.from_lists(fortran, width).data.flags.c_contiguous


# -- product -------------------------------------------------------------------

def test_mul_example():
    a = AntidistMatrix.zeros(3, 3, 8)
    a.set(0, 1, 252)
    b = AntidistMatrix.zeros(3, 3, 8)
    b.set(1, 2, 251)
    assert (a * b).get(0, 2) == 248
    z = AntidistMatrix.zeros(3, 3, 8)
    assert (a * z) == z
    with pytest.raises(ValueError):
        AntidistMatrix.zeros(2, 3, 8) * AntidistMatrix.zeros(2, 3, 8)
    with pytest.raises(ValueError):
        AntidistMatrix.zeros(2, 3, 8) * AntidistMatrix.zeros(3, 2, 16)


@pytest.mark.parametrize("width", WIDTHS)
def test_mul_against_oracle(width):
    rng = random.Random(width * 3)
    limit = sat_limit(width)
    for trial in range(25):
        rows, inner, cols = rng.randint(1, 32), rng.randint(1, 32), rng.randint(1, 32)
        a = random_values(rng, rows, inner, limit)
        b = random_values(rng, inner, cols, limit)
        got = AntidistMatrix.from_lists(a, width) * AntidistMatrix.from_lists(b, width)
        assert got.to_lists() == oracle.naive_antidist_mul(a, b, limit)
        assert_no_padding(got)


@pytest.mark.parametrize("width", WIDTHS)
def test_mul_scalar_path_bit_exact(width):
    rng = random.Random(width * 5)
    a = random_antidist(rng, 19, 23, width, zero_chance=0.2)
    b = random_antidist(rng, 23, 17, width, zero_chance=0.2)
    want = a * b
    with kernels.forced_scalar():
        got = a * b
    assert got == want


# -- closure ---------------------------------------------------------------

def test_closure_path_example():
    m = AntidistMatrix.from_edges(3, [(0, 1, 3), (1, 2, 4)], 8)
    c = m.transitive_closure()
    assert c.get(0, 2) == 248
    z = AntidistMatrix.zeros(4, 4, 8)
    assert z.transitive_closure() == z
    with pytest.raises(ValueError):
        AntidistMatrix.zeros(2, 3, 8).transitive_closure()


def test_close_mutates_closure_does_not():
    m = AntidistMatrix.from_edges(3, [(0, 1, 3), (1, 2, 4)], 8)
    pure = m.transitive_closure()
    assert m.get(0, 2) == 0
    m.transitive_close()
    assert m == pure


@pytest.mark.parametrize("width", WIDTHS)
def test_closure_against_dijkstra(width):
    rng = random.Random(width * 7)
    limit = sat_limit(width)
    for trial in range(30):
        dim, edges = random_digraph(rng)
        m = AntidistMatrix.from_edges(dim, edges, width)
        assert m.transitive_closure().to_lists() == oracle.apsp_dijkstra(dim, edges, limit)


def test_closure_clamps_at_saturation():
    # chain of 30 edges of weight 10: total distance 300 > 255 collapses to 0
    edges = [(i, i + 1, 10) for i in range(30)]
    m = AntidistMatrix.from_edges(31, edges, 8)
    c = m.transitive_closure()
    assert c.get(0, 30) == 0
    assert c.get(0, 25) == 255 - 250
    wide = AntidistMatrix.from_edges(31, edges, 16).transitive_closure()
    assert wide.get(0, 30) == 65535 - 300


@pytest.mark.parametrize("width", WIDTHS)
def test_closure_scalar_path_bit_exact(width):
    rng = random.Random(width * 9)
    dim, edges = random_digraph(rng)
    m = AntidistMatrix.from_edges(dim, edges, width)
    want = m.transitive_closure()
    with kernels.forced_scalar():
        got = m.transitive_closure()
        inplace = m.copy()
        inplace.transitive_close()
    assert got == want
    assert inplace == want


def test_triangle_property():
    rng = random.Random(13)
    for width in WIDTHS:
        limit = sat_limit(width)
        dim, edges = random_digraph(rng, max_dim=12)
        t = AntidistMatrix.from_edges(dim, edges, width).transitive_closure().to_lists()
        for i in range(dim):
            for k in range(dim):
                for j in range(dim):
                    assert t[i][j] >= max(t[i][k] + t[k][j] - limit, 0)


def test_width_consistency():
    rng = random.Random(14)
    for _ in range(10):
        dim, edges = random_digraph(rng, max_dim=12)
        # weight-1 cycle keeps every pair reachable well below distance 255
        edges += [(i, (i + 1) % dim, 1) for i in range(dim)]
        decoded = []
        for width in WIDTHS:
            limit = sat_limit(width)
            c = AntidistMatrix.from_edges(dim, edges, width).transitive_closure()
            decoded.append([[limit - v for v in row] for row in c.to_lists()])
        assert decoded[0] == decoded[1] == decoded[2]


@pytest.mark.parametrize("width", WIDTHS)
def test_closure_equals_repeated_squaring(width):
    rng = random.Random(width * 15)
    for _ in range(8):
        dim = rng.randint(1, 32)
        m = random_antidist(rng, dim, dim, width, zero_chance=0.5)
        base = AntidistMatrix.identity(dim, width) | m
        while True:
            squared = base * base
            if squared == base:
                break
            base = squared
        assert m.transitive_closure() == (m * base)


# -- distance dual ---------------------------------------------------------

def test_minplus_identity_and_absorption():
    rng = random.Random(16)
    x = DistMatrix.from_lists(random_values(rng, 5, 5, 255, zero_chance=0.1), 8)
    i = DistMatrix.identity(5, 8)
    assert (i * x) == x
    assert (x * i) == x
    inf = DistMatrix.unreachable(5, 5, 8)
    assert (inf * x) == inf
    assert (x * inf) == inf


@pytest.mark.parametrize("width", WIDTHS)
def test_minplus_mul_is_de_morgan_dual(width):
    rng = random.Random(width * 17)
    a = random_antidist(rng, 9, 13, width)
    b = random_antidist(rng, 13, 7, width)
    assert ((~a) * (~b)) == ~(a * b)


@pytest.mark.parametrize("width", WIDTHS)
def test_minplus_mul_scalar_path_bit_exact(width):
    rng = random.Random(width * 19)
    a = ~random_antidist(rng, 9, 13, width)
    b = ~random_antidist(rng, 13, 7, width)
    want = a * b
    with kernels.forced_scalar():
        got = a * b
    assert got == want


def naive_minplus_mul(a, b, width):
    limit = sat_limit(width)
    return [
        [min((dist_mul(a[i][k], b[k][j], width) for k in range(len(b))), default=limit)
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def naive_minplus_closure(a, width):
    """Entrywise minimum of A, A^2, ..., until it stops changing."""
    closure = a
    while True:
        step = naive_minplus_mul(closure, a, width)
        grown = [[min(p, q) for p, q in zip(r, s)] for r, s in zip(closure, step)]
        if grown == closure:
            return closure
        closure = grown


@pytest.mark.parametrize("width", WIDTHS)
def test_minplus_against_definition(width):
    rng = random.Random(f"minplus-{width}")
    limit = sat_limit(width)

    def values(rows, cols):
        # S (unreachable) in about a third of the entries, short distances elsewhere
        return [
            [limit if rng.random() < 0.35 else rng.choice((0, 1, rng.randrange(limit + 1)))
             for _ in range(cols)]
            for _ in range(rows)
        ]

    a_vals, b_vals, c_vals = values(9, 13), values(13, 7), values(11, 11)
    a, b, c = (DistMatrix.from_lists(v, width) for v in (a_vals, b_vals, c_vals))
    product = DistMatrix.from_lists(naive_minplus_mul(a_vals, b_vals, width), width)
    closure = DistMatrix.from_lists(naive_minplus_closure(c_vals, width), width)
    for forced in (kernels.forced_vector, kernels.forced_scalar):
        with forced():
            got_product, got_closure = a * b, c.transitive_closure()
        assert got_product == product
        assert got_closure == closure
        assert_no_padding(got_product)
        assert_no_padding(got_closure)


def test_dist_closure_runs_in_place():
    dim = 1024
    rng = random.Random(28)
    edges = [(u, v, rng.randint(1, 100)) for u in range(dim) for v in range(dim) if u != v]
    m = DistMatrix.from_edges(dim, edges, 16)
    del edges
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        m.transitive_close()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m.data.nbytes
    assert m.get(0, 1) <= 100 and m.get(5, 5) <= 200


def test_dist_closure_cycle_example():
    m = DistMatrix.from_edges(2, [(0, 1, 3), (1, 0, 4)], 8)
    c = m.transitive_closure()
    assert c.get(0, 0) == 7 and c.get(1, 1) == 7
    assert c.get(0, 1) == 3 and c.get(1, 0) == 4
    inf = DistMatrix.unreachable(3, 3, 8)
    assert inf.transitive_closure() == inf


@pytest.mark.parametrize("width", WIDTHS)
def test_dist_closure_dual_of_antidist_closure(width):
    rng = random.Random(width * 21)
    for _ in range(10):
        dim, edges = random_digraph(rng, max_dim=16)
        anti = AntidistMatrix.from_edges(dim, edges, width)
        assert (~anti).transitive_closure() == ~(anti.transitive_closure())


@pytest.mark.parametrize("width", WIDTHS)
def test_dist_closure_scalar_path_bit_exact(width):
    rng = random.Random(width * 23)
    dim, edges = random_digraph(rng, max_dim=16)
    m = DistMatrix.from_edges(dim, edges, width)
    want = m.transitive_closure()
    with kernels.forced_scalar():
        got = m.transitive_closure()
        inplace = m.copy()
        inplace.transitive_close()
    assert got == want and inplace == want


def test_entrywise_de_morgan():
    rng = random.Random(24)
    for width in WIDTHS:
        a = random_antidist(rng, 6, 21, width)
        b = random_antidist(rng, 6, 21, width)
        assert (~(a | b)) == ((~a) & (~b))
        assert (~(a & b)) == ((~a) | (~b))


# -- boolean bridge -----------------------------------------------------------

def test_boolmat_roundtrip():
    rng = random.Random(25)
    rows = [[rng.randint(0, 1) for _ in range(21)] for _ in range(5)]
    b = BoolMatrix.from_lists(rows)
    for width in WIDTHS:
        lifted = AntidistMatrix.from_boolmat(b, width)
        assert lifted.to_boolmat() == b
        limit = sat_limit(width)
        assert lifted.to_lists() == [[v * limit for v in row] for row in rows]
    assert AntidistMatrix.from_boolmat(BoolMatrix.identity(4), 8) == AntidistMatrix.identity(4, 8)


def test_closure_commutes_with_boolean_structure():
    rng = random.Random(26)
    for _ in range(15):
        dim = rng.randint(2, 12)
        rows = [
            [1 if rng.random() < 0.25 and r != c else 0 for c in range(dim)]
            for r in range(dim)
        ]
        b = BoolMatrix.from_lists(rows)
        lifted = AntidistMatrix.from_boolmat(b, 8)
        assert lifted.transitive_closure().to_boolmat() == b.transitive_closure()


# -- vector sweep: blocks, tiles and branches ------------------------------------
#
# Full-size blocks take 128 steps and full-size tiles hold hundreds of rows, so
# these tests shrink both to a few: 53- and 61-row matrices then span many
# blocks and tiles, with a shorter last one of each. Columns cycle through
# dense, sparse and empty so every branch runs.

SHARES = (0.9, 0.15, 0.0)


class Runs(list):
    """The (lo, hi, steps) of every row span a sweep runs, in order; in
    ``hits`` the rows outside the pivot rows that hit in each block's columns
    of the left factor, and in ``windows`` the (a, b) of the columns a:b that
    each block works on, both by the block's first step."""

    def __init__(self):
        super().__init__()
        self.hits = {}
        self.windows = {}

    def clear(self):
        super().clear()
        self.hits.clear()
        self.windows.clear()


def shrink_sweep(monkeypatch, width, cols, block=7, tile_rows=5):
    """Blocks of ``block`` steps and tiles of ``tile_rows`` rows of ``cols``
    lanes. Returns the Runs of the sweep, the pivot phases included."""
    monkeypatch.setattr(antidist, "_BLOCK", block)
    monkeypatch.setattr(antidist, "_TILE_BYTES", tile_rows * cols * width // 8)
    runs = Runs()
    real_rows, real_block, real_tile = antidist._sweep_rows, antidist._sweep_block, antidist._sweep_tile
    block_steps, pivot_phase = [], []

    def rows_spy(out, ks, limit, buf, cols):
        runs.append((ks.start, ks.stop, ks))
        pivot_phase.append(ks)
        real_rows(out, ks, limit, buf, cols)
        pivot_phase.clear()

    def block_spy(out, left, right, limit, ks, parts, height, buf, cols):
        block_steps[:] = [ks]
        hit = left[:, ks.start : ks.stop].any(axis=1)
        runs.hits[ks.start] = {r for first, end in parts for r in range(first, end) if hit[r]}
        runs.windows[ks.start] = cols.indices(out.shape[1])[:2]
        real_block(out, left, right, limit, ks, parts, height, buf, cols)

    def tile_spy(tile, lo, panel, right, limit, steps, tables, buf):
        if not pivot_phase:  # the pivot phase runs its steps as one-step tiles
            runs.append((lo, lo + len(tile), block_steps[0]))
        real_tile(tile, lo, panel, right, limit, steps, tables, buf)

    monkeypatch.setattr(antidist, "_sweep_rows", rows_spy)
    monkeypatch.setattr(antidist, "_sweep_block", block_spy)
    monkeypatch.setattr(antidist, "_sweep_tile", tile_spy)
    return runs


def assert_blocks_cover_rows(runs, rows, steps, block, tile_rows, closure):
    """Every block runs its steps on the pivot rows first in a closure, then
    on tiles of at most ``tile_rows`` rows outside them. The tiles of a block
    are disjoint and hold every row that hits in the block's columns; a tile
    none of whose rows hits may be skipped. A block the sweep skipped, one
    whose rows of the right factor are all zero, has no window and no run."""
    starts = list(range(0, steps, block))
    assert {ks.start for _, _, ks in runs} <= set(starts)
    for k0 in starts:
        ks = range(k0, min(k0 + block, steps))
        spans = [(lo, hi) for lo, hi, got in runs if got == ks]
        tiles = spans[1:] if closure else spans
        if k0 not in runs.windows:
            assert not spans
            continue
        if closure:
            assert spans[0] == (ks.start, ks.stop)
            assert all(hi <= ks.start or lo >= ks.stop for lo, hi in tiles)
        assert all(hi - lo <= tile_rows for lo, hi in tiles)
        covered = [r for lo, hi in sorted(set(tiles)) for r in range(lo, hi)]
        assert len(covered) == len(set(covered)) and set(covered) <= set(range(rows))
        assert runs.hits.get(k0, set()) <= set(covered)


def count_branches(monkeypatch):
    """Count the tile steps that take the gather, the table and the broadcast
    branch."""
    seen = {"gather": 0, "table": 0, "broadcast": 0}
    for branch in seen:
        real = getattr(antidist, f"_{branch}_step")

        def spy(*args, real=real, branch=branch):
            seen[branch] += 1
            real(*args)

        monkeypatch.setattr(antidist, f"_{branch}_step", spy)
    return seen


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("cls", (AntidistMatrix, DistMatrix))
def test_vector_product_across_tiles_and_branches(width, cls, monkeypatch):
    rng = random.Random(f"product-tiles-{width}")
    limit = sat_limit(width)
    rows, inner, cols = 53, 67, 41
    a_vals = [
        [rng.randint(1, limit) if rng.random() < SHARES[k % 3] else 0 for k in range(inner)]
        for _ in range(rows)
    ]
    for k, count in ((1, 2), (4, 3)):  # each tile one hit either side of half
        for r, row in enumerate(a_vals):
            row[k] = rng.randint(1, limit) if r % 5 < count else 0
    b_vals = random_values(rng, inner, cols, limit)
    a = AntidistMatrix.from_lists(a_vals, width)
    b = AntidistMatrix.from_lists(b_vals, width)
    want = AntidistMatrix.from_lists(oracle.naive_antidist_mul(a_vals, b_vals, limit), width)
    if cls is DistMatrix:
        a, b, want = ~a, ~b, ~want
    runs = shrink_sweep(monkeypatch, width, cols)
    seen = count_branches(monkeypatch)
    got = a * b
    assert_blocks_cover_rows(runs, rows, inner, 7, 5, closure=False)
    assert runs[-1][2] == range(63, 67) and any(hi - lo < 5 for lo, hi, _ in runs)
    # The half rule holds per tile: a tile's own rows decide its branch.
    hits = [sum(1 for row in a_vals[lo:hi] if row[k]) for lo, hi, ks in runs for k in ks]
    sizes = [hi - lo for lo, hi, ks in runs for _ in ks]
    dense = seen["table"] + seen["broadcast"]
    assert seen["gather"] == sum(1 for h, n in zip(hits, sizes) if 0 < 2 * h < n)
    assert dense == sum(1 for h, n in zip(hits, sizes) if 2 * h >= n)
    assert 0 < dense and 0 < seen["gather"] and dense + seen["gather"] < len(hits)
    assert got == want
    assert_no_padding(got)
    with kernels.forced_scalar():
        assert a * b == want


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("cls", (AntidistMatrix, DistMatrix))
def test_vector_closure_across_tiles_and_branches(width, cls, monkeypatch):
    rng = random.Random(f"closure-tiles-{width}")
    dim = 61
    edges = [
        (u, v, rng.randint(1, 10))
        for u in range(dim)
        for v in range(dim)
        if u != v and rng.random() < SHARES[v % 3]
    ]
    m = AntidistMatrix.from_edges(dim, edges, width)
    want = AntidistMatrix.from_lists(oracle.apsp_dijkstra(dim, edges, sat_limit(width)), width)
    if cls is DistMatrix:
        m, want = ~m, ~want
    runs = shrink_sweep(monkeypatch, width, dim)
    seen = count_branches(monkeypatch)
    inplace = m.copy()
    inplace.transitive_close()
    assert_blocks_cover_rows(runs, dim, dim, 7, 5, closure=True)
    assert runs[-1][2] == range(56, 61) and any(hi - lo < 5 for lo, hi, _ in runs)
    assert seen["table"] + seen["broadcast"] and seen["gather"]
    assert m.transitive_closure() == want
    assert inplace == want
    assert_no_padding(inplace)
    with kernels.forced_scalar():
        assert m.transitive_closure() == want


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize(
    "block, tile_rows, blank",
    [(7, 5, False), (3, 5, False), (64, 5, False), (1, 1, False), (5, 3, True)],
    ids=["7-5", "3-5", "64-5", "1-1", "5-3-blank"],
)
def test_blocked_sweep_any_shape(width, block, tile_rows, blank, monkeypatch):
    """Dimensions that are multiples of neither the block nor the tile, pivot
    rows that straddle tiles, outnumber a tile's rows or cover the whole
    matrix: the product and the closure equal the oracle and the scalar path.
    With ``blank``, runs of rows and columns of zeros and a few more at
    random: the product skips the blocks whose rows of the right factor are
    all zero, and its windows keep clear of the zero columns at either end."""
    rng = random.Random(f"blocked-{width}-{block}-{tile_rows}")
    limit = sat_limit(width)
    dim = 43
    edges = [(u, v, rng.randint(1, 12)) for u in range(dim) for v in range(dim) if rng.random() < 0.3]
    b_vals = random_values(rng, dim, dim, limit)
    if blank:
        zero_rows = {*range(10, 20), *rng.sample(range(dim), 6)}
        zero_cols = {*range(4), *range(36, dim), *rng.sample(range(dim), 6)}
        edges = [(u, v, w) for u, v, w in edges if u not in zero_rows and v not in zero_cols]
        b_vals = [[0 if r in zero_rows or c in zero_cols else x for c, x in enumerate(row)] for r, row in enumerate(b_vals)]
    m = AntidistMatrix.from_edges(dim, edges, width)
    closure = AntidistMatrix.from_lists(oracle.apsp_dijkstra(dim, edges, limit), width)
    b = AntidistMatrix.from_lists(b_vals, width)
    product = AntidistMatrix.from_lists(oracle.naive_antidist_mul(m.to_lists(), b_vals, limit), width)
    runs = shrink_sweep(monkeypatch, width, dim, block, tile_rows)
    assert m.transitive_closure() == closure
    assert_blocks_cover_rows(runs, dim, dim, block, tile_rows, closure=True)
    runs.clear()
    assert m * b == product
    assert_blocks_cover_rows(runs, dim, dim, block, tile_rows, closure=False)
    if blank:
        assert not {10, 15} & runs.windows.keys()
        assert runs.windows and all(4 <= a < b <= 36 for a, b in runs.windows.values())
    with kernels.forced_scalar():
        assert m.transitive_closure() == closure
        assert m * b == product


@pytest.mark.parametrize("width", WIDTHS)
def test_dense_step_with_few_and_many_distinct_entries(width, monkeypatch):
    """A dense tile step whose column holds at most a quarter as many
    distinct entries as the tile has rows takes the planned table, one
    candidate row per distinct entry; a column with more takes the broadcast
    branch, one candidate row per row. Both equal the step's definition."""
    rng = np.random.default_rng(width)
    limit = sat_limit(width)
    dtype = kernels.dtype_for(width)
    tile = rng.integers(0, limit + 1, (16, 9), dtype=dtype)
    row_k = rng.integers(0, limit + 1, 9, dtype=dtype)
    few = np.array([limit - 1, 0, 0, limit - 1, 1] * 3 + [0], dtype)
    many = np.array([0, 1, limit, limit - 1, 2, 3] + [5] * 10, dtype)
    made, counts, entries, ranks = antidist._few_distinct(np.stack([few, many]), np.arange(2), 4)
    assert (made, counts, entries.tolist()) == ([0], [3], [0, 1, limit - 1])  # 4 * 3 <= 16 rows
    assert ranks[0].tolist() == np.searchsorted([0, 1, limit - 1], few).tolist()
    seen = count_branches(monkeypatch)
    for column, branch in ((few, "table"), (many, "broadcast")):
        want = [
            [max(x, r - (limit - e) if r > limit - e else 0) for x, r in zip(row, row_k.tolist())]
            for row, e in zip(tile.tolist(), column.tolist())
        ]
        got = tile.copy()
        seen.update(dict.fromkeys(seen, 0))
        buf = np.empty_like(got)
        antidist._sweep_block(got, column[:, None], row_k[None], limit, range(1), ((0, 16),), 16, buf, slice(None))
        assert got.tolist() == want
        assert seen == {"gather": 0, "table": 0, "broadcast": 0, branch: 1}


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("cls", (AntidistMatrix, DistMatrix))
def test_product_blocks_write_only_their_window(width, cls, monkeypatch):
    """Each block's rows of the right factor are zero outside a window a:b of
    their own, which the block's first row does not reach at either end:
    every tile of the block is the window of its rows and is written only
    there, and the block whose rows are all zero is skipped. The product
    equals the oracle and the scalar path."""
    rng = np.random.default_rng(width)
    limit = sat_limit(width)
    rows, inner, cols = 30, 28, 24
    windows = {0: (3, 9), 7: (10, 21), 14: None, 21: (0, cols)}  # blocks of 7 steps
    a_vals = rng.integers(1, limit + 1, (rows, inner)) * (rng.random((rows, inner)) < 0.6)
    b_vals = np.zeros((inner, cols), np.int64)
    for k0, window in windows.items():
        if window:
            part = b_vals[k0 : k0 + 7, slice(*window)]
            part[...] = rng.integers(1, limit + 1, part.shape) * (rng.random(part.shape) < 0.5)
            part[0, [0, -1]] = 0
            part[1, 0] = part[-1, -1] = limit
    a = AntidistMatrix.from_lists(a_vals, width)
    b = AntidistMatrix.from_lists(b_vals, width)
    want = AntidistMatrix.from_lists(oracle.naive_antidist_mul(a_vals.tolist(), b_vals.tolist(), limit), width)
    if cls is DistMatrix:
        a, b, want = ~a, ~b, ~want
    runs = shrink_sweep(monkeypatch, width, cols, block=7, tile_rows=5)
    written = []
    real = antidist._sweep_tile

    def spy(tile, lo, *args):
        out = tile.base
        before = out.copy()
        real(tile, lo, *args)
        first = (tile.ctypes.data - out.ctypes.data) // out.itemsize % out.shape[1]
        changed = np.flatnonzero((out != before).any(axis=0))
        written.append((runs[-1][2].start, (first, first + tile.shape[1]), changed))

    monkeypatch.setattr(antidist, "_sweep_tile", spy)
    assert a * b == want
    assert runs.windows == {k0: window for k0, window in windows.items() if window}
    assert {k0 for k0, _, _ in written} == {0, 7, 21}
    for k0, window, changed in written:
        assert window == windows[k0]
        assert all(window[0] <= c < window[1] for c in changed.tolist())
    assert_blocks_cover_rows(runs, rows, inner, 7, 5, closure=False)
    with kernels.forced_scalar():
        assert a * b == want


# -- planned blocks: every branch at every width ---------------------------------

def skipped_rows(runs, rows):
    """The rows outside a closure block's pivot rows that none of the block's
    tiles visited, summed over the blocks."""
    count = 0
    for lo, hi, ks in runs:
        if (lo, hi) == (ks.start, ks.stop):  # a pivot phase
            tiles = {(a, b) for a, b, got in runs if got == ks and (a, b) != (lo, hi)}
            count += rows - (hi - lo) - sum(b - a for a, b in tiles)
    return count


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("cls", (AntidistMatrix, DistMatrix))
def test_planned_product_takes_every_branch(width, cls, monkeypatch):
    """Three tiles of 16 rows and steps whose columns are empty, sparse, of
    three distinct entries, or of many: each (tile, step) skips, gathers,
    takes the table or broadcasts, as the plan's rules say."""
    rng = np.random.default_rng(width)
    limit = sat_limit(width)
    rows, inner, cols = 48, 20, 11
    a_vals = np.zeros((rows, inner), np.int64)
    for k in range(inner):
        if k % 4 == 1:  # three hits per tile, fewer than half its rows
            for lo in range(0, rows, 16):
                a_vals[rng.choice(np.arange(lo, lo + 16), 3, replace=False), k] = rng.integers(1, limit + 1, 3)
        elif k % 4 == 2:  # three distinct entries: at most a quarter of 16 rows
            a_vals[:, k] = rng.choice([1, limit // 2, limit], rows)
        elif k % 4 == 3:  # more than a quarter of a tile's rows distinct
            a_vals[:, k] = rng.integers(1, limit + 1, rows)
            assert len(set(a_vals[:, k].tolist())) > 4
    b_vals = rng.integers(0, limit + 1, (inner, cols))
    a = AntidistMatrix.from_lists(a_vals, width)
    b = AntidistMatrix.from_lists(b_vals, width)
    want = AntidistMatrix.from_lists(oracle.naive_antidist_mul(a_vals.tolist(), b_vals.tolist(), limit), width)
    if cls is DistMatrix:
        a, b, want = ~a, ~b, ~want
    runs = shrink_sweep(monkeypatch, width, cols, block=8, tile_rows=16)
    seen = count_branches(monkeypatch)
    assert a * b == want
    assert seen == {"gather": 15, "table": 15, "broadcast": 15}  # 5 steps of each kind, 3 tiles
    assert_blocks_cover_rows(runs, rows, inner, 8, 16, closure=False)
    with kernels.forced_scalar():
        assert a * b == want


@pytest.mark.parametrize("width", WIDTHS)
def test_planned_tables_split_into_groups(width, monkeypatch):
    """When a block's tables outgrow a tile they are built a group of steps
    at a time: each tile then runs once per group, the steps still in order,
    and no group's tables hold more lanes than a tile."""
    rng = np.random.default_rng(width)
    limit = sat_limit(width)
    rows, inner, cols = 40, 24, 9
    a_vals = rng.choice([1, 2, limit - 1, limit], (rows, inner))
    b_vals = rng.integers(0, limit + 1, (inner, cols))
    a = AntidistMatrix.from_lists(a_vals, width)
    b = AntidistMatrix.from_lists(b_vals, width)
    want = AntidistMatrix.from_lists(oracle.naive_antidist_mul(a_vals.tolist(), b_vals.tolist(), limit), width)
    shrink_sweep(monkeypatch, width, cols, block=12, tile_rows=16)
    visits = []
    real = antidist._sweep_tile

    def spy(tile, lo, panel, right, limit, steps, tables, buf):
        steps = list(steps)
        visits.append((lo, [k for k, _ in steps]))
        assert sum(table.size for table, _ in tables.values()) <= 16 * cols
        real(tile, lo, panel, right, limit, steps, tables, buf)

    monkeypatch.setattr(antidist, "_sweep_tile", spy)
    seen = count_branches(monkeypatch)
    assert a * b == want
    assert seen == {"gather": 0, "table": 3 * inner, "broadcast": 0}
    assert len(visits) > 3 * 2  # more than one visit per tile and block
    for lo in (0, 16, 32):
        steps = [k for start, ks in visits if start == lo for k in ks]
        assert steps == list(range(12)) * 2  # every step once per block, in order


def planned_graph(rng, dim, strongly_connected):
    """A complete core of weight-1 edges, whose columns hold few distinct
    entries, and a ring of random weights that three core vertices reach,
    whose columns hold many; with a ring edge back into the core the graph is
    strongly connected."""
    core, ring = list(range(24)), list(range(24, dim))
    edges = [(u, v, 1) for u in core for v in core if u != v]
    edges += [(u, ring[(i + 1) % len(ring)], rng.randint(1, 9)) for i, u in enumerate(ring)]
    edges += [(u, rng.choice(ring), rng.randint(1, 9)) for u in rng.sample(core, 3)]
    if strongly_connected:
        edges.append((ring[0], 0, 3))
    return edges


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("strongly_connected", (False, True))
def test_planned_closure_takes_every_branch(width, strongly_connected, monkeypatch):
    """Closures whose tiles skip, gather, take the table and broadcast, on
    the matrix as it is and relabelled sinks first, equal Dijkstra and the
    scalar path for both matrix types."""
    rng = random.Random(f"planned-{width}-{strongly_connected}")
    dim = 48
    edges = planned_graph(rng, dim, strongly_connected)
    anti = AntidistMatrix.from_edges(dim, edges, width)
    want = AntidistMatrix.from_lists(oracle.apsp_dijkstra(dim, edges, sat_limit(width)), width)
    runs = shrink_sweep(monkeypatch, width, dim, block=8, tile_rows=16)
    seen = count_branches(monkeypatch)
    calls = count_calls(monkeypatch, "_components", "_permute")
    for m, closed in ((anti, want), (~anti, ~want)):
        inplace = m.copy()
        inplace.transitive_close()
        assert inplace == closed
        assert_blocks_cover_rows(runs, dim, dim, 8, 16, closure=True)
        assert skipped_rows(runs, dim) > 0
        runs.clear()
        with kernels.forced_scalar():
            assert m.transitive_closure() == closed
    assert all(seen.values())
    assert_plans(calls, 2, strongly_connected)


def test_closure_in_one_tile_skips_the_plan(monkeypatch):
    """A closure that fits in one tile runs the in-order sweep in a single
    block: no order, no planned blocks."""
    rng = random.Random("one tile")
    dim = 40
    edges = shaped_graph(rng, "sccs", dim)
    calls = count_calls(monkeypatch, "_components", "_sweep_block")
    m = DistMatrix.from_edges(dim, edges, 16)
    want = ~AntidistMatrix.from_lists(oracle.apsp_dijkstra(dim, edges, sat_limit(16)), 16)
    assert m.transitive_closure() == want
    assert calls == {"_components": [], "_sweep_block": []}


# -- closure plan: order, spans and the strongly connected skip ----------------

SHAPES = ("sccs", "chain", "dag", "strongly connected")


def shaped_graph(rng, shape, dim):
    """Weighted edges of a graph of the given shape on relabelled vertices:
    several strongly connected components joined one way, one path through
    every vertex, an acyclic graph, or a cycle through every vertex with
    chords."""
    label = list(range(dim))
    rng.shuffle(label)
    if shape == "sccs":
        part = [4 * v // dim for v in range(dim)]
        pairs = [
            (u, v) for u in range(dim) for v in range(dim)
            if u != v and rng.random() < (0.3 if part[u] == part[v] else 0.03 if part[u] < part[v] else 0)
        ]
    elif shape == "chain":
        pairs = [(v, v + 1) for v in range(dim - 1)]
    elif shape == "dag":
        pairs = [(u, v) for u in range(dim) for v in range(u + 1, dim) if rng.random() < 0.15]
    else:
        pairs = [(v, (v + 1) % dim) for v in range(dim)]
        pairs += [(u, v) for u in range(dim) for v in range(dim) if u != v and rng.random() < 0.05]
    return [(label[u], label[v], rng.randint(1, 12)) for u, v in pairs]


def count_calls(monkeypatch, *names):
    """Count the calls of the named module functions of antidist; each call's
    result is kept too."""
    calls = {name: [] for name in names}
    for name in names:
        real = getattr(antidist, name)

        def spy(*args, real=real, name=name):
            result = real(*args)
            calls[name].append(result)
            return result

        monkeypatch.setattr(antidist, name, spy)
    return calls


def assert_plans(calls, closures, strongly_connected):
    """Each of ``closures`` closures larger than one tile found its
    components once. A strongly connected graph has one component and is not
    relabelled; any other graph is relabelled and restored."""
    assert len(calls["_components"]) == closures
    assert all((component.max() == 0) == strongly_connected for component in calls["_components"])
    assert len(calls["_permute"]) == (0 if strongly_connected else 2 * closures)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("shape", SHAPES)
def test_planned_closure_on_graph_shapes(shape, width, monkeypatch):
    """Closures of graphs with several components, paths, acyclic graphs and
    strongly connected graphs equal Dijkstra and the scalar path, for both
    matrix types; only the strongly connected one has one component and
    skips the relabelling."""
    rng = random.Random(f"plan-{shape}-{width}")
    dim = 43
    edges = shaped_graph(rng, shape, dim)
    anti = AntidistMatrix.from_edges(dim, edges, width)
    want = AntidistMatrix.from_lists(oracle.apsp_dijkstra(dim, edges, sat_limit(width)), width)
    shrink_sweep(monkeypatch, width, dim)
    calls = count_calls(monkeypatch, "_components", "_permute")
    for m, closed in ((anti, want), (~anti, ~want)):
        inplace = m.copy()
        inplace.transitive_close()
        assert inplace == closed
        assert m.transitive_closure() == closed
        with kernels.forced_scalar():
            assert m.transitive_closure() == closed
    assert_plans(calls, 4, shape == "strongly connected")


def test_strongly_connected_closure_skips_the_plan(monkeypatch):
    """A strongly connected graph has one component and runs the blocked
    sweep on the matrix as it is, with no permutation. A graph with a source
    has several components and is relabelled and restored."""
    rng = random.Random("skip")
    dim = 40
    cycle = shaped_graph(rng, "strongly connected", dim)
    shrink_sweep(monkeypatch, 8, dim)
    calls = count_calls(monkeypatch, "_components", "_permute")
    m = AntidistMatrix.from_edges(dim, cycle, 8)
    want = AntidistMatrix.from_lists(oracle.apsp_dijkstra(dim, cycle, 255), 8)
    assert m.transitive_closure() == want
    assert_plans(calls, 1, True)
    for made in calls.values():
        made.clear()
    source = [(u, v, w) for u, v, w in cycle if v != 0]  # nothing reaches vertex 0 now
    m = AntidistMatrix.from_edges(dim, source, 8)
    want = AntidistMatrix.from_lists(oracle.apsp_dijkstra(dim, source, 255), 8)
    assert m.transitive_closure() == want
    assert_plans(calls, 1, False)


@pytest.mark.parametrize("width", WIDTHS)
def test_chain_spans(width, monkeypatch):
    """On a path through relabelled vertices every vertex is a component of
    its own, and sinks first puts them in reverse path order. Then row k
    holds column k - 1 and, once earlier blocks have run, every column
    before it, so each block's window runs from column 0 to the block's
    last step - 1."""
    rng = random.Random(f"chain-{width}")
    dim, block = 30, 7
    label = list(range(dim))
    rng.shuffle(label)
    edges = [(label[v], label[v + 1], rng.randint(1, 5)) for v in range(dim - 1)]
    m = AntidistMatrix.from_edges(dim, edges, width)
    want = AntidistMatrix.from_lists(oracle.apsp_dijkstra(dim, edges, sat_limit(width)), width)
    runs = shrink_sweep(monkeypatch, width, dim, block)
    calls = count_calls(monkeypatch, "_components")
    assert m.transitive_closure() == want
    assert np.argsort(calls["_components"][0]).tolist() == label[::-1]
    assert runs.windows == {k0: (0, min(k0 + block, dim) - 1) for k0 in range(0, dim, block)}
    with kernels.forced_scalar():
        assert m.transitive_closure() == want


def component_pairs(rng, shape, dim):
    """The edges of a ``shape`` graph on ``dim`` vertices as (u, v) pairs.

    Besides the plan's shapes: self-loops with isolated vertices; uniform
    random graphs of a given edge chance; and two shapes whose labels are
    not shuffled, because the search takes roots and successors in label
    order. "nested cycles" is a path through every vertex that the search
    runs down, with chords back that make nested and overlapping candidates,
    cut into two cycles each closed by one back edge from its deepest
    vertex. "closed components" is cycles of five, each with edges into the
    earlier ones, which a later root reaches after they are closed.
    """
    if shape in SHAPES:
        return {(u, v) for u, v, _ in shaped_graph(rng, shape, dim)}
    if shape == "loops and isolated vertices":
        isolated = set(rng.sample(range(dim), 8))
        pairs = {(v, v) for v in rng.sample(range(dim), 12)}  # some on isolated vertices
        return pairs | {
            (u, v) for u in range(dim) for v in range(dim)
            if u != v and not {u, v} & isolated and rng.random() < 0.03
        }
    if shape.startswith("random"):
        chance = float(shape.split()[1])
        return {(u, v) for u in range(dim) for v in range(dim) if rng.random() < chance}
    if shape == "nested cycles":
        cut = dim // 2
        chords = {(5, 3), (9, 2), (20, 12), (25, 11), (30, 15), (cut + 10, cut + 5), (dim - 9, cut + 2)}
        return {(v, v + 1) for v in range(dim - 1)} | {(cut - 1, 0), (dim - 1, cut)} | chords
    cycles = [range(lo, min(lo + 5, dim)) for lo in range(0, dim, 5)]  # "closed components"
    pairs = {(c[i], c[(i + 1) % len(c)]) for c in cycles for i in range(len(c))}
    return pairs | {(u, rng.randrange(c.start)) for c in cycles[1:] for u in c for _ in range(2)}


@pytest.mark.parametrize(
    "shape",
    SHAPES + ("loops and isolated vertices", "nested cycles", "closed components",
              "random 0.02", "random 0.04", "random 0.15"),
)
def test_components_sinks_first(shape):
    """The components partition the vertices exactly as mutual reachability
    in the Boolean closure by squaring does, and they come sinks first: no
    edge runs from a component to a later one."""
    rng = random.Random(f"components-{shape}")
    dim = 70  # two words a packed row
    pairs = component_pairs(rng, shape, dim)
    adjacency = [[int((u, v) in pairs) for v in range(dim)] for u in range(dim)]
    reach = oracle.closure_by_squaring(adjacency)
    component = antidist._components(BoolMatrix.from_lists(adjacency).blocks).tolist()
    assert set(component) == set(range(max(component) + 1))
    for u in range(dim):
        for v in range(dim):
            assert (component[u] == component[v]) == (u == v or reach[u][v] == reach[v][u] == 1)
    assert all(component[u] >= component[v] for u, v in pairs)


def test_components_of_a_long_path():
    """A path through 5,000 relabelled vertices that starts at vertex 0 is
    one search 5,000 vertices deep, far past Python's recursion limit. Each
    vertex is a component of its own, and sinks first the path closes in
    reverse order."""
    rng = random.Random("long path")
    dim = 5000
    label = np.array([0] + rng.sample(range(1, dim), dim - 1))
    support = np.zeros((dim, -(-dim // 64)), np.uint64)
    u, v = label[:-1], label[1:]
    np.bitwise_or.at(support, (u, v // 64), np.uint64(1) << (v % 64).astype(np.uint64))
    component = antidist._components(support)
    assert component[label].tolist() == list(range(dim - 1, -1, -1))


def nonzero_span(rows):
    """The [a, b) of the nonzero columns of a row or of a stack of rows,
    None if they are all zero."""
    nonzero = np.flatnonzero(np.reshape(rows, (-1, np.shape(rows)[-1])).any(axis=0))
    return (int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else None


def record_pivot_steps(monkeypatch):
    """Record every step that a pivot phase (_sweep_rows) runs on some rows as
    (k, tile columns, row columns, live, start, hull): the columns of the
    tile and of row k that the step read, the span of row k's nonzero columns
    when the step ran and when the block's pivot phase began, and the span of
    all the block's pivot rows' nonzero columns when it began."""
    steps, phase = [], {}
    real_rows = antidist._sweep_rows

    def rows_spy(out, ks, limit, buf, cols):
        pivots = out[ks.start : ks.stop]
        phase.update(out=out, start={k: nonzero_span(out[k]) for k in ks}, hull=nonzero_span(pivots))
        try:
            real_rows(out, ks, limit, buf, cols)
        finally:
            phase.clear()

    def columns(out, view):  # the columns of ``out`` that a view of some of its rows holds
        first = (view.ctypes.data - out.ctypes.data) // out.itemsize % out.shape[1]
        return first, first + view.shape[-1]

    def step_spy(real, row_arg):
        def spy(*args):
            if phase:
                out, row_k = phase["out"], args[row_arg]
                k = (row_k.ctypes.data - out.ctypes.data) // out.itemsize // out.shape[1]
                live = nonzero_span(out[k])
                tile, row = columns(out, args[0]), columns(out, row_k)
                steps.append((k, tile, row, live, phase["start"][k], phase["hull"]))
            real(*args)

        return spy

    monkeypatch.setattr(antidist, "_sweep_rows", rows_spy)
    monkeypatch.setattr(antidist, "_broadcast_step", step_spy(antidist._broadcast_step, 2))
    monkeypatch.setattr(antidist, "_gather_step", step_spy(antidist._gather_step, 3))
    return steps


def inside(span, window):
    """Whether the span (a, b), or None for no columns, lies in the window."""
    return span is None or window[0] <= span[0] and span[1] <= window[1]


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("cls", (AntidistMatrix, DistMatrix))
@pytest.mark.parametrize("shape", ("sccs", "strongly connected"))
def test_pivot_steps_touch_their_live_span(shape, width, cls, monkeypatch):
    """Each pivot-phase step touches exactly its block's window, the span of
    the nonzero columns of all the block's pivot rows when the block began,
    and so its pivot row's live span. In these graphs of several components
    an earlier step of a block widens a later pivot row, inside the window,
    and some windows are narrower than a row; the closures equal Dijkstra and
    the scalar path. A strongly connected graph's pivot steps keep to their
    windows too."""
    rng = random.Random(f"live-spans-{shape}-{width}")
    dim = 45
    edges = shaped_graph(rng, shape, dim)
    m = AntidistMatrix.from_edges(dim, edges, width)
    want = AntidistMatrix.from_lists(oracle.apsp_dijkstra(dim, edges, sat_limit(width)), width)
    if cls is DistMatrix:
        m, want = ~m, ~want
    shrink_sweep(monkeypatch, width, dim, block=9, tile_rows=5)
    steps = record_pivot_steps(monkeypatch)
    inplace = m.copy()
    inplace.transitive_close()
    assert inplace == want
    assert steps
    assert all(tile == row == hull and inside(live, hull) for _, tile, row, live, _, hull in steps)
    if shape == "sccs":
        assert any(live != start for *_, live, start, _ in steps)
        assert any(hull != (0, dim) for *_, hull in steps)
    with kernels.forced_scalar():
        assert m.transitive_closure() == want


@pytest.mark.parametrize("width", WIDTHS)
def test_pivot_phase_reads_rows_widened_in_the_block_window_and_skips_zero_blocks(width, monkeypatch):
    """In blocks of 3, step 0 widens pivot row 1, which at first holds only
    column 0, to the far columns of row 0, inside the block's window 0:10;
    step 1 then reads the wider row for pivot row 2. The next block's pivot
    rows are all zero although their columns hit, so the sweep skips it. The
    sweep equals the scalar one."""
    limit = sat_limit(width)
    rng = np.random.default_rng(width)
    dim = 12
    data = np.zeros((dim, dim), kernels.dtype_for(width))
    data[0, 7:10] = rng.integers(2, limit + 1, 3)
    data[1, 0] = limit - 1
    data[2, 1] = limit
    data[6:, 1:] = rng.integers(1, limit + 1, (dim - 6, dim - 1))
    work = data.tolist()
    antidist._maxplus_sweep_scalar(work, work, work, limit)
    runs = shrink_sweep(monkeypatch, width, dim, block=3, tile_rows=4)
    steps = record_pivot_steps(monkeypatch)
    got = data.copy()
    antidist._maxplus_sweep(got, got, got, limit)
    assert got.tolist() == work
    assert runs.windows[0] == (0, 10) and 3 not in runs.windows
    assert not [ks for *_, ks in runs if ks.start == 3]
    assert [(tile, live, start) for k, tile, _, live, start, _ in steps if k == 1] == [((0, 10), (0, 10), (0, 1))]


@pytest.mark.parametrize("block", (5, 128))
@pytest.mark.parametrize("kind", ("identity", "one cycle", "2-cycles", "random"))
def test_permutation_round_trip(kind, block, monkeypatch):
    """The in-place relabelling equals fancy indexing, and the inverse order
    restores the matrix."""
    monkeypatch.setattr(antidist, "_BLOCK", block)
    dim = 37
    rng = np.random.default_rng(block)
    order = {
        "identity": np.arange(dim),
        "one cycle": np.roll(np.arange(dim), 1),
        "2-cycles": np.append(np.arange(dim - 1) ^ 1, dim - 1),  # swapped pairs, the last vertex fixed
        "random": rng.permutation(dim),
    }[kind]
    for width in WIDTHS:
        data = rng.integers(0, sat_limit(width) + 1, (dim, dim), dtype=kernels.dtype_for(width))
        original = data.copy()
        antidist._permute(data, order)
        assert np.array_equal(data, original[order][:, order])
        antidist._permute(data, np.argsort(order))
        assert np.array_equal(data, original)


def chained_clusters(rng, dim, size, chain):
    """Clusters of ``size`` vertices, each a cycle plus one random edge per
    vertex, joined one way in chains of ``chain`` clusters by one edge each."""
    edges = []
    for c in range(dim // size):
        members = range(c * size, (c + 1) * size)
        edges += [(u, u + 1 if u + 1 < members.stop else members.start, rng.randint(1, 9)) for u in members]
        edges += [(u, rng.choice(members), rng.randint(1, 9)) for u in members]
        if (c + 1) % chain:
            edges += [(rng.choice(members), rng.randrange(members.stop, members.stop + size), 5)]
    return edges


def test_one_tile_closure_allocates_less_than_the_matrix(monkeypatch):
    """An n=512 w16 closure with many components fills exactly one tile, so
    it runs no plan; its in-order sweep stays below one copy of the
    matrix."""
    rng = random.Random("plan-memory")
    dim = 512
    edges = chained_clusters(rng, dim, 32, 8)  # two chains of eight clusters
    m = DistMatrix.from_edges(dim, edges, 16)
    calls = count_calls(monkeypatch, "_components")
    want = (~m).data.copy()
    antidist._maxplus_sweep(want, want, want, m.limit)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        m.transitive_close()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m.data.nbytes
    assert np.array_equal(m.limit - m.data, want)
    assert calls == {"_components": []}


def test_planned_blocks_allocate_less_than_the_matrix():
    """An n=1024 w16 closure of chained clusters, too large for one tile,
    runs the plan and the planned blocks: their panels, ranks, tables and
    tile buffer together stay below one copy of the matrix."""
    rng = random.Random("planned-memory")
    dim = 1024
    edges = chained_clusters(rng, dim, 32, 16)  # two chains of sixteen clusters
    m = DistMatrix.from_edges(dim, edges, 16)
    assert dim > antidist._TILE_BYTES // m.data[0].nbytes
    want = (~m).data.copy()
    antidist._maxplus_sweep(want, want, want, m.limit)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        m.transitive_close()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m.data.nbytes
    assert np.array_equal(m.limit - m.data, want)


@pytest.mark.parametrize("cls", (AntidistMatrix, DistMatrix))
@pytest.mark.parametrize("shape", ("chained clusters", "strongly connected"))
def test_closure_at_full_block_and_tile_size(shape, cls, monkeypatch):
    """At the real _BLOCK and _TILE_BYTES an n=400 w32 closure (327 rows per
    tile) runs the plan and the planned blocks: chained clusters are
    relabelled sinks first and a cycle with chords is swept as it is. Every row
    equals Dijkstra; the clusters also equal the scalar path, which would take
    seconds on the cycle's dense closure."""
    rng = random.Random(f"full-size-{shape}")
    dim, width = 400, 32
    if shape == "chained clusters":
        edges = chained_clusters(rng, dim, 20, 5)
    else:
        edges = [(v, (v + 1) % dim, rng.randint(1, 9)) for v in range(dim)]
        edges += [(rng.randrange(dim), rng.randrange(dim), rng.randint(1, 9)) for _ in range(dim)]
    m = AntidistMatrix.from_edges(dim, edges, width)
    want = AntidistMatrix.from_lists(oracle.apsp_dijkstra(dim, edges, sat_limit(width)), width)
    if cls is DistMatrix:
        m, want = ~m, ~want
    assert dim > antidist._TILE_BYTES // m.data[0].nbytes
    calls = count_calls(monkeypatch, "_components", "_permute", "_sweep_block")
    assert m.transitive_closure() == want
    assert_plans(calls, 1, shape == "strongly connected")
    assert len(calls["_sweep_block"]) == -(-dim // antidist._BLOCK)
    if shape == "chained clusters":
        with kernels.forced_scalar():
            assert m.transitive_closure() == want


# -- paths under threads --------------------------------------------------------

def test_concurrent_closures_keep_their_own_path(monkeypatch):
    """One thread closes a matrix on the pinned scalar path while another
    closes a different one on the blocked vector path: each runs on its own
    path and both results are exact."""
    rng = random.Random("concurrent")
    graphs = []
    for dim in (30, 40):
        edges = [(u, v, rng.randint(1, 9)) for u in range(dim) for v in range(dim) if rng.random() < 0.5]
        graphs.append((AntidistMatrix.from_edges(dim, edges, 8), oracle.apsp_dijkstra(dim, edges, 255)))
    shrink_sweep(monkeypatch, 8, 40, block=8, tile_rows=4)
    paths = {}
    for name in ("_maxplus_sweep", "_maxplus_sweep_scalar"):
        real = getattr(antidist, name)

        def spy(*args, real=real, name=name):
            paths.setdefault(threading.current_thread().name, set()).add(name)
            real(*args)

        monkeypatch.setattr(antidist, name, spy)
    start = threading.Barrier(2, timeout=10)
    results = {}

    def close(name, matrix, scalar):
        start.wait()
        if scalar:
            with kernels.forced_scalar():
                results[name] = matrix.transitive_closure()
        else:
            results[name] = matrix.transitive_closure()

    threads = [
        threading.Thread(target=close, name=name, args=(name, m, name == "scalar"))
        for name, (m, _) in zip(("scalar", "vector"), graphs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert paths == {"scalar": {"_maxplus_sweep_scalar"}, "vector": {"_maxplus_sweep"}}
    for name, (_, want) in zip(("scalar", "vector"), graphs):
        assert results[name].to_lists() == want
