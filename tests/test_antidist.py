import random
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


@pytest.mark.parametrize("junk", ("1", None))
@pytest.mark.parametrize("cls", (AntidistMatrix, DistMatrix))
def test_lane_entries_must_be_numbers(cls, junk):
    with pytest.raises(ValueError, match=f"entry {junk!r} is not a number"):
        cls.from_lists([[2, junk]], 8)
    m = cls.from_lists([[2]], 8)
    with pytest.raises(ValueError, match=f"entry {junk!r} is not a number"):
        m.set(0, 0, junk)


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


# -- vector sweep: row tiles and the dense/gather branches -----------------------
#
# Full-size tiles hold hundreds of rows, so these tests shrink them to a few
# rows: 53- and 61-row matrices then span many tiles with a shorter last one.
# Columns cycle through dense, sparse and empty so both branches run.

SHARES = (0.9, 0.15, 0.0)


@pytest.fixture
def small_tiles(monkeypatch):
    """Shrink the sweep tiles and record the tile heights of every vector sweep."""
    monkeypatch.setattr(antidist, "_TILE_BYTES", 700)
    heights = []
    real = antidist._row_tiles

    def spy(out):
        tiles = real(out)
        heights.append([cand.shape[0] for _, cand in tiles])
        return tiles

    monkeypatch.setattr(antidist, "_row_tiles", spy)
    return heights


def assert_ragged(heights):
    assert heights
    assert all(len(h) > 1 and h[-1] < h[0] for h in heights)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("cls", (AntidistMatrix, DistMatrix))
def test_vector_product_across_tiles_and_branches(width, cls, small_tiles, monkeypatch):
    rng = random.Random(f"product-tiles-{width}")
    limit = sat_limit(width)
    rows, inner, cols = 53, 67, 41
    a_vals = [
        [rng.randint(1, limit) if rng.random() < SHARES[k % 3] else 0 for k in range(inner)]
        for _ in range(rows)
    ]
    for k, count in ((1, rows // 2), (4, rows // 2 + 1)):  # one hit either side of half
        for r, row in enumerate(a_vals):
            row[k] = rng.randint(1, limit) if r < count else 0
    b_vals = random_values(rng, inner, cols, limit)
    a = AntidistMatrix.from_lists(a_vals, width)
    b = AntidistMatrix.from_lists(b_vals, width)
    want = AntidistMatrix.from_lists(oracle.naive_antidist_mul(a_vals, b_vals, limit), width)
    if cls is DistMatrix:
        a, b, want = ~a, ~b, ~want
    gathers = []
    real = kernels.np_subsat
    monkeypatch.setattr(kernels, "np_subsat", lambda *args: gathers.append(1) or real(*args))
    got = a * b
    hits = [sum(1 for row in a_vals if row[k]) for k in range(inner)]
    assert len(gathers) == sum(1 for h in hits if 0 < 2 * h < rows)
    assert any(2 * h >= rows for h in hits)
    assert got == want
    assert_no_padding(got)
    assert_ragged(small_tiles)
    with kernels.forced_scalar():
        assert a * b == want


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("cls", (AntidistMatrix, DistMatrix))
def test_vector_closure_across_tiles_and_branches(width, cls, small_tiles):
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
    inplace = m.copy()
    inplace.transitive_close()
    assert m.transitive_closure() == want
    assert inplace == want
    assert_no_padding(inplace)
    assert_ragged(small_tiles)
    with kernels.forced_scalar():
        assert m.transitive_closure() == want
