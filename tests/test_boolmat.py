import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semimat import oracle
from semimat.boolmat import BoolMatrix


def random_bool_lists(rng, rows, cols, density=0.4):
    return [[1 if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]


def assert_padding_clear(m):
    tail = m.cols & 63
    if tail:
        mask = ~((1 << tail) - 1)
        assert all(int(w) & mask == 0 for w in m.blocks[:, -1])


def test_zeros_and_rejects():
    z = BoolMatrix.zeros(2, 2)
    assert z.to_lists() == [[0, 0], [0, 0]]
    wide = BoolMatrix.zeros(1, 65)
    assert wide.block_columns == 2
    assert not wide.blocks.any()
    with pytest.raises(ValueError):
        BoolMatrix.zeros(0, 3)
    with pytest.raises(ValueError):
        BoolMatrix.zeros(3, 0)
    with pytest.raises(ValueError):
        BoolMatrix.identity(0)


def test_identity_neutral():
    rng = random.Random(1)
    a = BoolMatrix.from_lists(random_bool_lists(rng, 5, 5))
    i = BoolMatrix.identity(5)
    assert i.to_lists() == [[1 if r == c else 0 for c in range(5)] for r in range(5)]
    assert (i * a) == a
    assert (a * i) == a


@pytest.mark.parametrize("bad", [2, -1, "1", 0.5, None, [0]])
def test_from_lists_rejects_non_bits(bad):
    grid = [[0, 1, 0], [1, 0, 1]]
    grid[1][2] = bad
    with pytest.raises(ValueError, match=r"entry must be 0 or 1, got " + repr(bad).replace("[", r"\[")):
        BoolMatrix.from_lists(grid)
    with pytest.raises(ValueError, match="row 1 has 2 entries, expected 3"):
        BoolMatrix.from_lists([[0, 1, 0], [1, 0]])


def test_from_lists_takes_arrays():
    grid = random_bool_lists(random.Random(4), 3, 70)
    want = BoolMatrix.from_lists(grid)
    assert BoolMatrix.from_lists(np.array(grid)) == want
    assert BoolMatrix.from_lists(np.array(grid, dtype=bool)) == want
    assert BoolMatrix.from_lists(np.array(grid, dtype=np.uint8)) == want
    with pytest.raises(ValueError, match="matrix dimensions must be positive"):
        BoolMatrix.from_lists(np.zeros((0, 3)))


def test_packing_matches_per_entry_set():
    rng = random.Random(3)
    grid = random_bool_lists(rng, 5, 131)
    grid[0][:3] = [True, False, 1.0]
    want = BoolMatrix.zeros(5, 131)
    for r, row in enumerate(grid):
        for c, v in enumerate(row):
            if v:
                want.set(r, c, 1)
    assert BoolMatrix.from_lists(grid) == want
    assert BoolMatrix.from_lists(grid).to_lists() == [[int(v) for v in row] for row in grid]
    eye = BoolMatrix.zeros(131, 131)
    for i in range(131):
        eye.set(i, i, 1)
    assert BoolMatrix.identity(131) == eye
    assert_padding_clear(BoolMatrix.identity(131))


def test_get_set_roundtrip():
    m = BoolMatrix.zeros(3, 70)
    m.set(1, 64, 1)
    assert m.get(1, 64) == 1
    before = m.blocks.copy()
    m.set(1, 64, 1)
    assert np.array_equal(m.blocks, before)
    m.set(1, 64, 0)
    assert m.get(1, 64) == 0
    assert not m.blocks.any()
    with pytest.raises(IndexError):
        m.get(3, 0)
    with pytest.raises(IndexError):
        m.set(0, 70, 1)
    with pytest.raises(ValueError):
        m.set(0, 0, 2)


def test_index_must_be_an_integer():
    m = BoolMatrix.zeros(2, 64)
    with pytest.raises(IndexError, match=r"index \(0, 1.5\) is not a pair of integers"):
        m.set(0, 1.5, 1)
    with pytest.raises(IndexError, match=r"index \(0, 1.5\) is not a pair of integers"):
        m.get(0, 1.5)
    m.set(np.int64(1), np.int64(63), 1)  # whole numpy integers stay accepted
    assert m.get(np.int64(1), np.int64(63)) == 1 == m.get(1, 63)


def test_set_leaves_other_bits_alone():
    rng = random.Random(2)
    grid = random_bool_lists(rng, 4, 67)
    m = BoolMatrix.from_lists(grid)
    m.set(2, 66, 1 - grid[2][66])
    grid[2][66] = 1 - grid[2][66]
    assert m.to_lists() == grid
    assert_padding_clear(m)


def test_entrywise_examples():
    a = BoolMatrix.from_lists([[1, 0]])
    b = BoolMatrix.from_lists([[0, 0]])
    assert (a | b).to_lists() == [[1, 0]]
    assert (a & b).to_lists() == [[0, 0]]
    assert (a ^ a).to_lists() == [[0, 0]]
    assert (~(~a)) == a
    z = BoolMatrix.zeros(1, 2)
    assert (z | a) == a
    with pytest.raises(ValueError):
        a | BoolMatrix.zeros(2, 2)


def test_not_clears_padding():
    m = BoolMatrix.zeros(2, 65)
    inv = ~m
    assert inv.to_lists() == [[1] * 65] * 2
    assert_padding_clear(inv)


def test_mul_example_and_errors():
    a = BoolMatrix.from_lists([[1, 0], [0, 0]])
    b = BoolMatrix.from_lists([[0, 1], [1, 0]])
    assert (a * b).to_lists() == [[0, 1], [0, 0]]
    z = BoolMatrix.zeros(2, 2)
    assert (z * b) == z
    with pytest.raises(ValueError):
        BoolMatrix.zeros(2, 3) * BoolMatrix.zeros(2, 3)


def test_mul_against_oracle_random():
    rng = random.Random(42)
    cases = [(rng.randint(1, 16), rng.randint(1, 16), rng.randint(1, 16)) for _ in range(120)]
    cases += [(rng.randint(30, 70), rng.randint(30, 70), rng.randint(30, 70)) for _ in range(8)]
    cases.append((128, 128, 128))
    for rows, inner, cols in cases:
        a = random_bool_lists(rng, rows, inner, rng.uniform(0.1, 0.7))
        b = random_bool_lists(rng, inner, cols, rng.uniform(0.1, 0.7))
        got = BoolMatrix.from_lists(a) * BoolMatrix.from_lists(b)
        assert got.to_lists() == oracle.naive_bool_mul(a, b)
        assert_padding_clear(got)


def test_closure_examples():
    cycle = BoolMatrix.from_lists([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert cycle.transitive_closure().to_lists() == [[1, 1, 1]] * 3
    z = BoolMatrix.zeros(3, 3)
    assert z.transitive_closure() == z
    chain = BoolMatrix.from_lists([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert chain.transitive_closure().to_lists() == [[0, 1, 1], [0, 0, 1], [0, 0, 0]]
    with pytest.raises(ValueError):
        BoolMatrix.zeros(2, 3).transitive_closure()


def test_reflexive_closure():
    z = BoolMatrix.zeros(3, 3)
    assert z.reflexive_transitive_closure() == BoolMatrix.identity(3)
    cycle = BoolMatrix.from_lists([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    r = cycle.reflexive_transitive_closure()
    assert r.to_lists() == [[1, 1, 1]] * 3
    again = r.reflexive_transitive_closure()
    assert again == r


def test_closure_diagonal_marks_cycles():
    m = BoolMatrix.from_lists([[0, 1, 0], [1, 0, 0], [0, 1, 0]])
    t = m.transitive_closure()
    assert t.get(0, 0) == 1 and t.get(1, 1) == 1
    assert t.get(2, 2) == 0


def test_closure_does_not_mutate_input():
    m = BoolMatrix.from_lists([[0, 1], [1, 0]])
    before = m.to_lists()
    m.transitive_closure()
    assert m.to_lists() == before


def _squaring_closure(m):
    base = BoolMatrix.identity(m.rows) | m
    while True:
        squared = base * base
        if squared == base:
            break
        base = squared
    return m * base


def test_closure_equals_repeated_squaring():
    rng = random.Random(9)
    sizes = [rng.randint(1, 24) for _ in range(30)] + [64]
    for dim in sizes:
        m = BoolMatrix.from_lists(random_bool_lists(rng, dim, dim, rng.uniform(0.02, 0.3)))
        assert m.transitive_closure() == _squaring_closure(m)


def test_closure_monotone():
    rng = random.Random(10)
    for _ in range(40):
        dim = rng.randint(1, 12)
        small = random_bool_lists(rng, dim, dim, 0.2)
        grown = [[v or (rng.random() < 0.2) for v in row] for row in small]
        ca = BoolMatrix.from_lists(small).transitive_closure()
        cb = BoolMatrix.from_lists([[int(v) for v in row] for row in grown]).transitive_closure()
        assert all(
            x <= y for rx, ry in zip(ca.to_lists(), cb.to_lists()) for x, y in zip(rx, ry)
        )


def test_matrix_level_distributivity():
    rng = random.Random(11)
    for _ in range(40):
        rows, inner, cols = rng.randint(1, 10), rng.randint(1, 10), rng.randint(1, 10)
        a = BoolMatrix.from_lists(random_bool_lists(rng, rows, inner))
        b = BoolMatrix.from_lists(random_bool_lists(rng, rows, inner))
        c = BoolMatrix.from_lists(random_bool_lists(rng, inner, cols))
        assert ((a | b) * c) == ((a * c) | (b * c))


def test_padding_clear_after_every_operation():
    rng = random.Random(12)
    a = BoolMatrix.from_lists(random_bool_lists(rng, 65, 65))
    b = BoolMatrix.from_lists(random_bool_lists(rng, 65, 65))
    for m in (a | b, a & b, a ^ b, ~a, a * b, a.transitive_closure(),
              a.reflexive_transitive_closure()):
        assert_padding_clear(m)


# -- the Four Russians sweep ----------------------------------------------
#
# BoolMatrix has no scalar path, so the sweep is checked against BFS, the
# definition of the product and the two closure oracles, at sizes on both
# sides of the 8-pivot groups and the 64-bit blocks.

ODD_SIZES = (1, 7, 9, 63, 65, 129)


def reachable_by_bfs(n, edges):
    """Rows of the closure: vertices a walk of one or more edges reaches."""
    succ = [[] for _ in range(n)]
    for u, v in edges:
        succ[u].append(v)
    rows = []
    for s in range(n):
        seen = [0] * n
        todo = list(succ[s])
        while todo:
            v = todo.pop()
            if not seen[v]:
                seen[v] = 1
                todo.extend(succ[v])
        rows.append(seen)
    return rows


@st.composite
def digraphs(draw):
    n = draw(st.one_of(st.sampled_from(ODD_SIZES), st.integers(1, 200)))
    end = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(end, end), max_size=3 * n))
    return n, edges


@settings(max_examples=120, deadline=None)
@given(digraphs())
def test_closure_against_bfs(graph):
    n, edges = graph
    m = BoolMatrix.zeros(n, n)
    for u, v in edges:
        m.set(u, v, 1)
    got = m.transitive_closure()
    assert got.to_lists() == reachable_by_bfs(n, edges)
    assert_padding_clear(got)


@pytest.mark.parametrize(
    "rows, inner, cols",
    [(1, 1, 1), (3, 13, 70), (70, 9, 5), (130, 63, 2), (1, 17, 1), (65, 129, 33), (9, 7, 65)],
)
@pytest.mark.parametrize("density", (0.03, 0.3, 0.8))
def test_mul_against_definition_across_groups(rows, inner, cols, density):
    rng = random.Random(f"{rows}-{inner}-{cols}-{density}")
    a = random_bool_lists(rng, rows, inner, density)
    b = random_bool_lists(rng, inner, cols, density)
    got = BoolMatrix.from_lists(a) * BoolMatrix.from_lists(b)
    assert got.to_lists() == oracle.naive_bool_mul(a, b)
    assert_padding_clear(got)


def test_closure_against_both_oracles():
    rng = random.Random(13)
    for _ in range(60):
        dim = rng.randint(1, 6)
        grid = random_bool_lists(rng, dim, dim, rng.uniform(0.1, 0.6))
        got = BoolMatrix.from_lists(grid).transitive_closure().to_lists()
        assert got == oracle.enumerate_paths_closure(grid)
        assert got == oracle.closure_by_squaring(grid)
    for dim in (7, 9, 15, 16, 17, 23):
        for density in (0.05, 0.15, 0.4):
            grid = random_bool_lists(rng, dim, dim, density)
            got = BoolMatrix.from_lists(grid).transitive_closure().to_lists()
            assert got == oracle.closure_by_squaring(grid)


@pytest.mark.parametrize("n", (8, 63, 64, 70, 130))
def test_closure_follows_paths_through_all_of_a_groups_pivots(n):
    """A descending path through every vertex crosses each group of eight
    pivots from its top pivot down, seven steps inside the group, and every
    other group is closed into a cycle. A row entering a group at its top
    pivot must select the rows of all eight, so the group's closed map has
    to cover paths of the whole group. A product is not closed."""
    grid = [[0] * n for _ in range(n)]
    for v in range(1, n):
        grid[v][v - 1] = 1
    for k0 in range(0, n, 16):
        grid[k0][min(k0 + 8, n) - 1] = 1
    m = BoolMatrix.from_lists(grid)
    closed = oracle.closure_by_squaring(grid)
    assert m.transitive_closure().to_lists() == closed
    for v in range(n):
        closed[v][v] = 1
    assert m.reflexive_transitive_closure().to_lists() == closed
    assert (m * m).to_lists() == oracle.naive_bool_mul(grid, grid)


@pytest.fixture
def table_lookups():
    """An ndarray subclass for a closure's blocks, and the row counts of the
    table lookups OR-ed into them: every row on the in-place branch, the rows
    with a nonzero byte on the gather branch."""
    counts = []

    class Spy(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
            if ufunc is np.bitwise_or and all(np.ndim(x) == 2 for x in inputs):
                counts.append(len(inputs[0]))
            inputs = [np.asarray(x) for x in inputs]
            if not out:
                return getattr(ufunc, method)(*inputs, **kwargs)
            getattr(ufunc, method)(*inputs, out=tuple(np.asarray(x) for x in out), **kwargs)
            return out[0]  # in-place operators rebind to this: keep the spy

    return Spy, counts


def spied(m, spy):
    return BoolMatrix(m.rows, m.cols, m.blocks.copy().view(spy))


@pytest.mark.parametrize("sources, lookups", [(24, [48]), (23, [23])])
def test_closure_branch_at_half_the_rows(table_lookups, sources, lookups):
    spy, counts = table_lookups
    m = BoolMatrix.zeros(48, 48)
    for r in range(sources):  # edges into the sinks 40..47 only: one lookup
        m.set(r, 40 + r % 8, 1)
    assert spied(m, spy).transitive_closure() == m
    assert counts == lookups


def test_sparse_closure_gathers_dense_closure_updates_in_place(table_lookups):
    spy, counts = table_lookups
    n = 100
    chain = BoolMatrix.zeros(n, n)
    for v in range(20):
        chain.set(v, v + 1, 1)
    assert spied(chain, spy).transitive_closure() == chain.transitive_closure()
    assert counts and all(2 * c < n for c in counts)
    counts.clear()
    dense = BoolMatrix.from_lists(random_bool_lists(random.Random(14), n, n, 0.5))
    assert spied(dense, spy).transitive_closure() == dense.transitive_closure()
    assert counts == [n] * (n // 8 + 1)


def test_product_leaves_its_factors_alone():
    rng = random.Random(15)
    chain = [[int(c == r + 1) for c in range(20)] for r in range(20)]  # closure would grow it
    a = BoolMatrix.from_lists(chain)
    assert (a * a).to_lists() == oracle.naive_bool_mul(chain, chain)
    assert a.to_lists() == chain
    left = random_bool_lists(rng, 11, 20, 0.3)
    assert (BoolMatrix.from_lists(left) * a).to_lists() == oracle.naive_bool_mul(left, chain)
    assert a.to_lists() == chain
