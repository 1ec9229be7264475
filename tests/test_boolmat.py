import random

import numpy as np
import pytest

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
