"""Differential property test of the planned lane sweeps.

Hypothesis draws a graph (acyclic, chained clusters, strongly connected or
dense), a width, a lane class, a block of steps (``_BLOCK``) and a tile
height (``_TILE_BYTES`` for 1 to n+1 rows), and the vector closure and
product, swept in those blocks and tiles, must equal the forced-scalar path
bit for bit, and at small n the closure by squaring. The draws reach every
part of the vector sweep: one-tile closures and planned ones, relabelled or
not, skipped blocks, narrow windows, the pivot phase and the four tile
branches, and table groups split to fit a tile.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from semimat import antidist, kernels, oracle
from semimat.antidist import AntidistMatrix, DistMatrix
from semimat.scalars import sat_limit

FAMILIES = ("dag", "chained clusters", "strongly connected", "dense")

# Edge distances: two values, so that columns have few distinct entries and
# take tables; small ones; and ones near S, whose sums saturate.
WEIGHTS = ("few", "small", "saturating")


def graph_lanes(rng, family, n, limit, weights):
    """An n x n anti-distance adjacency matrix of the family, as int64 lanes
    on randomly relabelled vertices."""
    chance = rng.random((n, n))
    if family == "dag":
        edge = np.triu(chance < 0.3, 1)
    elif family == "chained clusters":
        cluster = np.arange(n) // rng.integers(2, 7)
        ring = np.roll(np.arange(n), -1)
        edge = (cluster[:, None] == cluster[None, :]) & (chance < 0.3)
        edge |= (cluster[:, None] + 1 == cluster[None, :]) & (chance < 0.08)
        edge[np.arange(n), ring] |= cluster == cluster[ring]  # a cycle through each cluster
    elif family == "strongly connected":
        edge = chance < 0.1
        edge[np.arange(n), np.roll(np.arange(n), -1)] = True
    else:
        edge = chance < 0.7
    low, high = {"few": (1, 2), "small": (0, 12), "saturating": (limit // 3, limit)}[weights]
    lanes = np.where(edge, limit - rng.integers(low, high + 1, (n, n)), 0)
    order = rng.permutation(n)
    return lanes[order][:, order]


def zero_lines(rng, lanes, axis):
    """Zero a run of rows (axis 0) or columns (axis 1) at one end and a few
    more at random."""
    size = lanes.shape[axis]
    run = rng.integers(0, size // 3 + 1)
    lines = np.r_[np.arange(run) if rng.random() < 0.5 else np.arange(size - run, size), rng.integers(0, size, 3)]
    if axis:
        lanes[:, lines] = 0
    else:
        lanes[lines] = 0


@st.composite
def sweep_cases(draw):
    n = draw(st.integers(1, 40))
    return dict(
        n=n,
        family=draw(st.sampled_from(FAMILIES)),
        weights=draw(st.sampled_from(WEIGHTS)),
        zeroed=draw(st.sampled_from(("none", "rows", "columns", "both"))),
        width=draw(st.sampled_from((8, 16, 32))),
        cls=draw(st.sampled_from((AntidistMatrix, DistMatrix))),
        block=draw(st.sampled_from((1, 2, 3, 8, 128))),
        tile_rows=draw(st.integers(1, n + 1)),
        cols=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def swept(m, tile_rows, block):
    """Patch the sweep to blocks of ``block`` steps and tiles of
    ``tile_rows`` rows of ``m``'s columns."""
    tile_bytes = tile_rows * m.data[0].nbytes
    return mock.patch.multiple(antidist, _BLOCK=block, _TILE_BYTES=tile_bytes)


@settings(max_examples=400, deadline=None)
@given(sweep_cases())
def test_planned_sweeps_equal_the_scalar_path(case):
    n, width, cls = case["n"], case["width"], case["cls"]
    limit = sat_limit(width)
    rng = np.random.default_rng(case["seed"])
    lanes = graph_lanes(rng, case["family"], n, limit, case["weights"])
    right = np.where(rng.random((n, case["cols"])) < 0.6, rng.integers(0, limit + 1, (n, case["cols"])), 0)
    for axis, zeroed in ((0, ("rows", "both")), (1, ("columns", "both"))):
        if case["zeroed"] in zeroed:
            zero_lines(rng, lanes, axis)
            zero_lines(rng, right, axis)
    anti = AntidistMatrix.from_lists(lanes, width)
    a, b = anti, AntidistMatrix.from_lists(right, width)
    if cls is DistMatrix:
        a, b = ~a, ~b

    with kernels.forced_scalar():
        closure, product = a.transitive_closure(), a * b
    with kernels.forced_vector():
        with swept(a, case["tile_rows"], case["block"]):
            assert a.transitive_closure() == closure
        with swept(b, case["tile_rows"], case["block"]):
            assert a * b == product
    if n <= 10:
        anti_closure = closure if cls is AntidistMatrix else ~closure
        assert anti_closure.to_lists() == oracle.closure_by_squaring(lanes.tolist(), limit)
