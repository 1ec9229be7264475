import platform
import random
import threading

import numpy as np
import pytest

from semimat import kernels
from semimat.scalars import sat_limit

WIDTHS = (8, 16, 32)


def test_lane_counts():
    assert kernels.lane_count(8) == 16
    assert kernels.lane_count(16) == 8
    assert kernels.lane_count(32) == 4
    with pytest.raises(ValueError):
        kernels.lane_count(64)


def test_dispatch_override_and_env(monkeypatch):
    baseline = kernels.use_vector()
    with kernels.forced_scalar():
        assert not kernels.use_vector()
        with kernels.forced_vector():
            assert kernels.use_vector()
        assert not kernels.use_vector()
    assert kernels.use_vector() == baseline
    monkeypatch.setenv(kernels.FORCE_SCALAR_ENV, "1")
    assert not kernels.use_vector()
    monkeypatch.setenv(kernels.FORCE_SCALAR_ENV, "0")
    assert kernels.use_vector() is True


def test_vector_path_needs_no_machine_whitelist(monkeypatch):
    # numpy's ufuncs are exact on every machine; only a pin selects scalar
    monkeypatch.setattr(platform, "machine", lambda: "riscv64")
    monkeypatch.delenv(kernels.FORCE_SCALAR_ENV, raising=False)
    assert kernels.use_vector() is True


def test_forced_path_is_local_to_its_thread(monkeypatch):
    monkeypatch.delenv(kernels.FORCE_SCALAR_ENV, raising=False)
    pinned, looked = threading.Event(), threading.Event()
    seen = {}

    def pin():
        with kernels.forced_scalar():
            pinned.set()
            looked.wait(timeout=10)
            seen["pinning thread"] = kernels.use_vector()

    def look():
        pinned.wait(timeout=10)
        seen["other thread"] = kernels.use_vector()
        looked.set()

    threads = [threading.Thread(target=pin), threading.Thread(target=look)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert seen == {"pinning thread": False, "other thread": True}


def test_lane_ops_read_the_path_once(monkeypatch):
    calls = []
    real = kernels.use_vector
    monkeypatch.setattr(kernels, "use_vector", lambda: calls.append(1) or real())
    for op in (kernels.subsat, kernels.addsat, kernels.maxlanes, kernels.minlanes, kernels.absdiff):
        for forced in (kernels.forced_scalar, kernels.forced_vector):
            calls.clear()
            with forced():
                op(list(range(16)), [7] * 16)
            assert len(calls) == 1, op.__name__


def test_clonenot_examples():
    assert kernels.clonenot(5, 8) == [250] * 16
    assert kernels.clonenot(0, 32) == [2**32 - 1] * 4
    assert kernels.clonenot(65535, 16) == [0] * 8
    assert kernels.clonenot(1, 8, count=32) == [254] * 32


def test_clonenot_exhaustive_width8_both_paths():
    for e in range(256):
        expected = [(~e) & 0xFF] * 16
        assert kernels.clonenot(e, 8) == expected
        with kernels.forced_scalar():
            assert kernels.clonenot(e, 8) == expected


def test_subsat_examples():
    a = [10, 200, 0] + [7] * 13
    b = [20, 100, 5] + [7] * 13
    assert kernels.subsat(a, b, 8)[:3] == [0, 100, 0]
    zero = [0] * 16
    assert kernels.subsat(a, zero, 8) == a


def test_addsat_examples():
    a = [2**32 - 2, 5, 0, 2**32 - 1]
    b = [5, 7, 0, 2**32 - 1]
    assert kernels.addsat(a, b, 32) == [2**32 - 1, 12, 0, 2**32 - 1]
    assert kernels.addsat(a, [0, 0, 0, 0], 32) == a


def test_max_min_examples():
    a = [1, 2] * 8
    b = [2, 1] * 8
    assert kernels.maxlanes(a, b, 8) == [2, 2] * 8
    assert kernels.minlanes(a, b, 8) == [1, 1] * 8
    assert kernels.maxlanes(a, a, 8) == a


def test_min_is_complement_dual_of_max():
    rng = random.Random(3)
    for width in WIDTHS:
        limit = sat_limit(width)
        n = kernels.lane_count(width)
        a = [rng.randrange(limit + 1) for _ in range(n)]
        b = [rng.randrange(limit + 1) for _ in range(n)]
        na = [limit - v for v in a]
        nb = [limit - v for v in b]
        lhs = kernels.minlanes(a, b, width)
        rhs = [limit - v for v in kernels.maxlanes(na, nb, width)]
        assert lhs == rhs


def test_absdiff_examples():
    a = [10] * 16
    b = [3] * 16
    assert kernels.absdiff(a, b, 8) == [7] * 16
    assert kernels.absdiff(b, a, 8) == [7] * 16
    assert kernels.absdiff(a, a, 8) == [0] * 16


def test_input_validation():
    with pytest.raises(ValueError):
        kernels.subsat([1, 2, 3], [1, 2, 3], 8)  # not a multiple of 16 lanes
    with pytest.raises(ValueError):
        kernels.subsat([300] * 16, [0] * 16, 8)  # silently wrapping would corrupt
    with pytest.raises(ValueError):
        kernels.maxlanes([0] * 16, [0] * 32, 8)
    with pytest.raises(ValueError):
        kernels.clonenot(256, 8)
    with pytest.raises(ValueError):
        kernels.clonenot(1, 8, count=8)
    with kernels.forced_scalar():
        with pytest.raises(ValueError):
            kernels.subsat([300] * 16, [0] * 16, 8)


BINARY_KERNELS = (
    kernels.subsat,
    kernels.addsat,
    kernels.maxlanes,
    kernels.minlanes,
    kernels.absdiff,
)


def _outcome(fn, *args):
    """repr of the result (so 2.0 and 2 differ), or the exception's type and message."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("value", (1.5, float("nan"), 2.0, 2**70, -1, 256, "1", None), ids=repr)
@pytest.mark.parametrize("op", (*BINARY_KERNELS, kernels.clonenot), ids=lambda op: op.__name__)
def test_paths_agree_on_odd_lane_values(op, value):
    args = (value, 8) if op is kernels.clonenot else ([value] * 16, [0] * 16, 8)
    with kernels.forced_vector():
        vec = _outcome(op, *args)
    with kernels.forced_scalar():
        sca = _outcome(op, *args)
    assert vec == sca
    if isinstance(value, (str, type(None))):
        assert vec == (ValueError, f"entry {value!r} is not a number")


@pytest.mark.parametrize("width", WIDTHS)
def test_vector_equals_scalar_on_random_blocks(width):
    rng = np.random.default_rng(width)
    limit = sat_limit(width)
    lanes = kernels.lane_count(width)
    a = rng.integers(0, limit + 1, size=2000 * lanes, dtype=np.uint64).tolist()
    b = rng.integers(0, limit + 1, size=2000 * lanes, dtype=np.uint64).tolist()
    for fn in BINARY_KERNELS:
        with kernels.forced_vector():
            vec = fn(a, b, width)
        with kernels.forced_scalar():
            sca = fn(a, b, width)
        assert vec == sca, fn.__name__


@pytest.mark.parametrize("width", WIDTHS)
def test_vector_equals_scalar_on_boundary_lanes(width):
    limit = sat_limit(width)
    lanes = kernels.lane_count(width)
    boundary = (0, 1, limit - 1, limit)
    blocks_a, blocks_b = [], []
    for pos in range(lanes):
        for x in boundary:
            for y in boundary:
                for fill_a in (0, limit):
                    for fill_b in (0, limit):
                        a = [fill_a] * lanes
                        b = [fill_b] * lanes
                        a[pos] = x
                        b[pos] = y
                        blocks_a.extend(a)
                        blocks_b.extend(b)
    for fn in BINARY_KERNELS:
        with kernels.forced_vector():
            vec = fn(blocks_a, blocks_b, width)
        with kernels.forced_scalar():
            sca = fn(blocks_a, blocks_b, width)
        assert vec == sca, fn.__name__


@pytest.mark.parametrize("width", WIDTHS)
def test_kernels_match_lane_definitions(width):
    # direct per-lane formulas, independent of either implementation
    rng = random.Random(width * 11)
    limit = sat_limit(width)
    lanes = kernels.lane_count(width)
    a = [rng.randrange(limit + 1) for _ in range(8 * lanes)]
    b = [rng.randrange(limit + 1) for _ in range(8 * lanes)]
    assert kernels.subsat(a, b, width) == [max(x - y, 0) for x, y in zip(a, b)]
    assert kernels.addsat(a, b, width) == [min(x + y, limit) for x, y in zip(a, b)]
    assert kernels.absdiff(a, b, width) == [abs(x - y) for x, y in zip(a, b)]
    assert kernels.maxlanes(a, b, width) == [max(x, y) for x, y in zip(a, b)]
    assert kernels.minlanes(a, b, width) == [min(x, y) for x, y in zip(a, b)]


def test_ndarray_inputs_accepted():
    a = np.arange(16, dtype=np.uint8)
    b = np.full(16, 3, dtype=np.uint8)
    assert kernels.subsat(a, b, 8) == [max(v - 3, 0) for v in range(16)]
    with kernels.forced_scalar():
        assert kernels.subsat(a, b, 8) == [max(v - 3, 0) for v in range(16)]
