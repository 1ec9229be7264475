"""Seeded inputs, CLI commands and output checks for the benchmark workloads.

Every workload builds two instances from one seed: the timed instance, which
the CLI jobs run on, and a check instance of the same family (n = 256 at full
scale) on which the forced-scalar and the vector path must agree bit for bit.
Inputs are generated with numpy alone, so the program sees nothing but the
files written from here.

The checks read the program's output with their own parsers and compare it
with references that share no code with the fast paths: a single-source
Dijkstra, a breadth-first search and ``semimat.oracle``.
"""

import heapq
import struct
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

# Rows (and, for products, columns) of each output compared with a reference.
SAMPLES = 16
MAX_WEIGHT = 19
_BINARY_HEADER = struct.Struct("<6sBBII")


class CheckError(Exception):
    """A job output that is malformed or disagrees with its reference."""


@dataclass
class Graph:
    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def text(self) -> bytes:
        lines = [f"p {self.n}"]
        lines += [
            f"{u} {v} {w}"
            for u, v, w in zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist())
        ]
        return ("\n".join(lines) + "\n").encode()

    def out_lists(self) -> list[list[tuple[int, int]]]:
        adjacency = [[] for _ in range(self.n)]
        for u, v, w in zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist()):
            adjacency[u].append((v, w))
        return adjacency


@dataclass
class Instance:
    """Input files, the CLI arguments that process them, and the output check.

    Entries of ``command`` that name a file of ``files`` or the ``output``
    are resolved against the directory the instance is written to.
    ``check`` raises :class:`CheckError` or returns properties of the output.
    """

    files: dict[str, bytes]
    command: list[str]
    output: str
    updates: int  # semiring entry updates: n**3 for a closure, r*k*c for a product
    props: dict
    check: Callable[[bytes], dict] = field(repr=False)

    def argv(self, directory) -> list[str]:
        names = set(self.files) | {self.output}
        return [str(directory / a) if a in names else a for a in self.command]

    def write(self, directory) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, data in self.files.items():
            (directory / name).write_bytes(data)


# -- generators ---------------------------------------------------------------

def strongly_connected(rng, n, m) -> Graph:
    """n vertices and m edges with weights 1..19.

    A Hamiltonian cycle through a random vertex order makes every vertex
    reach every other; the other m - n edges are uniform and loop-free.
    """
    order = rng.permutation(n)
    u = rng.integers(0, n, m - n)
    v = (u + rng.integers(1, n, m - n)) % n
    return Graph(
        n,
        np.concatenate([order, u]),
        np.concatenate([np.roll(order, -1), v]),
        rng.integers(1, MAX_WEIGHT + 1, m),
    )


def clustered(rng, clusters, size, chains=3, intra=2, links=32) -> Graph:
    """Strongly connected clusters joined into one-way chains.

    Each cluster is a cycle plus ``intra`` loop-free random edges per vertex.
    The clusters are laid out in ``chains`` chains with ``links`` edges from
    each cluster to the next. Cluster a reaches cluster b exactly when b
    follows a on its chain, so the share of ordered pairs joined by a path is
    set by the layout, not by the seed: 0.175 for 64 clusters in 3 chains.
    """
    n = clusters * size
    members = rng.permutation(n).reshape(clusters, size)
    src, dst = [], []
    for group in members:
        picks = rng.integers(0, size, intra * size)
        src += [group, group[picks]]
        dst += [np.roll(group, -1), group[(picks + rng.integers(1, size, picks.size)) % size]]
    for chain in np.array_split(rng.permutation(clusters), chains):
        for a, b in zip(chain[:-1], chain[1:]):
            src.append(rng.choice(members[a], links))
            dst.append(rng.choice(members[b], links))
    src, dst = np.concatenate(src), np.concatenate(dst)
    return Graph(n, src, dst, rng.integers(1, MAX_WEIGHT + 1, len(src)))


def antidist_closure(graph, limit) -> np.ndarray:
    """Anti-distance closure (paths of one or more edges) by Floyd-Warshall.

    Distances are capped at ``limit``, which is exact for the saturated
    semiring: any walk of length ``limit`` or more is unreachable there.
    """
    d = np.full((graph.n, graph.n), limit, dtype=np.int16)
    np.minimum.at(d, (graph.src, graph.dst), graph.weight.astype(np.int16))
    for k in range(graph.n):
        np.minimum(d, d[:, k, None] + d[k], out=d)
    return (limit - d).astype(np.uint8)


def antidist_text(matrix) -> bytes:
    n_rows, n_cols = matrix.shape
    rows = (" ".join(map(str, row)) for row in matrix.tolist())
    return ("\n".join([f"antidist 8 {n_rows} {n_cols}", *rows]) + "\n").encode()


# -- references ---------------------------------------------------------------

def walk_distances(adjacency, source) -> list:
    """Shortest distance of a walk of one or more edges from ``source``.

    Single-source Dijkstra; None marks a vertex no walk reaches. The source's
    own entry is its shortest cycle.
    """
    best = [None] * len(adjacency)
    tentative = {}
    heap = []
    for v, w in adjacency[source]:
        if w < tentative.get(v, w + 1):
            tentative[v] = w
            heap.append((w, v))
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if best[v] is not None:
            continue
        best[v] = d
        for t, w in adjacency[v]:
            if best[t] is None and d + w < tentative.get(t, d + w + 1):
                tentative[t] = d + w
                heapq.heappush(heap, (d + w, t))
    return best


def reachable(adjacency, source) -> np.ndarray:
    """Vertices a walk of one or more edges from ``source`` reaches (BFS)."""
    seen = np.zeros(len(adjacency), dtype=bool)
    queue = deque([source])
    while queue:
        for t, _ in adjacency[queue.popleft()]:
            if not seen[t]:
                seen[t] = True
                queue.append(t)
    return seen


# -- output parsers and checks ------------------------------------------------

def _lane_binary(data, tag, width, n) -> np.ndarray:
    if len(data) < _BINARY_HEADER.size:
        raise CheckError(f"output of {len(data)} bytes has no binary header")
    header = _BINARY_HEADER.unpack_from(data)
    if header != (b"SRMAT1", ord(tag), width, n, n):
        raise CheckError(f"binary header {header} is not a {tag} w{width} {n}x{n} matrix")
    dtype = np.dtype(f"<u{width // 8}")
    if len(data) != _BINARY_HEADER.size + n * n * dtype.itemsize:
        raise CheckError(f"binary payload of {len(data) - _BINARY_HEADER.size} bytes")
    return np.frombuffer(data, dtype=dtype, offset=_BINARY_HEADER.size).reshape(n, n)


def _text_lines(data, header, n) -> list[str]:
    try:
        lines = data.decode("ascii").split("\n")
    except UnicodeDecodeError:
        raise CheckError("output is not ASCII text") from None
    if lines[0] != header or len(lines) != n + 2 or lines[-1] != "":
        raise CheckError(f"text output is not '{header}' followed by {n} rows")
    return lines[1:-1]


def check_apsp(graph, width, rows, dual, data) -> dict:
    """Closure output against Dijkstra on sampled source rows.

    ``dual`` is None for an anti-distance closure. For a distance closure it
    returns the anti-distance closure of the same graph, which must equal the
    complement of the output.
    """
    limit = (1 << width) - 1
    out = _lane_binary(data, "D" if dual else "A", width, graph.n)
    adjacency = graph.out_lists()
    for s in rows:
        best = walk_distances(adjacency, s)
        if dual:
            want = [d if d is not None and d < limit else limit for d in best]
        else:
            want = [limit - d if d is not None and d < limit else 0 for d in best]
        if out[s].tolist() != want:
            raise CheckError(f"row {s} differs from single-source Dijkstra")
    if dual and not np.array_equal(limit - out, dual()):
        raise CheckError("~ of the distance closure differs from the anti-distance closure")
    finite = np.count_nonzero(out != limit) if dual else np.count_nonzero(out)
    return {"antidist.reach_frac": finite / out.size}


def check_product(left, right, rows, cols, data) -> dict:
    """Product output against ``semimat.oracle`` on sampled entries."""
    from semimat import oracle

    n = left.shape[0]
    lines = _text_lines(data, f"antidist 8 {n} {n}", n)
    try:
        out = np.array([line.split() for line in lines], dtype=np.int64)
    except ValueError:
        raise CheckError("text rows are ragged or hold non-integers") from None
    if out.shape != (n, n) or out.min() < 0 or out.max() > 255:
        raise CheckError("text output is not an 8-bit square matrix")
    want = oracle.naive_antidist_mul(left[rows].tolist(), right[:, cols].tolist(), 255)
    if out[np.ix_(rows, cols)].tolist() != want:
        raise CheckError("sampled product entries differ from the oracle")
    return {}


def check_reach(graph, rows, data) -> dict:
    """Reflexive Boolean closure output against BFS on sampled source rows."""
    n = graph.n
    lines = _text_lines(data, f"bool {n} {n}", n)
    if any(len(line) != n for line in lines):
        raise CheckError(f"Boolean rows are not {n} characters long")
    chars = np.frombuffer("".join(lines).encode(), dtype=np.uint8).reshape(n, n)
    if not np.isin(chars, (48, 49)).all():
        raise CheckError("Boolean rows hold characters other than 0 and 1")
    bits = chars == 49
    adjacency = graph.out_lists()
    for s in rows:
        want = reachable(adjacency, s)
        want[s] = True
        if not np.array_equal(bits[s], want):
            raise CheckError(f"row {s} differs from breadth-first search")
    return {"boolmat.reach_frac": float(bits.mean())}


# -- workloads ----------------------------------------------------------------

def _sample(rng, n):
    return np.sort(rng.choice(n, min(n, SAMPLES), replace=False)).tolist()


def _graph_props(graph, text, width):
    return {"n": graph.n, "edges": int(graph.src.size), "width": width, "text_bytes": len(text)}


def _closure_instance(graph, flags, width, check):
    text = graph.text()
    suffix = ".txt" if "--bool" in flags else ".bin"
    return Instance(
        files={"graph.txt": text},
        command=["closure", "graph.txt", *flags, "-o", "out" + suffix],
        output="out" + suffix,
        updates=graph.n ** 3,
        props=_graph_props(graph, text, width),
        check=check,
    )


def apsp_dense(rng, n, m) -> Instance:
    graph = strongly_connected(rng, n, m)
    check = partial(check_apsp, graph, 8, _sample(rng, n), None)
    return _closure_instance(graph, ["--width", "8", "--binary"], 8, check)


def apsp_clustered(rng, clusters, size) -> Instance:
    graph = clustered(rng, clusters, size)

    def antidist():
        from semimat.antidist import AntidistMatrix

        edges = zip(graph.src.tolist(), graph.dst.tolist(), graph.weight.tolist())
        closure = AntidistMatrix.from_edges(graph.n, edges, 16).transitive_closure()
        return closure.data[:, : graph.n]

    check = partial(check_apsp, graph, 16, _sample(rng, graph.n), antidist)
    return _closure_instance(graph, ["--width", "16", "--dist", "--binary"], 16, check)


def multiply_text(rng, n, m) -> Instance:
    left = antidist_closure(strongly_connected(rng, n, m), 255)
    order = rng.permutation(n)
    right = left[order][:, order]  # the closure of the same graph, relabelled
    files = {"left.txt": antidist_text(left), "right.txt": antidist_text(right)}
    return Instance(
        files=files,
        command=["multiply", "left.txt", "right.txt", "-o", "out.txt"],
        output="out.txt",
        updates=n ** 3,
        props={"n": n, "width": 8, "text_bytes": sum(map(len, files.values()))},
        check=partial(check_product, left, right, _sample(rng, n), _sample(rng, n)),
    )


def reach_bool(rng, n, m) -> Instance:
    graph = strongly_connected(rng, n, m)
    check = partial(check_reach, graph, _sample(rng, n))
    return _closure_instance(graph, ["--bool", "--reflexive"], 1, check)


@dataclass(frozen=True)
class Workload:
    """A generator family at three sizes; README.md says why each workload exists."""

    name: str
    build: Callable[..., Instance]
    full: dict  # generator sizes of the timed instance
    check: dict  # ... of the scalar-versus-vector check instance
    tiny: dict  # ... of both instances in smoke runs

    def instances(self, seed, scale="full") -> tuple[Instance, Instance]:
        """The timed and the check instance; the same seed gives the same bytes."""
        rng = np.random.default_rng(seed)
        if scale == "tiny":
            return self.build(rng, **self.tiny), self.build(rng, **self.tiny)
        return self.build(rng, **self.full), self.build(rng, **self.check)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "apsp-dense",
            apsp_dense,
            full=dict(n=2048, m=100_000),
            check=dict(n=256, m=1_600),
            tiny=dict(n=16, m=40),
        ),
        Workload(
            "apsp-clustered",
            apsp_clustered,
            full=dict(clusters=64, size=32),
            check=dict(clusters=8, size=32),
            tiny=dict(clusters=4, size=4),
        ),
        Workload(
            "multiply-text",
            multiply_text,
            full=dict(n=1024, m=20_000),
            check=dict(n=256, m=1_250),
            tiny=dict(n=16, m=40),
        ),
        Workload(
            "reach-bool",
            reach_bool,
            full=dict(n=2048, m=30_000),
            check=dict(n=256, m=480),
            tiny=dict(n=16, m=32),
        ),
    )
}
