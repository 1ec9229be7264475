"""Command-line front end: graph closures, matrix products, format conversion
and a scalar-versus-vector benchmark.
"""

import argparse
import functools
import os
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import graphio, kernels, matio
from .antidist import AntidistMatrix
from .scalars import SAT_WIDTHS, sat_limit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semimat",
        description="Path problems on directed graphs via semiring matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", help="closure of a graph given as an edge list")
    p.add_argument("graph", help="edge-list file: 'p N' header, then 'u v [w]' lines")
    p.add_argument("--bool", dest="as_bool", action="store_true",
                   help="Boolean reachability instead of shortest paths")
    p.add_argument("--width", type=int, choices=SAT_WIDTHS, default=None,
                   help="lane width for shortest paths (default 8)")
    p.add_argument("--reflexive", action="store_true",
                   help="include the identity (only with --bool)")
    p.add_argument("--dist", action="store_true",
                   help="emit a plain distance matrix via the min-plus closure")
    _timings_arg(p)
    _output_args(p)

    p = sub.add_parser("multiply", help="product of two matrix files")
    p.add_argument("left")
    p.add_argument("right")
    _timings_arg(p)
    _output_args(p)

    p = sub.add_parser("convert", help="rewrite a matrix file in another format")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--to", choices=("text", "binary"), required=True)
    _timings_arg(p)

    p = sub.add_parser("bench", help="time the scalar and vector paths on random inputs")
    p.add_argument("--op", choices=("mul", "closure"), default="mul")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--width", type=int, choices=SAT_WIDTHS, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="PATH", default=None,
                   help=f"time {_BENCH_REPEATS} vector runs and write a JSON record of the runs "
                        "and the environment to PATH")

    return parser


def _timings_arg(p):
    p.add_argument("--timings", action="store_true",
                   help="print the wall time of each stage to stderr")


def _output_args(p):
    p.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")
    p.add_argument("--binary", action="store_true", help="emit the binary format")


def _emit(matrix, output, binary):
    """Write the matrix to the output file or, without one, to stdout."""
    if output is not None:
        matio.save(matrix, output, binary=binary)
    else:
        matio.save(matrix, sys.stdout.buffer if binary else sys.stdout, binary=binary)
        sys.stdout.flush()


def cmd_closure(args) -> int:
    if args.as_bool and args.width is not None:
        raise ValueError("--bool and --width are mutually exclusive")
    if args.as_bool and args.dist:
        raise ValueError("--bool and --dist are mutually exclusive")
    if args.reflexive and not args.as_bool:
        raise ValueError("--reflexive is only valid with --bool")
    with _stage("parse", args.timings):
        spec = graphio.parse_edge_list(_read_graph(args.graph))
    with _stage("adjacency", args.timings):
        adjacency = _adjacency(spec, args)
    # Both keep the peak RSS down: the parsed edge list is freed before the
    # sweep, and the adjacency before the output.
    del spec
    with _stage("closure", args.timings):
        if args.reflexive:
            result = adjacency.reflexive_transitive_closure()
        else:
            result = adjacency.transitive_closure()
    del adjacency
    with _stage("serialize", args.timings):
        _emit(result, args.output, args.binary)
    return 0


def _read_graph(path) -> bytes:
    """The bytes of an edge-list file, checked to be UTF-8 text; a file
    that is not is a GraphParseError naming it."""
    data = Path(path).read_bytes()
    try:
        matio._check_utf8(data)
    except UnicodeDecodeError as exc:
        raise graphio.GraphParseError(f"{path}: not utf-8 text ({exc.reason} at offset {exc.start})") from exc
    return data


@contextmanager
def _stage(name, report):
    """Time the block and, if ``report``, print its wall time to stderr."""
    start = time.perf_counter()
    yield
    if report:
        print(f"timing stage={name} seconds={time.perf_counter() - start:.6f}", file=sys.stderr)


def _adjacency(spec, args):
    """Adjacency matrix of the parsed graph, as the closure options ask."""
    if args.as_bool:
        return graphio.bool_adjacency(spec)
    build = graphio.dist_adjacency if args.dist else graphio.antidist_adjacency
    return build(spec, args.width or 8)


def cmd_multiply(args) -> int:
    with _stage("load_left", args.timings):
        left = matio.load(args.left)
    with _stage("load_right", args.timings):
        right = matio.load(args.right)
    with _stage("product", args.timings):
        if type(left) is not type(right):
            raise ValueError(
                f"matrix type mismatch: {type(left).__name__} times {type(right).__name__}"
            )
        result = left * right
    del left, right
    with _stage("serialize", args.timings):
        _emit(result, args.output, args.binary)
    return 0


def cmd_convert(args) -> int:
    with _stage("load", args.timings):
        matrix = matio.load(args.input)
    with _stage("save", args.timings):
        matio.save(matrix, args.output, binary=(args.to == "binary"))
    return 0


@dataclass
class BenchReport:
    op: str
    size: int
    width: int
    variant: str
    seconds: float
    lanes_per_s: float

    def line(self) -> str:
        return (
            f"bench op={self.op} size={self.size} width={self.width} "
            f"variant={self.variant} time_s={self.seconds:.4f} "
            f"lanes_per_s={self.lanes_per_s:.3e}"
        )


def _random_antidist(size, width, rng) -> AntidistMatrix:
    entries = rng.integers(0, sat_limit(width) + 1, size=(size, size), dtype=kernels.dtype_for(width))
    return AntidistMatrix.from_lists(entries, width)


def _bench_run(op, size, width, seed):
    """Time one run on the path pinned for the calling thread; its report
    names that path."""
    variant = "vector" if kernels.use_vector() else "scalar"
    rng = np.random.default_rng(seed)
    left = _random_antidist(size, width, rng)
    if op == "mul":
        right = _random_antidist(size, width, rng)
        work = lambda: left * right
    else:
        # Entries only on and above four diagonal blocks: four strongly
        # connected components, the last block a sink, so the plan relabels.
        block = np.arange(size) * 4 // size
        left = AntidistMatrix.from_lists(np.where(block[:, None] <= block, left.data, 0), width)
        work = lambda: left.transitive_closure()
    start = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - start
    lane_updates = size * size * size
    return result, BenchReport(op, size, width, variant, elapsed, lane_updates / elapsed)


# Vector runs timed for a --json record, which keeps their median and minimum.
_BENCH_REPEATS = 3


def cmd_bench(args) -> int:
    # imported here: at module level they would add milliseconds to the
    # start-up of every command
    import json
    import statistics

    if args.size < 1:
        raise ValueError(f"size must be positive, got {args.size}")
    paths = [(kernels.forced_scalar, 1)]
    if kernels.use_vector():
        paths.append((kernels.forced_vector, _BENCH_REPEATS if args.json else 1))
    else:  # pinned to scalar: nothing to compare against
        print("bench note: vector path unavailable, reporting scalar only")
    runs = []
    for pin, repeats in paths:
        with pin():
            runs += [_bench_run(args.op, args.size, args.width, args.seed) for _ in range(repeats)]
    results, reports = zip(*runs)
    if any(result != results[0] for result in results):
        raise ValueError("scalar and vector results differ, refusing to report timings")
    for report in reports:
        print(report.line())
    scalar, *vector = (report.seconds for report in reports)
    if vector:
        print(
            f"bench op={args.op} size={args.size} width={args.width} "
            f"speedup={scalar / statistics.median(vector):.2f} equality=ok"
        )
    if args.json:
        record = {
            "op": args.op, "size": args.size, "width": args.width, "seed": args.seed,
            "lane_updates": args.size ** 3,
            "scalar_s": scalar,
            "vector_s": {"median": statistics.median(vector), "min": min(vector), "runs": vector} if vector else None,
            "equality": "ok" if vector else "not compared",
            "environment": _environment(),
        }
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
    return 0


def _environment() -> dict:
    """What a bench record's numbers depend on besides the code."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "path": "vector" if kernels.use_vector() else "scalar",
    }


def _cpu_model() -> str:
    """The CPU's model name from /proc/cpuinfo, where there is one."""
    try:
        with open("/proc/cpuinfo") as info:
            return next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or platform.machine()


_COMMANDS = {
    "closure": cmd_closure,
    "multiply": cmd_multiply,
    "convert": cmd_convert,
    "bench": cmd_bench,
}


_parser = functools.cache(build_parser)  # built once per process, outside every stage


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"semimat: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
