"""Command-line front end: graph closures, matrix products, format conversion
and a scalar-versus-vector benchmark.
"""

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import graphio, kernels, matio
from .antidist import AntidistMatrix
from .scalars import sat_limit


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
    p.add_argument("--width", type=int, choices=(8, 16, 32), default=None,
                   help="lane width for shortest paths (default 8)")
    p.add_argument("--reflexive", action="store_true",
                   help="include the identity (only with --bool)")
    p.add_argument("--dist", action="store_true",
                   help="emit a plain distance matrix via the min-plus closure")
    _output_args(p)

    p = sub.add_parser("multiply", help="product of two matrix files")
    p.add_argument("left")
    p.add_argument("right")
    _output_args(p)

    p = sub.add_parser("convert", help="rewrite a matrix file in another format")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--to", choices=("text", "binary"), required=True)

    p = sub.add_parser("bench", help="time the scalar and vector paths on random inputs")
    p.add_argument("--op", choices=("mul", "closure"), default="mul")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--width", type=int, choices=(8, 16, 32), default=8)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _output_args(p):
    p.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")
    p.add_argument("--binary", action="store_true", help="emit the binary format")


def _emit(matrix, output, binary):
    if output is not None:
        matio.save(matrix, output, binary=binary)
    elif binary:
        sys.stdout.buffer.write(matio.to_binary(matrix))
        sys.stdout.buffer.flush()
    else:
        sys.stdout.write(matio.format_text(matrix))


def cmd_closure(args) -> int:
    if args.as_bool and args.width is not None:
        raise ValueError("--bool and --width are mutually exclusive")
    if args.as_bool and args.dist:
        raise ValueError("--bool and --dist are mutually exclusive")
    if args.reflexive and not args.as_bool:
        raise ValueError("--reflexive is only valid with --bool")
    spec = graphio.parse_edge_list(Path(args.graph).read_text())
    if args.as_bool:
        adjacency = graphio.bool_adjacency(spec)
        result = (
            adjacency.reflexive_transitive_closure()
            if args.reflexive
            else adjacency.transitive_closure()
        )
    else:
        width = args.width if args.width is not None else 8
        if args.dist:
            result = graphio.dist_adjacency(spec, width).transitive_closure()
        else:
            result = graphio.antidist_adjacency(spec, width).transitive_closure()
    _emit(result, args.output, args.binary)
    return 0


def cmd_multiply(args) -> int:
    left = matio.load(args.left)
    right = matio.load(args.right)
    if type(left) is not type(right):
        raise ValueError(
            f"matrix type mismatch: {type(left).__name__} times {type(right).__name__}"
        )
    _emit(left * right, args.output, args.binary)
    return 0


def cmd_convert(args) -> int:
    matio.save(matio.load(args.input), args.output, binary=(args.to == "binary"))
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
    rng = np.random.default_rng(seed)
    left = _random_antidist(size, width, rng)
    if op == "mul":
        right = _random_antidist(size, width, rng)
        work = lambda: left * right
    else:
        work = lambda: left.transitive_closure()
    start = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - start
    lane_updates = size * size * size
    return result, BenchReport(op, size, width, "", elapsed, lane_updates / elapsed)


def cmd_bench(args) -> int:
    if args.size < 1:
        raise ValueError(f"size must be positive, got {args.size}")
    if not kernels.use_vector():
        # Pinned to scalar: nothing to compare against.
        print("bench note: vector path unavailable, reporting scalar only")
        with kernels.forced_scalar():
            _, report = _bench_run(args.op, args.size, args.width, args.seed)
        report.variant = "scalar"
        print(report.line())
        return 0
    with kernels.forced_scalar():
        scalar_result, scalar_report = _bench_run(args.op, args.size, args.width, args.seed)
    scalar_report.variant = "scalar"
    with kernels.forced_vector():
        vector_result, vector_report = _bench_run(args.op, args.size, args.width, args.seed)
    vector_report.variant = "vector"
    if scalar_result != vector_result:
        raise ValueError("scalar and vector results differ, refusing to report timings")
    print(scalar_report.line())
    print(vector_report.line())
    speedup = scalar_report.seconds / vector_report.seconds
    print(
        f"bench op={args.op} size={args.size} width={args.width} "
        f"speedup={speedup:.2f} equality=ok"
    )
    return 0


_COMMANDS = {
    "closure": cmd_closure,
    "multiply": cmd_multiply,
    "convert": cmd_convert,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"semimat: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
