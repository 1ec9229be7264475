"""Layer spans recorded from outside the program.

While :meth:`Tracer.patched` is active, the public functions of each semimat
layer are replaced by wrappers that open a span around every call, so an
in-process ``semimat.cli.main`` run calls the same functions in the same
order as a CLI job and leaves a span tree behind. Spans stay in memory; a
layer's self time is its spans' durations minus the parts their child spans
cover, and counts (edges parsed, text bytes) are taken at the same wrappers.
"""

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

# The compute layers: their self time is what the scalar and vector paths spend.
COMPUTE_LAYERS = ("antidist.", "boolmat.")


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    count: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _layer_functions():
    """(owner, attribute, span name, count of work) for every traced function."""
    from semimat import graphio, matio
    from semimat.antidist import AntidistMatrix, DistMatrix
    from semimat.boolmat import BoolMatrix

    return [
        (graphio, "parse_edge_list", "graphio.parse_edge_list", lambda a, r: len(r.edges)),
        (graphio, "bool_adjacency", "graphio.adjacency", None),
        (graphio, "antidist_adjacency", "graphio.adjacency", None),
        (graphio, "dist_adjacency", "graphio.adjacency", None),
        (AntidistMatrix, "transitive_closure", "antidist.closure", None),
        (DistMatrix, "transitive_closure", "antidist.dist_closure", None),
        (AntidistMatrix, "__mul__", "antidist.mul", None),
        (BoolMatrix, "transitive_closure", "boolmat.closure", None),
        (BoolMatrix, "reflexive_transitive_closure", "boolmat.reflexive", None),
        (matio, "load", "matio.load", None),
        (matio, "parse_text", "matio.parse_text", lambda a, r: len(a[0])),
        (matio, "save", "matio.save", None),
        (matio, "format_text", "matio.format_text", lambda a, r: len(r)),
        (matio, "to_binary", "matio.to_binary", None),
    ]


# Every span name a traced job can record, in pipeline order.
LAYERS = (
    "graphio.parse_edge_list",
    "graphio.adjacency",
    "antidist.closure",
    "antidist.dist_closure",
    "antidist.mul",
    "boolmat.closure",
    "boolmat.reflexive",
    "matio.load",
    "matio.parse_text",
    "matio.save",
    "matio.format_text",
    "matio.to_binary",
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name):
        record = Span(name, self._open[-1] if self._open else None, time.perf_counter())
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, function, count):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
                if count is not None:
                    record.count += count(args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Route every layer function through a span for the block's duration."""
        saved = []
        try:
            for owner, attr, name, count in _layer_functions():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_seconds(self, name) -> float:
        total = 0.0
        for index, span in enumerate(self.spans):
            if span.name == name:
                children = sum(c.seconds for c in self.spans if c.parent == index)
                total += span.seconds - children
        return total

    def count(self, name) -> int:
        return sum(s.count for s in self.spans if s.name == name)

    def compute_seconds(self) -> float:
        names = {s.name for s in self.spans if s.name.startswith(COMPUTE_LAYERS)}
        return sum(self.self_seconds(n) for n in names)

    def coverage(self, root: Span) -> float:
        """Share of the root span's time spent inside its direct child spans."""
        index = self.spans.index(root)
        inside = sum(s.seconds for s in self.spans if s.parent == index)
        return inside / root.seconds
