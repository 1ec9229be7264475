"""Edge-list graph files and their parsed form.

The format is one header line ``p <vertex_count>`` followed by one edge per
line, ``u v`` or ``u v w``. ``#`` starts a comment, blank lines are ignored,
and edges without a weight get weight 1.
"""

from dataclasses import dataclass, field

from .antidist import AntidistMatrix, DistMatrix
from .boolmat import BoolMatrix, _edge_table


class GraphParseError(ValueError):
    """Malformed edge-list text; carries the offending line number when known."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


@dataclass
class GraphSpec:
    """A directed graph as parsed from an edge list."""

    vertex_count: int
    edges: list[tuple[int, int, int]] = field(default_factory=list)
    weighted: bool = False


def parse_edge_list(text: str) -> GraphSpec:
    """Parse edge-list text into a validated GraphSpec.

    Vertex ids must lie in [0, vertex_count) and weights must be nonnegative
    integers; whether a weight fits a lane width is checked when the matrix
    is built. Problems raise GraphParseError naming the line and the value.
    """
    count = None
    edges = []
    weighted = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if count is None:
            if parts[0] != "p" or len(parts) != 2:
                raise GraphParseError("expected header 'p <vertex_count>'", lineno)
            try:
                count = int(parts[1])
            except ValueError:
                raise GraphParseError(f"vertex count {parts[1]!r} is not an integer", lineno) from None
            if count < 1:
                raise GraphParseError(f"vertex count must be positive, got {count}", lineno)
            continue
        if len(parts) not in (2, 3):
            raise GraphParseError(f"expected 'u v [w]', got {line!r}", lineno)
        try:
            fields = [int(p) for p in parts]
        except ValueError:
            raise GraphParseError(f"non-integer field in {line!r}", lineno) from None
        u, v = fields[0], fields[1]
        if not 0 <= u < count:
            raise GraphParseError(f"source vertex {u} out of range [0, {count})", lineno)
        if not 0 <= v < count:
            raise GraphParseError(f"target vertex {v} out of range [0, {count})", lineno)
        if len(fields) == 3:
            w = fields[2]
            weighted = True
            if w < 0:
                raise GraphParseError(f"negative weight {w}", lineno)
        else:
            w = 1
        edges.append((u, v, w))
    if count is None:
        raise GraphParseError("missing 'p <vertex_count>' header")
    return GraphSpec(count, edges, weighted)


def bool_adjacency(spec: GraphSpec) -> BoolMatrix:
    """Unweighted adjacency matrix: a set bit per edge."""
    m = BoolMatrix(spec.vertex_count, spec.vertex_count)
    ends, _ = _edge_table(spec.vertex_count, spec.edges)
    m._set_bits(ends[:, 0], ends[:, 1])
    return m


def antidist_adjacency(spec: GraphSpec, width: int = 8) -> AntidistMatrix:
    return AntidistMatrix.from_edges(spec.vertex_count, spec.edges, width)


def dist_adjacency(spec: GraphSpec, width: int = 8) -> DistMatrix:
    return DistMatrix.from_edges(spec.vertex_count, spec.edges, width)
