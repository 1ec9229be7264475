import pytest

from semimat import graphio
from semimat.boolmat import BoolMatrix
from semimat.graphio import GraphParseError, GraphSpec, parse_edge_list


def test_parse_weighted():
    spec = parse_edge_list("p 3\n0 1 3\n1 2 4\n")
    assert spec.vertex_count == 3
    assert spec.edges == [(0, 1, 3), (1, 2, 4)]
    assert spec.weighted


def test_parse_default_weight():
    spec = parse_edge_list("p 2\n0 1\n")
    assert spec.edges == [(0, 1, 1)]
    assert not spec.weighted


def test_parse_comments_and_blanks():
    text = "# a graph\n\np 2   # two vertices\n0 1 5 # an edge\n   \n"
    spec = parse_edge_list(text)
    assert spec.vertex_count == 2
    assert spec.edges == [(0, 1, 5)]


def test_parse_errors():
    with pytest.raises(GraphParseError, match=r"vertex 5 out of range"):
        parse_edge_list("p 2\n0 5 1\n")
    with pytest.raises(GraphParseError, match=r"line 2"):
        parse_edge_list("p 2\n0 5 1\n")
    with pytest.raises(GraphParseError, match=r"header"):
        parse_edge_list("0 1\n")
    with pytest.raises(GraphParseError, match=r"header"):
        parse_edge_list("")
    with pytest.raises(GraphParseError, match=r"non-integer"):
        parse_edge_list("p 2\n0 x\n")
    with pytest.raises(GraphParseError, match=r"negative weight -3"):
        parse_edge_list("p 2\n0 1 -3\n")
    with pytest.raises(GraphParseError, match=r"expected 'u v"):
        parse_edge_list("p 2\n0 1 2 3\n")
    with pytest.raises(GraphParseError, match=r"positive"):
        parse_edge_list("p 0\n")


def test_adjacency_builders():
    spec = parse_edge_list("p 3\n0 1 3\n1 2 4\n")
    b = graphio.bool_adjacency(spec)
    assert b.to_lists() == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    a = graphio.antidist_adjacency(spec, 8)
    assert a.get(0, 1) == 252 and a.get(1, 2) == 251
    d = graphio.dist_adjacency(spec, 8)
    assert d.get(0, 1) == 3 and d.get(0, 0) == 255


def test_weight_width_check_happens_at_build():
    spec = parse_edge_list("p 2\n0 1 300\n")
    with pytest.raises(ValueError, match="weight 300"):
        graphio.antidist_adjacency(spec, 8)
    assert graphio.antidist_adjacency(spec, 16).get(0, 1) == 65535 - 300


def test_bool_adjacency_sets_each_edge_bit():
    edges = [(0, 1, 5), (0, 1, 2), (3, 64, 1), (129, 0, 1), (64, 129, 1), (7, 7, 1)]
    got = graphio.bool_adjacency(GraphSpec(130, edges))
    want = BoolMatrix.zeros(130, 130)
    for u, v, _ in edges:
        want.set(u, v, 1)
    assert got == want
    assert graphio.bool_adjacency(GraphSpec(3)) == BoolMatrix.zeros(3, 3)
    for bad, message in (((0, 3, 1), r"target vertex 3 out of range \[0, 3\)"),
                         ((-1, 0, 1), r"source vertex -1 out of range \[0, 3\)")):
        with pytest.raises(ValueError, match=message):
            graphio.bool_adjacency(GraphSpec(3, [bad]))
    with pytest.raises(IndexError, match="edge end 0.5 is not a vertex index"):
        graphio.bool_adjacency(GraphSpec(3, [(0.5, 1, 1)]))
    with pytest.raises(IndexError, match="edge end 1.7 is not a vertex index"):
        graphio.bool_adjacency(GraphSpec(3, [(0, 1.7, 1)]))


@pytest.mark.parametrize(
    "edges", [[(0, 3, 1)], [(-1, 0, 1)], [(0, 1, 1), (4, -2, 1)], [(1, 2, 1), (2, 9, 1), (7, 0, 1)]]
)
def test_builders_name_the_same_out_of_range_end(edges):
    spec = GraphSpec(3, edges)
    messages = set()
    for build in (graphio.bool_adjacency, graphio.antidist_adjacency, graphio.dist_adjacency):
        with pytest.raises(ValueError, match="out of range") as err:
            build(spec)
        messages.add(str(err.value))
    assert len(messages) == 1


def test_weight_must_be_a_number():
    with pytest.raises(ValueError, match="weight '2' is not a number"):
        graphio.antidist_adjacency(GraphSpec(3, [(0, 1, '2')]))
    with pytest.raises(ValueError, match="weight None is not a number"):
        graphio.dist_adjacency(GraphSpec(3, [(0, 1, None)]))
