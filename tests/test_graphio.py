import functools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semimat import graphio, matio
from semimat.antidist import AntidistMatrix, DistMatrix
from semimat.boolmat import BoolMatrix, _edge_table
from semimat.graphio import EdgeTable, GraphParseError, GraphSpec, parse_edge_list
from semimat.scalars import sat_limit


def over_slabs(test):
    """Run ``test`` with the body read in slabs of the module's size, then
    of 24 characters and of 1, which cuts the text after every line."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        for size in (matio._SLAB_CHARS, 24, 1):
            with mock.patch.object(matio, "_SLAB_CHARS", size):
                test(*args, **kwargs)

    return run


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
    "edges",
    [
        [(0, 3, 1)],
        [(-1, 0, 1)],
        [(0, 1, 1), (4, -2, 1)],
        [(1, 2, 1), (2, 9, 1), (7, 0, 1)],
        [(0, 2**70, 1)],
        [(2**64, 0, 1)],
    ],
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
    with pytest.raises(ValueError, match=r"weight \[2\] is not a number"):
        graphio.antidist_adjacency(GraphSpec(3, [(0, 1, [2])]))


@pytest.mark.parametrize("edges", [[(0, 1)], [(0, 1, 1), (1, 2)], [0, 1, 1], np.zeros((2, 2), int)])
def test_builders_refuse_edges_that_are_not_triples(edges):
    for build in (graphio.bool_adjacency, graphio.antidist_adjacency, graphio.dist_adjacency):
        with pytest.raises(ValueError, match=r"edges must be \(u, v, w\) triples"):
            build(GraphSpec(3, edges))


@st.composite
def weighted_edge_lists(draw):
    """(dim, width, edges) with parallel edges and self-loops likely."""
    width = draw(st.sampled_from((8, 16, 32)))
    dim = draw(st.integers(1, 9))
    vertex = st.integers(0, dim - 1)
    weight = st.integers(0, sat_limit(width))
    edges = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=40))
    return dim, width, edges


@settings(max_examples=80, deadline=None)
@given(weighted_edge_lists())
def test_builders_match_a_per_edge_reference(case):
    dim, width, edges = case
    limit = sat_limit(width)
    best = {}  # the largest S - w over the parallel edges u -> v
    for u, v, w in edges:
        best[u, v] = max(best.get((u, v), 0), limit - w)
    anti = [[best.get((i, j), 0) for j in range(dim)] for i in range(dim)]
    bits = [[int((i, j) in best) for j in range(dim)] for i in range(dim)]
    columns = [[edge[k] for edge in edges] for k in range(3)]
    forms = {
        "list": lambda: list(edges),
        "zip": lambda: zip(*columns),
        "array": lambda: np.array(edges, dtype=np.int64).reshape(-1, 3),
    }
    for form, make in forms.items():
        assert AntidistMatrix.from_edges(dim, make(), width).to_lists() == anti, form
        want = ~AntidistMatrix.from_lists(anti, width)
        assert DistMatrix.from_edges(dim, make(), width) == want, form
        assert graphio.bool_adjacency(GraphSpec(dim, make())).to_lists() == bits, form


def test_parsed_edges_are_one_int64_table():
    spec = parse_edge_list("p 4\n0 1 3\n1 2 4\n3 0 0\n")
    assert isinstance(spec.edges, EdgeTable)
    assert spec.edges.array.dtype == np.int64 and spec.edges.array.shape == (3, 3)
    assert len(spec.edges) == 3 and spec.edges[1] == (1, 2, 4) and (3, 0, 0) in spec.edges
    assert list(spec.edges) == [(0, 1, 3), (1, 2, 4), (3, 0, 0)] == spec.edges
    assert spec.edges != [(0, 1, 3)] and spec.edges != "edges"
    assert parse_edge_list("p 3\n0 1\n1 2\n").edges.array.tolist() == [[0, 1, 1], [1, 2, 1]]
    # the builders read the table in place
    ends, weights = _edge_table(4, spec.edges)
    assert np.shares_memory(ends, spec.edges.array)
    assert np.shares_memory(weights, spec.edges.array)
    # numpy 1.x calls __array__() or __array__(dtype, None) and takes no copy=None
    for args in ((), (None,), (None, None), (None, False)):
        assert spec.edges.__array__(*args) is spec.edges.array
    copied = spec.edges.__array__(None, True)
    assert not np.shares_memory(copied, spec.edges.array) and (copied == spec.edges.array).all()
    assert spec.edges.__array__(np.int32).dtype == np.int32


def test_non_ascii_comments_keep_the_table_reader():
    spec = parse_edge_list("# Zo\u00eb \u2014 \u0663\np 3 # caf\u00e9\n0 1 2 # \u00fc\n1 2 5\n")
    assert isinstance(spec.edges, EdgeTable)
    assert spec == GraphSpec(3, [(0, 1, 2), (1, 2, 5)], True)


@pytest.mark.parametrize("text", ["p 3\n", "p 3", "# g\np 3 # three\n\n  # none\n\t\n"])
@over_slabs
def test_header_only_edge_list_has_no_edges(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = parse_edge_list(text)
    assert spec == GraphSpec(3, [], False) == _parse_by_lines(text)
    assert isinstance(spec.edges, EdgeTable)
    assert spec.edges.array.dtype == np.int64 and spec.edges.array.shape == (0, 3)
    assert graphio.antidist_adjacency(spec) == AntidistMatrix.zeros(3, 3)


def test_line_loop_reads_what_loadtxt_cannot():
    spec = parse_edge_list("p 12\n0 1\n1 2 4\n1_0 \u0663 2\n")
    assert spec == GraphSpec(12, [(0, 1, 1), (1, 2, 4), (10, 3, 2)], True)
    assert isinstance(spec.edges, EdgeTable)
    assert spec.edges.array.dtype == np.int64 and spec.edges.array.shape == (3, 3)
    with pytest.raises(GraphParseError, match=f"line 2: value {2**70} does not fit int64"):
        parse_edge_list(f"p 2\n0 1 {2**70}\n")
    with pytest.raises(ValueError, match=f"weight {2**70} outside"):
        AntidistMatrix.from_edges(2, [(0, 1, 2**70)], 32)


@pytest.mark.parametrize(
    "text, edges, weighted",
    [
        ("p 3\n0 1\n1 2\n", [(0, 1, 1), (1, 2, 1)], False),
        ("p 3\r\n0 1 2\r\n1 2\r\n", [(0, 1, 2), (1, 2, 1)], True),
        (f"p 2\n0 1 {2**63 - 1}\n", [(0, 1, 2**63 - 1)], True),
        # only body fields go through the 19-digit rule, so the table reader
        # compares the ends with a vertex count beyond int64
        (f"p {2**70}\n0 1\n", [(0, 1, 1)], False),
    ],
    ids=["2 fields", "CRLF", "int64 max", "count beyond int64"],
)
@over_slabs
def test_every_body_gives_one_int64_table(text, edges, weighted):
    spec = parse_edge_list(text)
    assert isinstance(spec.edges, EdgeTable)
    assert spec.edges.array.dtype == np.int64 and spec.edges.array.shape == (len(edges), 3)
    assert spec.edges == edges and spec.weighted is weighted
    assert spec == _parse_by_lines(text)
    count, body = graphio._header(iter([(1, text.splitlines())]))
    [(lineno, lines)] = body
    table = graphio._parse_lines(lines, count, lineno)
    assert table.dtype == np.int64 and table.shape == (len(edges), 3 if weighted else 2)


@pytest.mark.parametrize(
    "text, lineno, value",
    [
        (f"p 2\n0 1 {2**63}\n", 2, 2**63),
        (f"p 2\n0 1 {2**64 - 1}\n", 2, 2**64 - 1),
        (f"p {2**70}\n0 1\n{2**64} 0\n", 3, 2**64),
        (f"p {2**70}\n0 {2**63} 5\n", 2, 2**63),
    ],
)
def test_fields_beyond_int64_are_refused_by_line(text, lineno, value):
    # numpy 1.x loadtxt would read such a field through a float and an
    # undefined cast to int64, so the table reader must not see it
    reader = mock.patch.object(graphio, "_read_integers", side_effect=AssertionError("table reader ran"))
    with reader, pytest.raises(GraphParseError, match=f"line {lineno}: value {value} does not fit int64") as err:
        parse_edge_list(text)
    assert err.value.lineno == lineno


# More than one slab of the module's size of comments, then the header.
_LEAD = "# a comment line above the header\n" * 2000


@over_slabs
def test_header_after_slabs_of_comments():
    text = _LEAD + "\n  # p 9\np 3 # three\n0 1\n1 2 5\n"
    assert len(_LEAD) > matio._SLAB_CHARS
    assert parse_edge_list(text) == GraphSpec(3, [(0, 1, 1), (1, 2, 5)], True) == _parse_by_lines(text)
    lineno = _LEAD.count("\n") + 3
    with pytest.raises(GraphParseError, match=f"^line {lineno}: vertex count 'x' is not an integer$"):
        parse_edge_list(_LEAD + "\n\np x\n0 1\n")
    with pytest.raises(GraphParseError, match=f"^line {lineno + 2}: target vertex 3 out of range"):
        parse_edge_list(_LEAD + "\n\np 3\n0 1\n0 3\n")
    with pytest.raises(GraphParseError, match="^missing 'p <vertex_count>' header$"):
        parse_edge_list(_LEAD)


@over_slabs
def test_first_faulty_line_in_a_later_slab_is_named():
    good = "".join(f"{i % 4096} {(i * 7) % 4096} {i % 10}\n" for i in range(6000))
    assert len(good) > matio._SLAB_CHARS
    text = "p 4096\n" + good + "1 2\n4 4096 1\n5 x\n" + good
    with pytest.raises(GraphParseError, match="^line 6003: target vertex 4096 out of range") as err:
        parse_edge_list(text)
    assert err.value.lineno == 6003
    assert _outcome(parse_edge_list, text) == _outcome(_parse_by_lines, text)
    # slabs of 3-field lines, then one with 2- and 3-field lines, then
    # slabs of 2-field lines only
    ones = "".join(f"{i % 4096} {(i * 5) % 4096}\n" for i in range(8000))
    assert len(ones) > matio._SLAB_CHARS
    text = "p 4096\n" + good + ones
    spec = parse_edge_list(text)
    assert spec == _parse_by_lines(text) and spec.weighted
    assert spec.edges.array.shape == (14000, 3) and (spec.edges.array[6000:, 2] == 1).all()


@over_slabs
def test_bytes_parse_as_their_text():
    """The UTF-8 bytes of an edge list parse to the same graph, or fail on
    the same line, as its text, whichever slabs cut it."""
    good = "".join(f"{i % 4096} {(i * 7) % 4096} {i % 10}\n" for i in range(6000))
    ones = "".join(f"{i % 4096} {(i * 5) % 4096}\n" for i in range(8000))
    texts = [
        _LEAD + "\n  # p 9\np 3 # three\n0 1\n1 2 5\n",
        _LEAD + "\n\np x\n0 1\n",
        _LEAD + "\n\np 3\n0 1\n0 3\n",
        _LEAD,
        "p 4096\n" + good + "1 2\n4 4096 1\n5 x\n" + good,
        "p 4096\r\n# caf\u00e9\r\n" + good + ones,
        "# Zo\u00eb \u2014 \u0663\np 3 # caf\u00e9\n0 1 2 # \u00fc\n1 2 5\n",
        "p 12\n0 1\n1 2 4\n1_0 \u0663 2\n",
        "p 3\n0 1\u20281 2 # U+2028 ends a line\n",
        "p 3\r0 1\r1 2 4\r",
    ]
    for text in texts:
        assert _outcome(parse_edge_list, text.encode()) == _outcome(parse_edge_list, text)


def test_edge_table_slices_like_its_list():
    rows = [(0, 1, 3), (1, 2, 4), (3, 0, 0), (1, 2, 4), (2, 2, 1)]
    edges = parse_edge_list("p 4\n" + "".join("%d %d %d\n" % row for row in rows)).edges
    for key in (slice(1, 3), slice(None, None, -2), slice(-2, None), slice(4, 1), slice(None)):
        part = edges[key]
        assert isinstance(part, EdgeTable) and part.array.dtype == np.int64
        assert part == rows[key] and list(part) == rows[key] and len(part) == len(rows[key])
    assert edges[-1] == rows[-1] and edges[-5] == rows[0]
    with pytest.raises(IndexError):
        edges[5]
    assert edges.index((1, 2, 4)) == rows.index((1, 2, 4)) == 1
    with pytest.raises(ValueError):
        edges.index((9, 9, 9))
    assert edges.count((1, 2, 4)) == 2 and edges.count((0, 0, 0)) == 0
    assert list(reversed(edges)) == rows[::-1]


def _outcome(parse, text):
    try:
        spec = parse(text)
    except GraphParseError as exc:
        return str(exc), exc.lineno
    return spec, type(spec.edges), spec.edges.array.dtype, spec.edges.array.shape


def _parse_by_lines(text):
    """parse_edge_list with the table reader switched off, so that the line
    loop reads every body."""
    with mock.patch.object(graphio, "_read_integers", lambda lines, comments=None: None):
        return parse_edge_list(text)


@st.composite
def edge_list_texts(draw):
    """Edge lists with comments (some non-ASCII), blank lines, CRLF and
    tabs, bodies of 2, 3 or mixed field counts, and now and then a field the
    line loop alone reads (1_0, a non-ASCII digit) or refuses."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1).map(str)
    weight = st.integers(0, 30).map(str)
    odd = st.sampled_from(["1_0", "\u0663", "+1", "007", "-0", "-1", str(n), "x", "1.5", "9" * 20])
    if draw(st.booleans()):
        vertex = vertex | odd
        weight = weight | odd
    counts = draw(st.sampled_from([[2], [3], [2, 3], [2, 3, 1, 4]]))
    blank = st.sampled_from(["", "  ", "\t", "# a comment", " # p 5", "# Zo\u00eb \u0663"])
    lines = draw(st.lists(blank, max_size=2)) + ["p" + draw(st.sampled_from([" ", "\t"])) + str(n)]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(blank))
            continue
        k = draw(st.sampled_from(counts))
        fields = [draw(vertex), draw(vertex), draw(weight), draw(weight)][:k]
        line = draw(st.sampled_from([" ", "\t", "  "])).join(fields)
        lines.append(line + draw(st.sampled_from(["", " ", "\t# x", " #y", " # \u2014"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(edge_list_texts())
@over_slabs
def test_array_parser_agrees_with_the_line_loop(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(parse_edge_list, text) == _outcome(_parse_by_lines, text)


@settings(max_examples=100, deadline=None)
@given(edge_list_texts())
@over_slabs
def test_bytes_parse_as_their_text_when_drawn(text):
    assert _outcome(parse_edge_list, text.encode()) == _outcome(parse_edge_list, text)
