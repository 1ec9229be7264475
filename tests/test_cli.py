import numpy as np
import pytest

from semimat import cli, matio
from semimat.antidist import AntidistMatrix
from semimat.boolmat import BoolMatrix

CYCLE = "p 3\n0 1\n1 2\n2 0\n"
CHAIN = "p 3\n0 1 3\n1 2 4\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_closure_bool(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text(CYCLE)
    code, out, _ = run(capsys, "closure", str(g), "--bool")
    assert code == 0
    assert out == "bool 3 3\n111\n111\n111\n"


def test_closure_antidist(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text(CHAIN)
    code, out, _ = run(capsys, "closure", str(g), "--width", "8")
    assert code == 0
    m = matio.parse_text(out)
    assert m.get(0, 2) == 248


def test_closure_dist(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text(CHAIN)
    code, out, _ = run(capsys, "closure", str(g), "--width", "8", "--dist")
    assert code == 0
    m = matio.parse_text(out)
    assert m.get(0, 2) == 7
    assert m.get(0, 0) == 255 and m.get(1, 1) == 255


def test_closure_default_width_is_8(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text(CHAIN)
    _, out, _ = run(capsys, "closure", str(g))
    assert out.splitlines()[0] == "antidist 8 3 3"


def test_closure_flag_conflicts(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text(CYCLE)
    for argv in (
        ("closure", str(g), "--bool", "--width", "8"),
        ("closure", str(g), "--bool", "--dist"),
        ("closure", str(g), "--reflexive"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "error" in err


def test_closure_bad_graph_reports_line(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("p 2\n0 5 1\n")
    code, _, err = run(capsys, "closure", str(g), "--bool")
    assert code == 1
    assert "line 2" in err and "vertex 5" in err


def test_closure_matches_library(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text(CHAIN)
    _, out, _ = run(capsys, "closure", str(g), "--width", "16")
    expected = AntidistMatrix.from_edges(3, [(0, 1, 3), (1, 2, 4)], 16).transitive_closure()
    assert matio.parse_text(out) == expected


def test_closure_binary_output(tmp_path, capsysbinary):
    g = tmp_path / "g.txt"
    g.write_text(CYCLE)
    code = cli.main(["closure", str(g), "--bool", "--binary"])
    out = capsysbinary.readouterr().out
    assert code == 0
    assert matio.from_binary(out) == BoolMatrix.from_lists([[1, 1, 1]] * 3)


def test_multiply_identity(tmp_path, capsys):
    m = AntidistMatrix.from_edges(3, [(0, 1, 3)], 8)
    a = tmp_path / "a.mat"
    i = tmp_path / "i.mat"
    matio.save(AntidistMatrix.identity(3, 8), i, binary=True)
    matio.save(m, a)
    code, out, _ = run(capsys, "multiply", str(i), str(a))
    assert code == 0
    assert matio.parse_text(out) == m


def test_multiply_dimension_error(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    matio.save(AntidistMatrix.zeros(2, 3, 8), a)
    matio.save(AntidistMatrix.zeros(2, 3, 8), b)
    code, _, err = run(capsys, "multiply", str(a), str(b))
    assert code == 1
    assert "inner dimensions" in err


def test_multiply_type_mismatch(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    matio.save(AntidistMatrix.zeros(2, 2, 8), a)
    matio.save(BoolMatrix.zeros(2, 2), b)
    code, _, err = run(capsys, "multiply", str(a), str(b))
    assert code == 1
    assert "type mismatch" in err


def test_convert_roundtrip(tmp_path, capsys):
    m = AntidistMatrix.from_edges(5, [(0, 4, 9), (4, 1, 2)], 16)
    src = tmp_path / "m.txt"
    mid = tmp_path / "m.bin"
    back = tmp_path / "m2.txt"
    matio.save(m, src)
    assert cli.main(["convert", str(src), str(mid), "--to", "binary"]) == 0
    assert mid.read_bytes().startswith(matio.MAGIC)
    assert cli.main(["convert", str(mid), str(back), "--to", "text"]) == 0
    assert back.read_text() == src.read_text()
    capsys.readouterr()


def test_bench_small(capsys):
    code, out, _ = run(capsys, "bench", "--op", "mul", "--size", "40", "--width", "8", "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert any("variant=scalar" in l for l in lines)
    assert any("variant=vector" in l for l in lines)
    assert "equality=ok" in lines[-1]
    assert "speedup=" in lines[-1]


def test_bench_closure_op(capsys):
    code, out, _ = run(capsys, "bench", "--op", "closure", "--size", "24", "--width", "16")
    assert code == 0
    assert "equality=ok" in out.splitlines()[-1]


def test_bench_rejects_zero_size(capsys):
    code, _, err = run(capsys, "bench", "--op", "mul", "--size", "0")
    assert code == 1
    assert "size must be positive" in err


def test_bench_scalar_only_when_forced(capsys, monkeypatch):
    monkeypatch.setenv("SEMIMAT_FORCE_SCALAR", "1")
    code, out, _ = run(capsys, "bench", "--op", "mul", "--size", "24")
    assert code == 0
    assert "vector path unavailable" in out
    assert "variant=scalar" in out
    assert "variant=vector" not in out


def test_bench_inputs_deterministic():
    a1 = cli._random_antidist(16, 8, np.random.default_rng(5))
    a2 = cli._random_antidist(16, 8, np.random.default_rng(5))
    assert a1 == a2


def test_bench_aborts_without_report_on_mismatch(capsys, monkeypatch):
    from semimat.cli import BenchReport

    results = [AntidistMatrix.zeros(2, 2, 8), AntidistMatrix.identity(2, 8)]

    def fake_run(op, size, width, seed):
        return results.pop(), BenchReport(op, size, width, "", 1.0, 1.0)

    monkeypatch.setattr(cli, "_bench_run", fake_run)
    code, out, err = run(capsys, "bench", "--op", "mul", "--size", "8")
    assert code == 1
    assert "variant=" not in out
    assert "differ" in err


def test_multiply_shipped_samples_against_oracle(capsys):
    from pathlib import Path

    from semimat import oracle

    samples = Path(__file__).resolve().parent.parent / "samples"
    a = matio.load(samples / "a4.antidist")
    b = matio.load(samples / "b4.antidist")
    code, out, _ = run(capsys, "multiply", str(samples / "a4.antidist"), str(samples / "b4.antidist"))
    assert code == 0
    got = matio.parse_text(out)
    assert got.to_lists() == oracle.naive_antidist_mul(a.to_lists(), b.to_lists(), 255)


def test_multiply_dist_files_uses_min_plus(tmp_path, capsys):
    from semimat.antidist import DistMatrix

    a = DistMatrix.from_edges(3, [(0, 1, 3)], 8)
    b = DistMatrix.from_edges(3, [(1, 2, 4)], 8)
    fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
    matio.save(a, fa)
    matio.save(b, fb)
    code, out, _ = run(capsys, "multiply", str(fa), str(fb))
    assert code == 0
    assert matio.parse_text(out).get(0, 2) == 7


def test_missing_file_is_an_error(capsys):
    code, _, err = run(capsys, "closure", "/nonexistent/graph.txt", "--bool")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("text", ["bool 0 3\n", "bool 1 2\n01\n11\n"])
def test_malformed_matrix_file_is_an_error(tmp_path, capsys, text):
    src = tmp_path / "m.txt"
    src.write_text(text)
    code, _, err = run(capsys, "convert", str(src), str(tmp_path / "m.mat"), "--to", "binary")
    assert code == 1
    assert err.startswith("semimat: error:")
    assert not (tmp_path / "m.mat").exists()


@pytest.mark.parametrize("flags", [["--bool"], ["--width", "8"]])
def test_closure_too_large_to_allocate_is_an_error(tmp_path, capsys, flags):
    g = tmp_path / "g.txt"
    g.write_text("p 3000000000\n0 1\n")
    code, out, err = run(capsys, "closure", str(g), *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("semimat: error:")
    assert "Traceback" not in err
