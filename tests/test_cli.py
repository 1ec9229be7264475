import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import semimat
from semimat import antidist, cli, graphio, matio
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


def clusters_text(seed, clusters, size):
    """Edge list of ``clusters`` cycles of ``size`` vertices with chords, each
    joined one way to the next: a graph of many strongly connected parts."""
    rng = random.Random(seed)
    lines = [f"p {clusters * size}"]
    for c in range(clusters):
        members = range(c * size, (c + 1) * size)
        for u in members:
            lines.append(f"{u} {u + 1 if u + 1 < members.stop else members.start} {rng.randint(1, 9)}")
            lines.append(f"{u} {rng.choice(members)} {rng.randint(1, 9)}")
        if c + 1 < clusters:
            lines.append(f"{rng.choice(members)} {rng.randrange(members.stop, members.stop + size)} 4")
    return "\n".join(lines) + "\n"


def test_closure_imports_neither_numpy_ma_nor_scipy(tmp_path):
    """A fresh CLI process that plans and runs a distance closure loads no
    module that would add to every run's start-up."""
    g = tmp_path / "g.txt"
    g.write_text(clusters_text("imports", 4, 8))
    script = (
        "import sys\n"
        "from semimat import cli\n"
        f"code = cli.main(['closure', {str(g)!r}, '--dist', '--width', '16', '-o', {str(tmp_path / 'out')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(semimat.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout == "0 []\n", done.stderr


def test_closure_timings(tmp_path, capsys):
    """--timings prints one line per stage to stderr; the stages cover the
    command's run, and stdout and the output file are as without the flag."""
    g = tmp_path / "g.txt"
    g.write_text(clusters_text("timings", 16, 32))
    argv = ["closure", str(g), "--dist", "--width", "16"]
    code, plain, err = run(capsys, *argv)
    assert code == 0 and err == ""
    start = time.perf_counter()
    code = cli.main([*argv, "--timings"])
    wall = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 0 and captured.out == plain
    lines = captured.err.splitlines()
    assert [line.split()[1] for line in lines] == [
        "stage=parse", "stage=adjacency", "stage=closure", "stage=serialize"
    ]
    assert all(line.startswith("timing stage=") for line in lines)
    seconds = [float(line.split("seconds=")[1]) for line in lines]
    assert 0.95 * wall <= sum(seconds) <= wall
    for flags in ([], ["--timings"]):
        out = tmp_path / f"out{len(flags)}.bin"
        assert run(capsys, *argv, "--binary", "-o", str(out), *flags)[:2] == (0, "")
    assert (tmp_path / "out0.bin").read_bytes() == (tmp_path / "out1.bin").read_bytes()


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


def semimat_stdout(*argv):
    """The bytes a ``python -m semimat.cli`` process writes to stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(semimat.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "semimat.cli", *argv], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_stdout_text_is_written_in_slabs(tmp_path):
    """Text output spanning many slabs reaches stdout byte for byte as
    format_text gives it: an n=300 w32 product and a Boolean closure."""
    rng = np.random.default_rng(300)
    factors = [AntidistMatrix.from_lists(rng.integers(0, 2**32, (300, 300), dtype=np.uint32), 32) for _ in range(2)]
    for name, m in zip("ab", factors):
        matio.save(m, tmp_path / f"{name}.txt")
    product = factors[0] * factors[1]
    assert matio._rows_per_slab(product) < product.rows // 4
    out = semimat_stdout("multiply", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"))
    assert out == matio.format_text(product).encode()

    ends = rng.integers(0, 600, (900, 2))
    graph = tmp_path / "g.txt"
    graph.write_text("p 600\n" + "".join(f"{u} {v}\n" for u, v in ends.tolist()))
    closure = graphio.bool_adjacency(graphio.parse_edge_list(graph.read_text())).transitive_closure()
    assert matio._rows_per_slab(closure) < closure.rows // 4
    assert semimat_stdout("closure", str(graph), "--bool") == matio.format_text(closure).encode()


def timed_main(capsys, argv):
    """Run cli.main with --timings; returns its wall time, stdout and the
    (stage, seconds) pairs of its stderr, checked line by line."""
    start = time.perf_counter()
    code = cli.main([*argv, "--timings"])
    wall = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.err.splitlines()
    assert all(re.fullmatch(r"timing stage=[a-z_]+ seconds=[0-9.]+", line) for line in lines)
    stages = [(line.split()[1][len("stage="):], float(line.split("seconds=")[1])) for line in lines]
    return wall, captured.out, stages


def test_multiply_timings(tmp_path, capsys):
    """multiply --timings prints the load, product and serialize stages to
    stderr; they cover the command's run, and stdout is as without the flag."""
    rng = np.random.default_rng(5)
    for name in ("a.txt", "b.txt"):
        matio.save(AntidistMatrix.from_lists(rng.integers(0, 256, (400, 400)), 8), tmp_path / name)
    argv = ["multiply", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]
    code, plain, err = run(capsys, *argv)
    assert code == 0 and err == ""
    wall, out, stages = timed_main(capsys, argv)
    assert out == plain
    assert [name for name, _ in stages] == ["load_left", "load_right", "product", "serialize"]
    assert 0.95 * wall <= sum(seconds for _, seconds in stages) <= wall


def test_convert_timings(tmp_path, capsys):
    """convert --timings prints the load and save stages; they cover the
    command's run, and the output file is as without the flag."""
    rng = np.random.default_rng(6)
    matio.save(AntidistMatrix.from_lists(rng.integers(0, 65536, (600, 600)), 16), tmp_path / "m.txt")
    argv = ["convert", str(tmp_path / "m.txt")]
    assert run(capsys, *argv, str(tmp_path / "plain.bin"), "--to", "binary") == (0, "", "")
    wall, out, stages = timed_main(capsys, [*argv, str(tmp_path / "timed.bin"), "--to", "binary"])
    assert out == ""
    assert [name for name, _ in stages] == ["load", "save"]
    assert 0.95 * wall <= sum(seconds for _, seconds in stages) <= wall
    assert (tmp_path / "plain.bin").read_bytes() == (tmp_path / "timed.bin").read_bytes()


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


def test_bench_closure_is_planned_over_several_components(capsys, monkeypatch):
    """With tiles of 8 rows a 40-vertex bench closure is planned: its input
    has more than one strongly connected component, so the vector closure is
    relabelled and restored, and it still equals the scalar closure."""
    monkeypatch.setattr(antidist, "_TILE_BYTES", 8 * 40)
    calls = {"_components": [], "_permute": []}
    for name, made in calls.items():
        real = getattr(antidist, name)

        def spy(*args, real=real, made=made):
            made.append(real(*args))
            return made[-1]

        monkeypatch.setattr(antidist, name, spy)
    code, out, _ = run(capsys, "bench", "--op", "closure", "--size", "40", "--width", "8")
    assert code == 0
    assert "equality=ok" in out.splitlines()[-1]
    [component] = calls["_components"]
    assert component.max() > 0
    assert len(calls["_permute"]) == 2


def test_bench_json_records_runs_and_environment(tmp_path, capsys, monkeypatch):
    """--json writes the median and minimum of three vector runs, the
    scalar run, the equality verdict and the environment. With tiles of 8
    rows the 40-vertex closure is planned, and each vector run's component
    search finds more than one component."""
    monkeypatch.setattr(antidist, "_TILE_BYTES", 8 * 40)
    found = []
    real = antidist._components
    monkeypatch.setattr(antidist, "_components", lambda *args: found.append(real(*args)) or found[-1])
    path = tmp_path / "bench.json"
    code, out, _ = run(capsys, "bench", "--op", "closure", "--size", "40", "--width", "8", "--json", str(path))
    assert code == 0
    assert out.count("variant=vector") == 3 and "equality=ok" in out.splitlines()[-1]
    assert len(found) == 3 and all(component.max() > 0 for component in found)
    record = json.loads(path.read_text())
    assert {key: record[key] for key in ("op", "size", "width", "seed", "lane_updates")} == {
        "op": "closure", "size": 40, "width": 8, "seed": 0, "lane_updates": 40**3}
    runs = record["vector_s"]["runs"]
    assert len(runs) == 3 and record["vector_s"]["median"] == sorted(runs)[1] and record["vector_s"]["min"] == min(runs)
    assert record["scalar_s"] > 0 and record["equality"] == "ok"
    env = record["environment"]
    assert set(env) == {"python", "numpy", "cpu", "nproc", "path"}
    assert env["numpy"] == np.__version__ and env["path"] == "vector" and env["nproc"] >= 1 and env["cpu"]

    monkeypatch.setenv("SEMIMAT_FORCE_SCALAR", "1")
    assert run(capsys, "bench", "--op", "mul", "--size", "8", "--json", str(path))[0] == 0
    record = json.loads(path.read_text())
    assert record["vector_s"] is None and record["equality"] == "not compared"
    assert record["environment"]["path"] == "scalar"


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


def test_graph_file_that_is_not_utf8_is_a_graph_parse_error(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_bytes(b"p 2\n0 1\xff\n")
    code, out, err = run(capsys, "closure", str(src), "--bool")
    assert code == 1
    assert out == ""
    assert err == f"semimat: error: {src}: not utf-8 text (invalid start byte at offset 7)\n"
    with pytest.raises(graphio.GraphParseError, match="not utf-8 text"):
        cli._read_graph(src)


def test_graph_utf8_fault_comes_before_a_header_fault(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_bytes(b"q 2\n0 1\xff\n")
    code, out, err = run(capsys, "closure", str(src), "--bool")
    assert (code, out) == (1, "")
    assert err == f"semimat: error: {src}: not utf-8 text (invalid start byte at offset 7)\n"


def test_graph_file_with_non_ascii_comments(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("# caf\u00e9 \u2014 a cycle\np 3 # Zo\u00eb\n0 1\n1 2\n2 0 # \u00fc\n", encoding="utf-8")
    code, out, _ = run(capsys, "closure", str(src), "--bool")
    assert code == 0
    assert out == "bool 3 3\n111\n111\n111\n"


@pytest.mark.parametrize("text", ["bool 0 3\n", "bool 1 2\n01\n11\n", "antidist 8 100000 100000\n0 1\n"])
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


@pytest.mark.parametrize("flags, what", [([], "matrix of width 8"), (["--bool"], "Boolean matrix")])
def test_closure_of_a_count_numpy_cannot_address_is_an_error(tmp_path, capsys, flags, what):
    g = tmp_path / "g.txt"
    g.write_text("p 99999999999999999999\n0 1\n")
    code, out, err = run(capsys, "closure", str(g), *flags)
    assert code == 1
    assert out == ""
    shape = "99999999999999999999x99999999999999999999"
    assert re.fullmatch(f"semimat: error: a {shape} {what} needs \\d+ bytes, more than numpy can address\n", err)


def test_closure_out_of_memory_in_the_sweep_is_an_error(tmp_path, capsys, monkeypatch):
    def no_room(*args):
        raise MemoryError("no room for the tile")

    monkeypatch.setattr(antidist, "_sweep_rows", no_room)
    g = tmp_path / "g.txt"
    g.write_text(CHAIN)
    code, out, err = run(capsys, "closure", str(g), "-o", str(tmp_path / "m.txt"))
    assert code == 1
    assert out == ""
    assert err == "semimat: error: no room for the tile\n"
    assert not (tmp_path / "m.txt").exists()
