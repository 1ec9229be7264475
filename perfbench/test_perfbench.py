"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench
"""

import json

import pytest

import run
from workloads import WORKLOADS

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Spans each workload's traced job must record, with nonzero self time.
SPANS = {
    "apsp-dense": ["graphio.parse_edge_list", "graphio.adjacency", "antidist.closure",
                   "matio.save", "matio.to_binary"],
    "apsp-clustered": ["graphio.parse_edge_list", "graphio.adjacency",
                       "antidist.dist_closure", "matio.save", "matio.to_binary"],
    "multiply-text": ["matio.load", "matio.parse_text", "antidist.mul", "matio.save",
                      "matio.format_text"],
    "reach-bool": ["graphio.parse_edge_list", "graphio.adjacency", "boolmat.closure",
                   "boolmat.reflexive", "matio.save", "matio.format_text"],
}


@pytest.fixture(scope="module", autouse=True)
def checkout_semimat():
    run.import_checkout_semimat()


def _declared(trace):
    return {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_checks_and_reports_every_metric(name, trace):
    result = run.run_workload(name, seed=3, seconds=0.1, trace=trace, scale="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    assert units == _declared(trace)
    if trace:
        values = {metric: entry["value"] for metric, entry in result["metrics"].items()}
        assert all(values[f"{span}_s"] > 0 for span in SPANS[name])
        assert 0 < values["trace.coverage"] <= 1


def _flip_middle_byte(data):
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ 1]) + data[middle + 1:]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_output_counts_in_fail_frac(name, monkeypatch):
    launch = run.Launcher.run

    def corrupted(self, argv, output):
        job = launch(self, argv, output)
        job.output = _flip_middle_byte(job.output)
        return job

    monkeypatch.setattr(run.Launcher, "run", corrupted)
    result = run.run_workload(name, seed=5, seconds=0.1, trace=0, scale="tiny")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs(name):
    first, again, other = (WORKLOADS[name].instances(s, "tiny")[0] for s in (7, 7, 8))
    assert first.files == again.files
    assert first.files != other.files


def test_refuses_to_report_without_the_vector_path(monkeypatch, capsys):
    monkeypatch.setenv("SEMIMAT_FORCE_SCALAR", "1")
    args = ["--workload", "reach-bool", "--seed", "1", "--seconds", "0.1", "--trace", "0",
            "--scale", "tiny"]
    assert run.main(args) == 2
    captured = capsys.readouterr()
    assert "vector path is not selected" in captured.err
    assert '"correct"' not in captured.out


def test_refuses_to_run_without_sources(monkeypatch):
    monkeypatch.setattr(run, "SRC", run.WORK / "no-such-src")
    with pytest.raises(run.BenchError, match="no semimat sources"):
        run.import_checkout_semimat()
