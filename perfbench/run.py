#!/usr/bin/env python3
"""End-to-end benchmark of the semimat CLI, with a traced per-layer split.

    python3 perfbench/run.py --workload apsp-dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Load model: a closed loop with one client. A job is a fresh
``python -m semimat.cli`` process, with the checkout's ``src`` on PYTHONPATH,
that reads the workload's input files and writes its output with ``-o``. It
is timed from spawn to exit, because CLI users pay interpreter start-up and
imports on every call. Jobs run one at a time within ``--seconds``.
Outputs are checked afterwards, outside the timed region.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
command in this process, as a warm-up, untraced and with layer spans, and
reports the per-layer metrics. ``--workload all`` runs every workload in
turn and ``--scale tiny`` shrinks every input for a smoke run. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import LAYERS, Tracer
from workloads import WORKLOADS, CheckError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUPS = 3  # set-ups per run; setup_s is their median
STARTUP_RUNS = 3  # fresh interpreters timed for cli.startup_s
JOB_TIMEOUT_S = 60  # keeps a run under three minutes even when a job hangs

END_TO_END = {"setup_s": "s", "job_s.p50": "s", "updates_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.startup_s": "s",
    **{f"{layer}_s": "s" for layer in LAYERS},
    "graphio.edges_per_s": "1/s",
    "antidist.closure_updates_per_s": "1/s",
    "antidist.mul_updates_per_s": "1/s",
    "antidist.reach_frac": "frac",
    "boolmat.reach_frac": "frac",
    "matio.text_mb_per_s": "MB/s",
    "kernels.scalar_updates_per_s": "1/s",
    "kernels.vector_scalar_speedup": "ratio",
    "trace.coverage": "frac",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot measure the program as it stands."""


@dataclass
class Job:
    seconds: float
    rss_mb: float
    returncode: int
    output: bytes | None
    error: str


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def _cache_sizes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction" and level in ("2", "3"):
            sizes[f"l{level}"] = size
    return sizes


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    from semimat import kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        **_cache_sizes(),
        "use_vector": kernels.use_vector(),
        kernels.FORCE_SCALAR_ENV: os.environ.get(kernels.FORCE_SCALAR_ENV),
    }


def import_checkout_semimat():
    """Import semimat from this checkout's ``src``, or raise BenchError."""
    if not (SRC / "semimat" / "cli.py").is_file():
        raise BenchError(f"no semimat sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import semimat

    if Path(semimat.__file__).resolve().parent != SRC / "semimat":
        raise BenchError(f"semimat was imported from {semimat.__file__}, not from {SRC}")


def _job_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """The small process that spawns and times every CLI job; see launcher.py."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait()

    def run(self, argv, output: Path) -> Job:
        """One CLI process, timed from spawn to exit, with its peak RSS."""
        output.unlink(missing_ok=True)
        error = output.with_name("stderr.txt")
        request = {
            "argv": [sys.executable, "-m", "semimat.cli", *argv],
            "cwd": str(ROOT),
            "env": _job_env(),
            "stderr": str(error),
            "timeout": JOB_TIMEOUT_S,
        }
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise BenchError("the job launcher exited")
        reply = json.loads(reply)
        return Job(
            reply["seconds"],
            reply["rss_mb"],
            reply["returncode"],
            output.read_bytes() if output.exists() else None,
            error.read_text(errors="replace").strip(),
        )


def verify(jobs, instance) -> tuple[list[bool], dict]:
    """Per job: exited 0 with output identical to the first, which passed the check.

    The program is deterministic, so the first output is checked against the
    workload's reference and every later one must match it byte for byte.
    """
    verdicts, props, first = [], {}, None
    for job in jobs:
        if job.returncode != 0 or job.output is None:
            verdicts.append(False)
            continue
        digest = hashlib.sha256(job.output).digest()
        if first is None:
            try:
                props = instance.check(job.output)
                first = (digest, True)
            except CheckError as exc:
                print(f"perfbench check failed: {exc}", file=sys.stderr)
                first = (digest, False)
        verdicts.append(first[1] and digest == first[0])
    return verdicts, props


def compare_paths(instance, directory) -> tuple[bool, float, float]:
    """Run the check instance in process on the vector and the forced-scalar path.

    Returns whether both outputs agree bit for bit and pass the check, and
    the compute layers' self time on each path.
    """
    from semimat import cli, kernels

    argv, output = instance.argv(directory), directory / instance.output
    outputs, seconds = {}, {}
    for name, forced in (("vector", kernels.forced_vector), ("scalar", kernels.forced_scalar)):
        output.unlink(missing_ok=True)
        tracer = Tracer()
        with forced(), tracer.patched():
            code = cli.main(argv)
        outputs[name] = output.read_bytes() if code == 0 and output.exists() else None
        seconds[name] = tracer.compute_seconds()
    ok = outputs["vector"] is not None and outputs["vector"] == outputs["scalar"]
    if ok:
        try:
            instance.check(outputs["vector"])
        except CheckError as exc:
            print(f"perfbench check failed on the check instance: {exc}", file=sys.stderr)
            ok = False
    else:
        print("perfbench check failed: scalar and vector paths disagree", file=sys.stderr)
    return ok, seconds["scalar"], seconds["vector"]


def set_up(workload, seed, scale, directory, launcher):
    """Generate and write both instances, then run one untimed warm-up job.

    The warm-up runs the workload's command on the check instance, which
    fills the page cache and the bytecode cache as a full job would.
    """
    main, check = workload.instances(seed, scale)
    main.write(directory / "main")
    check.write(directory / "check")
    warm = launcher.run(check.argv(directory / "check"), directory / "check" / check.output)
    if warm.returncode != 0:
        raise BenchError(f"warm-up job exited {warm.returncode}: {warm.error}")
    return main, check


def _metrics(values, units):
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def end_to_end(workload, seed, seconds, scale, directory) -> tuple[dict, dict]:
    """Set up SETUPS times, run jobs for ``seconds``, then check every output.

    A job starts only while it is expected, from the median so far, to end
    within ``seconds``; the first job always runs.
    """
    setups, jobs = [], []
    with Launcher() as launcher:
        for _ in range(SETUPS):
            start = time.perf_counter()
            main, check = set_up(workload, seed, scale, directory, launcher)
            setups.append(time.perf_counter() - start)

        main_dir = directory / "main"
        argv, output = main.argv(main_dir), main_dir / main.output
        start = time.perf_counter()
        while not jobs or (
            time.perf_counter() - start + statistics.median(j.seconds for j in jobs) <= seconds
        ):
            jobs.append(launcher.run(argv, output))

    verdicts, props = verify(jobs, main)
    paths_agree = compare_paths(check, directory / "check")[0]
    failed = sum(not (ok and paths_agree) for ok in verdicts)
    for job in jobs:
        if job.returncode != 0:
            print(f"perfbench job exited {job.returncode}: {job.error}", file=sys.stderr)
    walls = [job.seconds for job in jobs]
    values = {
        "setup_s": statistics.median(setups),
        "job_s.p50": statistics.median(walls),
        "updates_per_s": main.updates * len(jobs) / sum(walls),
        "peak_rss_mb": max(job.rss_mb for job in jobs),
    }
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": _metrics(values, END_TO_END),
    }
    return result, {**main.props, **props, "jobs": len(jobs), "fail_frac": failed / len(jobs)}


def _startup_seconds():
    walls = []
    for _ in range(STARTUP_RUNS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import semimat.cli"],
            cwd=ROOT, env=_job_env(), check=True,
        )
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def per_layer(workload, seed, scale, directory) -> tuple[dict, dict]:
    """Time the workload's command in process: a warm-up, untraced, then traced."""
    from semimat import cli

    main, check = workload.instances(seed, scale)
    main_dir = directory / "main"
    main.write(main_dir)
    check.write(directory / "check")
    argv, output = main.argv(main_dir), main_dir / main.output

    values = {"cli.startup_s": _startup_seconds()}
    paths_agree, scalar_s, vector_s = compare_paths(check, directory / "check")
    values["kernels.scalar_updates_per_s"] = _rate(check.updates, scalar_s)
    values["kernels.vector_scalar_speedup"] = _rate(scalar_s, vector_s)

    codes, outputs = [], []

    def untraced():
        output.unlink(missing_ok=True)
        start = time.perf_counter()
        codes.append(cli.main(argv))
        seconds = time.perf_counter() - start
        outputs.append(output.read_bytes() if output.exists() else None)
        return seconds

    untraced()  # warm-up: the first full-size call pays one-off costs
    untraced_s = untraced()
    output.unlink(missing_ok=True)
    tracer = Tracer()
    with tracer.patched(), tracer.span("job") as job:
        codes.append(cli.main(argv))
    outputs.append(output.read_bytes() if output.exists() else None)

    jobs = [Job(0.0, 0.0, code, out, "") for code, out in zip(codes, outputs)]
    verdicts, props = verify(jobs, main)
    failed = sum(not (ok and paths_agree) for ok in verdicts)

    for layer in LAYERS:
        values[f"{layer}_s"] = tracer.self_seconds(layer)
    text_bytes = tracer.count("matio.parse_text") + tracer.count("matio.format_text")
    text_s = values["matio.parse_text_s"] + values["matio.format_text_s"]
    values.update({
        "graphio.edges_per_s": _rate(
            tracer.count("graphio.parse_edge_list"), values["graphio.parse_edge_list_s"]
        ),
        "antidist.closure_updates_per_s": _rate(main.updates, values["antidist.closure_s"]),
        "antidist.mul_updates_per_s": _rate(main.updates, values["antidist.mul_s"]),
        "antidist.reach_frac": props.get("antidist.reach_frac", 0.0),
        "boolmat.reach_frac": props.get("boolmat.reach_frac", 0.0),
        "matio.text_mb_per_s": _rate(text_bytes / 1e6, text_s),
        "trace.coverage": tracer.coverage(job),
        "trace.overhead_s": job.seconds - untraced_s,
    })
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": _metrics(values, PER_LAYER),
    }
    return result, {**main.props, **props, "fail_frac": failed / len(jobs)}


def run_workload(name, seed, seconds, trace, scale="full") -> dict:
    """One workload's result object; its inputs and metrics are printed on the way."""
    directory = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        if trace:
            result, props = per_layer(WORKLOADS[name], seed, scale, directory)
        else:
            result, props = end_to_end(WORKLOADS[name], seed, seconds, scale, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(f"perfbench {name} inputs {json.dumps(props, sort_keys=True)}")
    for metric, entry in result["metrics"].items():
        print(f"perfbench {name} {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"perfbench {name} fail_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} jobs)")
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: every input shrunk to n=16, a smoke run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_checkout_semimat()
        env = environment()
        print(f"perfbench env {json.dumps(env, sort_keys=True)}")
        if not env["use_vector"]:
            raise BenchError(
                "the vector path is not selected, so the timings would measure "
                "another program; unset SEMIMAT_FORCE_SCALAR"
            )
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {
            name: run_workload(name, args.seed, args.seconds, args.trace, args.scale)
            for name in names
        }
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
