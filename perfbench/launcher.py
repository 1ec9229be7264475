"""Spawns and times the benchmark's CLI jobs from a small process.

Linux starts a child's peak-RSS record (``ru_maxrss``) at the peak RSS of the
process that spawned it, so a job spawned by the benchmark process itself
would report the benchmark's memory rather than its own. This process stays
small and spawns every job instead.

Protocol: one JSON object per line on stdin with the keys ``argv``, ``cwd``,
``env``, ``stderr`` (a file path) and ``timeout`` (seconds, after which the
job is killed). For each, one JSON line on stdout with the job's ``seconds``
from spawn to exit, its ``rss_mb`` and its ``returncode``.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, cwd, env, stderr, timeout) -> dict:
    with open(stderr, "wb") as error:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=error,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "rss_mb": usage.ru_maxrss / 1024, "returncode": proc.returncode}


def main():
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
