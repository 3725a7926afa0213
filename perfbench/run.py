#!/usr/bin/env python3
"""Build the system from source, then run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The last line of stdout is the result
object (see WORKLOADS.md). The measurement itself is perfbench/bench.ml;
this wrapper builds it and the `scaf_eval` daemon with dune, runs it in its
own process group and makes sure nothing it started outlives it.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
WORKDIR = ".perfbench"
BENCH_EXE = "_build/default/perfbench/bench.exe"
DAEMON_EXE = "_build/default/bin/scaf_eval.exe"
GOLDEN = "perfbench/golden/fig8.txt"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(need):
            fail("no %s here: run from the root of a full checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/bench.exe", "./bin/scaf_eval.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (dune exit %d)" % r.returncode)


def run(cmd):
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        # the daemon shares the benchmark's process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        fail("--workload is required")
    build()
    if a.selftest:
        sys.exit(run([BENCH_EXE, "--selftest", "--golden", GOLDEN]))
    os.makedirs(WORKDIR, exist_ok=True)
    sys.exit(run([BENCH_EXE, "--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", str(a.seconds), "--trace", str(a.trace),
                  "--daemon", DAEMON_EXE, "--golden", GOLDEN,
                  "--workdir", WORKDIR]))


if __name__ == "__main__":
    main()
