#!/usr/bin/env python3
"""Steadiness self-check: run workloads several times and compare each
end-to-end metric's run-to-run spread with its bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs N] [--first-seed S] [--workload W]...
                                [--out FILE]

Run from the repository root. Each run uses its own seed (S, S+1, ...).
The spread of a metric is the distance between the first and third
quartile of its values (statistics.quantiles, n=4) as a share of their
median. A metric is steady when its spread stays below a third of its
bound. Exits non-zero if a run fails, reports failed operations, or a
metric's spread is not within its bound. The spread of each run's host
reference loop (code of no layer under test) is printed beside them: when
it is wide too, the host's speed moved between runs.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    r = json.loads(out.stdout.strip().splitlines()[-1])
    r["wall_s"] = time.monotonic() - t0
    host = re.search(r"^host: reference loop ([0-9.]+) ms", out.stdout, re.M)
    r["host_ms"] = float(host.group(1)) if host else None
    return r


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out", help="also write every raw result here (JSON)")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    raw = {}
    ok = True
    for w in workloads:
        results = []
        for i in range(a.runs):
            r = run_once(bench, w, a.first_seed + i)
            results.append(r)
            if not r["correct"] or r["failed"]:
                ok = False
                print("%s seed %d: %d of %d operations failed"
                      % (w, a.first_seed + i, r["failed"], r["attempted"]))
        raw[w] = results
        print("%s: %d runs, longest %.1f s" % (w, a.runs, max(r["wall_s"] for r in results)))
        print("  %-22s %14s %8s %8s  %s" % ("metric", "median", "spread", "bound", ""))
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            s, med = spread(vals)
            if s < m["bound"] / 3:
                verdict = "steady"
            elif s < m["bound"]:
                verdict = "within bound"
            else:
                verdict = "NOISY"
                ok = False
            print("  %-22s %14.6g %7.1f%% %7.1f%%  %s"
                  % (m["name"], med, 100 * s, 100 * m["bound"], verdict))
        hosts = [r["host_ms"] for r in results if r["host_ms"] is not None]
        if len(hosts) == len(results) > 1:
            s, med = spread(hosts)
            print("  %-22s %14.6g %7.1f%%  (the host's speed; not a metric)"
                  % ("host reference ms", med, 100 * s))
        sys.stdout.flush()
        if a.out:
            with open(a.out, "w") as f:
                json.dump(raw, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
