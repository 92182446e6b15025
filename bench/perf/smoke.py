#!/usr/bin/env python3
"""Smoke test of perf_report: `smoke.py PATH/TO/perf_report`.

Runs `perf_report --smoke` (one short seed of every workload, untraced and
traced) and checks that it printed one parseable JSON report per workload
and mode, that every seed passed the oracle, and that every metric carries
a unit.
"""
import json
import subprocess
import sys


def main():
    proc = subprocess.run([sys.argv[1], "--smoke"], capture_output=True,
                          text=True, timeout=120)
    sys.stderr.write(proc.stderr)
    reports = [json.loads(line) for line in proc.stdout.splitlines()]
    modes = {(r["workload"], r["trace"]) for r in reports}
    names = {r["workload"] for r in reports}
    problems = []
    if not reports or len(modes) != len(reports) or \
            modes != {(w, t) for w in names for t in (0, 1)}:
        problems.append("expected one report per workload and mode, got %s"
                        % sorted(modes))
    for r in reports:
        where = "%s trace=%d" % (r["workload"], r["trace"])
        if not r["correct"]:
            problems.append("%s: not correct: %s" % (where, r["problems"]))
        for name, m in r["metrics"].items():
            if not m.get("unit"):
                problems.append("%s: metric %s has no unit" % (where, name))
    if proc.returncode != 0:
        problems.append("perf_report --smoke exited %d" % proc.returncode)
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke: %d reports, %s" % (len(reports),
                                     "FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
