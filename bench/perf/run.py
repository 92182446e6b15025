#!/usr/bin/env python3
"""Build perf_report and run the benchmark's workloads (see README.md).

    run.sh                                  every workload, end-to-end metrics
    run.sh --trace 1                        every workload, per-layer metrics
    run.sh --workload NAME [--seed N] [--seconds T] [--trace 0|1]

With --workload, the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; metrics holds the metrics that
BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer for
--trace 1). Every metric perf_report measured is printed above it, and its
full report (environment, digests, every metric) is written to
bench/perf/out/<workload>.json, or into --save DIR under a unique name.

The exit code is 0 only when the build succeeded, every seed passed the
exactly-once oracle and every listed metric has a value.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(HERE, ".build")
OUT = os.path.join(HERE, "out")
BINARY = os.path.join(BUILD, "perf_report")
# Each run must end within 180 s; leave room for the build check and output.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build perf_report; False on failure."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured for another checkout cannot be reused.
        with open(cache) as f:
            if "CMAKE_CACHEFILE_DIR:INTERNAL=%s\n" % BUILD not in f.read():
                shutil.rmtree(BUILD)
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "perf_report", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(name, seed, seconds, trace, deadline):
    """Runs perf_report once; returns its report, or None."""
    cmd = [BINARY, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", OUT]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perf_report %s: timed out" % name)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perf_report %s: no report (exit %d)" % (name, proc.returncode))
        return None
    for problem in report["problems"]:
        log("%s: %s" % (name, problem))
    return report


def result_line(report, listed):
    """The result line, or None when a listed metric is missing."""
    metrics = {}
    for spec in listed:
        m = report["metrics"].get(spec["name"])
        if m is None or m["value"] is None or m["unit"] != spec["unit"]:
            log("%s: metric %s missing, null or not in %s" %
                (report["workload"], spec["name"], spec["unit"]))
            return None
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def save(report, save_dir):
    os.makedirs(OUT, exist_ok=True)
    suffix = ".traced" if report["trace"] else ""
    paths = [os.path.join(OUT, report["workload"] + suffix + ".json")]
    if save_dir:
        os.makedirs(save_dir, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        paths.append(os.path.join(save_dir, "%s-seed%d%s-%s-%d.json" % (
            report["workload"], report["seed"], suffix, stamp, os.getpid())))
    for path in paths:
        with open(path, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--save", metavar="DIR",
                        help="also keep each full report in DIR")
    args = parser.parse_args()
    trace = args.trace

    if not build():
        log("build failed")
        return 1
    deadline = time.monotonic() + RUN_TIMEOUT_S
    sha = git_sha()
    listed = bench["per_layer"] if trace else bench["end_to_end"]

    if args.workload:
        report = run_workload(args.workload, args.seed, args.seconds, trace,
                              deadline)
        if report is None:
            return 1
        report["env"]["git_sha"] = sha
        save(report, args.save)
        line = result_line(report, listed)
        if line is None:
            return 1
        print(json.dumps(line))
        return 0 if report["correct"] else 1

    # Every workload, one process each, one after another.
    summary = {}
    for name in names:
        report = run_workload(name, args.seed, args.seconds, trace,
                              time.monotonic() + RUN_TIMEOUT_S)
        if report is None:
            summary[name] = {"correct": False}
            continue
        report["env"]["git_sha"] = sha
        save(report, args.save)
        summary[name] = {k: report[k] for k in
                         ("correct", "fingerprint", "input_digest")}
    correct = all(s["correct"] for s in summary.values())
    print(json.dumps({"correct": correct, "workloads": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
