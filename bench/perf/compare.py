#!/usr/bin/env python3
"""Compare perf_report runs of a parent commit and a change (stdlib only).

    compare.py --parent P1.json ... P10.json --change C1.json ... C10.json
    compare.py --summary R1.json ... R5.json > baseline.json

The inputs are full reports as run.py writes them (bench/perf/out/ or
--save DIR). Pairs are formed per workload in the order given, so pass the
runs in the order they alternated: parent 1 with change 1, and so on.

The paired-run rule: with at least 10 pairs, a metric counts as a gain only
when the change wins at least 9 of every 10 pairs (ties count for neither
side) and the medians differ by more than the parent's interquartile range.
It counts as a regression when the change's median is worse than the
parent's by more than the metric's bound in BENCHMARK.json. When the
parent's own spread (IQR / median) exceeds that bound, the metric is
unresolved, unless every change run beats every parent run.

Refused: pairs whose input_digest differ (the workloads' inputs changed),
and runs whose build type or compiler differ. Each workload is its own row.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
MIN_PAIRS = 10


def load(paths):
    reports = []
    for path in paths:
        with open(path) as f:
            reports.append(json.load(f))
    return reports


def by_workload(reports):
    groups = {}
    for r in reports:
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    return groups


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def values(reports, name):
    out = [r["metrics"].get(name, {}).get("value") for r in reports]
    return None if any(v is None for v in out) else out


def summary(reports):
    """Medians and quartiles of every metric, per workload."""
    out = {}
    for (workload, trace), runs in sorted(by_workload(reports).items()):
        key = workload + (".traced" if trace else "")
        row = {"runs": len(runs),
               "seeds": sorted({r["seed"] for r in runs}),
               "fingerprints": sorted({r["fingerprint"] for r in runs}),
               "input_digests": sorted({r["input_digest"] for r in runs}),
               "env": {k: runs[0]["env"][k] for k in
                       ("git_sha", "build_type", "compiler", "nproc")
                       if k in runs[0]["env"]},
               "metrics": {}}
        for name, m in runs[0]["metrics"].items():
            vals = values(runs, name)
            if vals is None:
                row["metrics"][name] = {"median": None, "unit": m["unit"]}
                continue
            q1, med, q3 = quartiles(vals)
            row["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                    "unit": m["unit"]}
        out[key] = row
    return out


def refuse(msg):
    print("refused: " + msg, file=sys.stderr)
    sys.exit(2)


def verdict(spec, parent, change):
    """The paired-run verdict for one metric on one workload."""
    if parent == change:
        return "same"
    if spec is None:
        return "differs"
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    better = spec["better"]
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    bound = spec.get("bound")
    spread = (pq3 - pq1) / abs(pmed) if pmed else 0.0
    worse = sign * (pmed - cmed) / abs(pmed) if pmed else 0.0
    all_better = (min(change) > max(parent)) if sign > 0 else \
                 (max(change) < min(parent))
    if bound is not None and spread > bound and not all_better:
        return "unresolved (parent spread %.3f > bound %.3f)" % (spread, bound)
    if (len(parent) >= MIN_PAIRS and wins * 10 >= 9 * len(parent) and
            sign * (cmed - pmed) > pq3 - pq1):
        return "gain (%d/%d pairs)" % (wins, len(parent))
    if bound is None:
        return "no gain (%d/%d pairs)" % (wins, len(parent))
    if worse > bound:
        return "regression (%.1f%% worse, bound %.0f%%)" % (100 * worse,
                                                             100 * bound)
    return "no gain (%d/%d pairs), within bound" % (wins, len(parent))


def compare(parents, changes):
    specs = metric_specs()
    envs = {(r["env"]["build_type"], r["env"]["compiler"])
            for r in parents + changes}
    if len(envs) > 1:
        refuse("build type or compiler differ: %s" % sorted(envs))
    pg, cg = by_workload(parents), by_workload(changes)
    if set(pg) != set(cg):
        refuse("parent and change ran different workloads")
    for key in sorted(pg):
        p_runs, c_runs = pg[key], cg[key]
        if len(p_runs) != len(c_runs):
            refuse("%s: %d parent runs but %d change runs" %
                   (key[0], len(p_runs), len(c_runs)))
        for p, c in zip(p_runs, c_runs):
            if p["input_digest"] != c["input_digest"]:
                refuse("%s seed %d: input_digest %s != %s" %
                       (key[0], p["seed"], p["input_digest"],
                        c["input_digest"]))
        same_fp = sum(p["fingerprint"] == c["fingerprint"]
                      for p, c in zip(p_runs, c_runs))
        print("%s%s: %d pairs, fingerprints identical in %d%s" % (
            key[0], " (traced)" if key[1] else "", len(p_runs), same_fp,
            "" if len(p_runs) >= MIN_PAIRS else
            "  [fewer than %d pairs: no gain can be claimed]" % MIN_PAIRS))
        for name, m in p_runs[0]["metrics"].items():
            pv, cv = values(p_runs, name), values(c_runs, name)
            if pv is None or cv is None:
                continue
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            print("  %-26s %-8s parent %.6g [%.6g, %.6g]  change %.6g "
                  "[%.6g, %.6g]  %s" % (name, m["unit"], pmed, pq1, pq3, cmed,
                                         cq1, cq3,
                                         verdict(specs.get(name), pv, cv)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", metavar="REPORT")
    parser.add_argument("--change", nargs="+", metavar="REPORT")
    parser.add_argument("--summary", nargs="+", metavar="REPORT")
    args = parser.parse_args()
    if args.summary:
        json.dump(summary(load(args.summary)), sys.stdout, indent=1)
        print()
        return 0
    if not args.parent or not args.change:
        parser.error("give --parent and --change reports, or --summary")
    compare(load(args.parent), load(args.change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
