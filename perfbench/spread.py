#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads molien ...] [--seeds 1 2 ...]
                                [--trace 0|1] [--out FILE]

For every workload and end-to-end metric this prints the median and the
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in BENCHMARK.json.  With ``--out`` the values, medians,
spreads and the machine block of the first run go to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    path = os.path.join(ROOT, ".qqbench", "results",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        docs = [run_once(workload, s, bench["run_seconds"], args.trace)
                for s in args.seeds]
        rows = {}
        for name in docs[0]["metrics"]:
            values = [d["metrics"][name]["value"] for d in docs]
            median = statistics.median(values)
            spread = None
            if len(values) > 1 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
            rows[name] = {"unit": docs[0]["metrics"][name]["unit"],
                          "values": values, "median": median, "spread": spread,
                          "bound": bounds.get(name)}
            if args.trace == 0:
                shown = "n/a" if spread is None else f"{spread:.4f}"
                print(f"{workload:<11} {name:<12} median {median:12.6g} "
                      f"spread {shown}  bound {bounds.get(name)}")
        report["workloads"][workload] = {
            "metrics": rows,
            "attempted": [d["attempted"] for d in docs],
            "failed": [d["failed"] for d in docs],
            "known_defect": [d["report"]["known_defect"] for d in docs],
            "correct": [d["correct"] for d in docs],
            "machine": docs[0]["machine"],
        }
        print(f"{workload:<11} failed {report['workloads'][workload]['failed']} "
              f"of {report['workloads'][workload]['attempted']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
