#!/usr/bin/env python3
"""qqinv benchmark: run one workload, gate its outputs, print its metrics.

    python3 perfbench/run.py --workload molien|positivity|selftest \\
        --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this one and must
hold ``src/qqinv``.  The run and every process it starts are pinned to one
CPU; the timings of an untraced run are normalised by the CPU speed that a
sampler measures on that CPU alongside them (see speed.py).  With
``--trace 0`` the end-to-end metrics are printed, with ``--trace 1`` the
per-layer ones (see perfbench/README.md).  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with the machine and provenance block, is
written to ``.qqbench/results/`` in the checkout.  Exits 1 without a result
line when the program cannot be set up or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SAMPLER = os.path.join(HERE, "speed.py")

WORKLOADS = ("molien", "positivity", "selftest")
#: worker processes started per untraced run, half of the set-up-only ones
#: before the measuring worker and half after; setup_s is their median
SETUP_REPEATS = 9
#: wall-clock budget of one run, including set-up
RUN_LIMIT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_reuse")):
        return "ratio"
    if name.endswith("_mb_max"):
        return "MB"
    return "count"


def spawn(args, mode: str, deadline: float, extra=()) -> tuple[int, int, str]:
    """Start one worker; return the ns of its start and of its READY line,
    and the rest of its stdout."""
    cmd = [sys.executable, WORKER, args.workload, str(args.seed),
           str(args.seconds), str(args.trace), mode, *extra]
    start = time.perf_counter_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        ready_ns = time.perf_counter_ns()
        if ready.strip() != "READY":
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
            raise BenchError(f"worker did not set up (exit {proc.returncode})")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return start, ready_ns, rest


def traced(args, deadline: float) -> tuple[dict, dict]:
    summary = json.loads(spawn(args, "run", deadline)[2].strip().splitlines()[-1])
    return {k: (v, layer_unit(k)) for k, v in summary.pop("per_layer").items()}, summary


def untraced(args, deadline: float, speed_path: str) -> tuple[dict, dict]:
    """Set-up samples bracketing the measuring worker; set-up and op times
    normalised by the sampled CPU speed."""
    around = SETUP_REPEATS // 2
    intervals = [spawn(args, "setup", deadline)[:2] for _ in range(around)]
    start, ready, out = spawn(args, "run", deadline, (speed_path,))
    intervals.append((start, ready))
    intervals += [spawn(args, "setup", deadline)[:2] for _ in range(around)]
    summary = json.loads(out.strip().splitlines()[-1])
    cpu = speed.Speed(speed_path)
    raw = [(ready - start) / 1e9 for start, ready in intervals]
    summary["setup_samples_s"] = [s * cpu.scale(start, ready)
                                  for s, (start, ready) in zip(raw, intervals)]
    summary["setup_s"] = statistics.median(summary["setup_samples_s"])
    summary["raw"]["setup_s"] = statistics.median(raw)
    return {k: (summary[k], unit) for k, unit in END_TO_END_UNITS.items()}, summary


def measure(args) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.trace:
        metrics, summary = traced(args, deadline)
    else:
        tmp = os.path.join(ROOT, ".qqbench", "tmp")
        os.makedirs(tmp, exist_ok=True)
        speed_path = os.path.join(tmp, f"speed-{os.getpid()}.txt")
        sampler = subprocess.Popen([sys.executable, SAMPLER, speed_path], cwd=ROOT,
                                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        try:
            speed.wait_for_samples(speed_path, speed.SMOOTH, 60)
            metrics, summary = untraced(args, deadline, speed_path)
        except TimeoutError as exc:
            raise BenchError(str(exc)) from None
        finally:
            sampler.terminate()
            sampler.wait()
            if os.path.exists(speed_path):
                os.remove(speed_path)
    return {"summary": summary,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its worker and sampler (the finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not os.path.isfile(os.path.join(ROOT, "src", "qqinv", "__init__.py")):
        print(f"run.py: no src/qqinv under {ROOT}", file=sys.stderr)
        return 1
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    import machine

    summary = result["summary"]
    line = {"correct": summary["hard_failures"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": result["metrics"]}
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, **line, "report": summary,
           "machine": machine.provenance(ROOT, args.seed)}
    results = os.path.join(ROOT, ".qqbench", "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  ops {summary['samples']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_ratio':<48} {summary['failed'] / summary['attempted']:>14.6g} "
          f"({summary['failed']}/{summary['attempted']})")
    print(f"  {'known_defect (near-boundary verdicts)':<48} {summary['known_defect']:>14d}")
    print(f"result file {os.path.relpath(path, ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
