"""Closed-loop op runner with one client, and the traced replay.

Untraced run: cycle through the generated ops until ``seconds`` have
passed, finishing the op in flight; op times are reported as measured
(``raw``) and normalised by the CPU speed sampled alongside them
(``speed.py``), which the end-to-end metrics use.  Traced run: take the first
``TRACE_OPS[workload]`` ops, run them untraced, then again with every
public qqinv function wrapped; the trace is written to
``.qqbench/traces`` and summarised as per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
import traceback
from array import array
from collections import Counter

import spans
import workloads as wl
from speed import PERIOD_S, Speed

GENERATORS = {"molien": wl.molien_ops, "positivity": wl.positivity_ops,
              "selftest": wl.selftest_ops}


def _in_process(call, gate):
    def execute(op):
        latency, out = call(op)
        return latency, *gate(op, out)
    return execute


def _selftest(root, spans_dir=None, docs=None):
    """Executor of cold selftest children; with ``spans_dir`` the children
    are traced and their span dumps are appended to ``docs``."""
    def execute(op, op_id=0):
        if spans_dir is None:
            latency, proc = wl.selftest_call(root)
        else:
            path = os.path.join(spans_dir, f"child-{os.getpid()}-{op_id}.json")
            latency, proc = wl.selftest_call(root, path, op_id)
            with open(path, encoding="utf-8") as fh:
                docs.append(json.load(fh))
            os.remove(path)
        return latency, *wl.selftest_gate(proc)
    return execute


def executor(workload: str, root: str):
    if workload == "molien":
        return _in_process(wl.molien_call, wl.molien_gate)
    if workload == "positivity":
        return _in_process(wl.positivity_call, wl.positivity_gate)
    return _selftest(root)


def guarded(execute, op, *extra) -> tuple:
    """One op record: (stratum, latency_ns, attempted, failed, hard,
    known_defect).  An exception is a hard failure of the op; its traceback
    goes to stderr."""
    start = time.perf_counter_ns()
    try:
        return (op.stratum, *execute(op, *extra))
    except Exception:
        traceback.print_exc()
        return op.stratum, time.perf_counter_ns() - start, 1, 1, True, 0


class Tally:
    """Op records kept compact, so that a longer run barely raises the
    worker's peak RSS: latency and stratum per op, counts per stratum."""

    def __init__(self):
        self.strata: list[str] = []
        self._ids: dict[str, int] = {}
        self.stratum_ids = array("H")
        self.start_ns = array("q")
        self.latency_ns = array("q")
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.known_defect: Counter = Counter()
        self.hard = 0

    def add(self, record: tuple, start_ns: int = 0) -> None:
        stratum, latency, attempted, failed, hard, known_defect = record
        if stratum not in self._ids:
            self._ids[stratum] = len(self.strata)
            self.strata.append(stratum)
        self.stratum_ids.append(self._ids[stratum])
        self.start_ns.append(start_ns)
        self.latency_ns.append(latency)
        self.attempted[stratum] += attempted
        self.failed[stratum] += failed
        self.known_defect[stratum] += known_defect
        self.hard += hard

    def totals(self) -> dict:
        return {"attempted": sum(self.attempted.values()),
                "failed": sum(self.failed.values()), "hard_failures": self.hard,
                "known_defect": sum(self.known_defect.values())}


def closed_loop(ops, execute, seconds: float) -> Tally:
    tally = Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        start = time.perf_counter_ns()
        tally.add(guarded(execute, ops[i % len(ops)]), start)
        i += 1
        if time.perf_counter() >= deadline:
            return tally


def timings(tally: Tally, ms: list[float], shares: dict[str, float]) -> dict:
    """Latency percentiles over all ops, and ops_per_s at the stated mix:
    1 / sum over strata of share * mean latency (shares renormalised over
    the strata the run reached)."""
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    total_ms = [0.0] * len(tally.strata)
    count = [0] * len(tally.strata)
    for sid, v in zip(tally.stratum_ids, ms):
        total_ms[sid] += v
        count[sid] += 1
    coverage = sum(shares[s] for s in tally.strata)
    mean_ms = sum(shares[s] / coverage * total_ms[i] / count[i]
                  for i, s in enumerate(tally.strata))
    return {"ops_per_s": 1e3 / mean_ms, "op_p50_ms": statistics.median(ms),
            "op_p90_ms": p90}


def summarize(tally: Tally, shares: dict[str, float], speed: Speed) -> dict:
    """Timings normalised by the sampled CPU speed, the same as measured
    under ``raw``, and the op counts."""
    raw = [ns / 1e6 for ns in tally.latency_ns]
    scaled = [ms * speed.scale(t, t + ns)
              for ms, t, ns in zip(raw, tally.start_ns, tally.latency_ns)]
    totals = tally.totals()
    return {
        **timings(tally, scaled, shares),
        "raw": timings(tally, raw, shares),
        "ref_ms_median": speed.median_ref_ms(),
        "samples": len(raw),
        "mix_coverage": sum(shares[s] for s in tally.strata),
        **totals,
        "failed_ratio": totals["failed"] / totals["attempted"],
        "failed_by_stratum": dict(tally.failed),
        "known_defect_by_stratum": dict(tally.known_defect),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def molien_geometry(doc: dict) -> dict[str, float]:
    """Computed box metrics of every molien_series call in the trace."""
    boxes = [wl.molien_box(*key) for _, key in doc["keys"].get("molien.molien_series", [])]
    return {"molien.box_cells": sum(b["cells"] for b in boxes),
            "molien.cell_updates": sum(b["updates"] for b in boxes),
            "molien.box_mb_max": max((b["cells"] for b in boxes), default=0) * 8 / 1e6,
            "molien.requests_over_int64_bound": sum(b["over_int64_bound"] for b in boxes)}


def traced_replay(workload: str, ops, root: str) -> tuple[Tally, dict, float]:
    """Run ``ops`` traced; returns their tally, the span dump and the traced
    wall time of the ops."""
    tally = Tally()
    if workload == "selftest":
        spans_dir = os.path.join(root, ".qqbench", "tmp")
        os.makedirs(spans_dir, exist_ok=True)
        docs = []
        execute = _selftest(root, spans_dir, docs)
        for i, op in enumerate(ops):
            tally.add(guarded(execute, op, i))
        return tally, spans.merge(docs), sum(d["wall_ns"] for d in docs) / 1e9
    execute = executor(workload, root)
    tracer = spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter_ns()
        for i, op in enumerate(ops):
            tally.add(tracer.run_op(i, guarded, execute, op))
        wall = (time.perf_counter_ns() - start) / 1e9
    finally:
        tracer.uninstall()
    return tally, tracer.dump(), wall


def run(workload: str, seed: int, seconds: int, trace: bool, root: str,
        speed_path: str | None = None) -> dict:
    """One run; an untraced run reads the CPU speed samples of
    ``speed_path`` once its loop has ended."""
    ops = GENERATORS[workload](seed)
    head = {"workload": workload, "seed": seed, "inputs_sha256": wl.inputs_digest(ops)}
    if not trace:
        tally = closed_loop(ops, executor(workload, root), seconds)
        rss = peak_rss_mb()
        time.sleep(2 * PERIOD_S)  # a sample after the last op
        summary = summarize(tally, wl.stratum_shares(ops), Speed(speed_path))
        return {**head, **summary, "peak_rss_mb": rss}

    ops = [ops[i % len(ops)] for i in range(wl.TRACE_OPS[workload])]
    untraced = Tally()
    execute = executor(workload, root)
    for op in ops:
        untraced.add(guarded(execute, op))
    traced, doc, wall = traced_replay(workload, ops, root)
    trace_dir = os.path.join(root, ".qqbench", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    spans.write_trace(doc, os.path.join(trace_dir, f"{workload}-seed{seed}.json.gz"))

    metrics = spans.layer_metrics(doc)
    metrics.update(molien_geometry(doc))
    metrics["molien.cell_updates_per_s"] = (
        metrics["molien.cell_updates"] / metrics["molien.molien_series.self_s"]
        if metrics["molien.molien_series.self_s"] else 0.0)
    for ensemble in wl.ENSEMBLES:
        metrics[f"casimir_positivity.failed.{ensemble}"] = (
            traced.failed[ensemble] + traced.known_defect[ensemble])
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_ratio"] = sum(traced.latency_ns) / sum(untraced.latency_ns)
    both = {k: v + untraced.totals()[k] for k, v in traced.totals().items()}
    return {**head, "per_layer": metrics, "samples": len(traced.latency_ns), **both}
