"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run each workload at a tiny size through its gate, check that an
untraced run leaves every qqinv function in place, and that the per-layer
self times of a traced run add up to its traced wall time.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import numpy as np  # noqa: E402

import loop  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402

#: per-layer self times plus the benchmark's own op time must cover the
#: traced wall time to within this share of it
SELF_TIME_TOL = 0.05

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def tiny_ops(workload: str) -> list:
    ops = loop.GENERATORS[workload](1)
    if workload == "molien":
        first = {}
        for op in ops:
            if not op.stratum.startswith("deep"):
                first.setdefault(op.stratum, op)
        return list(first.values())
    if workload == "positivity":
        return ops[:2 * len(wl.ENSEMBLES)]
    return ops


def run_tiny(workload: str) -> list[tuple]:
    """Records (stratum, latency_ns, attempted, failed, hard, known_defect)
    of tiny ops."""
    execute = loop.executor(workload, ROOT)
    return [loop.guarded(execute, op) for op in tiny_ops(workload)]


def snapshot() -> dict:
    return {(m.__name__, name): obj for m in spans.layer_modules()
            for name, obj in vars(m).items() if callable(obj)}


def test_same_seed_gives_identical_inputs():
    for generate in (wl.molien_ops, wl.positivity_ops, wl.selftest_ops):
        assert wl.inputs_digest(generate(7)) == wl.inputs_digest(generate(7))
    for generate in (wl.molien_ops, wl.positivity_ops):
        assert wl.inputs_digest(generate(7)) != wl.inputs_digest(generate(8))
    first, second = wl.positivity_ops(3), wl.positivity_ops(3)
    assert all(a.stratum == b.stratum and a.args[0].tobytes() == b.args[0].tobytes()
               for a, b in zip(first, second, strict=True))
    assert wl.molien_ops(3) == wl.molien_ops(3)


def test_tiny_molien_passes_its_gate():
    records = run_tiny("molien")
    assert len(records) == sum(len(bins) for bins in wl.SHALLOW.values()) * len(wl.BACKENDS)
    assert all(r[3:] == (0, False, 0) for r in records)


def test_tiny_positivity_passes_its_gate():
    records = run_tiny("positivity")
    assert {r[0] for r in records} == set(wl.ENSEMBLES)
    assert all(r[3:5] == (0, False) for r in records)
    # the near-boundary verdicts are wrong at the commit that defined the
    # benchmark; a fix turns the known-defect count to 0, so both pass here
    assert {r[0] for r in records if r[5]} <= {"neg1e-6", "neg1e-5"}


def test_tiny_selftest_passes_its_gate():
    (record,) = run_tiny("selftest")
    assert record[2:] == (wl.SELFTEST_ROWS, 0, False, 0)


def test_gates_reject_wrong_outputs():
    op = wl.Op("su2xsu3-weyl-6-9", ("su2xsu3", "weyl", 8))
    _, series = wl.molien_call(op)
    assert wl.molien_gate(op, series) == (1, 0, False, 0)
    assert wl.molien_gate(op, series[:-1] + [series[-1] + 1]) == (1, 1, True, 0)
    first = {}
    for pos in wl.positivity_ops(1):
        first.setdefault(pos.stratum, pos)
    for ensemble, pos in first.items():
        _, (report, eig) = wl.positivity_call(pos)
        inconsistent = dataclasses.replace(report, consistent=False)
        assert wl.positivity_gate(pos, (report, eig + 1e-6))[:3] == (1, 1, False)
        if wl.inside_s_tolerance(pos.args[1]):
            assert wl.positivity_gate(pos, (inconsistent, eig)) == (1, 0, False, 1)
        else:
            assert wl.positivity_gate(pos, (report, eig)) == (1, 0, False, 0)
            assert wl.positivity_gate(pos, (inconsistent, eig)) == (1, 1, False, 0)


def test_speed_scales_by_the_reference_time_around_an_op(tmp_path):
    path = tmp_path / "speed.txt"
    ms = 1_000_000
    ref = [200_000] * 10 + [400_000] * 10  # 0.2 ms, then 0.4 ms
    path.write_text("".join(f"{i * 40 * ms} {r}\n" for i, r in enumerate(ref))
                    + "999999999999 1")  # a line the sampler has not finished
    cpu = speed.Speed(str(path))
    assert len(cpu.times) == len(ref)
    assert cpu.scale(0, 200 * ms) == speed.REF_MS / 0.2
    assert cpu.scale(500 * ms, 700 * ms) == speed.REF_MS / 0.4
    assert cpu.scale(121 * ms, 122 * ms) == speed.REF_MS / 0.2  # nearest sample
    assert cpu.scale(10_000 * ms, 10_001 * ms) == speed.REF_MS / 0.4
    assert cpu.median_ref_ms() == 0.3


def test_s_tolerance_band():
    inside = wl.positivity_ops(1)
    assert all(wl.inside_s_tolerance(op.args[1]) for op in inside if op.stratum == "neg1e-6")
    assert not any(wl.inside_s_tolerance(op.args[1]) for op in inside
                   if op.stratum in ("ginibre", "rank1", "rank5", "neg1e-3", "neg1e-1"))
    # S_6 = -1e-5 * prod(rest) = -9.9e-10 (a neg1e-5 state of seed 12)
    rest = [0.0826018535, 0.0863345802, 0.106317576, 0.339923594, 0.384832397]
    assert wl.inside_s_tolerance(np.array([-1e-5, *rest]))
    assert not wl.inside_s_tolerance(np.array([-1e-4, *rest]))


def test_untraced_run_leaves_functions_in_place():
    before = snapshot()
    run_tiny("molien")
    run_tiny("positivity")
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert any(v is not before[k] for k, v in snapshot().items())
    finally:
        tracer.uninstall()
    assert all(v is before[k] for k, v in snapshot().items())


def test_traced_self_times_add_up_to_wall_time():
    for workload, layer in (("molien", "molien"), ("positivity", "casimir_positivity")):
        _, doc, wall = loop.traced_replay(workload, tiny_ops(workload), ROOT)
        metrics = spans.layer_metrics(doc)
        assert metrics[f"{layer}.calls"] > 0
        covered = sum(metrics[f"{name}.self_s"] for name in spans.LAYERS)
        covered += metrics["bench.self_s"]
        assert abs(covered - wall) <= SELF_TIME_TOL * wall, (workload, covered, wall)


def _run(args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_the_contract_line():
    for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(["--workload", "positivity", "--seed", "5", "--seconds", "1",
                     "--trace", str(trace)])
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in BENCHMARK[listed]}
        units = {m["name"]: m["unit"] for m in BENCHMARK[listed]}
        assert all(v["unit"] == units[k] for k, v in line["metrics"].items())
    tmp = os.path.join(ROOT, ".qqbench", "tmp")
    assert not [f for f in os.listdir(tmp) if f.startswith("speed-")]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "molien", "--seed", "1", "--seconds", "1"],
                cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
