"""Workload generators, ops and their gates.

Every generator takes only the workload seed and returns one pass of the
request list; the run loop cycles through it.  The program receives only
the generated inputs (molien requests, 6x6 density matrices), never the
seed.  The composition of one pass is the stated input mix: ``ops_per_s``
weights each stratum's mean latency by its share of the pass.

An op's gate returns ``(attempted, failed, hard, known_defect)``:
``failed`` counts units whose output is wrong, ``hard`` marks an output the
gate could not accept at all (an exception, a mismatch of an exact series, a
malformed selftest report), and ``known_defect`` counts wrong verdicts of
the one defect the program is known to have on these inputs (see
``inside_s_tolerance``).  Wrong floating-point verdicts are failures,
not hard errors; known-defect verdicts are neither, but they are counted
and reported in every run, never dropped.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from qqinv import casimir_positivity, molien, states

#: ops replayed by a traced run, untraced first and then traced
TRACE_OPS = {"molien": 101, "positivity": 3600, "selftest": 2}

INT64_BOUND = 2 ** 62

#: frozen 2x3 Molien coefficients 0..16 (the paper's series)
REF_2X3 = (1, 0, 3, 4, 15, 25, 90, 170, 489, 1059, 2600, 5641, 12872, 27099,
           57990, 118254, 240187)


@dataclass(frozen=True)
class Op:
    stratum: str
    args: tuple


def inputs_digest(ops: list[Op]) -> str:
    """sha256 over the request list and the bytes of every input matrix."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.stratum.encode())
        for a in op.args:
            h.update(a.tobytes() if isinstance(a, np.ndarray) else repr(a).encode())
    return h.hexdigest()


def stratum_shares(ops: list[Op]) -> dict[str, float]:
    counts = Counter(op.stratum for op in ops)
    return {k: v / len(ops) for k, v in counts.items()}


# -- molien -------------------------------------------------------------------

#: shallow cells: (group, degree bins); both backends are drawn for each
SHALLOW = {"su2xsu2": ((10, 19), (20, 29), (30, 39), (40, 49), (50, 60)),
           "su2xsu3": ((6, 9), (10, 13), (14, 17), (18, 21), (22, 24))}
BACKENDS = ("weyl", "reduced")
#: 2x3 weyl degrees past the int64 bound; one opens each block, 30 first so
#: that every run holds the largest box
DEEP_DEGREES = (30, 26, 28)
DEGREES_PER_BIN = 5
BLOCKS = 6


def molien_ops(seed: int) -> list[Op]:
    """Blocks of one deep request followed by 100 shallow ones in seeded
    order.  A block takes DEGREES_PER_BIN degrees from every (group,
    backend, bin), evenly spaced across the bin from a seeded offset, so that
    every seed covers each bin alike and the seed moves the degrees within
    it and the order, not the latency mix."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for block in range(BLOCKS):
        deep = DEEP_DEGREES[block % len(DEEP_DEGREES)]
        ops.append(Op(f"deep-{deep}", ("su2xsu3", "weyl", deep)))
        shallow = []
        for label, bins in SHALLOW.items():
            for backend in BACKENDS:
                for lo, hi in bins:
                    offset = rng.random()
                    for j in range(DEGREES_PER_BIN):
                        d = lo + int((j + offset) * (hi - lo + 1) / DEGREES_PER_BIN)
                        shallow.append(Op(f"{label}-{backend}-{lo}-{hi}",
                                          (label, backend, d)))
        ops.extend(shallow[i] for i in rng.permutation(len(shallow)))
    return ops


def molien_call(op: Op):
    label, backend, degree = op.args
    ws = molien.adjoint_weight_system(label)
    start = time.perf_counter_ns()
    series = molien.molien_series(ws, degree, backend=backend, degree_cap=degree)
    return time.perf_counter_ns() - start, series


def molien_gate(op: Op, series) -> tuple[int, int, bool]:
    label, _, degree = op.args
    ok = series == molien.rational_form_for(label).series(degree)
    if label == "su2xsu3":
        ok = ok and tuple(series[:17]) == REF_2X3[:degree + 1]
    return 1, int(not ok), not ok, 0


# -- positivity ---------------------------------------------------------------

ENSEMBLES = ("ginibre", "rank1", "rank2", "rank3", "rank5",
             "neg1e-1", "neg1e-3", "neg1e-5", "neg1e-6")
STATES_PER_ENSEMBLE = 400
EIG_TOL = 1e-9
#: the absolute tolerance the program applies to S_k, the elementary
#: symmetric polynomials of the spectrum, at the commit that defined this
#: benchmark
S_TOL = 1e-9


def _haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _spectrum(rng: np.random.Generator, ensemble: str) -> np.ndarray:
    if ensemble == "ginibre":
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        lam = np.linalg.eigvalsh(a @ a.conj().T)
        return lam / lam.sum()
    if ensemble.startswith("rank"):
        k = int(ensemble[4:])
        pos = rng.uniform(0.2, 1.0, size=k)
        return np.concatenate([pos / pos.sum(), np.zeros(6 - k)])
    m = -float(ensemble[3:])
    pos = rng.uniform(0.2, 1.0, size=5)
    return np.concatenate([[m], (1.0 - m) * pos / pos.sum()])


def positivity_ops(seed: int) -> list[Op]:
    """U diag(lam) U^+ with Haar U; rounds of all nine ensembles in seeded
    order.  args = (rho, sorted spectrum)."""
    rng = np.random.default_rng([seed, 2])
    ops = []
    for _ in range(STATES_PER_ENSEMBLE):
        for e in rng.permutation(len(ENSEMBLES)):
            ensemble = ENSEMBLES[e]
            lam = np.sort(_spectrum(rng, ensemble))
            u = _haar_unitary(rng)
            rho = (u * lam) @ u.conj().T
            ops.append(Op(ensemble, ((rho + rho.conj().T) / 2, lam)))
    return ops


def positivity_call(op: Op):
    rho = op.args[0]
    start = time.perf_counter_ns()
    state = states.from_matrix(rho)
    report = casimir_positivity.positivity_report(state)
    eig = casimir_positivity.eigenvalue_oracle(state)
    return time.perf_counter_ns() - start, (report, eig)


def inside_s_tolerance(lam: np.ndarray) -> bool:
    """A state that is not PSD although all its S_k lie above -2 * S_TOL.

    These near-boundary states are the program's known defect: its S_k
    verdict says PSD while its Casimir route and the eigenvalue oracle do
    not (every neg1e-6 state and a few neg1e-5 ones).  Twice
    the tolerance keeps a state whose S_6 rounds across the edge inside."""
    coeffs = np.poly(lam)  # prod (x - lam_i) = sum_k (-1)^k S_k x^(6 - k)
    s = [(-1) ** k * coeffs[k] for k in range(1, len(coeffs))]
    return lam[0] < 0 and min(s) >= -2 * S_TOL


def positivity_gate(op: Op, out) -> tuple[int, int, bool, int]:
    """A wrong verdict of a state inside the S_k tolerance is counted as a
    known defect, not as a failed op: a benchmark workload must run without
    failing ops, and these states stay in the mix, counted in every result,
    so that a fix of the verdicts shows.  Any other wrong verdict, and a
    wrong oracle spectrum on any state, fails the op."""
    report, eig = out
    lam = op.args[1]
    wrong_verdict = (not report.consistent
                     or report.positive_semidefinite != (lam[0] >= 0))
    wrong_spectrum = float(np.abs(eig - lam).max()) > EIG_TOL
    if wrong_verdict and not wrong_spectrum and inside_s_tolerance(lam):
        return 1, 0, False, 1
    return 1, int(wrong_verdict or wrong_spectrum), False, 0


# -- selftest -----------------------------------------------------------------

SELFTEST_ROW = re.compile(r"^(pass|FAIL)  ")
SELFTEST_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")
SELFTEST_ROWS = 36
CHILD_TIMEOUT_S = 150


def selftest_ops(seed: int) -> list[Op]:
    """One cold ``qqinv selftest`` at its default seed and panel size; the
    workload seed does not enter the battery."""
    return [Op("selftest", ())]


def child_env(root: str) -> dict:
    src = os.path.join(root, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def selftest_call(root: str, spans_path: str | None = None, op_id: int = 0):
    """Run one child; a traced child runs the bootstrap in this directory,
    which writes its spans to ``spans_path``."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "qqinv", "selftest"]
    else:
        bootstrap = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "selftest_child.py")
        cmd = [sys.executable, bootstrap, spans_path, str(op_id)]
    start = time.perf_counter_ns()
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter_ns() - start, proc


def selftest_gate(proc) -> tuple[int, int, bool, int]:
    lines = proc.stdout.splitlines()
    rows = [ln for ln in lines if SELFTEST_ROW.match(ln)]
    fails = sum(ln.startswith("FAIL") for ln in rows)
    summary = SELFTEST_SUMMARY.match(lines[-1]) if lines else None
    well_formed = (summary is not None
                   and int(summary.group(2)) == len(rows)
                   and int(summary.group(1)) == len(rows) - fails
                   and proc.returncode == (1 if fails else 0))
    if not well_formed:
        return max(len(rows), SELFTEST_ROWS), max(len(rows), SELFTEST_ROWS), True, 0
    return len(rows), fails, False, 0


# -- molien box geometry (computed, 8 B per cell) -------------------------------

def _kernel_abs_sum(factors, rank: int) -> int:
    """Sum of |coefficients| of prod over r of (1 - x^r)."""
    poly = {(0,) * rank: 1}
    for r in factors:
        nxt = dict(poly)
        for e, c in poly.items():
            key = tuple(a + b for a, b in zip(e, r))
            nxt[key] = nxt.get(key, 0) - c
        poly = nxt
    return sum(abs(c) for c in poly.values())


#: symmetry-reduced kernels as products of (1 - x^r), up to a monomial
REDUCED_FACTORS = {"su2xsu2": ((1, 0), (1, 0), (0, 1), (0, 1)),
                   "su2xsu3": ((-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, -1, -1))}


def molien_box(label: str, weights, roots, degree: int, backend: str) -> dict:
    """Dense-box geometry of one series request and whether its proven
    coefficient bound exceeds int64."""
    rank = len(weights[0])
    spans = [max(abs(w[axis]) for w in weights) * degree for axis in range(rank)]
    slab = math.prod(2 * s + 1 for s in spans)
    factors = roots if backend == "weyl" else REDUCED_FACTORS[label]
    bound = math.comb(len(weights) + degree - 1, degree) * _kernel_abs_sum(factors, rank)
    return {"cells": (degree + 1) * slab,
            "updates": len(weights) * degree * slab,
            "over_int64_bound": bound >= INT64_BOUND}
