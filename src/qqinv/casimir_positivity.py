"""Casimir invariants of su(6) states and density-matrix positivity tests.

Two independent routes to the Casimir scalars c_2..c_6 of a state:

* trace route (primary): invert the moment relations of omega = 6 rho - I,

      tr w^2 = 6 c2             tr w^5 = 6 (2 c2 c3 + c5)
      tr w^3 = 6 c3             tr w^6 = 6 (c2^3 + 2 c2 c4 + c3^2 + c6)
      tr w^4 = 6 (c2^2 + c4)

* vee route (cross-check): polynomial contractions of the Bloch vector xi
  with the symmetric structure constants through the product
  (U v V)_a = kappa d_abc U_b V_c, kappa = sqrt(15).

Positivity of a unit-trace Hermitian matrix is equivalent to non-negativity
of all characteristic-polynomial coefficients S_k, computed here by the
Newton recurrence (with the determinant form as an independent cross-check)
and normalized by their maxima binom(6, 6-k)/6^k.  The same condition is
expressed as 0 <= E_k <= 1 for five polynomial expressions in the normalized
Casimirs C_k.  They are the normalized coefficients Sbar_k = S_k / max(S_k)
in another form: E_k = 1 - Sbar_k for k = 2..4 and E_k = Sbar_k for k = 5, 6.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _args, states
from .su_algebra import StructureConstants, _dot
from .states import QubitQutritState

TRACELESS_TOL = 1e-9
BOUNDARY_TOL = 1e-9
ORACLE_EIG_TOL = 1e-8

MAX_S = {k: math.comb(6, 6 - k) / 6 ** k for k in range(1, 7)}

_EYE6 = np.eye(6, dtype=complex)

# (key, (rho, t, t_om)) of the last state _checked_record passed: the key is
# its batch shape and the bytes of its 35 coordinates, rho read-only.  It
# holds one state's or one stack's record plus its key, and is swapped whole.
_LAST_RECORD: tuple = (None, None)


@functools.cache
def _normalizers(n: int) -> tuple[float, ...]:
    """(k-1)!/((n-1)...(n-k+1)) for k = 2..6."""
    out = []
    for k in range(2, 7):
        denom = 1.0
        for j in range(1, k):
            denom *= (n - j)
        out.append(math.factorial(k - 1) / denom)
    return tuple(out)


@dataclass(frozen=True)
class CasimirValues:
    """Raw c_2..c_6 and normalized C_k = (k-1)!/((n-1)...(n-k+1)) c_k."""

    n: int
    raw: tuple[float, float, float, float, float]

    @property
    def normalized(self) -> tuple[float, ...]:
        return tuple(f * c for f, c in zip(_normalizers(self.n), self.raw))


def _all(verdicts):
    """Conjunction of per-k verdicts: a bool, or a bool array over a stack."""
    return functools.reduce(operator.and_, verdicts)


@dataclass(frozen=True)
class PositivityReport:
    """Moments, characteristic coefficients and both positivity verdicts."""

    t: tuple[float, ...]            # t_1..t_6
    S: tuple[float, ...]            # S_1..S_6
    S_bar: tuple[float, ...]        # S_2/max..S_6/max
    casimir_exprs: tuple[float, ...]  # E_2..E_6
    verdict_S: tuple[bool, ...]     # S_k / max S_k >= -tol, k = 1..6
    verdict_casimir: tuple[bool, ...]  # -tol <= E_k <= 1 + tol, k = 2..6
    consistent: bool

    @property
    def positive_semidefinite(self) -> bool:
        return _all(self.verdict_S)

    def to_json_dict(self) -> dict:
        return {
            "t": list(self.t),
            "S": list(self.S),
            "S_bar": list(self.S_bar),
            "casimir_exprs": list(self.casimir_exprs),
            "verdict_S": list(self.verdict_S),
            "verdict_casimir": list(self.verdict_casimir),
            "consistent": self.consistent,
            "positive_semidefinite": self.positive_semidefinite,
        }


def _check_moments(t, t_om) -> None:
    """Reject a state unless |t_1 of omega| lies within TRACELESS_TOL, t_1 =
    tr rho within states.TRACE_TOL of 1, and every moment is finite.  A
    state's omega is Hermitian by construction, so its diagonal is real and
    |t_1 of omega| is |tr omega|, the same sum.  The trace check of omega
    misses huge states, whose -I rounds away, and their powers overflow;
    omega and the moments are formed with numpy's overflow warnings off so
    that these checks report it.  One state gives Python floats, a stack
    arrays of the batch shape.  With finite moments of omega, c_2^3 and
    c_3^2 stay below t_6 / 6 by the power-mean inequality, so the Casimirs
    cannot overflow."""
    t1, tw = t[0], t_om[0]
    if isinstance(t1, float):
        if (abs(tw) <= TRACELESS_TOL and abs(t1 - 1) <= states.TRACE_TOL
                and all(map(math.isfinite, t + t_om))):
            return
    elif ((np.abs(tw) <= TRACELESS_TOL).all()
          and (np.abs(t1 - 1) <= states.TRACE_TOL).all()
          and np.isfinite(t + t_om).all()):
        return
    tdev = float(np.abs(tw).max(initial=0.0))
    if not tdev <= TRACELESS_TOL:
        raise ValueError(f"omega = n rho - I is not traceless: |tr omega| = {tdev:.3e}")
    dev = np.abs(np.subtract(t1, 1)).max()
    if not dev <= states.TRACE_TOL:
        raise ValueError(f"rho does not have unit trace: |tr rho - 1| = {dev:.3e}")
    raise ValueError("the moments tr rho^k overflow")


def moments(rho: np.ndarray) -> np.ndarray:
    """t_k = tr(rho^k) for k = 1..6, a (6,) + batch-shape float array: five
    matmuls into one buffer and one trace.  Over a (..., n, n) stack entry
    [k - 1][i] is bit for bit the moment of matrix i alone, so
    _checked_record runs rho and omega = 6 rho - I as one stack."""
    p = np.empty((6,) + rho.shape, dtype=complex)
    p[0] = rho
    for k in range(1, 6):
        np.matmul(p[k - 1], rho, out=p[k])
    return p.trace(axis1=-2, axis2=-1).real


def _checked_record(state):
    """(rho, t, t_om): states.to_matrix of the state and the moments of rho
    and of omega = 6 rho - I, one moments call on the stack [rho, omega];
    one state gives tuples of Python floats (so its verdicts stay plain
    bools), a stack tuples of read-only arrays of the batch shape.  Any
    input but a state is refused: a density matrix enters through
    states.from_matrix, which validates it.  The moments are formed with
    numpy's warnings off and checked by _check_moments; a non-finite entry
    of rho makes t_2, a sum of rho_ij rho_ji over every entry, non-finite,
    so it fails that check, and only then is rho tested and rejected with
    from_matrix's wording.

    The record is kept in _LAST_RECORD once every check has passed, so the
    report, the trace route and the oracle on one state share its checks,
    its matrix and its moments; the key holds the exact coordinate bytes, so
    a state changed in place is converted and checked again."""
    global _LAST_RECORD
    if not isinstance(state, QubitQutritState):
        raise TypeError(f"expected a QubitQutritState, got {type(state).__name__}; "
                        "convert a density matrix with states.from_matrix")
    x = state.x
    key = (x.shape, x.tobytes())
    last, record = _LAST_RECORD
    if last == key:
        return record
    rho = states.to_matrix(state)
    rho.flags.writeable = False
    with np.errstate(over="ignore", invalid="ignore"):
        pair = np.empty((2,) + rho.shape, dtype=complex)
        pair[0] = rho
        np.multiply(rho, 6, out=pair[1])
        pair[1] -= _EYE6
        tt = moments(pair).swapaxes(0, 1)
    tt.flags.writeable = False
    t, t_om = map(tuple, tt.tolist() if rho.ndim == 2 else tt)
    try:
        _check_moments(t, t_om)
    except ValueError:
        if np.isfinite(rho).all():
            raise
        raise ValueError("matrix has non-finite entries") from None
    _LAST_RECORD = (key, (rho, t, t_om))
    return rho, t, t_om


def vee(u: np.ndarray, v: np.ndarray, sc: StructureConstants) -> np.ndarray:
    """(u v v)_a = kappa d_abc u_b v_c with kappa = sqrt(n(n-1)/2), over the
    last axis of (stacks of) vectors.  u_b d_bac = u_b d_abc (d is totally
    symmetric) is one matrix product with d flattened to (dim, dim^2)."""
    u, v = _args.real_array(u, "u"), _args.real_array(v, "v")
    k = sc.dim
    if u.shape[-1:] != (k,) or v.shape[-1:] != (k,):
        raise ValueError(
            f"vectors must have length {k}, got {u.shape} and {v.shape}")
    D = (u @ sc.d.reshape(k, k * k)).reshape(u.shape[:-1] + (k, k))
    return states.bloch_kappa(sc.n) * (D @ v[..., None])[..., 0]


def _power(x, k: int):
    """x ** k by Python's float power, element by element on an array: numpy's
    vectorized power rounds the last bit differently for some inputs, and a
    stacked state must give the bits of its one-state call."""
    if isinstance(x, np.ndarray):
        return np.frompyfunc(pow, 2, 1)(x, k).astype(float)
    return x ** k


def casimirs_from_traces(state: QubitQutritState) -> CasimirValues:
    """Invert the five moment relations of omega = n rho - I (trace route);
    a stacked state gives arrays of the batch shape, each entry bit for bit
    its one-state value."""
    n = 6
    t2, t3, t4, t5, t6 = (x / n for x in _checked_record(state)[2][1:])
    c2 = t2
    c3 = t3
    c4 = t4 - _power(c2, 2)
    c5 = t5 - 2 * c2 * c3
    c6 = t6 - _power(c2, 3) - 2 * c2 * c4 - _power(c3, 2)
    return CasimirValues(n, (c2, c3, c4, c5, c6))


def casimirs_from_vee(xi: np.ndarray, sc: StructureConstants) -> CasimirValues:
    """Casimir scalars as vee-product contractions of the Bloch vector.

    c2 = (n-1) xi.xi                 c4 = (n-1) (xi v xi).(xi v xi)
    c3 = (n-1) (xi v xi).xi          c5 = (n-1) ((xi v xi) v (xi v xi)).xi
    c6 = (n-1) |(xi v xi) v xi|^2    (left-associated reading)

    dual_route_report compares c6 too, and the selftest requires the routes
    to agree to < 1e-9; the trace route stays primary downstream.  A
    non-finite or huge xi gives non-finite Casimirs quietly.
    """
    xi = _args.real_array(xi, "xi")
    if xi.shape[-1:] != (sc.dim,):
        raise ValueError(f"xi must have length {sc.dim}, got shape {xi.shape}")
    n = sc.n
    with np.errstate(over="ignore", invalid="ignore"):
        xx = vee(xi, xi, sc)
        c2 = (n - 1) * _dot(xi, xi)
        c3 = (n - 1) * _dot(xx, xi)
        c4 = (n - 1) * _dot(xx, xx)
        c5 = (n - 1) * _dot(vee(xx, xx, sc), xi)
        v3 = vee(xx, xi, sc)
        c6 = (n - 1) * _dot(v3, v3)
    return CasimirValues(n, (c2, c3, c4, c5, c6))


def dual_route_report(state: QubitQutritState, sc: StructureConstants) -> dict:
    """Trace-route and vee-route Casimirs side by side with |differences|;
    a stacked state gives arrays of the batch shape."""
    ct = casimirs_from_traces(state)
    cv = casimirs_from_vee(states.state_to_xi(state), sc)
    diff = tuple(abs(x - y) for x, y in zip(ct.raw, cv.raw))
    return {"trace_route": ct.raw, "vee_route": cv.raw, "abs_diff": diff}


def char_poly_coeffs(t) -> tuple[float, ...]:
    """S_1..S_n from moments t_1..t_n via the Newton recurrence

        k S_k = sum_{i=1..k} (-1)^(i-1) S_{k-i} t_i.

    t holds the moments along its first axis, as moments returns them: n
    floats (a report's t, or a list) give n floats, an (n,) + batch array n
    arrays of the batch shape; M moment vectors enter as an (n, M) array.
    """
    S = [1.0]
    for k in range(1, len(t) + 1):
        acc = 0.0
        for i in range(1, k + 1):
            if i % 2:
                acc += S[k - i] * t[i - 1]
            else:
                acc -= S[k - i] * t[i - 1]
        S.append(acc / k)
    return tuple(S[1:])


def char_poly_coeffs_determinant(t) -> tuple[float, ...]:
    """Independent determinant route: S_k = (1/k!) det of the k x k matrix
    with t_{i-j+1} below the diagonal and i on the superdiagonal; t holds the
    moments first, as for char_poly_coeffs, and an (n,) + batch array gives
    one batch-shape stack of determinants per k."""
    t = np.moveaxis(np.asarray(t, dtype=float), 0, -1)
    out = []
    for k in range(1, t.shape[-1] + 1):
        m = np.zeros(t.shape[:-1] + (k, k))
        for i in range(k):
            m[..., i, :i + 1] = t[..., i::-1]
            if i + 1 < k:
                m[..., i, i + 1] = i + 1
        out.append(np.linalg.det(m) / math.factorial(k))
    return tuple(out) if t.ndim > 1 else tuple(float(d) for d in out)


def casimir_inequality_exprs(normalized) -> tuple[float, ...]:
    """The five bracketed inequality expressions E_2..E_6 in the normalized
    Casimirs; positivity of the state is 0 <= E_k <= 1 for all k."""
    C2, C3, C4, C5, C6 = normalized
    e2 = C2
    e3 = 3 * C2 - C3
    e4 = 6 * C2 - 5 * _power(C2, 2) - 4 * C3 + C4
    e5 = _power(1 - 5 * C2, 2) - 30 * C2 * C3 + 10 * C3 - 5 * C4 + C5
    e6 = (_power(1 - 5 * C2, 3) - 180 * C2 * C3 + 125 * C2 * C4
          + 20 * C3 * (1 + 5 * C3) - 15 * C4 + 6 * C5 - C6)
    return (e2, e3, e4, e5, e6)


def positivity_report(state: QubitQutritState) -> PositivityReport:
    """Full positivity verdict of a state's unit-trace Hermitian 6x6 matrix.

    Both verdicts apply BOUNDARY_TOL on the normalized scale: verdict_S to
    S_k / max S_k and verdict_casimir to E_k, which is that same ratio (or
    one minus it).  One state gives Python floats and bools; a stacked state
    gives arrays of the batch shape throughout, entry i bit for bit the
    report of state i.

    t, the moments of rho, feeds S_k; the Casimirs come from
    casimirs_from_traces, which reads the moments of omega from the same
    checked record (_checked_record).  A state's matrix is Hermitian by
    construction, so only the finiteness and trace checks apply to it, its
    tr omega read from the moments; it is rejected unless tr rho is 1 and
    every moment finite (see _check_moments).  A density matrix enters
    through states.from_matrix."""
    t = _checked_record(state)[1]
    S = char_poly_coeffs(t)
    S_bar = tuple(S[k - 1] / MAX_S[k] for k in range(2, 7))
    exprs = casimir_inequality_exprs(casimirs_from_traces(state).normalized)
    verdict_S = tuple(s >= -BOUNDARY_TOL for s in (S[0] / MAX_S[1],) + S_bar)
    verdict_casimir = tuple((e >= -BOUNDARY_TOL) & (e <= 1.0 + BOUNDARY_TOL)
                            for e in exprs)
    consistent = _all(verdict_S) == _all(verdict_casimir)
    return PositivityReport(t, S, S_bar, exprs, verdict_S, verdict_casimir,
                            consistent)


def eigenvalue_oracle(state: QubitQutritState) -> np.ndarray:
    """Sorted eigenvalues; PSD there means min eigenvalue >= -ORACLE_EIG_TOL.

    A state is rejected as positivity_report rejects it, by the same checks
    (see _checked_record); its matrix is Hermitian by construction, so
    eigvalsh, which reads only its lower triangle, sees all of it."""
    return np.linalg.eigvalsh(_checked_record(state)[0])
