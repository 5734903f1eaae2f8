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

import math
from dataclasses import dataclass

import numpy as np

from . import states
from .su_algebra import StructureConstants
from .states import QubitQutritState

TRACELESS_TOL = 1e-9
BOUNDARY_TOL = 1e-9
ORACLE_EIG_TOL = 1e-8

MAX_S = {k: math.comb(6, 6 - k) / 6 ** k for k in range(1, 7)}


@dataclass(frozen=True)
class CasimirValues:
    """Raw c_2..c_6 and normalized C_k = (k-1)!/((n-1)...(n-k+1)) c_k."""

    n: int
    raw: tuple[float, float, float, float, float]

    @property
    def normalized(self) -> tuple[float, ...]:
        n = self.n
        out = []
        for k, c in zip(range(2, 7), self.raw):
            denom = 1.0
            for j in range(1, k):
                denom *= (n - j)
            out.append(math.factorial(k - 1) / denom * c)
        return tuple(out)


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
        return all(self.verdict_S)

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


def _as_density_matrix(state) -> np.ndarray:
    if isinstance(state, QubitQutritState):
        return states.to_matrix(state)
    rho = np.asarray(state, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    return rho


def moments(rho: np.ndarray) -> tuple[float, ...]:
    """t_k = tr(rho^k) for k = 1..6 by repeated multiplication."""
    p = rho
    out = [float(np.trace(p).real)]
    for _ in range(5):
        p = p @ rho
        out.append(float(np.trace(p).real))
    return tuple(out)


def vee(u: np.ndarray, v: np.ndarray, sc: StructureConstants) -> np.ndarray:
    """(u v v)_a = kappa d_abc u_b v_c with kappa = sqrt(n(n-1)/2)."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    if u.shape != (sc.dim,) or v.shape != (sc.dim,):
        raise ValueError(
            f"vectors must have length {sc.dim}, got {u.shape} and {v.shape}")
    kappa = states.bloch_kappa(sc.n)
    return kappa * np.einsum("abc,b,c->a", sc.d, u, v)


def casimirs_from_traces(state) -> CasimirValues:
    """Invert the five moment relations of omega = n rho - I (trace route)."""
    rho = _as_density_matrix(state)
    n = rho.shape[0]
    om = n * rho - np.eye(n)
    tdev = abs(complex(np.trace(om)))
    if tdev > TRACELESS_TOL or np.abs(om - om.conj().T).max() > TRACELESS_TOL:
        raise ValueError(
            f"omega = n rho - I is not traceless Hermitian (deviation {tdev:.3e})")
    t2, t3, t4, t5, t6 = (t / n for t in moments(om)[1:])
    c2 = t2
    c3 = t3
    c4 = t4 - c2 ** 2
    c5 = t5 - 2 * c2 * c3
    c6 = t6 - c2 ** 3 - 2 * c2 * c4 - c3 ** 2
    return CasimirValues(n, (c2, c3, c4, c5, c6))


def casimirs_from_vee(xi: np.ndarray, sc: StructureConstants) -> CasimirValues:
    """Casimir scalars as vee-product contractions of the Bloch vector.

    c2 = (n-1) xi.xi                 c4 = (n-1) (xi v xi).(xi v xi)
    c3 = (n-1) (xi v xi).xi          c5 = (n-1) ((xi v xi) v (xi v xi)).xi
    c6 = (n-1) |(xi v xi) v xi|^2    (left-associated reading)

    dual_route_report compares c6 too, and the selftest requires the routes
    to agree to < 1e-9; the trace route stays primary downstream.
    """
    xi = np.asarray(xi, float)
    if xi.shape != (sc.dim,):
        raise ValueError(f"xi must have length {sc.dim}, got shape {xi.shape}")
    n = sc.n
    xx = vee(xi, xi, sc)
    c2 = (n - 1) * float(xi @ xi)
    c3 = (n - 1) * float(xx @ xi)
    c4 = (n - 1) * float(xx @ xx)
    c5 = (n - 1) * float(vee(xx, xx, sc) @ xi)
    v3 = vee(xx, xi, sc)
    c6 = (n - 1) * float(v3 @ v3)
    return CasimirValues(n, (c2, c3, c4, c5, c6))


def dual_route_report(state: QubitQutritState, sc: StructureConstants) -> dict:
    """Trace-route and vee-route Casimirs side by side with |differences|."""
    ct = casimirs_from_traces(state)
    cv = casimirs_from_vee(states.state_to_xi(state), sc)
    diff = tuple(abs(x - y) for x, y in zip(ct.raw, cv.raw))
    return {"trace_route": ct.raw, "vee_route": cv.raw, "abs_diff": diff}


def char_poly_coeffs(t) -> tuple[float, ...]:
    """S_1..S_n from moments t_1..t_n via the Newton recurrence

        k S_k = sum_{i=1..k} (-1)^(i-1) S_{k-i} t_i.
    """
    t = tuple(float(x) for x in t)
    S = [1.0]
    for k in range(1, len(t) + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * S[k - i] * t[i - 1]
        S.append(acc / k)
    return tuple(S[1:])


def char_poly_coeffs_determinant(t) -> tuple[float, ...]:
    """Independent determinant route: S_k = (1/k!) det of the k x k matrix
    with t_{i-j+1} below the diagonal and i on the superdiagonal."""
    t = tuple(float(x) for x in t)
    out = []
    for k in range(1, len(t) + 1):
        m = np.zeros((k, k))
        for i in range(k):
            for j in range(k):
                if j == i + 1:
                    m[i, j] = i + 1
                elif j <= i:
                    m[i, j] = t[i - j]
        out.append(float(np.linalg.det(m)) / math.factorial(k))
    return tuple(out)


def casimir_inequality_exprs(normalized) -> tuple[float, ...]:
    """The five bracketed inequality expressions E_2..E_6 in the normalized
    Casimirs; positivity of the state is 0 <= E_k <= 1 for all k."""
    C2, C3, C4, C5, C6 = normalized
    e2 = C2
    e3 = 3 * C2 - C3
    e4 = 6 * C2 - 5 * C2 ** 2 - 4 * C3 + C4
    e5 = (1 - 5 * C2) ** 2 - 30 * C2 * C3 + 10 * C3 - 5 * C4 + C5
    e6 = ((1 - 5 * C2) ** 3 - 180 * C2 * C3 + 125 * C2 * C4
          + 20 * C3 * (1 + 5 * C3) - 15 * C4 + 6 * C5 - C6)
    return (e2, e3, e4, e5, e6)


def positivity_report(state) -> PositivityReport:
    """Full positivity verdict of a unit-trace Hermitian 6x6 matrix.

    Both verdicts apply BOUNDARY_TOL on the normalized scale: verdict_S to
    S_k / max S_k and verdict_casimir to E_k, which is that same ratio (or
    one minus it)."""
    rho = _as_density_matrix(state)
    if np.abs(rho - rho.conj().T).max() > states.HERM_TOL:
        raise ValueError("input matrix is not Hermitian")
    t = moments(rho)
    S = char_poly_coeffs(t)
    S_bar = tuple(S[k - 1] / MAX_S[k] for k in range(2, 7))
    cas = casimirs_from_traces(rho)
    exprs = casimir_inequality_exprs(cas.normalized)
    verdict_S = tuple(s >= -BOUNDARY_TOL for s in (S[0] / MAX_S[1],) + S_bar)
    verdict_casimir = tuple(-BOUNDARY_TOL <= e <= 1.0 + BOUNDARY_TOL for e in exprs)
    consistent = all(verdict_S) == all(verdict_casimir)
    return PositivityReport(t, S, S_bar, exprs, verdict_S, verdict_casimir,
                            consistent)


def eigenvalue_oracle(state) -> np.ndarray:
    """Sorted eigenvalues; PSD there means min eigenvalue >= -ORACLE_EIG_TOL."""
    return np.linalg.eigvalsh(_as_density_matrix(state))
