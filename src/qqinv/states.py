"""Qubit-qutrit density matrices in Bloch-type coordinates.

A 6x6 unit-trace Hermitian matrix is parametrized by 35 real numbers
(a, b, C): the qubit Bloch vector a (3), the qutrit Bloch vector b (8) and
the 3x8 correlation matrix C, through

    rho = (1/6) (I6 + alpha + beta + gamma)

    alpha = sum_i a_i  sigma_i x I3
    beta  = sum_a b_a  I2 x lambda_a
    gamma = sum_{i,a} C_{ia} sigma_i x lambda_a

Tensor products are qubit-major: row index = 3*(qubit row) + qutrit row.
The inverse projection uses the trace orthogonality of the sigma x lambda
family; the weights (1, 3/2, 3/2) below are fixed by the roundtrip identity.

Also provided: seeded random ensembles (Ginibre, fixed-rank, deliberately
non-positive) and Haar-random local / global special unitaries for
property and invariance tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .su_algebra import GELL_MANN, PAULI

HERM_TOL = 1e-9
TRACE_TOL = 1e-9

_I2 = np.eye(2, dtype=complex)
_I3 = np.eye(3, dtype=complex)
_I6 = np.eye(6, dtype=complex)

# sigma_i x I3, I2 x lambda_a, sigma_i x lambda_a, precomputed once
_SIG_I3 = np.array([np.kron(PAULI[i], _I3) for i in range(3)])
_I2_LAM = np.array([np.kron(_I2, GELL_MANN[a]) for a in range(8)])
_SIG_LAM = np.array([[np.kron(PAULI[i], GELL_MANN[a]) for a in range(8)]
                     for i in range(3)])


@dataclass
class QubitQutritState:
    """Bloch-type coordinates (a, b, C) of a 6x6 unit-trace Hermitian matrix,
    or of a stack of them: the leading axes of a are the batch shape, which
    b and C share (N states have a (N, 3), b (N, 8), C (N, 3, 8)).  The
    letter matrices, the matrix conversions, state_to_xi and conjugate map a
    stack to a stack, as do the trace words and Casimir routes downstream;
    a single state is the case without batch axes."""

    a: np.ndarray  # (..., 3)
    b: np.ndarray  # (..., 8)
    C: np.ndarray  # (..., 3, 8)

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        batch = self.a.shape[:-1]
        self.b = np.asarray(self.b, dtype=float).reshape(batch + (8,))
        self.C = np.asarray(self.C, dtype=float).reshape(batch + (3, 8))

    @classmethod
    def zero(cls) -> "QubitQutritState":
        return cls(np.zeros(3), np.zeros(8), np.zeros((3, 8)))


def bloch_kappa(n: int) -> float:
    return math.sqrt(n * (n - 1) / 2.0)


def alpha_matrix(state: QubitQutritState) -> np.ndarray:
    return np.einsum("...i,iuv->...uv", state.a, _SIG_I3)


def beta_matrix(state: QubitQutritState) -> np.ndarray:
    return np.einsum("...a,auv->...uv", state.b, _I2_LAM)


def gamma_matrix(state: QubitQutritState) -> np.ndarray:
    return np.einsum("...ia,iauv->...uv", state.C, _SIG_LAM)


def omega_matrix(state: QubitQutritState) -> np.ndarray:
    """The traceless part 6*rho - I = alpha + beta + gamma."""
    return alpha_matrix(state) + beta_matrix(state) + gamma_matrix(state)


def to_matrix(state: QubitQutritState) -> np.ndarray:
    """rho = (I6 + alpha + beta + gamma) / 6."""
    return (_I6 + omega_matrix(state)) / 6.0


def from_matrix(rho: np.ndarray) -> QubitQutritState:
    """Project a 6x6 matrix, or a (..., 6, 6) stack, onto (a, b, C) coordinates.

    a_i = tr(rho sigma_i x I3), b_a = (3/2) tr(rho I2 x lambda_a),
    C_ia = (3/2) tr(rho sigma_i x lambda_a).

    Rejects inputs that have non-finite entries, or are not Hermitian or not
    unit-trace within HERM_TOL and TRACE_TOL, reporting the measured deviation
    (the largest over a stack).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (6, 6):
        raise ValueError(f"expected a 6x6 matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("matrix has non-finite entries")
    herm = float(np.abs(rho - rho.conj().swapaxes(-1, -2)).max())
    if herm > HERM_TOL:
        raise ValueError(f"matrix is not Hermitian: max |rho - rho^+| = {herm:.3e}")
    tdev = float(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max())
    if tdev > TRACE_TOL:
        raise ValueError(f"matrix trace deviates from 1 by {tdev:.3e}")
    a = np.einsum("...uv,ivu->...i", rho, _SIG_I3).real
    b = 1.5 * np.einsum("...uv,avu->...a", rho, _I2_LAM).real
    C = 1.5 * np.einsum("...uv,iavu->...ia", rho, _SIG_LAM).real
    return QubitQutritState(a, b, C)


def reduced_qubit(state: QubitQutritState) -> np.ndarray:
    """Partial trace over the qutrit; equals (I2 + a.sigma)/2."""
    rho = to_matrix(state).reshape(2, 3, 2, 3)
    return np.einsum("iaja->ij", rho)


def reduced_qutrit(state: QubitQutritState) -> np.ndarray:
    """Partial trace over the qubit; equals (I3 + b.lambda)/3."""
    rho = to_matrix(state).reshape(2, 3, 2, 3)
    return np.einsum("iaib->ab", rho)


def state_to_xi(state: QubitQutritState) -> np.ndarray:
    """Coordinates of omega in the orthonormal su(6) tensor basis.

    omega = kappa * xi . tau with kappa = sqrt(15) and the tau enumeration of
    the su6-tensor basis, so xi carries factors sqrt(3) (qubit sector) and
    sqrt(2) (qutrit and correlation sectors).
    """
    kappa = bloch_kappa(6)
    return np.concatenate([math.sqrt(3) * state.a / kappa,
                           math.sqrt(2) * state.b / kappa,
                           math.sqrt(2) * state.C.reshape(state.a.shape[:-1] + (24,))
                           / kappa], axis=-1)


# -- random ensembles ---------------------------------------------------------

def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_densities(seeds, ensemble: str = "ginibre-full-rank") -> QubitQutritState:
    """Stack of random density matrices, one per seed, with a leading batch
    axis; state i is random_density(seeds[i], ensemble) bit for bit.

    ensemble is "ginibre-full-rank", "pure", or "rank-k" with k in 1..6.
    Each matrix is A A^+ / tr(A A^+) for a 6 x r complex standard-Gaussian A
    drawn from its own generator default_rng(seed), hence positive
    semi-definite by construction and reproducible per seed.
    """
    if ensemble == "ginibre-full-rank":
        r = 6
    elif ensemble == "pure":
        r = 1
    elif ensemble.startswith("rank-"):
        try:
            r = int(ensemble[5:])
        except ValueError:
            raise ValueError(f"malformed ensemble {ensemble!r}") from None
        if not 1 <= r <= 6:
            raise ValueError(f"rank must be in 1..6, got {r}")
    else:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    A = np.array([_ginibre(np.random.default_rng(seed), 6, r) for seed in seeds])
    rho = A @ A.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    return from_matrix(rho)


def random_density(seed: int, ensemble: str = "ginibre-full-rank") -> QubitQutritState:
    """Seeded random density matrix: the one-state case of random_densities."""
    s = random_densities([seed], ensemble)
    return QubitQutritState(s.a[0], s.b[0], s.C[0])


def random_nonpsd_unit_trace(seed: int, min_negative_eigenvalue: float) -> QubitQutritState:
    """Hermitian unit-trace matrix with smallest eigenvalue at the requested
    negative level, built by spectral surgery on a random Hermitian matrix."""
    m = float(min_negative_eigenvalue)
    if not -1.0 <= m < 0.0:
        raise ValueError(f"min_negative_eigenvalue must lie in [-1, 0), got {m}")
    rng = np.random.default_rng(seed)
    h = _ginibre(rng, 6, 6)
    h = (h + h.conj().T) / 2
    _, vecs = np.linalg.eigh(h)
    pos = rng.uniform(0.2, 1.0, size=5)
    eigs = np.concatenate([[m], (1.0 - m) * pos / pos.sum()])
    rho = (vecs * eigs) @ vecs.conj().T
    return from_matrix(rho)


def _haar(z: np.ndarray) -> np.ndarray:
    """Haar-random SU(n) from a (stack of) Ginibre matrix z / sqrt(2): QR with
    the R-diagonal phase correction, then determinant normalized to 1."""
    n = z.shape[-1]
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    q = q * ph[..., None, :]
    det = np.linalg.det(q)
    return q * np.exp(-1j * (np.angle(det) / n))[..., None, None]


def random_su(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(n) drawn from rng."""
    return _haar(_ginibre(rng, n, n) / math.sqrt(2))


def random_unitaries(seeds, local: bool) -> np.ndarray:
    """(N, 6, 6) stack with u[i] = random_local_unitary(seeds[i]) when local,
    else random_global_unitary(seeds[i]); one generator per seed, bit for bit."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if not local:
        return _haar(np.array([_ginibre(rng, 6, 6) for rng in rngs]) / math.sqrt(2))
    # each generator draws its SU(2) factor before its SU(3) factor
    k1 = _haar(np.array([_ginibre(rng, 2, 2) for rng in rngs]) / math.sqrt(2))
    k2 = _haar(np.array([_ginibre(rng, 3, 3) for rng in rngs]) / math.sqrt(2))
    return (k1[:, :, None, :, None] * k2[:, None, :, None, :]).reshape(-1, 6, 6)


def random_local_unitary(seed: int) -> np.ndarray:
    """k1 x k2 with k1 Haar-random in SU(2) and k2 Haar-random in SU(3)."""
    return random_unitaries([seed], local=True)[0]


def random_global_unitary(seed: int) -> np.ndarray:
    """Haar-random SU(6)."""
    return random_unitaries([seed], local=False)[0]


def conjugate(state: QubitQutritState, u: np.ndarray) -> QubitQutritState:
    """State of u rho u^+ in (a, b, C) coordinates; a stack of states takes a
    matching (..., 6, 6) stack of unitaries."""
    rho = to_matrix(state)
    return from_matrix(u @ rho @ u.conj().swapaxes(-1, -2))


# -- state files ---------------------------------------------------------------

def state_to_json_dict(state: QubitQutritState) -> dict:
    return {"abc": {"a": state.a.tolist(), "b": state.b.tolist(),
                    "C": state.C.tolist()}}


def _float_array(value, key: str) -> np.ndarray:
    """A JSON field as a float array; strings, objects, booleans and ragged
    nesting are rejected, not converted."""
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValueError(f"field {key!r} is not a numeric array")
    return arr.astype(float)


def state_from_json_dict(doc: dict) -> QubitQutritState:
    """Parse either the {"abc": ...} or the {"rho": ...} file form.

    The rho form is a 6x6 nested list of [re, im] pairs and is routed
    through from_matrix with its validity checks.
    """
    if not isinstance(doc, dict):
        raise ValueError("state document must be a JSON object")
    if "abc" in doc:
        abc = doc["abc"]
        if not isinstance(abc, dict):
            raise ValueError("field 'abc' must be an object")
        fields = {}
        for key, shape in (("a", (3,)), ("b", (8,)), ("C", (3, 8))):
            if key not in abc:
                raise ValueError(f"missing field {key!r} in abc state")
            fields[key] = _float_array(abc[key], key)
            if fields[key].shape != shape:
                raise ValueError(
                    f"field {key!r} has shape {fields[key].shape}, expected {shape}")
            if not np.isfinite(fields[key]).all():
                raise ValueError(f"field {key!r} has non-finite entries")
        return QubitQutritState(fields["a"], fields["b"], fields["C"])
    if "rho" in doc:
        raw = _float_array(doc["rho"], "rho")
        if raw.shape != (6, 6, 2):
            raise ValueError(
                f"field 'rho' has shape {raw.shape}, expected (6, 6, 2) re/im pairs")
        return from_matrix(raw[..., 0] + 1j * raw[..., 1])
    raise ValueError("state document needs an 'abc' or 'rho' field")


def load_state(path: str) -> QubitQutritState:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return state_from_json_dict(doc)


def save_state(state: QubitQutritState, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json_dict(state), fh, sort_keys=True)
        fh.write("\n")
