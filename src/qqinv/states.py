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

import numpy as np

from . import _args
from .su_algebra import SU6_GENERATORS, SU6_NORMS

HERM_TOL = 1e-9
TRACE_TOL = 1e-9

_I6 = np.eye(6, dtype=complex)

#: from_matrix's weight of each trace: 1 for a, 3/2 for b and C
_PROJECTION_WEIGHTS = np.repeat([1.0, 1.5], [3, 32])
#: letter g (alpha, beta, gamma) is sum x_k SU6_GENERATORS[k] over k in block g
LETTER_SLICES = (slice(0, 3), slice(3, 11), slice(11, 35))


def _gather_table() -> tuple[np.ndarray, np.ndarray]:
    """Each letter as a gather from the 35 coordinates x = (a, b, C).

    Every entry of sigma_i x I3, I2 x lambda_a and sigma_i x lambda_a is
    real or imaginary, so each of the 72 floats of a letter (its 36 entries,
    real and imaginary parts interleaved) is a sum of terms x_k c_k with real
    c_k, and within one letter at most two of them are nonzero (alpha has one
    per part, beta two real and one imaginary, gamma two and two).  Entry
    [g, j, e] of the table is term j of float e of letter g, in coordinate
    order and padded with terms of coefficient 0; e is then split as (row,
    12 floats), so that the summed terms view as the letter's complex rows.
    Two terms add to the same float in either order and zero terms leave a
    nonzero sum as it is, so the gather has the bits of the full sum
    sum_k x_k B_k in whatever order that is taken (the tests compare it byte
    for byte with one einsum per letter); only the sign of a zero entry
    depends on the order, and _letters sums from +0 so that it is +0.
    """
    flat = SU6_GENERATORS.reshape(35, 36).view(float)
    index, coef = [], []
    for part in LETTER_SLICES:
        block = flat[part]
        # the nonzero terms of each float first, in coordinate order
        rows = np.argsort(block == 0, axis=0, kind="stable")[:2]
        index.append(part.start + rows)
        coef.append(np.take_along_axis(block, rows, axis=0))
    return np.reshape(index, (3, 2, 6, 12)), np.reshape(coef, (3, 2, 6, 12))


_GATHER_INDEX, _GATHER_COEF = _gather_table()


class QubitQutritState:
    """Bloch-type coordinates of a 6x6 unit-trace Hermitian matrix, or of a
    stack of them, as one float array x = (a, b, C row by row) of shape
    (..., 35) whose leading axes are the batch shape; a (..., 3), b (..., 8)
    and C (..., 3, 8) are views of x.  The conversions, letters, state_to_xi
    and conjugate map a stack to a stack; one state has no batch axes."""

    def __init__(self, a, b, C):
        """a must end in 3, b in 8 and C in (3, 8), or in the flat (24,) of C
        row by row, all over the batch shape of a, and be real; any other
        shape is rejected, not reshaped (C.T would scramble the
        correlations).  The state holds a copy of the three fields."""
        a, b, C = (_args.real_array(a, "a"), _args.real_array(b, "b"),
                   _args.real_array(C, "C"))
        if a.shape[-1:] != (3,):
            raise ValueError(f"field 'a' has shape {a.shape}, expected (..., 3)")
        batch = a.shape[:-1]
        if b.shape != batch + (8,):
            raise ValueError(
                f"field 'b' has shape {b.shape}, expected {batch + (8,)}")
        if C.shape not in (batch + (3, 8), batch + (24,)):
            raise ValueError(f"field 'C' has shape {C.shape}, expected "
                             f"{batch + (3, 8)} or {batch + (24,)}")
        self.x = np.concatenate((a, b, C.reshape(batch + (24,))), axis=-1)

    @classmethod
    def _of(cls, x: np.ndarray) -> "QubitQutritState":
        """The state of valid coordinates x, held as they are, not copied."""
        state = cls.__new__(cls)
        state.x = x
        return state

    a = property(lambda self: self.x[..., LETTER_SLICES[0]])
    b = property(lambda self: self.x[..., LETTER_SLICES[1]])
    C = property(lambda self: self.x[..., LETTER_SLICES[2]].reshape(
        self.x.shape[:-1] + (3, 8)))

    def __repr__(self) -> str:
        return f"QubitQutritState(a={self.a!r}, b={self.b!r}, C={self.C!r})"

    @classmethod
    def zero(cls) -> "QubitQutritState":
        return cls._of(np.zeros(35))


def bloch_kappa(n: int) -> float:
    return math.sqrt(n * (n - 1) / 2.0)


def _letters(x: np.ndarray) -> np.ndarray:
    """alpha, beta and gamma of the coordinates x side by side, a (..., 3, 6,
    6) array with the letter axis after the batch axes, by one gather (see
    _gather_table).  take keeps the batch axes outermost, so the result is
    C-contiguous (x[..., index] would put them innermost)."""
    terms = x.take(_GATHER_INDEX, axis=-1) * _GATHER_COEF
    return np.add.reduce(terms, axis=-3, initial=0.0).view(complex)


# A non-finite or huge coordinate gives non-finite entries, quietly: the
# gather multiplies an infinite coordinate by the zero coefficients of its
# padding and overflows a huge one, and the complex division by 6 meets
# inf * 0.  letter_matrices and to_matrix, the two conversions every other
# matrix of a state is formed from (the trace words, the partial traces,
# conjugate and the positivity checks), each enter one errstate for this.

def letter_matrices(state: QubitQutritState) -> tuple[np.ndarray, ...]:
    """(alpha, beta, gamma), each a C-contiguous (..., 6, 6) array."""
    with np.errstate(over="ignore", invalid="ignore"):
        letters = _letters(state.x)
    return tuple(letters[..., k, :, :].copy() for k in range(3))


def to_matrix(state: QubitQutritState) -> np.ndarray:
    """rho = (I6 + ((alpha + beta) + gamma)) / 6, a new writable array."""
    with np.errstate(over="ignore", invalid="ignore"):
        letters = _letters(state.x)
        return (_I6 + ((letters[..., 0, :, :] + letters[..., 1, :, :])
                       + letters[..., 2, :, :])) / 6.0


def from_matrix(rho: np.ndarray) -> QubitQutritState:
    """Project a 6x6 matrix, or a (..., 6, 6) stack, onto (a, b, C) coordinates.

    a_i = tr(rho sigma_i x I3), b_a = (3/2) tr(rho I2 x lambda_a),
    C_ia = (3/2) tr(rho sigma_i x lambda_a).

    All 35 traces are one einsum against the stacked basis.  It gives the
    bits of one einsum per group (sigma x I3, I2 x lambda, sigma x lambda):
    numpy does not promise this, the tests check it on spectral, widely
    scaled and stacked matrices.

    Rejects inputs that have non-finite entries, or are not Hermitian or not
    unit-trace within HERM_TOL and TRACE_TOL, reporting the measured deviation
    (the largest over a stack).  This is the one place where a density
    matrix is validated: the positivity checks take states only.  A
    deviation that overflows is reported as inf, not warned about, and a
    matrix whose coordinates overflow (entries near the float limit that
    pass both checks) is rejected.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (6, 6):
        raise ValueError(f"expected a 6x6 matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("matrix has non-finite entries")
    with np.errstate(over="ignore"):
        herm = float(np.abs(rho - rho.conj().swapaxes(-1, -2)).max(initial=0.0))
        if herm > HERM_TOL:
            raise ValueError(f"matrix is not Hermitian: max |rho - rho^+| = {herm:.3e}")
        tdev = float(np.abs(rho.trace(axis1=-2, axis2=-1) - 1.0).max(initial=0.0))
    if tdev > TRACE_TOL:
        raise ValueError(f"matrix trace deviates from 1 by {tdev:.3e}")
    x = np.einsum("...uv,kvu->...k", rho, SU6_GENERATORS).real
    with np.errstate(over="ignore"):
        weighted = x * _PROJECTION_WEIGHTS
    if not np.isfinite(weighted).all():
        raise ValueError("matrix coordinates overflow: the projection onto "
                         "(a, b, C) is not finite")
    return QubitQutritState._of(weighted)


def reduced_qubit(state: QubitQutritState) -> np.ndarray:
    """Partial trace over the qutrit; equals (I2 + a.sigma)/2."""
    rho = to_matrix(state).reshape(state.x.shape[:-1] + (2, 3, 2, 3))
    return np.einsum("...iaja->...ij", rho)


def reduced_qutrit(state: QubitQutritState) -> np.ndarray:
    """Partial trace over the qubit; equals (I3 + b.lambda)/3."""
    rho = to_matrix(state).reshape(state.x.shape[:-1] + (2, 3, 2, 3))
    return np.einsum("...iaib->...ab", rho)


def state_to_xi(state: QubitQutritState) -> np.ndarray:
    """Coordinates of omega in the orthonormal su(6) tensor basis.

    omega = kappa * xi . tau with kappa = sqrt(15) and tau the su6-tensor
    basis SU6_GENERATORS / SU6_NORMS, so xi = SU6_NORMS * (a, b, C) / kappa.
    A huge coordinate overflows to inf quietly.
    """
    with np.errstate(over="ignore"):
        return SU6_NORMS * state.x / bloch_kappa(6)


# -- random ensembles ---------------------------------------------------------

def _generators(seeds) -> list[np.random.Generator]:
    """default_rng(seed) for each seed, each read as a seed first."""
    return [np.random.default_rng(_args.seed(seed)) for seed in seeds]


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _ginibres(rngs, rows: int, cols: int) -> np.ndarray:
    """(N, rows, cols) stack of one Ginibre draw per generator, N = 0 too."""
    return np.array([_ginibre(rng, rows, cols) for rng in rngs],
                    dtype=complex).reshape(-1, rows, cols)


def random_densities(seeds, ensemble: str = "ginibre-full-rank") -> QubitQutritState:
    """Stack of random density matrices, one per seed, with a leading batch
    axis; state i is random_density(seeds[i], ensemble) bit for bit.

    ensemble is "ginibre-full-rank", "pure", or "rank-k" with k one of the
    digits 1..6.
    Each matrix is A A^+ / tr(A A^+) for a 6 x r complex standard-Gaussian A
    drawn from its own generator default_rng(seed), hence positive
    semi-definite by construction and reproducible per seed.
    """
    if ensemble == "ginibre-full-rank":
        r = 6
    elif ensemble == "pure":
        r = 1
    elif ensemble.startswith("rank-"):
        k = ensemble[5:]
        if not (k.isascii() and k.isdigit()) or k != str(int(k)):
            raise ValueError(f"malformed ensemble {ensemble!r}")
        r = _args.integer(int(k), "rank", 1, 6)
    else:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    A = _ginibres(_generators(seeds), 6, r)
    rho = A @ A.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    return from_matrix(rho)


def random_density(seed: int, ensemble: str = "ginibre-full-rank") -> QubitQutritState:
    """Seeded random density matrix: the one-state case of random_densities."""
    return QubitQutritState._of(random_densities([seed], ensemble).x[0])


def random_nonpsd_unit_traces(seeds, min_negative_eigenvalue: float) -> QubitQutritState:
    """Stack of Hermitian unit-trace matrices, one per seed, each with its
    smallest eigenvalue at the requested negative level, built by spectral
    surgery on a random Hermitian matrix drawn from default_rng(seed); state
    i is random_nonpsd_unit_trace(seeds[i], ...) bit for bit."""
    m = float(min_negative_eigenvalue)
    if not -1.0 <= m < 0.0:
        raise ValueError(f"min_negative_eigenvalue must lie in [-1, 0), got {m}")
    rngs = _generators(seeds)
    h = _ginibres(rngs, 6, 6)
    h = (h + h.conj().swapaxes(-1, -2)) / 2
    _, vecs = np.linalg.eigh(h)
    # each generator draws its Hermitian matrix before its spectrum
    pos = np.array([rng.uniform(0.2, 1.0, size=5) for rng in rngs]).reshape(-1, 5)
    eigs = np.insert((1.0 - m) * pos / pos.sum(axis=-1, keepdims=True), 0, m, axis=-1)
    rho = (vecs * eigs[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    return from_matrix(rho)


def random_nonpsd_unit_trace(seed: int, min_negative_eigenvalue: float) -> QubitQutritState:
    """Seeded non-PSD unit-trace matrix: the one-state case of
    random_nonpsd_unit_traces."""
    return QubitQutritState._of(
        random_nonpsd_unit_traces([seed], min_negative_eigenvalue).x[0])


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
    rngs = _generators(seeds)
    if not local:
        return _haar(_ginibres(rngs, 6, 6) / math.sqrt(2))
    # each generator draws its SU(2) factor before its SU(3) factor
    k1 = _haar(_ginibres(rngs, 2, 2) / math.sqrt(2))
    k2 = _haar(_ginibres(rngs, 3, 3) / math.sqrt(2))
    return (k1[:, :, None, :, None] * k2[:, None, :, None, :]).reshape(-1, 6, 6)


def random_local_unitary(seed: int) -> np.ndarray:
    """k1 x k2 with k1 Haar-random in SU(2) and k2 Haar-random in SU(3)."""
    return random_unitaries([seed], local=True)[0]


def random_global_unitary(seed: int) -> np.ndarray:
    """Haar-random SU(6)."""
    return random_unitaries([seed], local=False)[0]


def conjugate(state: QubitQutritState, u: np.ndarray) -> QubitQutritState:
    """State of u rho u^+ in (a, b, C) coordinates; a stack of states takes a
    matching (..., 6, 6) stack of unitaries.  A state with a non-finite or
    huge coordinate is rejected by from_matrix, without a warning."""
    rho = to_matrix(state)
    with np.errstate(over="ignore", invalid="ignore"):
        rho = u @ rho @ u.conj().swapaxes(-1, -2)
    return from_matrix(rho)


# -- state files ---------------------------------------------------------------

def state_to_json_dict(state: QubitQutritState) -> dict:
    return {"abc": {"a": state.a.tolist(), "b": state.b.tolist(),
                    "C": state.C.tolist()}}


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
            fields[key] = _args.real_array(abc[key], key)
            if fields[key].shape != shape:
                raise ValueError(
                    f"field {key!r} has shape {fields[key].shape}, expected {shape}")
            if not np.isfinite(fields[key]).all():
                raise ValueError(f"field {key!r} has non-finite entries")
        return QubitQutritState(fields["a"], fields["b"], fields["C"])
    if "rho" in doc:
        raw = _args.real_array(doc["rho"], "rho")
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
