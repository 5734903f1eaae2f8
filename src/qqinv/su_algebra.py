"""su(n) matrix bases and their structure-constant tensors.

Three orthogonal Hermitian bases are provided, normalized so that
tr(t_A t_B) = 2 delta_AB:

* ``su2-pauli``    -- the three Pauli matrices,
* ``su3-gellmann`` -- the eight Gell-Mann matrices,
* ``su6-tensor``   -- the 35 tensor-product generators of su(6), enumerated
  qubit-block first:

      t_i      = sigma_i x I3 / sqrt(3)      i = 1..3
      t_{3+a}  = I2 x lambda_a / sqrt(2)     a = 1..8
      t_{11+a} = sigma_1 x lambda_a / sqrt(2)
      t_{19+a} = sigma_2 x lambda_a / sqrt(2)
      t_{27+a} = sigma_3 x lambda_a / sqrt(2)

From a basis the totally symmetric tensor d_ABC and totally antisymmetric
tensor f_ABC are computed via

    d_ABC = (1/4) tr({t_A, t_B} t_C),    f_ABC = (-i/4) tr([t_A, t_B] t_C),

and the standard identity families relating them (Jacobi, mixed d/f, the two
ff<->dd exchange identities, and the su(3)-only cyclic dd identity) are
verified by exhaustive contraction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

HERMITICITY_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-9
IDENTITY_TOL = 1e-9
CLOSED_FORM_TOL = 1e-10
CLOSURE_PAIRS = 250

BASIS_LABELS = ("su2-pauli", "su3-gellmann", "su6-tensor")

# -- defining matrices -------------------------------------------------------

PAULI = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)


def _gellmann() -> np.ndarray:
    g = np.zeros((8, 3, 3), dtype=complex)
    sym_pairs = [(0, (0, 1)), (3, (0, 2)), (5, (1, 2))]
    for k, (i, j) in sym_pairs:
        g[k, i, j] = g[k, j, i] = 1
        g[k + 1, i, j] = -1j
        g[k + 1, j, i] = 1j
    g[2] = np.diag([1, -1, 0])
    g[7] = np.diag([1, 1, -2]) / math.sqrt(3)
    return g


GELL_MANN = _gellmann()

#: The su6-tensor generators before normalization, and their norms: the basis
#: is SU6_GENERATORS / SU6_NORMS (see the module docstring).
SU6_GENERATORS = np.array(
    [np.kron(PAULI[i], np.eye(3)) for i in range(3)]
    + [np.kron(np.eye(2), GELL_MANN[a]) for a in range(8)]
    + [np.kron(PAULI[i], GELL_MANN[a]) for i in range(3) for a in range(8)])
SU6_NORMS = np.array([math.sqrt(3)] * 3 + [math.sqrt(2)] * 32)


@dataclass(frozen=True)
class SuBasis:
    """An orthogonal Hermitian basis of su(n), tr(t_A t_B) = 2 delta_AB."""

    label: str
    n: int
    elements: np.ndarray  # shape (n^2 - 1, n, n), complex

    def __len__(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True)
class StructureConstants:
    """Dense d/f tensors of an su(n) basis, indexed [A, B, C] zero-based."""

    n: int
    d: np.ndarray
    f: np.ndarray

    @property
    def dim(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True)
class IdentityReport:
    """Max absolute violation of each structure-constant identity family."""

    n: int
    violations: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(v <= IDENTITY_TOL for v in self.violations.values())


@lru_cache(maxsize=None)
def build_basis(label: str) -> SuBasis:
    """Construct one of the three supported bases.

    Raises ValueError for an unknown label.
    """
    if label == "su2-pauli":
        return SuBasis(label, 2, PAULI.copy())
    if label == "su3-gellmann":
        return SuBasis(label, 3, GELL_MANN.copy())
    if label == "su6-tensor":
        return SuBasis(label, 6, SU6_GENERATORS / SU6_NORMS[:, None, None])
    raise ValueError(f"unknown basis label {label!r}; expected one of {BASIS_LABELS}")


def basis_defects(basis: SuBasis) -> dict[str, float]:
    """Max deviations from Hermiticity, tracelessness and orthonormality."""
    t = basis.elements
    herm = np.abs(t - t.conj().transpose(0, 2, 1)).max()
    tr = np.abs(np.einsum("aii->a", t)).max()
    gram = np.einsum("aij,bji->ab", t, t)
    ortho = np.abs(gram - 2 * np.eye(len(basis))).max()
    return {"hermiticity": float(herm), "trace": float(tr), "orthonormality": float(ortho)}


@lru_cache(maxsize=None)
def structure_constants(label: str) -> StructureConstants:
    """d/f tensors of the basis with the given label (cached)."""
    return structure_constants_of(build_basis(label))


def structure_constants_of(basis: SuBasis) -> StructureConstants:
    """Compute d_ABC and f_ABC from the anticommutator/commutator traces.

    The input basis must satisfy tr(t_A t_B) = 2 delta_AB; anything else is
    rejected since the defining trace formulas assume that normalization.
    """
    defects = basis_defects(basis)
    if defects["orthonormality"] > ORTHONORMALITY_TOL:
        raise ValueError(
            f"basis is not orthonormal: max |tr(t_A t_B) - 2 delta| = "
            f"{defects['orthonormality']:.3e}"
        )
    t = basis.elements
    k, n = t.shape[0], basis.n
    # abc = tr(t_a t_b t_c) = sum over i of (t_a t_b)_{i.} . (t_c)_{.i}, summed
    # over i in order; each row of the built-in bases has one nonzero entry,
    # so every partial product is exact and the sum is bit for bit the one
    # of the triple-index einsum
    ab = (t[:, None] @ t[None, :]).reshape(k * k, n, n)
    abc = ab[:, 0, :] @ t[:, :, 0].T
    for i in range(1, n):
        abc = abc + ab[:, i, :] @ t[:, :, i].T
    abc = abc.reshape(k, k, k)
    acb = abc.transpose(0, 2, 1)
    d = (abc + acb) / 4
    f = -1j * (abc - acb) / 4
    residue = max(np.abs(d.imag).max(), np.abs(f.imag).max())
    if residue > HERMITICITY_TOL:
        raise ValueError(f"imaginary residue {residue:.3e} in structure constants")
    return StructureConstants(basis.n, np.ascontiguousarray(d.real), np.ascontiguousarray(f.real))


def _contractions(x: np.ndarray, y: np.ndarray):
    """Nonzero terms of P[a,b,p,q] = sum_c x_abc y_cpq: index arrays a, b, p, q
    and the values x_abc y_cpq, one per pair of nonzero entries sharing c.
    Terms of one output index are not summed here."""
    xc, xa, xb = np.nonzero(x.transpose(2, 0, 1))   # x entries ordered by c
    yc, yp, yq = np.nonzero(y)                      # y entries ordered by c
    x_val, y_val = x[xa, xb, xc], y[yc, yp, yq]
    per_c = np.bincount(yc, minlength=x.shape[0])
    first = np.cumsum(per_c) - per_c
    reps = per_c[xc]
    xi = np.repeat(np.arange(len(xc)), reps)
    yi = first[xc][xi] + np.arange(len(xi)) - np.repeat(np.cumsum(reps) - reps, reps)
    return (xa[xi], xb[xi], yp[yi], yq[yi]), x_val[xi] * y_val[yi]


def verify_structure_identities(sc: StructureConstants) -> IdentityReport:
    """Evaluate every identity family over all free-index tuples.

    Families (delta is the Kronecker tensor, n the defining dimension):

      jacobi_ff:   f_abc f_cpq + f_bpc f_caq + f_pac f_cbq = 0
      mixed_df:    d_abc f_cpq + d_bpc f_caq + d_pac f_cbq = 0
      ff_to_dd:    f_abc f_cpq = d_apc d_cbq - d_aqc d_cbp
                               + (2/n)(d_ap d_bq - d_aq d_bp)
      ff_dd_sym:   f_abc f_cpq + f_aqc f_cpb = 2 d_apc d_cbq - d_abc d_cpq
                               - d_aqc d_cbp
                               + (2/n)(2 d_ap d_bq - d_ab d_pq - d_aq d_bp)
      dd_cyclic (su(3) only):
                   d_abc d_cpq + d_bpc d_caq + d_pac d_cbq
                               = (1/3)(d_ab d_pq + d_ap d_bq + d_aq d_bp)

    Every product term is an index permutation of one of ff, df and dd,
    P[i0,i1,i2,i3] = sum_c x_{i0 i1 c} y_{c i2 i3}, formed once from the
    nonzero entries.  A family's residual is gathered in blocks of one value
    of the leading free index a, k^3 bins over (b, p, q) each: each term's
    entries are stably ordered by a once, and block a joins every term's
    run of a in term order, which is the family's stable order by a.  So
    each bin sums the same terms in the same order as one flat array over
    all k^4 tuples would, and every violation is bit for bit that array's
    maximum, NaN included, while the family's terms are held only once.
    """
    k = sc.dim
    products, families = _identity_terms(sc)
    # a as the smallest unsigned type, which numpy's stable sort radix-sorts
    lead_type = np.min_scalar_type(k)
    violations = {}
    for name, terms in families.items():
        # per term: where each value of a starts, then the flat (b, p, q)
        # index and the weight of its entries ordered by a
        runs = []
        for coef, prod, slots in terms:
            idx, val = products[prod]
            lead = idx[slots.index("a")].astype(lead_type)
            order = np.argsort(lead, kind="stable")
            flat = 0
            for free in "bpq":
                flat = flat * k + idx[slots.index(free)][order]
            runs.append((np.searchsorted(lead[order], np.arange(k + 1)),
                         flat, coef * val[order]))
        worst = [np.abs(np.bincount(
                     np.concatenate([f[c[a]:c[a + 1]] for c, f, _ in runs]),
                     np.concatenate([w[c[a]:c[a + 1]] for c, _, w in runs]),
                     minlength=k ** 3)).max()
                 for a in range(k)]
        # np.max, not Python's max, so that a NaN block survives the fold
        violations[name] = float(np.max(worst))
    return IdentityReport(n=sc.n, violations=violations)


def _identity_terms(sc: StructureConstants):
    """The products of verify_structure_identities as (index arrays, values)
    and each family's terms as (coefficient, product, the free index in each
    of its slots)."""
    d, f, n = sc.d, sc.f, sc.n
    k = sc.dim
    x, y = np.divmod(np.arange(k * k), k)
    products = {"ff": _contractions(f, f), "df": _contractions(d, f),
                "dd": _contractions(d, d),
                # delta_{i0 i1} delta_{i2 i3}
                "delta": ((x, x, y, y), np.ones(k * k))}
    cyclic = ("abpq", "bpaq", "pabq")
    families = {
        "jacobi_ff": [(1, "ff", s) for s in cyclic],
        "mixed_df": [(1, "df", s) for s in cyclic],
        "ff_to_dd": [(1, "ff", "abpq"), (-1, "dd", "apbq"), (1, "dd", "aqbp"),
                     (-2 / n, "delta", "apbq"), (2 / n, "delta", "aqbp")],
        "ff_dd_sym": [(1, "ff", "abpq"), (1, "ff", "aqpb"), (-2, "dd", "apbq"),
                      (1, "dd", "abpq"), (1, "dd", "aqbp"),
                      (-4 / n, "delta", "apbq"), (2 / n, "delta", "abpq"),
                      (2 / n, "delta", "aqbp")],
    }
    if n == 3:
        families["dd_cyclic"] = ([(1, "dd", s) for s in cyclic]
                                 + [(-1 / 3, "delta", s) for s in ("abpq", "apbq", "aqbp")])
    return products, families


def closure_max_violation(basis: SuBasis, sc: StructureConstants,
                          seed: int) -> float:
    """Max violation of t_A t_B = (2/n) delta_AB I + (d_ABC + i f_ABC) t_C
    over CLOSURE_PAIRS seeded random index pairs."""
    rng = np.random.default_rng(seed)
    t = basis.elements
    k, n = len(basis), basis.n
    a, b = rng.integers(0, k, size=(CLOSURE_PAIRS, 2)).T
    lhs = t[a] @ t[b]
    rhs = ((sc.d[a, b] + 1j * sc.f[a, b]) @ t.reshape(k, n * n)).reshape(-1, n, n)
    rhs += (2.0 / n) * (a == b)[:, None, None] * np.eye(n)
    return float(np.abs(lhs - rhs).max())


# -- symmetrized traces -------------------------------------------------------

def _check_indices(indices, dim: int) -> np.ndarray:
    """indices as an (m, k) int array: one tuple is the stack of m = 1.
    Each index must be an integer; a float or a bool is rejected, not cast
    (numpy reads [True, 1] as the ints (1, 1))."""
    items = np.asarray(indices, dtype=object)
    for i in items.flat:
        if isinstance(i, bool) or not isinstance(i, numbers.Integral):
            raise TypeError(f"indices must be integers, got {i!r}")
    idx = items.astype(np.int64)
    if idx.ndim not in (1, 2):
        raise ValueError(f"indices must be one tuple or an (m, k) stack, "
                         f"got shape {idx.shape}")
    if idx.ndim == 1:
        idx = idx[None]
    if not 2 <= idx.shape[1] <= 6:
        raise ValueError(f"need 2..6 indices, got {idx.shape[1]}")
    bad = ((idx < 0) | (idx >= dim)).any(axis=1)
    if bad.any():
        raise ValueError(f"index out of range for basis of size {dim}: "
                         f"{tuple(int(i) for i in idx[bad.argmax()])}")
    return idx


def _polarize(indices, dim: int, power) -> float | np.ndarray:
    """A symmetric k-form T on (e_{i_1}, ..., e_{i_k}) from its diagonal
    power(x, k) = T(x, ..., x), by the polarization identity

        (1/k!) sum_{S nonempty in [k]} (-1)^(k-|S|) power(x_S, k),
        x_S = sum_{j in S} e_{i_j}

    indices is one tuple, giving a float, or an (m, k) stack of them, giving
    m values.  power takes the vectors x_S of all tuples as one
    (m, 2^k - 1, dim) stack and returns their values; a repeated index
    simply counts twice in x_S.  Each tuple's signed sum is its own dot
    product, so value i is bit for bit the value of tuple i alone.
    """
    idx = _check_indices(indices, dim)
    k = idx.shape[1]
    members = (np.arange(1, 2 ** k)[:, None] >> np.arange(k)) & 1
    x = members @ np.eye(dim)[idx]
    signs = (-1.0) ** (k - members.sum(axis=1))
    values = np.array([signs @ v for v in power(x, k)]) / math.factorial(k)
    return float(values[0]) if np.ndim(indices) == 1 else values


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u . v over the last axis of (stacks of) vectors."""
    return np.einsum("...i,...i->...", u, v)


def _power_trace_closed(sc: StructureConstants, x: np.ndarray, k: int) -> np.ndarray:
    """tr((x.t)^k), 2 <= k <= 6, over the last axis of a stack of x, from
    delta/d contractions: D_bc = x_a d_abc (d is totally symmetric) as one
    matrix product with d flattened to (dim, dim^2), v = D x."""
    n, dim = sc.n, sc.dim
    D = (x @ sc.d.reshape(dim, dim * dim)).reshape(x.shape[:-1] + (dim, dim))
    v = (D @ x[..., None])[..., 0]
    Dv = (D @ v[..., None])[..., 0]
    xx, vx, vv = _dot(x, x), _dot(v, x), _dot(v, v)
    return {2: 2 * xx, 3: 2 * vx, 4: (4 / n) * xx ** 2 + 2 * vv,
            5: (8 / n) * xx * vx + 2 * _dot(v, Dv),
            6: ((8 / n ** 2) * xx ** 3 + (8 / n) * xx * vv + (4 / n) * vx ** 2
                + 2 * _dot(Dv, Dv))}[k]


def symmetrized_trace(basis: SuBasis, indices) -> float | np.ndarray:
    """(1/k!) sum over permutations p of tr(t_{p(1)} ... t_{p(k)}), 2 <= k <= 6,
    by polarizing tr((x.t)^k); indices are zero-based positions in the basis.
    An (m, k) stack of index tuples gives their m values as one array, entry
    i bit for bit the value of tuple i alone."""
    t = basis.elements
    return _polarize(indices, len(basis), lambda x, k: np.trace(
        np.linalg.matrix_power(np.tensordot(x, t, 1), k),
        axis1=-2, axis2=-1).real)


def symmetrized_trace_closed(sc: StructureConstants, indices) -> float | np.ndarray:
    """The same symmetrized trace from delta/d contractions alone: polarizes
    _power_trace_closed, and never forms a basis matrix.  Takes one index
    tuple or an (m, k) stack of them, as symmetrized_trace does."""
    return _polarize(indices, sc.dim,
                     lambda x, k: _power_trace_closed(sc, x, k))


# -- JSON export --------------------------------------------------------------

def to_json_dict(label: str) -> dict:
    """Basis + structure-constant dump with 1-based indices.

    Entries list each component above 1e-12 in magnitude once with
    A <= B <= C; the remaining components follow from total (anti)symmetry.
    """
    basis = build_basis(label)
    sc = structure_constants(label)
    i = np.arange(sc.dim)
    ordered = (i[:, None, None] <= i[:, None]) & (i[:, None] <= i)

    def entries(tensor):
        # argwhere lists the kept (a, b, c) in C order, as nested loops would
        keep = ordered & (np.abs(tensor) > 1e-12)
        return [[a, b, c, v] for (a, b, c), v in
                zip((np.argwhere(keep) + 1).tolist(), tensor[keep].tolist())]

    return {"label": basis.label, "n": basis.n,
            "d": entries(sc.d), "f": entries(sc.f)}
