"""Molien/Poincare series of local-unitary invariant rings by exact
constant-term extraction over the maximal torus.

The number of linearly independent invariant polynomials of degree d under a
compact group action on V is the q^d coefficient of the group average of
1/det(I - q pi(g)).  On the maximal torus pi(g) is diagonal with monomial
entries x^w, one integer exponent vector w per weight of V, and the average
becomes a constant-term extraction against the Weyl density:

    c_d = (1/|W|) CT_x [ prod_{roots r} (1 - x^r)
                         * [q^d] prod_{weights w} 1/(1 - q x^w) ]

All arithmetic is exact and no floating point enters this module.  The
truncated product is built in a dense box of Laurent coefficients per
q-degree, pruned to the cells that can still reach the kernel's exponents.
The factors are applied in a fixed order (zero weights, then weights at rest
on axis 0, then weights moving axis 0 and another axis, then weights on
axis 0 alone), and factor k updates degree d of N on its own window
|p_a| <= min(d P_ka, (N - d) S_ka + reach_a): P_ka is the largest |w_a| of
the factors applied so far (k included), which bounds the support of the
partial product, S_ka the largest |w_a| of the factors still to come
(k included), which bounds how far a cell can still move, and reach_a the
largest kernel exponent on axis a.  Zero weights thus sweep one cell per
degree, and the SU(2) axis or the other axes stay still for the first and
last groups of weights.  The box has the radius of the widest window, about
half the full radius N wmax_a (see _build_product_boxes for the proof that
every read cell is exact).  Every box entry counts weight multisets, so it
is bounded by C(m + d - 1, d) for m weights at degree d; the box is int64
while that bound fits and holds arbitrary-precision Python integers
otherwise (for SU(2)xSU(3) from degree 32 on).  The kernel product is
gathered from the box in one index and summed in Python integers.

Weight systems for the conjugation action on traceless Hermitian matrices
are built in for SU(2)xSU(2) (15 weights, torus coordinates z, w) and
SU(2)xSU(3) (35 weights, torus coordinates x, y, z).  A second "reduced"
backend integrates the symmetry-reduced kernels of those two groups and is
normalized by its own degree-0 term; it must agree with the Weyl backend.

The rational closed forms of both series are bundled for cross-validation:
the two-qubit form exactly as printed, the qubit-qutrit numerator completed
from its printed prefix by palindromy (N(q) = q^75 N(1/q)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_DEGREE_CAP = 20
INT64_SAFE_LIMIT = 2 ** 62

GROUP_LABELS = ("su2xsu2", "su2xsu3")


@dataclass(frozen=True)
class WeightSystem:
    """Integer torus data of a representation: weights, roots, |W|."""

    rank: int
    weights: tuple[tuple[int, ...], ...]
    roots: tuple[tuple[int, ...], ...]
    weyl_order: int
    label: str = ""

    def validate(self) -> None:
        for w in self.weights + self.roots:
            if len(w) != self.rank:
                raise ValueError(f"vector {w} does not have rank {self.rank}")
        for axis in range(self.rank):
            if sum(w[axis] for w in self.weights) != 0:
                raise ValueError(f"weight coordinates do not sum to 0 on axis {axis}")
        roots = list(self.roots)
        for r in self.roots:
            neg = tuple(-x for x in r)
            if roots.count(neg) != roots.count(r):
                raise ValueError(f"roots are not paired: {r} vs {neg}")
        if self.weyl_order < 1:
            raise ValueError("weyl_order must be positive")


def _pairwise_products(left: list[tuple[int, ...]], right: list[tuple[int, ...]]):
    return [l + r for l in left for r in right]


@lru_cache(maxsize=None)
def adjoint_weight_system(spec: str) -> WeightSystem:
    """Weight system of the conjugation action on traceless Hermitian
    matrices for "su2xsu2" or "su2xsu3".

    Weights are the pairwise products of the diagonal torus entries of the
    two factors with one zero weight removed (the trace direction), leaving
    dim su(4) = 15 resp. dim su(6) = 35 weights.  Roots are the nonzero
    adjoint weights of each factor; |W| = 4 resp. 12.
    """
    su2 = [(0,), (0,), (1,), (-1,)]
    if spec == "su2xsu2":
        weights = _pairwise_products(su2, su2)
        weights.remove((0, 0))
        roots = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        ws = WeightSystem(2, tuple(weights), tuple(roots), 4, label=spec)
    elif spec == "su2xsu3":
        su3 = [(0, 0), (0, 0), (0, 0),
               (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]
        weights = _pairwise_products(su2, su3)
        weights.remove((0, 0, 0))
        roots = [(1, 0, 0), (-1, 0, 0)]
        roots += [(0,) + r for r in su3[3:]]
        ws = WeightSystem(3, tuple(weights), tuple(roots), 12, label=spec)
    else:
        raise ValueError(f"unknown group spec {spec!r}; expected one of {GROUP_LABELS}")
    ws.validate()
    return ws


# -- Laurent polynomial helpers (exact, dict-based, for small factors) --------

def _laurent_mul(p: dict, q: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            val = out.get(key, 0) + c1 * c2
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


@lru_cache(maxsize=None)
def _root_polynomial(roots: tuple, rank: int) -> tuple:
    """Expanded prod over roots r of (1 - x^r) as (exponent, coefficient)
    items, exact integer coefficients."""
    poly = {(0,) * rank: 1}
    for r in roots:
        poly = _laurent_mul(poly, {(0,) * rank: 1, tuple(r): -1})
    return tuple(poly.items())


#: symmetry-reduced kernels as (monomial, factors): x^monomial times the
#: product over the factors r of (1 - x^r)
_REDUCED_KERNELS = {
    "su2xsu2": ((-1, -1), ((1, 0), (1, 0), (0, 1), (0, 1))),
    "su2xsu3": ((0, 0, 0), ((-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, -1, -1))),
}


@lru_cache(maxsize=None)
def _reduced_kernel(label: str) -> tuple:
    """Symmetry-reduced constant-term kernel replacing the Weyl density, as
    (exponent, coefficient) items.

    su2xsu2:  z^-1 w^-1 (1 - z)^2 (1 - w)^2
    su2xsu3:  (1 - x^-1)(1 - y^-1)(1 - z^-1)(1 - (yz)^-1)
    """
    if label not in _REDUCED_KERNELS:
        raise ValueError(
            f"reduced backend is only defined for {GROUP_LABELS}, got {label!r}")
    monomial, factors = _REDUCED_KERNELS[label]
    return tuple((tuple(m + e for m, e in zip(monomial, exp)), coef)
                 for exp, coef in _root_polynomial(factors, len(monomial)))


# -- truncated product of 1/(1 - q x^w) factors --------------------------------

def _padded_weights(ws_weights, rank: int) -> list[tuple[int, int, int]]:
    return [tuple(w) + (0,) * (3 - rank) for w in ws_weights]


def _coefficient_bound(n_weights: int, max_degree: int) -> int:
    """Every coefficient of the truncated product is a nonnegative count of
    weight multisets, hence bounded by C(m + d - 1, d); the empty product is
    the constant 1."""
    if n_weights == 0:
        return 1
    return math.comb(n_weights + max_degree - 1, max_degree)


def _axis_reach(vectors, rank: int) -> tuple[int, ...]:
    """Largest |v_a| over the vectors, per torus axis."""
    return tuple(max((abs(v[axis]) for v in vectors), default=0)
                 for axis in range(rank))


def _axis_windows(shift: int, radii, c: int) -> list:
    """Slice pairs (destination, source) on one axis of S_d += S_{d-1}
    shifted by `shift`, for d = 1..N (index d; index 0 is None), the
    destination clipped to the degree-d window and the source to the
    degree-(d-1) window; None where nothing is added.

    A shift wider than both windows leaves lo > hi, and the slice stop would
    be negative, which numpy wraps instead of rejecting, so it must be
    skipped.
    """
    out = [None]
    for d in range(1, len(radii)):
        lo = max(-radii[d], shift - radii[d - 1])
        hi = min(radii[d], shift + radii[d - 1])
        out.append((slice(c + lo, c + hi + 1), slice(c + lo - shift, c + hi + 1 - shift))
                   if lo <= hi else None)
    return out


def _application_order(w) -> tuple:
    """Sort key of the order in which the factors are applied: the zero
    weight, then weights with w_0 = 0, then weights moving axis 0 and another
    axis, then weights moving axis 0 alone; ties by the weight itself."""
    if not any(w):
        return (0, w)
    if w[0] == 0:
        return (1, w)
    return (2 if any(w[1:]) else 3, w)


def _build_product_boxes(weights, rank: int, max_degree: int,
                         reach) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Truncated prod over weights w of 1/(1 - q x^w), one dense box of
    Laurent coefficients per q-degree, exact on every cell within `reach`
    (per axis) of the origin at every degree.

    Multiplying by the factor of weight w is S_d += shift(S_{d-1}, w) for
    d = 1..N, ascending.  The factors w_1..w_m run in the order of
    _application_order, and factor k updates degree d on axis a within the
    radius min(d P_ka, (N - d) S_ka + reach_a): P_ka = max_{j <= k} |w_ja|
    bounds the support of the partial product (zero beyond d P_ka), and
    S_ka = max_{j >= k} |w_ja|, k included, bounds how far factors k..m can
    still move a cell.  By induction over k and d, every cell in factor k's
    window holds the exact coefficient of the product of w_1..w_k:
      - the predecessor p - w_k it reads at degree d - 1 has
        |p_a - w_ka| <= (N - d + 1) S_ka + reach_a, since |w_ka| <= S_ka, so
        it is in factor k's degree-(d-1) window or beyond (d - 1) P_ka;
      - the cell p it adds to holds the product of w_1..w_(k-1) (at k = 1
        the empty product): S never increases along the order, so p is in
        factor k - 1's window or beyond d P_(k-1)a.
    Beyond those radii the partial products are zero, and so are the box
    cells, since clipping only drops nonnegative terms.  At k = m every cell
    within reach is in the window or beyond d wmax_a, so every cell read is
    exact; any order is exact, the order only sets the cost.  The box
    radius, max_d min(d wmax_a, (N - d) wmax_a + reach_a), covers every
    window.

    The box is int64 while the bound C(m + d - 1, d) on its entries fits and
    holds Python integers otherwise.
    """
    if rank > 3:
        raise ValueError(f"torus rank {rank} not supported (max 3)")
    padded = sorted(_padded_weights(weights, rank), key=_application_order)
    reach = tuple(reach) + (0,) * (3 - rank)
    center = tuple(max(min(d * m, (max_degree - d) * m + r)
                       for d in range(max_degree + 1))
                   for m, r in zip(_axis_reach(padded, 3), reach))
    shape = (max_degree + 1,) + tuple(2 * c + 1 for c in center)
    fits = _coefficient_bound(len(padded), max_degree) < INT64_SAFE_LIMIT
    coeffs = np.zeros(shape, dtype=np.int64 if fits else object)
    coeffs[(0,) + center] = 1
    # P_k and S_k per factor: running maxima of |w_a| from the front and back
    absw = np.abs(np.array(padded, dtype=np.int64).reshape(-1, 3))
    prefix = map(tuple, np.maximum.accumulate(absw).tolist())
    suffix = map(tuple, np.maximum.accumulate(absw[::-1])[::-1].tolist())
    factors = list(zip(padded, prefix, suffix))
    # views into the box, built once per distinct (w, P_k, S_k); the slices
    # of one axis depend only on (w_a, P_ka, S_ka, reach_a, center_a)
    axis_windows, views = {}, {}
    for factor in set(factors):
        per_axis = []
        for key in zip(*factor, reach, center):
            if key not in axis_windows:
                shift, p, s, r, c = key
                axis_windows[key] = _axis_windows(
                    shift, [min(d * p, (max_degree - d) * s + r)
                            for d in range(max_degree + 1)], c)
            per_axis.append(axis_windows[key])
        views[factor] = [(coeffs[d, x[0], y[0], z[0]], coeffs[d - 1, x[1], y[1], z[1]])
                         for d, (x, y, z) in enumerate(zip(*per_axis)) if x and y and z]
    for factor in factors:
        for dst, src in views[factor]:
            dst += src
    return coeffs, center


def _extract_constant_terms(boxes: np.ndarray, center, kernel: tuple,
                            rank: int) -> list[int]:
    """CT per q-degree of kernel * series: the box entries at the negated
    kernel exponents, gathered for every degree at once and summed against
    the kernel coefficients in Python integers (out-of-box lookups are
    exact zeros)."""
    coefs, positions = [], []
    for exp, coef in kernel:
        pos = tuple(c - e for c, e in zip(center, tuple(exp) + (0,) * (3 - rank)))
        if all(0 <= p < s for p, s in zip(pos, boxes.shape[1:])):
            coefs.append(int(coef))
            positions.append(pos)
    index = np.array(positions, dtype=np.intp).reshape(-1, 3).T
    rows = boxes[:, index[0], index[1], index[2]].tolist()
    return [sum(c * v for c, v in zip(coefs, row)) for row in rows]


def molien_series(ws: WeightSystem, max_degree: int, *,
                  backend: str = "weyl",
                  degree_cap: int = DEFAULT_DEGREE_CAP) -> list[int]:
    """Exact invariant counts c_0..c_max_degree for the weight system.

    backend "weyl" averages against the full root product with the explicit
    1/|W| normalization; "reduced" (built-in groups only) integrates the
    symmetry-reduced kernel normalized by its degree-0 constant term.
    The product box covers only the cells within the kernel's reach (see
    _build_product_boxes).  It is int64 while the proven bound
    C(m + d - 1, d) on its entries fits and holds Python integers otherwise;
    the kernel product is summed in Python integers, so the counts are exact
    at every degree.

    Requests beyond degree_cap are rejected so that runaway degrees fail
    fast; pass a larger degree_cap explicitly to override.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if max_degree > degree_cap:
        raise ValueError(
            f"max_degree {max_degree} exceeds the resource cap {degree_cap}; "
            f"pass degree_cap explicitly to override")
    if backend == "weyl":
        kernel = _root_polynomial(tuple(map(tuple, ws.roots)), ws.rank)
        divisor = ws.weyl_order
    elif backend == "reduced":
        kernel = _reduced_kernel(ws.label)
        divisor = None  # normalized by the degree-0 term below
    else:
        raise ValueError(f"unknown backend {backend!r}")

    reach = _axis_reach([exp for exp, _ in kernel], ws.rank)
    boxes, center = _build_product_boxes(ws.weights, ws.rank, max_degree, reach)
    raw = _extract_constant_terms(boxes, center, kernel, ws.rank)

    if divisor is None:
        divisor = raw[0]
        if divisor <= 0:
            raise ArithmeticError("reduced kernel has non-positive degree-0 term")
    out = []
    for d, value in enumerate(raw):
        if value % divisor:
            raise ArithmeticError(
                f"constant term {value} at degree {d} is not divisible by {divisor}")
        out.append(value // divisor)
    return out


# -- rational closed forms ------------------------------------------------------

def rational_series(numerator, denominator_exponents, max_degree: int) -> list[int]:
    """Taylor coefficients 0..max_degree of N(q) / prod (1 - q^deg)^mult,
    exact integer arithmetic."""
    for deg, mult in denominator_exponents:
        if deg < 1:
            raise ValueError(f"denominator degree must be >= 1, got {deg}")
        if mult < 1:
            raise ValueError(f"denominator multiplicity must be >= 1, got {mult}")
    series = [int(c) for c in numerator[:max_degree + 1]]
    series += [0] * (max_degree + 1 - len(series))
    for deg, mult in denominator_exponents:
        for _ in range(mult):
            for i in range(deg, max_degree + 1):
                series[i] += series[i - deg]
    return series


def palindromy_check(numerator, denominator_exponents, sign: int,
                     top_degree: int) -> bool:
    """Whether M(1/q) = sign * q^(-top_degree) * M(q) for the rational form.

    Checked on coefficient bookkeeping alone: the numerator list must be a
    (possibly sign-flipped) palindrome, every denominator factor contributes
    (1 - q^-deg) = -q^-deg (1 - q^deg), and the net degree shift must match.
    """
    num = [int(c) for c in numerator]
    if num == num[::-1]:
        num_sign = 1
    elif num == [-c for c in num[::-1]]:
        num_sign = -1
    else:
        return False
    den_degree = sum(deg * mult for deg, mult in denominator_exponents)
    den_sign = -1 if sum(mult for _, mult in denominator_exponents) % 2 else 1
    actual_sign = num_sign * den_sign
    actual_degree = den_degree - (len(num) - 1)
    return actual_sign == sign and actual_degree == top_degree


@dataclass(frozen=True)
class RationalForm:
    numerator: tuple[int, ...]
    denominator: tuple[tuple[int, int], ...]
    palindromic_sign: int
    palindromic_degree: int

    def series(self, max_degree: int) -> list[int]:
        return rational_series(self.numerator, self.denominator, max_degree)


TWO_QUBIT_RATIONAL = RationalForm(
    numerator=(1, 0, 0, 0, 1, 1, 3, 2, 2, 3, 1, 1, 0, 0, 0, 1),
    denominator=((2, 3), (3, 2), (4, 3), (6, 1)),
    palindromic_sign=-1,
    palindromic_degree=15,
)

#: Printed prefix of the qubit-qutrit numerator (degree -> coefficient); the
#: elided middle is filled in by complete_numerator_by_palindromy.
QUBIT_QUTRIT_NUMERATOR_PREFIX = {
    0: 1, 4: 4, 5: 9, 6: 38, 7: 69, 8: 173, 9: 347, 10: 733, 11: 1403,
    12: 2796, 13: 5091, 14: 9286, 15: 16058, 16: 27208, 17: 44250,
    18: 70537, 19: 108430, 20: 163158, 21: 238264, 22: 339974, 23: 472130,
    24: 641187, 25: 848615, 26: 1098643, 27: 1388741, 28: 1717327,
    29: 2075836, 30: 2456389, 31: 2843020, 32: 3222408, 33: 3575226,
    34: 3884797, 35: 4133599, 36: 4308636, 37: 4398377, 38: 4398377,
    69: 38, 70: 9, 71: 4, 75: 1,
}

QUBIT_QUTRIT_DENOMINATOR = ((2, 3), (3, 4), (4, 5), (5, 4), (6, 5), (7, 2), (8, 1))


def complete_numerator_by_palindromy(prefix: dict[int, int],
                                     top_degree: int) -> tuple[int, ...]:
    """Fill unstated numerator coefficients with their mirror images.

    Any coefficient stated on both sides of the mirror must agree; an
    inconsistent prefix is reported by raising, never patched over.
    """
    coeffs = [None] * (top_degree + 1)
    for k, v in prefix.items():
        coeffs[k] = int(v)
    for k in range(top_degree + 1):
        mirror = top_degree - k
        if coeffs[k] is not None and coeffs[mirror] is not None:
            if coeffs[k] != coeffs[mirror]:
                raise ArithmeticError(
                    f"numerator prefix breaks palindromy at degrees {k}/{mirror}: "
                    f"{coeffs[k]} != {coeffs[mirror]}")
        elif coeffs[k] is not None:
            coeffs[mirror] = coeffs[k]
    # degrees stated on neither side of the mirror are absent terms
    return tuple(0 if c is None else c for c in coeffs)


@lru_cache(maxsize=1)
def qubit_qutrit_rational() -> RationalForm:
    return RationalForm(
        numerator=complete_numerator_by_palindromy(QUBIT_QUTRIT_NUMERATOR_PREFIX, 75),
        denominator=QUBIT_QUTRIT_DENOMINATOR,
        palindromic_sign=1,
        palindromic_degree=35,
    )


def rational_form_for(label: str) -> RationalForm:
    if label == "su2xsu2":
        return TWO_QUBIT_RATIONAL
    if label == "su2xsu3":
        return qubit_qutrit_rational()
    raise ValueError(f"no rational form for {label!r}")
