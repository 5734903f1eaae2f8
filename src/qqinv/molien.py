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
largest kernel exponent on axis a.  The box has the radius of the widest
window, about half the full radius N wmax_a, and is laid out as (degree,
first torus axis, the other torus axes flattened), so that each update is
one add over contiguous runs, a single 1-D add when the window spans one
plane of the first axis.  A run also covers the innermost-axis cells
outside the window between its rows, and a read there may cross a row end;
a gutter of max |w| cells at both ends of the innermost axis keeps every
cell of the box proper reading its true predecessor, and the gutter cells
that the kernel can still reach hold exactly 0 (see _build_product_boxes
for the proof that every read cell is exact).  The zero weights never leave
the origin, which starts from C(d + z - 1, d) in closed form.  Every box
entry counts weight multisets, so it is bounded by C(m + d - 1, d) for m
weights at degree d; the box is int64 while that bound fits and holds
arbitrary-precision Python integers otherwise (for SU(2)xSU(3) from degree
32 on).  The box cells at the kernel's exponents are gathered in one index
and summed against the kernel's coefficients in one product of Python
integers.

Weight systems for the conjugation action on traceless Hermitian matrices
are built in for SU(2)xSU(2) (15 weights, torus coordinates z, w) and
SU(2)xSU(3) (35 weights, torus coordinates x, y, z).  A second "reduced"
backend integrates the positive-root half prod_{r > 0} (1 - x^-r) of the
Weyl density with divisor 1; on the Weyl-invariant q-degrees of the product
it gives the Weyl average, so it agrees with the Weyl backend on any weight
system.

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


@lru_cache(maxsize=None)
def _kernel(roots: tuple, rank: int, backend: str, weyl_order: int) -> tuple:
    """A backend's kernel as (exponents padded to three axes at the back, an
    int64 row per term; coefficients, an object array of Python ints; reach
    of the exponents; divisor of the constant terms).

    weyl:     prod over all roots r of (1 - x^r), divisor |W|
    reduced:  prod over the roots r > 0, whose first nonzero coordinate is
              positive, of (1 - x^-r), divisor 1
    """
    if backend == "weyl":
        factors, divisor = roots, weyl_order
    elif backend == "reduced":
        factors = tuple(tuple(-x for x in r) for r in roots
                        if next((x for x in r if x), 0) > 0)
        divisor = 1
    else:
        raise ValueError(f"unknown backend {backend!r}")
    items = _root_polynomial(factors, rank)
    exps = np.array([e + (0,) * (3 - rank) for e, _ in items],
                    dtype=np.int64).reshape(-1, max(rank, 3))
    coefs = np.array([c for _, c in items], dtype=object)
    # the record is shared by every request through the cache
    exps.flags.writeable = coefs.flags.writeable = False
    return exps, coefs, _axis_reach([e for e, _ in items], rank), divisor


# -- truncated product of 1/(1 - q x^w) factors --------------------------------

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
    window |p_a| <= min(d P_ka, (N - d) S_ka + reach_a): P_ka =
    max_{j <= k} |w_ja| bounds the support of the partial product (zero
    beyond d P_ka), and S_ka = max_{j >= k} |w_ja|, k included, bounds how
    far factors k..m can still move a cell.

    Layout.  The torus axes are padded to three at the front and the box is
    stored as (degree, axis 0, axes 1 and 2 flattened).  The radius
    c_a = max_d min(d wmax_a, (N - d) wmax_a + reach_a) covers every window,
    and axis 2 has a gutter of g = wmax_2 cells beyond c_2 at both ends.
    Factor k updates degree d with one add: in each axis-0 plane of its
    window, the contiguous run from its first to its last window cell in
    flattened order.  Between rows a run also covers the axis-2 cells
    outside the window, gutter included.  A read moves w_1 rows and w_2
    cells back in that order and lands on p - w unless it crosses a row end.
    A cell with |p_2| <= c_2 has |p_2 - w_2| <= c_2 + g, so only a gutter
    cell reads across a row end, and then it reads a gutter cell.

    Exactness.  Let K_k(d) be the cone |p_a| <= (N - d) S_ka + reach_a of
    cells that factors k..m can still carry to the kernel.  The zero weights
    come first; their windows are the origin, and after z of them the origin
    holds C(d + z - 1, d) at degree d, which is set in closed form.  From
    there, by induction over k and d:
      (a) at a degree d with d wmax_2 <= c_2, every cell beyond the support
          d P_ka on some axis a holds 0, gutter cells included.  Its value
          before factor k was 0, beyond d P_(k-1)a.  A read that lands on
          p - w comes from beyond (d - 1) P_ka, and a read across a row end
          from a gutter cell, beyond c_2 >= (d - 1) wmax_2; both hold 0 by
          (a) at degree d - 1.
      (b) once factor k has run through degree d, every cell p in K_k(d)
          holds the exact coefficient of the product of w_1..w_k.  A gutter
          cell in K_k(d) has c_2 < |p_2| <= (N - d) wmax_2 + reach_2, so
          d wmax_2 <= c_2 by the definition of c_2; it is beyond the
          support, so it holds 0 by (a).  Any other cell p in K_k(d) held
          the product of w_1..w_(k-1), since S never increases along the
          order, so K_k(d) lies in K_(k-1)(d).  If a run covers p, it adds
          the cell p - w at degree d - 1, which is in K_k(d - 1) since
          |w_ka| <= S_ka, and so is exact.  Otherwise p is outside the
          window.  Then p is beyond d P_k, or p - w is beyond (d - 1) P_k
          (p - w beyond the cone would put p beyond K_k(d)), and factor k
          adds nothing to p.
    K_m(d) holds every cell within reach, so every cell that
    _extract_constant_terms reads is exact.  Any order is exact; the order
    only sets the cost.

    The box is int64 while the bound C(m + d - 1, d) on its entries fits and
    holds Python integers otherwise.  It is returned as an (N + 1, X, Y, Z)
    view with the torus axes first and size-1 padding last, together with
    the index of the origin.
    """
    if rank > 3:
        raise ValueError(f"torus rank {rank} not supported (max 3)")
    lead = (0,) * (3 - rank)
    order = sorted(map(tuple, weights), key=_application_order)
    w = np.array([lead + x for x in order], dtype=np.int64).reshape(-1, 3)
    absw = np.abs(w)
    wmax = absw.max(axis=0, initial=0)
    reach = np.array(lead + tuple(reach), dtype=np.int64)
    degree = np.arange(max_degree + 1)[:, None]
    center = (np.minimum(degree * wmax, (max_degree - degree) * wmax + reach).max(axis=0)
              + [0, 0, wmax[2]])
    size_x, size_y, size_z = (2 * center + 1).tolist()
    fits = _coefficient_bound(len(w), max_degree) < INT64_SAFE_LIMIT
    coeffs = np.zeros((max_degree + 1, size_x, size_y * size_z),
                      dtype=np.int64 if fits else object)
    zeros = int((~absw.any(axis=1)).sum())
    coeffs[:, center[0], center[1] * size_z + center[2]] = [1] + [
        math.comb(zeros + d - 1, d) for d in range(1, max_degree + 1)]
    # the windows of every distinct (w, P_k, S_k) at every degree at once,
    # as index bounds [lo, hi) per axis, shape (factors, degrees, axes)
    prefix = np.maximum.accumulate(absw)
    suffix = np.maximum.accumulate(absw[::-1])[::-1]
    index = {}
    which = [index.setdefault(key, len(index)) for key in
             map(tuple, np.hstack([w, prefix, suffix])[zeros:].tolist())]
    factors = np.array(list(index), dtype=np.int64).reshape(-1, 9)
    shift, p, s = factors[:, None, :3], factors[:, None, 3:6], factors[:, None, 6:]
    radii = np.minimum(degree * p, (max_degree - degree) * s + reach)
    lo = np.maximum(-radii[:, 1:], shift - radii[:, :-1]) + center
    hi = np.minimum(radii[:, 1:], shift + radii[:, :-1]) + center + 1
    # a shift wider than both windows leaves lo >= hi on some axis, where
    # the flat run would be empty or wrapped, so it must be skipped
    live = (lo < hi).all(axis=2)
    # a run starts and stops at these flat offsets; one row of `rows` is
    # one axis-0 plane of one degree
    plane = size_y * size_z
    row = np.arange(1, max_degree + 1) * size_x + lo[..., 0]
    start = lo[..., 1] * size_z + lo[..., 2]
    stop = (hi[..., 1] - 1) * size_z + hi[..., 2]
    flat, rows = coeffs.reshape(-1), coeffs.reshape(-1, plane)
    runs = []
    for (w_x, w_y, w_z), *bounds in zip(
            factors[:, :3].tolist(), live.tolist(), (hi[..., 0] - lo[..., 0]).tolist(),
            row.tolist(), start.tolist(), stop.tolist()):
        # the source is one degree and w back
        back_r, back_f = size_x + w_x, w_y * size_z + w_z
        back = back_r * plane + back_f
        pairs = []
        for ok, n, r, f0, f1 in zip(*bounds):
            if not ok:
                continue
            if n == 1:
                a, b = r * plane + f0, r * plane + f1
                pairs.append((flat[a:b], flat[a - back:b - back]))
            else:
                pairs.append((rows[r:r + n, f0:f1],
                              rows[r - back_r:r - back_r + n, f0 - back_f:f1 - back_f]))
        runs.append(pairs)
    for k in which:
        for dst, src in runs[k]:
            dst += src
    torus = (size_x, size_y, size_z)[3 - rank:]
    return (coeffs.reshape((max_degree + 1,) + torus + (1,) * (3 - rank)),
            tuple(center.tolist()[3 - rank:]) + lead)


def _extract_constant_terms(boxes: np.ndarray, center, exps: np.ndarray,
                            coefs: np.ndarray) -> list[int]:
    """CT per q-degree of kernel * series: the box entries at center minus
    the kernel exponents, gathered for every degree at once and summed
    against the kernel coefficients in one product of Python integers
    (out-of-box lookups are exact zeros)."""
    pos = np.subtract(center, exps)
    inside = ((pos >= 0) & (pos < boxes.shape[1:])).all(axis=1)
    x, y, z = pos[inside].T
    return (boxes[:, x, y, z].astype(object) @ coefs[inside]).tolist()


def molien_series(ws: WeightSystem, max_degree: int, *,
                  backend: str = "weyl",
                  degree_cap: int = DEFAULT_DEGREE_CAP) -> list[int]:
    """Exact invariant counts c_0..c_max_degree for the weight system.

    backend "weyl" averages against the full root product with the explicit
    1/|W| normalization; "reduced" integrates the positive-root half
    prod_{r > 0} (1 - x^-r) of it with divisor 1 (see _kernel).
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
    exps, coefs, reach, divisor = _kernel(tuple(map(tuple, ws.roots)), ws.rank,
                                          backend, ws.weyl_order)
    boxes, center = _build_product_boxes(ws.weights, ws.rank, max_degree, reach)
    out = []
    for d, value in enumerate(_extract_constant_terms(boxes, center, exps, coefs)):
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
    inconsistent prefix is reported by raising, never patched over, and so
    is a degree outside 0..top_degree.
    """
    coeffs = [None] * (top_degree + 1)
    for k, v in prefix.items():
        if not 0 <= k <= top_degree:
            raise ValueError(
                f"numerator degree {k} is outside 0..{top_degree}")
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
