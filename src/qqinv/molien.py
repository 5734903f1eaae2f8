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
window, about half the full radius N wmax_a, and is stored flat: degree
after degree, and within a degree the torus axes in order, the last
innermost.  Each update is then one contiguous add from the first cell of
its window to the last.  Such a run also covers the cells outside the window
between its rows and planes, and a read there may cross a row or plane end;
gutters of max |w_a| cells at both ends of the two inner axes (of the middle
one only when the first has more than one plane) keep every cell of the box
proper reading its true predecessor, and the gutter cells that the kernel
can still reach hold exactly 0 (see _build_product_boxes for the proof that
every read cell is exact).  The zero weights never leave the origin, which
starts from C(d + z - 1, d) in closed form.

Every box entry counts weight multisets, so it is bounded by C(m + d - 1, d)
for m weights at degree d.  The box is uint64.  While the bound is below
2^64 one pass gives the exact box (for SU(2)xSU(3) through degree 33);
beyond that the same adds run once with 2^64 wraparound and once per odd
modulus below 2^62, reducing after each add, until the moduli cover every
value the constant terms can take, and the Chinese remainder theorem joins
the passes' constant terms.  The box cells at the kernel's exponents are
gathered in one take and summed against the kernel's coefficients, in one
int64 product while sum |coefficient| * C(m + N - 1, N) < 2^63 and by
32-bit halves otherwise.

All of this but the box itself depends only on (weights, N, reach): the
application order, the geometry, the origin seeds and the offset of every
run are planned once per such key and kept in a bounded cache (_box_plan),
and both backends, having the same reach, share one plan, which also keeps
each kernel's cell offsets.  A pass zeroes its box, seeds the origin,
builds its (dst, src) views from the offsets and adds them; the plan cache
never holds a box or a view.  The boxes of molien_series live in one
anonymous memory mapping per thread, outside the malloc heap, kept up to
_SCRATCH_BOX_MAX_BYTES for the thread's next request (_scratch_box), so a
process's resident memory does not depend on where in that heap its boxes
happened to land.

Weight systems for the conjugation action on traceless Hermitian matrices
are built in for SU(2)xSU(2) (15 weights, torus coordinates z, w) and
SU(2)xSU(3) (35 weights, torus coordinates x, y, z).  A second "reduced"
backend integrates the positive-root half prod_{r > 0} (1 - x^-r) of the
Weyl density with divisor 1; on the Weyl-invariant q-degrees of the product
it gives the Weyl average, so it agrees with the Weyl backend on any weight
system.

The rational closed forms of both series are bundled for cross-validation:
the two-qubit form exactly as printed, the qubit-qutrit numerator completed
from its printed prefix by palindromy (N(q) = q^75 N(1/q)).  The sign and
degree of each form's functional equation M(1/q) = +-q^D M(q) are derived
from its numerator and denominator (_functional_equation), not entered.
"""

from __future__ import annotations

import math
import mmap
import operator
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _args

DEFAULT_DEGREE_CAP = 20
#: the largest box, in bytes, that a thread keeps for its next request
_SCRATCH_BOX_MAX_BYTES = 1 << 24

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
    """A backend's kernel as (exponents, an int64 row per term; int64
    coefficients; reach of the exponents; divisor of the constant terms).
    The coefficients' absolute sum must stay below 2^31 (see _kernel_sums);
    it is at most 2^R for R root factors.

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
    if sum(abs(c) for _, c in items) >= 2 ** 31:
        raise ValueError(f"kernel of {len(factors)} root factors is too large")
    exps = np.array([e for e, _ in items], dtype=np.int64).reshape(-1, rank)
    coefs = np.array([c for _, c in items], dtype=np.int64)
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


def _box_radius(wmax: int, reach: int, max_degree: int) -> int:
    """max over d = 0..N of min(d wmax, (N - d) wmax + reach): the first
    term grows with d and the second falls, so the maximum sits at the last
    d where the first is the smaller, t = (N wmax + reach) // (2 wmax), or
    at t + 1, and at most at d = N."""
    if wmax == 0:
        return 0
    t = (max_degree * wmax + reach) // (2 * wmax)
    return min(max_degree * wmax, max(t * wmax, (max_degree - t - 1) * wmax + reach))


def _application_order(w) -> tuple:
    """Sort key of the order in which the factors are applied: the zero
    weight, then weights with w_0 = 0, then weights moving axis 0 and another
    axis, then weights moving axis 0 alone; ties by the weight itself."""
    if not any(w):
        return (0, w)
    if w[0] == 0:
        return (1, w)
    return (2 if any(w[1:]) else 3, w)


@dataclass(frozen=True)
class BoxPlan:
    """Everything about one product box that (weights, degree, reach) fix;
    see _box_plan."""

    #: the box as returned, (N + 1, torus axes, size-1 padding)
    shape: tuple[int, ...]
    #: index of the origin in `shape`, without the degree
    center: tuple[int, ...]
    #: cells per degree; the box is stored flat, one degree after the other
    plane: int
    #: flat offset of the origin within a degree
    origin: int
    #: flat offset of one step along each torus axis of `shape`
    steps: tuple[int, ...]
    #: C(m + N - 1, N), the largest possible box entry
    bound: int
    #: the origin per degree after the zero weights, C(d + z - 1, d)
    seeds: tuple[int, ...]
    #: per window class, how far back in the flat box its reads lie
    backs: tuple[int, ...]
    #: per window class, one column per live degree: the flat [start, stop)
    #: of the cells its run reads
    runs: tuple[np.ndarray, ...]
    #: the window class of each nonzero weight, in application order
    which: tuple[int, ...]
    #: the cells of each kernel in the box, filled in by _kernel_cells
    kernels: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def cells(self) -> int:
        return self.shape[0] * self.plane

    @property
    def nbytes(self) -> int:
        """Bytes of one box, as its `nbytes`."""
        return self.cells * np.dtype(np.uint64).itemsize


# A plan holds one run of 8 bytes (int32) per window class and degree, a few
# KB of array headers and seeds, and the cell offsets of each kernel used
# with it: with both built-in kernels, 19 KB for SU(2)xSU(3) at degree 76
# (20 classes), 10 KB at degree 31 and 8 KB for SU(2)xSU(2) at degree 60.
# 128 plans therefore hold at most about 2.5 MB up to degree 76, however
# many distinct requests arrive.
@lru_cache(maxsize=128)
def _box_plan(weights: tuple, rank: int, max_degree: int, reach: tuple) -> BoxPlan:
    """What _build_product_boxes derives from its arguments alone.  It
    holds offsets, never a box or a view of one, in read-only arrays, since
    every request shares it.  rank, max_degree and reach arrive as Python
    ints; the weights are keyed as given, and a weight equal to an integer
    one (3.0, a numpy integer) plans the same box, as every weight becomes
    int64 here, so the cache state never changes a result."""
    if rank > 3:
        raise ValueError(f"torus rank {rank} not supported (max 3)")
    lead = (0,) * (3 - rank)
    order = sorted(weights, key=_application_order)
    w = np.array([lead + x for x in order], dtype=np.int64).reshape(-1, 3)
    absw = np.abs(w)
    wmax = absw.max(axis=0, initial=0).tolist()
    radius = [_box_radius(m, r, max_degree) for m, r in zip(wmax, lead + reach)]
    # the gutters of axes 1 and 2; see _build_product_boxes
    half = np.add(radius, [0, wmax[1] if radius[0] else 0, wmax[2]])
    size = 2 * half + 1
    steps = np.array([size[1] * size[2], size[2], 1])
    plane = int(size.prod())
    zeros = sum(1 for x in order if not any(x))
    # the windows of every distinct (w, P_k, S_k) at every degree at once,
    # as inclusive index bounds per axis, shape (factors, degrees 1..N, axes)
    prefix = np.maximum.accumulate(absw)
    suffix = np.maximum.accumulate(absw[::-1])[::-1]
    index = {}
    which = tuple(index.setdefault(key, len(index)) for key in
                  map(tuple, np.hstack([w, prefix, suffix])[zeros:].tolist()))
    factors = np.array(list(index), dtype=np.int64).reshape(-1, 9)
    shift, p, s = factors[:, None, :3], factors[:, None, 3:6], factors[:, None, 6:]
    degree = np.arange(max_degree + 1)[:, None]
    radii = np.minimum(degree * p, (max_degree - degree) * s + (lead + reach))
    first = np.maximum(-radii[:, 1:], shift - radii[:, :-1]) + half
    last = np.minimum(radii[:, 1:], shift + radii[:, :-1]) + half
    # a shift wider than both windows leaves first > last on some axis,
    # where the flat run would be empty or wrapped, so it must be skipped
    live = (first <= last).all(axis=2)
    # each run is the flat range from the first window cell to the last; it
    # reads the cells `back` before it, one degree and w back
    backs = plane + factors[:, :3] @ steps
    dst = np.arange(1, max_degree + 1) * plane - backs[:, None]
    table = np.stack([first @ steps + dst, last @ steps + dst + 1]).astype(
        np.int32 if (max_degree + 1) * plane < 2 ** 31 else np.int64)
    runs = tuple(table[:, k, live[k]] for k in range(len(factors)))
    for array in runs:
        array.flags.writeable = False
    return BoxPlan(
        shape=(max_degree + 1,) + tuple(size.tolist()[3 - rank:]) + (1,) * (3 - rank),
        center=tuple(half.tolist()[3 - rank:]) + lead, plane=plane,
        origin=int(half @ steps), steps=tuple(steps.tolist()[3 - rank:]),
        bound=_coefficient_bound(len(w), max_degree),
        seeds=(1,) + tuple(math.comb(zeros + d - 1, d) for d in range(1, max_degree + 1)),
        backs=tuple(backs.tolist()), runs=runs, which=which)


def _build_product_boxes(weights, rank: int, max_degree: int, reach,
                         modulus: int = 2 ** 64) -> tuple[np.ndarray, tuple[int, ...]]:
    """Truncated prod over weights w of 1/(1 - q x^w), one dense box of
    Laurent coefficients per q-degree, exact modulo `modulus` on every cell
    within `reach` (per axis) of the origin at every degree.

    Multiplying by the factor of weight w is S_d += shift(S_{d-1}, w) for
    d = 1..N, ascending.  The factors w_1..w_m run in the order of
    _application_order, and factor k updates degree d on axis a within the
    window |p_a| <= min(d P_ka, (N - d) S_ka + reach_a): P_ka =
    max_{j <= k} |w_ja| bounds the support of the partial product (zero
    beyond d P_ka), and S_ka = max_{j >= k} |w_ja|, k included, bounds how
    far factors k..m can still move a cell.

    Layout.  The torus axes are padded to three at the front.  The radius
    c_a = max_d min(d wmax_a, (N - d) wmax_a + reach_a) covers every window,
    and axes 1 and 2 have gutters of g_a cells beyond c_a at both ends, so
    that axis a has h_a = c_a + g_a cells on either side of the origin and
    S_a = 2 h_a + 1 in all.  The box is stored flat, degree after degree with
    axis 2 innermost: cell p (origin 0) of degree d sits at d V + fl(p), V
    the cells per degree and fl(p) = (p_0 S_1 + p_1) S_2 + p_2.  Factor k
    updates degree d with one add over the flat range from the first to the
    last cell of its window, which also covers the cells between window rows
    outside the window; the read of a cell lies V + fl(w) before it.
    g_2 = wmax_2, and g_1 = wmax_1 when axis 0 has more than one plane; with
    one plane a run keeps to the window's rows of axis 1, which needs no
    gutter.  A gutter cell is one with |p_1| > c_1 or |p_2| > c_2.

    (i) Reads.  The read of a cell p stays in degree d - 1, and it is p - w
    unless p is a gutter cell.  If |p_a| <= c_a then |p_a - w_a| <= h_a, so
    a read carries from axis 2 into axis 1, or from axis 1 into axis 0, only
    from a gutter cell, and by one step at most.  A carry into axis 0 keeps
    the read within |p_0| <= c_0: the first plane of a run starts at a
    window cell and cannot borrow, the last ends at one and cannot carry,
    and the planes between are strictly inside the window, whose reads
    p_0 - w_0 lie within c_0.  Without a carry the read is p - w, in the box
    on axis 0 because the window is.

    (ii) Support.  A read moves an entry by V + fl(w) and the seeds sit at
    the origin, so a cell p of degree d holds a nonzero entry only if
    fl(p) = fl(u) for a sum u of d weights, |u_a| <= d wmax_a.

    (iii) Exactness.  Let K_k(d) be the cone |p_a| <= (N - d) S_ka + reach_a
    of cells that factors k..m can still carry to the kernel.  The zero
    weights come first; their windows are the origin, and after z of them
    the origin holds C(d + z - 1, d) at degree d, which is set in closed
    form.  From there, by induction over k and d, once factor k has run
    through degree d every cell of K_k(d) in the box holds the coefficient
    of the product of w_1..w_k; a cell of K_k(d) beyond the box has
    coefficient 0, as c_a >= min(d wmax_a, (N - d) wmax_a + reach_a) puts it
    beyond the support d wmax_a.
      A gutter cell p in K_k(d), with |p_a| > c_a, has
      c_a < (N - d) wmax_a + reach_a, so d wmax_a <= c_a by the definition
      of c_a, and its coefficient is 0.  So is its entry.  Let u be as in
      (ii).  On axis b = 2, and then on b = 1 if it has a gutter,
      |p_b - u_b| < S_b: either d wmax_b <= h_b and both lie within h_b,
      or c_b < N wmax_b, so reach_b < N wmax_b and c_b >= t wmax_b at
      t = (N wmax_b + reach_b) // (2 wmax_b), whence 2 c_b + 2 wmax_b >
      N wmax_b + reach_b >= |p_b| + |u_b|, p being in the cone.  So
      fl(p) = fl(u) forces p_2 = u_2 and then p_1 = u_1, against
      |u_a| <= d wmax_a < |p_a|.
      Any other cell p in K_k(d) held the product of w_1..w_(k-1), since S
      never increases along the order, so K_k(d) lies in K_(k-1)(d).  If the
      run covers p, it adds the cell p - w at degree d - 1 by (i), which is
      in K_k(d - 1) since |w_ka| <= S_ka, and so is exact.  Otherwise p is
      outside the window.  Then p is beyond d P_k, or p - w is beyond
      (d - 1) P_k (p - w beyond the cone would put p beyond K_k(d)), and
      factor k adds nothing to p.
    K_m(d) holds every cell within reach, so every cell that
    _constant_terms reads is exact.  Any order is exact; the order only sets
    the cost.

    Residues.  The box is uint64.  Every pass makes the same adds, so a
    pass computes the exact integer box reduced modulo its modulus: 2^64
    by wraparound, or an odd modulus below 2^62, subtracted once after an
    add whenever the sum reaches it.  No entry exceeds C(m + N - 1, N), so
    the 2^64 pass is the exact box while that bound is below 2^64.  The
    box is returned as an (N + 1, X, Y, Z) view with the torus axes first
    and size-1 padding last, together with the index of the origin.

    Plan.  The shape, gutters, seeds, window classes and run offsets come
    from _box_plan, computed once per (weights, N, reach) and cached.  Each
    pass allocates a fresh box from the plan, seeds the origin, builds the
    (dst, src) views of every run of each class once and adds them class by
    class in the application order.  These are the windows, runs, order and
    adds of the proof above, computed by the same formulas, so the proof
    holds as it stands; the cache only decides when they are computed.
    """
    plan = _box_plan(tuple(map(tuple, weights)), operator.index(rank),
                     operator.index(max_degree),
                     tuple(map(operator.index, reach)))
    box = np.zeros(plan.cells, dtype=np.uint64)
    return _fill_box(plan, modulus, box).reshape(plan.shape), plan.center


_SCRATCH = threading.local()


def _scratch_box(cells: int) -> np.ndarray:
    """A zeroed flat uint64 box of `cells` cells, for a caller that is done
    with it before it asks for the next one.

    The box is the front of an anonymous memory mapping of the calling
    thread; a mapping of at most _SCRATCH_BOX_MAX_BYTES is kept for the
    thread's next request, and a box that outgrows it gets a new one.
    Boxes from malloc left a heap whose size varied with the timing of the
    requests: once glibc frees a large block it raises its mmap threshold
    to that size (up to 32 MB), so smaller boxes come from the heap, which
    keeps up to twice the threshold free before it is trimmed."""
    kept = getattr(_SCRATCH, "box", None)
    if kept is not None and kept.size >= cells:
        box = kept[:cells]
        box.fill(0)
        return box
    # private anonymous memory (a Windows mapping takes no flags)
    flags = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    mapping = mmap.mmap(-1, cells * np.dtype(np.uint64).itemsize, **flags)
    box = np.frombuffer(mapping, dtype=np.uint64)
    if box.nbytes <= _SCRATCH_BOX_MAX_BYTES:
        _SCRATCH.box = box
    return box


def _fill_box(plan: BoxPlan, modulus: int, box: np.ndarray) -> np.ndarray:
    """The flat box of _build_product_boxes modulo 2^64 or an odd modulus
    below 2^62, built in `box`, a zeroed flat uint64 array of plan.cells."""
    box[plan.origin::plan.plane] = [s % modulus for s in plan.seeds]
    # the (dst, src) views of every run, built once per class; ahead[i] is
    # box[i + back], so a run adds its source box[f0:f1] to ahead[f0:f1]
    views = []
    for back, table in zip(plan.backs, plan.runs):
        ahead = box[back:]
        views.append([(ahead[f0:f1], box[f0:f1]) for f0, f1 in zip(*table.tolist())])
    if modulus == 2 ** 64:
        for k in plan.which:
            for dst, src in views[k]:
                dst += src
        return box
    # both terms are below the modulus, so the sum is below 2^63 and one
    # conditional subtract reduces it: dst - modulus wraps past dst when
    # dst < modulus, and the minimum keeps the reduced value; no run is
    # longer than a degree
    spare = np.empty(plan.plane, dtype=np.uint64)
    for k in plan.which:
        for dst, src in views[k]:
            dst += src
            low = spare[:dst.size]
            np.subtract(dst, modulus, out=low)
            np.minimum(dst, low, out=dst)
    return box


def _kernel_cells(plan: BoxPlan, exps: np.ndarray, coefs: np.ndarray) -> tuple:
    """The kernel terms whose cells lie in the box, as (flat offset of each
    within a degree; their coefficients; the sum of their negative
    coefficients; the sum of their absolute values).  A term outside the
    box reads an exact zero.  Kept in the plan per kernel, so that each
    request makes one gather."""
    key = (exps.tobytes(), coefs.tobytes())
    cells = plan.kernels.get(key)
    if cells is None:
        inside = (np.abs(exps) <= plan.center[:exps.shape[1]]).all(axis=1)
        offsets = plan.origin - exps[inside] @ plan.steps
        kept = coefs[inside]
        offsets.flags.writeable = kept.flags.writeable = False
        cells = plan.kernels[key] = (offsets, kept, int(kept[kept < 0].sum()),
                                     int(np.abs(kept).sum()))
    return cells


def _moduli(span: int) -> list[int]:
    """2^64, then the largest odd numbers below 2^62 coprime to every
    modulus before them, until the product of the moduli exceeds span."""
    moduli, product, candidate = [2 ** 64], 2 ** 64, 2 ** 62 - 1
    while product <= span:
        if math.gcd(candidate, product) == 1:
            moduli.append(candidate)
            product *= candidate
        candidate -= 2
    return moduli


def _kernel_sums(rows: np.ndarray, coefs: np.ndarray, span: int) -> list[int]:
    """sum_j coefs[j] rows[i, j] per row i in Python integers, for uint64
    rows, sum |coefs| < 2^31 and no partial sum beyond span in absolute
    value.  Below 2^63 that is one int64 product; otherwise each 32-bit
    half of the rows is summed in int64, where no partial sum reaches
    sum |coefs| 2^32 <= 2^63."""
    if span < 2 ** 63:
        return (rows.view(np.int64) @ coefs).tolist()
    low = (rows & 0xFFFFFFFF).view(np.int64) @ coefs
    high = (rows >> 32).view(np.int64) @ coefs
    return [(h << 32) + l for h, l in zip(high.tolist(), low.tolist())]


def _box_rows(plan: BoxPlan, modulus: int, offsets: np.ndarray) -> np.ndarray:
    """The cells at `offsets` within a degree, for every degree, of the box
    modulo `modulus`, copied out of a box built in the thread's
    _scratch_box."""
    box = _fill_box(plan, modulus, _scratch_box(plan.cells))
    return box.reshape(plan.shape[0], -1).take(offsets, axis=1)


def _constant_terms(plan: BoxPlan, exps: np.ndarray, coefs: np.ndarray) -> list[int]:
    """CT per q-degree of kernel * series: the box entries at the origin
    minus the kernel exponents, gathered for every degree at once and
    summed against the kernel's coefficients.

    Every entry lies in [0, bound], so every constant term lies in
    [negative * bound, negative * bound + weight * bound] for the sum
    `negative` of the negative coefficients and the sum `weight` of their
    absolute values.  While the bound is below 2^64, the one 2^64 pass is
    the exact box.  Otherwise each pass of _moduli gives the constant terms
    modulo its modulus, the Chinese remainder theorem combines them modulo
    the product of the moduli, and since that product exceeds the width of
    the range, the range fixes them.  Each pass's rows are copied out of
    its box before the next pass builds one (_box_rows)."""
    offsets, kept, negative, weight = _kernel_cells(plan, exps, coefs)
    degrees = plan.shape[0]
    if plan.bound < 2 ** 64:
        rows = _box_rows(plan, 2 ** 64, offsets)
        return _kernel_sums(rows, kept, weight * plan.bound)
    total, product = [0] * degrees, 1
    for modulus in _moduli(weight * plan.bound):
        rows = _box_rows(plan, modulus, offsets)
        sums = _kernel_sums(rows, kept, weight * (modulus - 1))
        inverse = pow(product, -1, modulus)
        total = [t + product * ((s - t) * inverse % modulus)
                 for t, s in zip(total, sums)]
        product *= modulus
    least = negative * plan.bound
    return [least + (t - least) % product for t in total]


def molien_series(ws: WeightSystem, max_degree: int, *,
                  backend: str = "weyl",
                  degree_cap: int = DEFAULT_DEGREE_CAP) -> list[int]:
    """Exact invariant counts c_0..c_max_degree for the weight system.

    backend "weyl" averages against the full root product with the explicit
    1/|W| normalization; "reduced" integrates the positive-root half
    prod_{r > 0} (1 - x^-r) of it with divisor 1 (see _kernel).
    The product box covers only the cells within the kernel's reach (see
    _build_product_boxes).  It is computed in uint64, once while the proven
    bound C(m + d - 1, d) on its entries is below 2^64 and otherwise once
    per modulus of a residue system wide enough for the constant terms (see
    _constant_terms), so the counts are exact at every degree.

    Requests beyond degree_cap are rejected so that runaway degrees fail
    fast; pass a larger degree_cap explicitly to override.
    """
    max_degree = _args.integer(max_degree, "max_degree", 0)
    degree_cap = _args.integer(degree_cap, "degree_cap", 0)
    if max_degree > degree_cap:
        raise ValueError(
            f"max_degree {max_degree} exceeds the resource cap {degree_cap}; "
            f"pass degree_cap explicitly to override")
    exps, coefs, reach, divisor = _kernel(tuple(map(tuple, ws.roots)), ws.rank,
                                          backend, ws.weyl_order)
    plan = _box_plan(tuple(map(tuple, ws.weights)), ws.rank, max_degree, reach)
    out = []
    for d, value in enumerate(_constant_terms(plan, exps, coefs)):
        if value % divisor:
            raise ArithmeticError(
                f"constant term {value} at degree {d} is not divisible by {divisor}")
        out.append(value // divisor)
    return out


# -- rational closed forms ------------------------------------------------------

def rational_series(numerator, denominator_exponents, max_degree: int) -> list[int]:
    """Taylor coefficients 0..max_degree of N(q) / prod (1 - q^deg)^mult,
    exact integer arithmetic."""
    max_degree = _args.integer(max_degree, "max_degree", 0)
    denominator_exponents = _args.degree_pairs(denominator_exponents, "denominator")
    series = [_args.integer(c, "numerator coefficient") for c in numerator]
    series = series[:max_degree + 1]
    series += [0] * (max_degree + 1 - len(series))
    for deg, mult in denominator_exponents:
        for _ in range(mult):
            for i in range(deg, max_degree + 1):
                series[i] += series[i - deg]
    return series


def _functional_equation(numerator, denominator_exponents):
    """(sign, degree) with M(1/q) = sign * q^degree * M(q) for the rational
    form M, or None when the numerator is not a (possibly sign-flipped)
    palindrome.

    Coefficient bookkeeping alone: a numerator q^lo P(q) with P(0) != 0 and
    P of degree hi - lo maps to q^-hi P(q) times the sign of P's palindrome,
    every denominator factor contributes (1 - q^-deg) = -q^-deg (1 - q^deg),
    so the sign picks up (-1)^r for the r denominator factors and the degree
    is the denominator's degree minus lo + hi.  Zero padding at either end
    of the list is no part of P; an all-zero numerator has no equation.
    """
    num = [_args.integer(c, "numerator coefficient") for c in numerator]
    denominator_exponents = _args.degree_pairs(denominator_exponents, "denominator")
    support = [k for k, c in enumerate(num) if c]
    if not support:
        return None
    lo, hi = support[0], support[-1]
    num = num[lo:hi + 1]
    if num == num[::-1]:
        num_sign = 1
    elif num == [-c for c in num[::-1]]:
        num_sign = -1
    else:
        return None
    r = sum(mult for _, mult in denominator_exponents)
    den_degree = sum(deg * mult for deg, mult in denominator_exponents)
    return num_sign * (-1) ** r, den_degree - (lo + hi)


def palindromy_check(numerator, denominator_exponents, sign: int,
                     top_degree: int) -> bool:
    """Whether M(1/q) = sign * q^top_degree * M(q) for the rational form."""
    expected = _args.integer(sign, "sign"), _args.integer(top_degree, "top_degree")
    return _functional_equation(numerator, denominator_exponents) == expected


@dataclass(frozen=True)
class RationalForm:
    numerator: tuple[int, ...]
    denominator: tuple[tuple[int, int], ...]

    def series(self, max_degree: int) -> list[int]:
        return rational_series(self.numerator, self.denominator, max_degree)


TWO_QUBIT_RATIONAL = RationalForm(
    numerator=(1, 0, 0, 0, 1, 1, 3, 2, 2, 3, 1, 1, 0, 0, 0, 1),
    denominator=((2, 3), (3, 2), (4, 3), (6, 1)),
)

#: Printed prefix of the qubit-qutrit numerator (degree -> coefficient), its
#: last term the top degree; the elided middle is filled in by
#: complete_numerator_by_palindromy.
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
    top_degree = _args.integer(top_degree, "top_degree", 0)
    coeffs = [None] * (top_degree + 1)
    for k, v in prefix.items():
        k = _args.integer(k, "numerator degree")
        if not 0 <= k <= top_degree:
            raise ValueError(
                f"numerator degree {k} is outside 0..{top_degree}")
        coeffs[k] = _args.integer(v, "numerator coefficient")
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
        numerator=complete_numerator_by_palindromy(
            QUBIT_QUTRIT_NUMERATOR_PREFIX, max(QUBIT_QUTRIT_NUMERATOR_PREFIX)),
        denominator=QUBIT_QUTRIT_DENOMINATOR,
    )


def rational_form_for(label: str) -> RationalForm:
    if label == "su2xsu2":
        return TWO_QUBIT_RATIONAL
    if label == "su2xsu3":
        return qubit_qutrit_rational()
    raise ValueError(f"no rational form for {label!r}")
