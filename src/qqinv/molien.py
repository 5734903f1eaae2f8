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
on the slab axis, then weights moving it with an axis after it, axis by
axis, then weights on the slab axis alone), and factor k updates degree d
of N on its own window |p_a| <=
min(d P_ka, (N - d) S_ka + reach_a): P_ka is the largest |w_a| of the
factors applied so far (k included), which bounds the support of the partial
product, S_ka the largest |w_a| of the factors still to come (k included),
which bounds how far a cell can still move, and reach_a the largest kernel
exponent on axis a.  The box is stored flat: degree after degree, and within
a degree the torus axes in order, the last innermost.  The slab axis, the
first that a weight moves, reaches at degree d only its widest window there,
min(d wmax_a, (N - d) wmax_a + reach_a), so each degree is a slab of its own
number of planes; every other axis has the radius of its widest window at
any degree, about half the full radius N wmax_a, so every plane has one
size.  Each update is then one contiguous add from the first cell of its
window to the last, reading the slab of the degree before.  Such a run also
covers the cells outside the window between its rows and planes, and a read
there may cross a row or plane end; gutters of max |w_a| cells at both ends
of the axes after the slab axis (of the middle one only when the slab axis
is the first and has more than one plane) keep every cell of the box proper
reading its true predecessor, and the gutter cells that the kernel can still
reach hold exactly 0 (see _build_product_boxes for the proof that every read
cell is exact).  The zero weights never leave the origin, which starts from
C(d + z - 1, d) in closed form.  Once no factor still to come moves an
axis after the slab axis, nor one between the two, only the cells within
the kernel's reach on that axis count.  There the order is cut into
phases: the first runs on the box, and each
later one copies the cells within reach of the array before it out with
one strided slice, degree after degree, and runs there with the same
contiguous adds.  For SU(2)xSU(3) the weights at rest on x or moving y run
on the box, those moving x and z on a band of the cells within reach on y,
and (+-1, 0, 0) on 5 x 5 columns; for SU(2)xSU(2), (+-1, 0) runs on
columns of 3 cells.

Every box entry counts weight multisets, so it is bounded by C(m + d - 1, d)
for m weights at degree d.  The box is uint64.  While the bound is below
2^64 one pass gives the exact box (for SU(2)xSU(3) through degree 33);
beyond that the same adds run once with 2^64 wraparound and once per odd
modulus below 2^62, reducing after each add, until the moduli cover every
value the constant terms can take, and the Chinese remainder theorem joins
the passes' constant terms.  The cells at the kernel's exponents are
gathered from the last phase in one take and summed against the kernel's
coefficients, in one int64 product while sum |coefficient| *
C(m + N - 1, N) < 2^63 and by 32-bit halves otherwise.

All of this but the box itself depends only on (weights, N, reach): the
application order, the geometry, the origin seeds and the offset of every
run are planned once per such key and kept in a bounded cache (_box_plan),
and both backends, having the same reach, share one plan, which also keeps
each kernel's cell offsets at every degree.  A pass zeroes its box, seeds
the origins, builds its (dst, src) views from the offsets and adds them;
the plan cache never holds a box or a view.  The boxes of molien_series,
each with its later phases, live in one anonymous memory mapping
per thread, outside the malloc heap, kept up to _SCRATCH_BOX_MAX_BYTES
(SU(2)xSU(3) through degree 41) for the thread's next request
(_scratch_box), so a process's resident memory does not depend on where in
that heap its boxes happened to land.

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
from functools import cached_property, lru_cache

import numpy as np

from . import _args
from ._args import DEFAULT_DEGREE_CAP

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
    weight, then the weights by the first axis they move, last axis first,
    and among those by the next axis they move, first axis first; ties by
    the weight itself.  So the weights at rest on the slab axis come before
    those moving it, and of these the weights moving an axis after it run
    before those that do not, axis by axis, the slab axis alone last."""
    moved = [a for a, x in enumerate(w) if x] + [len(w)] * 2
    return (-moved[0], moved[1], w)


@dataclass(frozen=True)
class Phase:
    """One stretch of the application order and the flat array it runs on:
    every plane of the box, each cut to the cells within `cut` of the
    origin."""

    #: how far the array reaches either side of the origin on each torus axis
    cut: tuple[int, ...]
    #: flat offset of the array in the scratch box
    offset: int
    #: the array as (planes, axes after the slab axis)
    shape: tuple[int, ...]
    #: the index of the array's cells in the previous phase's array seen as
    #: its `shape`; None for the box, the first phase
    index: tuple | None
    #: per window class, one column per live degree: the flat [start, stop)
    #: of the cells its run reads, and the flat start of the cells it adds to
    runs: tuple[np.ndarray, ...]
    #: the window class of each factor of the stretch, in application order
    which: tuple[int, ...]

    @property
    def cells(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class BoxPlan:
    """Everything about one product box that (weights, degree, reach) fix;
    see _box_plan."""

    #: the dense view of the box, (N + 1, torus axes, size-1 padding)
    shape: tuple[int, ...]
    #: index of the origin in `shape`, without the degree
    center: tuple[int, ...]
    #: the torus axis whose extent is set per degree: the first one that a
    #: weight moves (the last if none does); the axes before it have one cell
    axis: int
    #: per degree, how far its slab reaches on `axis` either side of the origin
    extents: tuple[int, ...]
    #: cells per position on `axis`, the same at every degree
    plane: int
    #: flat offset of each degree's slab, one degree after the other, and
    #: last the end of the box
    slabs: tuple[int, ...]
    #: flat offset of each degree's origin
    origins: np.ndarray
    #: C(m + N - 1, N), the largest possible box entry
    bound: int
    #: the origin per degree after the zero weights, C(d + z - 1, d)
    seeds: tuple[int, ...]
    #: the stretches of the nonzero weights in application order, the
    #: first on the box, each later one on the cells of the one before within
    #: the kernel's reach on the axes after `axis` that no later weight moves
    phases: tuple[Phase, ...]
    #: the cells of each kernel in the last phase, filled in by _kernel_cells
    kernels: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def cells(self) -> int:
        return self.slabs[-1]

    @property
    def nbytes(self) -> int:
        """Bytes of one box, as its `nbytes`."""
        return self.cells * np.dtype(np.uint64).itemsize

    @cached_property
    def scratch_cells(self) -> int:
        """Cells of the scratch box of a pass: the box, the arrays of the
        odd phases after it (the even ones overwrite its front), and one
        zero cell."""
        return self.cells + max((p.cells for p in self.phases[1::2]), default=0) + 1


# A plan holds one run of 12 bytes (int32) per window class and degree, a few
# KB of array headers, seeds, slab offsets and phase geometry, and for each
# kernel used with it a table of 4 bytes per term and degree.  With both
# built-in kernels, as tracemalloc counts it, that is 61 KB for SU(2)xSU(3)
# at degree 76 (20 classes, 57 + 12 terms), 33 KB at degree 31 and 20 KB
# for SU(2)xSU(2) at degree 60.  128 plans therefore hold at most about
# 8 MB up to degree 76, however many distinct requests arrive.
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
    reach = lead + reach
    order = sorted(weights, key=_application_order)
    w = np.array([lead + x for x in order], dtype=np.int64).reshape(-1, 3)
    absw = np.abs(w)
    wmax = absw.max(axis=0, initial=0).tolist()
    radius = [_box_radius(m, r, max_degree) for m, r in zip(wmax, reach)]
    axis = next((a for a in range(3) if wmax[a]), 2)
    # the gutters of the axes after `axis`; see _build_product_boxes
    half = np.add(radius, [0, wmax[1] if radius[0] else 0, wmax[2] if axis < 2 else 0])
    plane = int(np.prod(2 * half[axis + 1:] + 1))
    degree = np.arange(max_degree + 1)
    extents = np.minimum(degree * wmax[axis],
                         (max_degree - degree) * wmax[axis] + reach[axis])
    slabs = np.concatenate([[0], np.cumsum((2 * extents + 1) * plane)])
    zeros = sum(1 for x in order if not any(x))
    prefix = np.maximum.accumulate(absw)
    suffix = np.maximum.accumulate(absw[::-1])[::-1]
    keys = list(map(tuple, np.hstack([w, prefix, suffix]).tolist()))
    # from factor k on, the axes after `axis` up to the last one that
    # factors k..m move keep the box's cells, and the axes beyond it need
    # only those within the kernel's reach (see _build_product_boxes); the
    # order is cut into phases where that cut changes
    kept = np.logical_or.accumulate(suffix[:, axis + 1:] > 0, axis=1)
    cuts = np.where(kept, half[axis + 1:], np.minimum(reach, half)[axis + 1:]).tolist()
    starts = [zeros] + [k for k in range(zeros + 1, len(w)) if cuts[k] != cuts[k - 1]]
    phases, outer = [], half[axis + 1:].tolist()
    for i, (start, stop) in enumerate(zip(starts, starts[1:] + [len(w)])):
        inner = cuts[start] if i else outer
        cut = half[:axis + 1].tolist() + inner
        steps, origins, cells = _layout(cut, axis, extents, slabs, plane)
        runs, which = _window_runs(keys[start:stop], steps, origins, cells, reach,
                                   max_degree)
        for array in runs:
            array.flags.writeable = False
        phases.append(Phase(
            cut=tuple(cut[3 - rank:]), offset=int(slabs[-1]) if i % 2 else 0,
            shape=(int(slabs[-1]) // plane,) + tuple(2 * c + 1 for c in inner),
            index=_cut_index(outer, inner) if i else None, runs=runs, which=which))
        outer = inner
    origins = _layout(half, axis, extents, slabs, plane)[1]
    origins.flags.writeable = False
    return BoxPlan(
        shape=(max_degree + 1,) + tuple((2 * half + 1).tolist()[3 - rank:]) + (1,) * (3 - rank),
        center=tuple(half.tolist()[3 - rank:]) + lead, axis=axis - (3 - rank),
        extents=tuple(extents.tolist()), plane=plane, slabs=tuple(slabs.tolist()),
        origins=origins, bound=_coefficient_bound(len(w), max_degree),
        seeds=(1,) + tuple(math.comb(zeros + d - 1, d) for d in range(1, max_degree + 1)),
        phases=tuple(phases))


def _window_runs(keys, steps, origins, cells: int, reach, max_degree: int) -> tuple:
    """The runs of each distinct key (w, P_k, S_k) of a stretch of factors,
    on a flat array of the given axis steps, origin per degree and cells,
    and the class of each key."""
    index = {}
    which = tuple(index.setdefault(key, len(index)) for key in keys)
    # the windows of every class at every degree at once, as inclusive
    # bounds per axis around the origin, shape (classes, degrees 1..N, axes)
    factors = np.array(list(index), dtype=np.int64).reshape(-1, 9)
    shift, p, s = factors[:, None, :3], factors[:, None, 3:6], factors[:, None, 6:]
    degree = np.arange(max_degree + 1)[:, None]
    radii = np.minimum(degree * p, (max_degree - degree) * s + reach)
    first = np.maximum(-radii[:, 1:], shift - radii[:, :-1])
    last = np.minimum(radii[:, 1:], shift + radii[:, :-1])
    # a shift wider than both windows leaves first > last on some axis,
    # where the flat run would be empty or wrapped, so it must be skipped
    live = (first <= last).all(axis=2)
    # each run is the flat range from the first window cell to the last of
    # degree d; it reads the cells o_d - o_(d-1) + fl(w) before it
    src = origins[:-1] - (factors[:, :3] @ steps)[:, None]
    table = np.stack([first @ steps + src, last @ steps + src + 1,
                      first @ steps + origins[1:]]).astype(_offset_type(cells))
    return tuple(table[:, k, live[k]] for k in range(len(factors))), which


def _layout(cut, axis: int, extents, slabs, plane: int) -> tuple:
    """(flat step of each torus axis, flat origin of each degree, cells) of
    the array of a box of slab offsets `slabs` and `plane` cells per plane
    that holds its planes in the box's order, each of the cells within
    `cut` of the origin off `axis`; with the box's own half sizes as `cut`,
    the box itself."""
    size = [2 * c + 1 for c in cut]
    steps = np.array([math.prod(size[a + 1:]) for a in range(len(size))])
    planes = np.asarray(slabs) // plane
    origins = (planes[:-1] + extents - cut[axis]) * steps[axis] + np.dot(cut, steps)
    return steps, origins, int(planes[-1]) * int(steps[axis])


def _cut_index(outer, inner) -> tuple:
    """The index of the cells within `inner` of the origin, per axis after
    the slab axis, in an array of planes of the cells within `outer`, seen
    as (planes, axes after the slab axis)."""
    return (slice(None),) + tuple(slice(o - i, o + i + 1) for o, i in zip(outer, inner))


def _offset_type(cells: int) -> type:
    """The integer type of the flat offsets of a box of `cells` cells and
    the cell after it."""
    return np.int32 if cells < 2 ** 31 else np.int64


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

    Layout.  The torus axes are padded to three at the front.  Axis A is
    the first that a weight moves (the last if none does); the axes before
    it have one cell.  At degree d, A reaches r_d = min(d wmax_A,
    (N - d) wmax_A + reach_A) either side of the origin.  Each axis a after
    A has the radius c_a = max_d min(d wmax_a, (N - d) wmax_a + reach_a)
    and a gutter of g_a cells beyond it at both ends, so that it has
    h_a = c_a + g_a cells either side of the origin and S_a = 2 h_a + 1 in
    all.  The box is stored flat, degree after degree, axis 2 innermost:
    degree d is a slab of 2 r_d + 1 planes of V = prod_{a > A} S_a cells,
    its origin o_d the middle cell, and cell p of degree d sits at
    o_d + fl(p), fl(p) = (p_0 S_1 + p_1) S_2 + p_2 (the step of A is V).
    Every window of factor k at degree d lies within r_d on A, since
    P_kA, S_kA <= wmax_A, and within c_a on the other axes.  Factor k
    updates degree d with one add over the flat range from the first to
    the last cell of its window, which also covers the cells between
    window rows outside the window; the read of a cell lies
    o_d - o_(d-1) + fl(w) before it.  g_2 = wmax_2 when A < 2, and
    g_1 = wmax_1 when A = 0 and c_0 > 0; with one plane on axis 0 a run
    keeps to the window's rows of axis 1, which then needs no gutter, and
    A needs none by (i).  A gutter cell is one with |p_a| > c_a on an axis
    a after A.

    (i) Reads.  The window of factor k at degree d is cut to the cells p
    whose p - w lies in its window at degree d - 1, within r_(d-1) on A and
    within c_a on the other axes.  The read of a cell p is p - w at degree
    d - 1 unless p is a gutter cell.  If |p_a| <= c_a then
    |p_a - w_a| <= h_a, so a read carries from axis 2 into axis 1, or from
    axis 1 into axis 0, only from a gutter cell, and by one step at most.
    A carry into A keeps the read within |p_A| <= r_(d-1): the first plane
    of a run starts at a window cell and cannot borrow, the last ends at
    one and cannot carry, and the planes between are strictly inside the
    window, whose reads p_A - w_A lie within r_(d-1).  So a carry across a
    plane end stays inside the source slab, and every read of a run lies in
    slab d - 1.

    (ii) Support.  A read moves an entry from o_(d-1) + x to o_d + x +
    fl(w) and the seeds sit at the origins, so a cell p of degree d holds a
    nonzero entry only if fl(p) = fl(u) for a sum u of d weights,
    |u_a| <= d wmax_a.

    (iii) Exactness.  Let K_k(d) be the cone |p_a| <= (N - d) S_ka + reach_a
    of cells that factors k..m can still carry to the kernel.  The zero
    weights come first; their windows are the origin, and after z of them
    the origin holds C(d + z - 1, d) at degree d, which is set in closed
    form.  From there, by induction over k and d, once factor k has run
    through degree d every cell of K_k(d) in the box holds the coefficient
    of the product of w_1..w_k; a cell of K_k(d) beyond the box has
    coefficient 0, as degree d reaches r_d = min(d wmax_A, (N - d) wmax_A +
    reach_A) on A and c_a >= min(d wmax_a, (N - d) wmax_a + reach_a) on the
    other axes, which puts it beyond the support d wmax_a on some axis a.
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
    K_m(d) holds every cell within reach, so every cell within reach in the
    box is exact.  Any order is exact; the order only sets the cost.

    (iv) Phases.  Let R_k be the longest run of axes after A, from the
    first on, that no factor k..m moves: S_ka = 0 on R_k, so K_k(d) lies
    within reach_a there, and the window of factor k within
    min(d P_ka, reach_a) <= c_a.  The order is cut into phases where the
    cut min(reach_a, h_a) on R_k changes.  The phase from factor t runs on
    an array of the cells of the box with |p_a| <= min(reach_a, h_a) on
    R_t, all cells on the other axes, all planes of every slab, stored flat
    in the box's order; the first array is the box.  When the phase before
    has run, every cell of K_t(d) in the box lies in its array and is exact
    by (iii), and one strided slice copies the new array out of it.  On R
    no read moves a cell, and the axes after R keep the box's sizes and
    gutters, so (i) holds on every array as it stands; modulo the product V
    of their sizes, the offset of a cell from its origin is fl(p) mod V in
    the box and in every array, copies keep p and a read adds fl(w), so
    (ii) holds modulo V, which is all the gutter case of (iii) uses.  The
    induction of (iii) then holds on every array, and K_k(d), which lies
    within reach on R_k, lies in it wherever it lies in the box.  So the
    last array is exact within reach, and _constant_terms reads it there.

    Residues.  The box is uint64.  Every pass makes the same adds, so a
    pass computes the exact integer box reduced modulo its modulus: 2^64
    by wraparound, or an odd modulus below 2^62, subtracted once after an
    add whenever the sum reaches it.  No entry exceeds C(m + N - 1, N), so
    the 2^64 pass is the exact box while that bound is below 2^64.  The
    last array is returned placed in a zeroed dense (N + 1, X, Y, Z) array
    with the torus axes first and size-1 padding last, which is then exact
    within reach, together with the index of the origin.

    Plan.  The slabs, gutters, seeds, window classes and run offsets come
    from _box_plan, computed once per (weights, N, reach) and cached.  Each
    pass fills a zeroed flat box, seeds the origins, builds the (dst, src)
    views of every run of each class once and adds them class by class in
    the application order, each phase on its array.
    These are the windows, runs, order and adds of the proof above,
    computed by the same formulas, so the proof holds as it stands; the
    cache only decides when they are computed.
    """
    plan = _box_plan(tuple(map(tuple, weights)), operator.index(rank),
                     operator.index(max_degree),
                     tuple(map(operator.index, reach)))
    box, last = plan.phases[0], plan.phases[-1]
    planes = _fill_box(plan, modulus, np.zeros(plan.scratch_cells, dtype=np.uint64))
    dense = np.zeros(plan.shape, dtype=np.uint64)
    # the dense box as (degrees, planes, axes after the slab axis)
    view = dense.reshape((len(plan.extents), -1) + box.shape[1:])
    index = _cut_index(box.cut[plan.axis + 1:], last.cut[plan.axis + 1:])
    c = view.shape[1] // 2
    for d, r in enumerate(plan.extents):
        first = plan.slabs[d] // plan.plane
        view[d, c - r:c + r + 1][index] = planes[first:first + 2 * r + 1]
    return dense, plan.center


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


def _fill_box(plan: BoxPlan, modulus: int, scratch: np.ndarray) -> np.ndarray:
    """The last phase's array of _build_product_boxes modulo 2^64 or an odd
    modulus below 2^62, built in `scratch`, a zeroed flat uint64 array of at
    least plan.scratch_cells cells: the first phase fills the box at its
    front, and each later one copies its cells out of the array of the phase
    before with one strided slice, after the box or into its front, and runs
    there.  Returns the last array as (planes, axes after the slab axis);
    the last cell of plan.scratch_cells is never written."""
    scratch[plan.origins] = [s % modulus for s in plan.seeds]
    planes = None
    for phase in plan.phases:
        array = scratch[phase.offset:phase.offset + phase.cells]
        if planes is not None:
            array.reshape(phase.shape)[...] = planes[phase.index]
        _add_runs(array, phase.runs, phase.which, modulus)
        planes = array.reshape(phase.shape)
    return planes


def _add_runs(array: np.ndarray, runs: tuple, which: tuple, modulus: int) -> None:
    """Add the runs of each class of `which`, in its order, within a flat
    array, modulo 2^64 or an odd modulus below 2^62."""
    # the (dst, src) views of every run, built once per class
    views = [[(array[to:to + f1 - f0], array[f0:f1]) for f0, f1, to in zip(*table.tolist())]
             for table in runs]
    if modulus == 2 ** 64:
        for k in which:
            for dst, src in views[k]:
                dst += src
        return
    # both terms are below the modulus, so the sum is below 2^63 and one
    # conditional subtract reduces it: dst - modulus wraps past dst when
    # dst < modulus, and the minimum keeps the reduced value
    spare = np.empty(max((dst.size for pairs in views for dst, _ in pairs), default=0),
                     dtype=np.uint64)
    for k in which:
        for dst, src in views[k]:
            dst += src
            low = spare[:dst.size]
            np.subtract(dst, modulus, out=low)
            np.minimum(dst, low, out=dst)


def _kernel_cells(plan: BoxPlan, exps: np.ndarray, coefs: np.ndarray) -> tuple:
    """The kernel terms whose cells lie in the last phase's array at some
    degree, as (an (N + 1, terms) table of their offsets in the scratch box,
    one row per degree; their coefficients; the sum of their negative
    coefficients; the sum of their absolute values).  A term beyond a
    degree's extent, whose coefficient there is 0 (see
    _build_product_boxes), reads the scratch box's last cell, which no pass
    writes: an array of one-cell planes can hold no zero cell of its own.
    Kept in the plan per kernel, so that each request makes one gather."""
    key = (exps.tobytes(), coefs.tobytes())
    cells = plan.kernels.get(key)
    if cells is None:
        last = plan.phases[-1]
        inside = (np.abs(exps) <= last.cut).all(axis=1)
        exps, kept = exps[inside], coefs[inside]
        steps, origins, _ = _layout(last.cut, plan.axis, plan.extents, plan.slabs,
                                    plan.plane)
        within = np.abs(exps[:, plan.axis]) <= np.array(plan.extents)[:, None]
        zero = plan.scratch_cells - 1
        table = np.where(within, last.offset + origins[:, None] - exps @ steps,
                         zero).astype(_offset_type(zero))
        table.flags.writeable = kept.flags.writeable = False
        cells = plan.kernels[key] = (table, kept, int(kept[kept < 0].sum()),
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


def _box_rows(plan: BoxPlan, modulus: int, table: np.ndarray) -> np.ndarray:
    """The cells of an offset table of _kernel_cells, one row per degree,
    of the box modulo `modulus`, copied out of the thread's _scratch_box,
    in which _fill_box builds its phases."""
    scratch = _scratch_box(plan.scratch_cells)
    _fill_box(plan, modulus, scratch)
    return scratch.take(table)


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
    table, kept, negative, weight = _kernel_cells(plan, exps, coefs)
    degrees = plan.shape[0]
    if plan.bound < 2 ** 64:
        rows = _box_rows(plan, 2 ** 64, table)
        return _kernel_sums(rows, kept, weight * plan.bound)
    total, product = [0] * degrees, 1
    for modulus in _moduli(weight * plan.bound):
        rows = _box_rows(plan, modulus, table)
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
