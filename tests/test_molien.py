"""Torus weight systems, exact series extraction and rational-form checks."""

import ast
import dataclasses
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from qqinv import molien
from qqinv.molien import (TWO_QUBIT_RATIONAL, QUBIT_QUTRIT_DENOMINATOR,
                          _SCRATCH_BOX_MAX_BYTES,
                          RationalForm, WeightSystem, _axis_reach, _box_plan,
                          _application_order, _constant_terms, _fill_box,
                          _functional_equation, _kernel,
                          _kernel_cells, _kernel_sums, _moduli, _root_polynomial,
                          _scratch_box,
                          adjoint_weight_system,
                          complete_numerator_by_palindromy, molien_series,
                          palindromy_check, qubit_qutrit_rational,
                          rational_form_for, rational_series)

@pytest.fixture(autouse=True)
def empty_plan_cache():
    """Every test starts without box plans, so that none passes only because
    an earlier test planned its box."""
    _box_plan.cache_clear()


POINCARE_2X3 = [1, 0, 3, 4, 15, 25, 90, 170, 489, 1059, 2600, 5641, 12872,
                27099, 57990, 118254, 240187]


def expand_rational_fraction_oracle(numerator, denominator_exponents, max_degree):
    """Independent expansion: multiply the denominator out as one integer
    polynomial, then run exact long division over Fractions."""
    den = [1]
    for deg, mult in denominator_exponents:
        factor = [0] * (deg + 1)
        factor[0], factor[deg] = 1, -1
        for _ in range(mult):
            out = [0] * (len(den) + deg)
            for i, c in enumerate(den):
                for j, f in enumerate(factor):
                    out[i + j] += c * f
            den = out
    num = list(numerator) + [0] * (max_degree + 1 - len(numerator))
    series = []
    for k in range(max_degree + 1):
        acc = Fraction(num[k]) if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * series[k - j]
        series.append(acc / den[0])
    assert all(c.denominator == 1 for c in series)
    return [int(c) for c in series]


def dict_product_series(weights, N):
    """Independent expansion of prod over weights w of 1/(1 - q x^w) through
    q^N as one {exponent: coefficient} dict per q-degree, every coefficient
    kept.  One factor at a time, degree by degree: multiplying by
    1/(1 - q x^w) is new[d] = old[d] + x^w new[d - 1]."""
    poly = [{(0,) * len(weights[0]): 1}] + [{} for _ in range(N)]
    for w in weights:
        for below, cells in zip(poly, poly[1:]):
            for exp, c in below.items():
                key = tuple(e + x for e, x in zip(exp, w))
                cells[key] = cells.get(key, 0) + c
    return poly


# -- weight systems ---------------------------------------------------------------

def test_weight_system_2x2():
    ws = adjoint_weight_system("su2xsu2")
    assert ws.rank == 2 and ws.weyl_order == 4
    assert len(ws.weights) == 15
    assert sum(1 for w in ws.weights if w == (0, 0)) == 3
    assert len(ws.roots) == 4


def test_weight_system_2x3():
    ws = adjoint_weight_system("su2xsu3")
    assert ws.rank == 3 and ws.weyl_order == 12
    assert len(ws.weights) == 35
    assert sum(1 for w in ws.weights if w == (0, 0, 0)) == 5
    assert len(ws.roots) == 8


@pytest.mark.parametrize("spec", ["su2xsu2", "su2xsu3"])
def test_weights_self_dual(spec):
    ws = adjoint_weight_system(spec)
    weights = list(ws.weights)
    for w in weights:
        neg = tuple(-x for x in w)
        assert weights.count(neg) == weights.count(w)


def test_weight_system_validate_rejects_bad():
    # the constructor checks the system
    with pytest.raises(ValueError, match="sum to 0"):
        WeightSystem(1, ((1,), (0,)), (), 1)
    with pytest.raises(ValueError, match="paired"):
        WeightSystem(1, ((1,), (-1,)), ((1,),), 2)
    with pytest.raises(ValueError, match=r"^weight \(0\.5,\) is not an integer vector"):
        WeightSystem(1, ((0.5,), (-0.5,)), (), 1)


def test_weight_system_stores_python_ints():
    ws = WeightSystem(np.int64(1), ((np.int64(0),), (3.0,), [-3]), ((np.int8(3),), (-3.0,)),
                      np.int8(2))
    assert ws.weights == ((0,), (3,), (-3,)) and ws.roots == ((3,), (-3,))
    assert {type(x) for v in ws.weights + ws.roots for x in v} == {int}
    assert type(ws.rank) is type(ws.weyl_order) is int
    assert molien_series(ws, 4) == [1, 0, 1, 0, 1]
    assert {type(c) for c in molien_series(ws, 4)} == {int}


# -- truncated torus series --------------------------------------------------------

def last_phase_degrees(weights, rank, N, reach, modulus=2 ** 64):
    """_fill_box's last array on a zeroed scratch box, degree by degree:
    per degree, its cells as an array over the torus axes, and the index of
    the origin in that array."""
    plan = _box_plan(tuple(map(tuple, weights)), rank, N, tuple(reach))
    planes = _fill_box(plan, modulus, np.zeros(plan.scratch_cells, dtype=np.uint64))
    assert planes.dtype == np.uint64
    inner = plan.phases[-1].cut[plan.axis + 1:]
    degrees = []
    for d, r in enumerate(plan.extents):
        first = plan.slabs[d] // plan.plane
        cells = planes[first:first + 2 * r + 1]
        degrees.append((cells.reshape((1,) * plan.axis + cells.shape),
                        (0,) * plan.axis + (r,) + inner))
    return degrees


def full_reach_box_series(ws, N):
    """The product at reach N wmax, where the pruned windows are the full
    supports and the last phase is the whole box within them, as one
    {exponent: coefficient} dict of nonzero cells per q-degree."""
    reach = tuple(N * m for m in _axis_reach(ws.weights, ws.rank))
    return [{tuple(int(p - c) for p, c in zip(pos, center)): int(cells[tuple(pos)])
             for pos in np.argwhere(cells != 0)}
            for cells, center in last_phase_degrees(ws.weights, ws.rank, N, reach)]


def test_series_exponents_bounded():
    N = 5
    series = full_reach_box_series(adjoint_weight_system("su2xsu3"), N)
    assert series[0] == {(0, 0, 0): 1}
    for d, poly in enumerate(series):
        for exp in poly:
            assert max(abs(e) for e in exp) <= d <= N


def test_series_matches_dict_product():
    # every coefficient, not only those near the origin: the full series
    # must not be clipped to a kernel's reach
    ws = adjoint_weight_system("su2xsu2")
    assert full_reach_box_series(ws, 6) == dict_product_series(ws.weights, 6)


def test_residue_passes_follow_the_entry_bound():
    # 35 zero weights hold C(d + 34, d) at the origin of degree d, and
    # C(67, 33) < 2^64 <= C(68, 34): through degree 33 the 2^64 pass is the
    # exact box, at 34 a second modulus is needed
    zeros = ((0,),) * 35
    ws = WeightSystem(1, zeros, (), 1)
    for N in (33, 34):
        expect = [math.comb(d + 34, d) for d in range(N + 1)]
        moduli = _moduli(_box_plan(zeros, 1, N, (0,)).bound)
        assert moduli[0] == 2 ** 64 and len(moduli) == N - 32
        for modulus in moduli:
            degrees = last_phase_degrees(zeros, 1, N, (0,), modulus)
            assert [int(cells[center]) for cells, center in degrees] == [
                v % modulus for v in expect]
        assert molien_series(ws, N, degree_cap=N) == expect
    assert max(expect) >= 2 ** 64 > expect[-2]
    assert moduli[1] < 2 ** 62 and moduli[1] % 2


def test_residue_system_needs_three_more_moduli():
    # C(259, 60) ~ 2^198: 2^64 and three moduli below 2^62 (2^250) cover
    # it, two (2^188) do not
    zeros = ((0,),) * 200
    assert len(_moduli(_box_plan(zeros, 1, 60, (0,)).bound)) == 4
    ws = WeightSystem(1, zeros, (), 1)
    assert (molien_series(ws, 60, degree_cap=60)
            == [math.comb(d + 199, d) for d in range(61)])


def test_residue_passes_reduce_after_every_add():
    # 100 zero weights seed the origin with C(d + 99, d) ~ 2^113 at degree
    # 40 and four moving weights carry it across the box, so an odd-modulus
    # pass that skipped a reduction would wrap past 2^64
    moving = ((1,), (-1,), (1,), (-1,))
    ws = WeightSystem(1, ((0,),) * 100 + moving, ((1,), (-1,)), 2)
    N = 40
    assert len(_moduli(_box_plan(ws.weights, 1, N, (1,)).bound * 4)) == 2
    series = dict_product_series(moving, N)
    kernel = {(0,): 2, (1,): -1, (-1,): -1}  # (1 - x)(1 - x^-1)
    expect = []
    for d in range(N + 1):
        total = sum(math.comb(j + 99, j) * c * series[d - j].get((-e,), 0)
                    for j in range(d + 1) for (e,), c in kernel.items())
        assert total % 2 == 0
        expect.append(total // 2)
    assert molien_series(ws, N, degree_cap=N) == expect
    assert molien_series(ws, N, backend="reduced", degree_cap=N) == expect


def test_moduli_are_pairwise_coprime():
    for span in (0, 2 ** 64 - 1, 2 ** 64, 2 ** 200, 2 ** 400):
        moduli = _moduli(span)
        assert math.prod(moduli) > span
        assert math.prod(moduli[:-1]) <= span or len(moduli) == 1
        assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(moduli, 2))
        assert all(m % 2 and m < 2 ** 62 for m in moduli[1:])


#: SU(2) on spin 1, in the torus coordinate of the adjoint weights
SPIN1 = WeightSystem(1, ((0,), (1,), (-1,)), ((1,), (-1,)), 2)

#: SU(2) on spin 1 + spin 2: weights up to 4 against a kernel of reach 2,
#: so the shift of a weight can be wider than both windows at low degree
SPIN1_PLUS_SPIN2 = WeightSystem(
    1, ((2,), (0,), (-2,), (4,), (2,), (0,), (-2,), (-4,)), ((2,), (-2,)), 2)


def test_pruned_series_matches_full_box_spin1_plus_spin2():
    ws = SPIN1_PLUS_SPIN2
    kernel = {(0,): 2, (2,): -1, (-2,): -1}  # (1 - x^2)(1 - x^-2)
    for N in range(25):
        expect = []
        for poly in dict_product_series(ws.weights, N):
            total = sum(c * poly.get((-e,), 0) for (e,), c in kernel.items())
            assert total % 2 == 0
            expect.append(total // 2)
        assert molien_series(ws, N, degree_cap=N) == expect


#: rank 2, |w_a| up to 2, every support pattern: the zero weight, weights
#: on axis 1 alone (|w_1| <= 1), on both axes (|w_1| up to 2) and on axis 0
#: alone (|w_0| up to 2).  Early in the order P_k < S_k on axis 1, so a reach
#: side built from P_k is too narrow; the last factors move axis 0 by 2, so
#: an S_k without factor k itself is too narrow
MIXED_WEIGHTS = ((0, 0), (0, 1), (0, -1), (1, 2), (-1, -2), (2, -1), (-2, 1),
                 (1, 1), (1, 0), (-1, 0), (2, 0), (-2, 0))

#: rank 3, |w_a| up to 2 on every axis: runs over the flattened torus axes
#: cross row and plane ends by up to 2 cells, which the gutters must absorb
WRAP_WEIGHTS = ((0, 0, 0), (0, 2, -1), (0, -2, 1), (0, 1, 2), (0, -1, -2),
                (0, 0, 2), (0, 0, -2), (1, 2, 2), (-1, -2, -2), (2, -1, 1),
                (-2, 1, -1), (2, 0, 0), (-2, 0, 0))


#: rank 3 with axis 0 at rest: every weight moving the slab axis y moves z
#: too, so no stretch of the order leaves z unmoved and the box is the only
#: phase, and the kernel's reach on x goes beyond the box's one cell there
NO_TRAILING_WEIGHTS = ((0, 0, 0), (0, 1, -1), (0, -1, 1), (0, 1, 1), (0, -1, -1),
                       (0, 0, 1), (0, 0, -1))

#: rank 3, weights moving (x, y, z), (x, y), (x, z) and x alone, |w_a| up to
#: 2: the order retires y after the weights moving it, runs the (x, z)
#: weights on the cells within reach on y, and retires z before x alone
CASCADE_WEIGHTS = ((0, 0, 0), (1, 2, 1), (-1, -2, -1), (2, 1, 0), (-2, -1, 0),
                   (1, 0, 2), (-1, 0, -2), (1, 0, 0), (-1, 0, 0))


def within_reach(cells, reach, center=None):
    """The coefficients of one degree within reach of the origin, as an
    array of 2 reach + 1 cells per axis: from a dict of exponents, or from
    an array of cells with the index of its origin (a cell beyond the array
    reads 0)."""
    window = np.zeros([2 * r + 1 for r in reach], dtype=np.uint64)
    if center is None:
        for p, c in cells.items():
            if all(abs(x) <= r for x, r in zip(p, reach)):
                window[tuple(x + r for x, r in zip(p, reach))] = c
        return window
    cut = [min(r, c) for r, c in zip(reach, center)]
    window[tuple(slice(r - k, r + k + 1) for r, k in zip(reach, cut))] = cells[
        tuple(slice(c - k, c + k + 1) for c, k in zip(center, cut))]
    return window


def test_per_factor_windows_exact_within_reach():
    # both kinds of pass, whose results agree here, as every entry stays
    # below the odd modulus
    systems = ((MIXED_WEIGHTS, (1, 2)), (WRAP_WEIGHTS, (1, 2, 2)),
               (NO_TRAILING_WEIGHTS, (1, 1, 1)), (CASCADE_WEIGHTS, (1, 1, 2)),
               (SPIN1_PLUS_SPIN2.weights, (2,)),  # rank 1: the box is the only phase
               (((0, 0),) * 3, (1, 1)))
    for weights, reach in systems:
        rank = len(reach)
        # degree d is the same at any N >= d
        expect = [within_reach(poly, reach) for poly in dict_product_series(weights, 12)]
        for modulus, N in itertools.product((2 ** 64, _moduli(2 ** 64)[1]), range(13)):
            degrees = last_phase_degrees(weights, rank, N, reach, modulus)
            for d, (cells, center) in enumerate(degrees):
                got = within_reach(cells, reach, center)
                assert np.array_equal(got, expect[d]), (weights, modulus, N, d)


@pytest.mark.parametrize("spec,phases", [
    # the weights at rest on x and those moving y run on the box, those
    # moving x and z on the band of the cells within reach on y, and x alone
    # on the 5 x 5 columns
    ("su2xsu3", [
        ((15, 17, 17), [(0, 0, -1), (0, 0, 1), (0, -1, -1), (0, 1, 1), (0, -1, 0), (0, 1, 0),
                        (-1, -1, -1), (-1, -1, 0), (-1, 1, 0), (-1, 1, 1),
                        (1, -1, -1), (1, -1, 0), (1, 1, 0), (1, 1, 1)]),
        ((15, 2, 17), [(-1, 0, -1), (-1, 0, 1), (1, 0, -1), (1, 0, 1)]),
        ((15, 2, 2), [(-1, 0, 0), (1, 0, 0)])]),
    # every weight moving w runs on the box, (+-1, 0) on the columns
    ("su2xsu2", [
        ((15, 16), [(0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1)]),
        ((15, 1), [(-1, 0), (1, 0)])]),
], ids=["2x3", "2x2"])
def test_phases_of_the_built_in_groups(spec, phases):
    ws, reach = kernel_reach(spec)
    plan = _box_plan(ws.weights, ws.rank, 30, reach)
    order = [w for w in sorted(ws.weights, key=_application_order) if any(w)]
    assert [p.cut for p in plan.phases] == [cut for cut, _ in phases]
    start = 0
    for phase, (cut, weights) in zip(plan.phases, phases):
        stretch = order[start:start + len(phase.which)]
        assert sorted(set(stretch), key=_application_order) == weights
        assert all(stretch.count(w) == ws.weights.count(w) for w in weights)
        assert len(phase.runs) == len(set(phase.which))
        assert phase.shape == (plan.cells // plan.plane,) + tuple(
            2 * c + 1 for c in cut[plan.axis + 1:])
        start += len(phase.which)
    assert start == len(order)
    # the box, the odd phases after it, the even ones over its front, and
    # one zero cell
    assert [p.offset for p in plan.phases] == [0, plan.cells, 0][:len(phases)]
    assert plan.scratch_cells == plan.cells + plan.phases[1].cells + 1


def test_box_independent_of_weight_order():
    rng = np.random.default_rng(3)
    for N in (5, 12):
        degrees = last_phase_degrees(MIXED_WEIGHTS, 2, N, (1, 2))
        shuffled = [MIXED_WEIGHTS[i] for i in rng.permutation(len(MIXED_WEIGHTS))]
        again = last_phase_degrees(shuffled, 2, N, (1, 2))
        assert len(again) == len(degrees) == N + 1
        for (cells, center), (cells_again, center_again) in zip(degrees, again):
            assert center_again == center and np.array_equal(cells_again, cells)


# -- box plans ---------------------------------------------------------------------

def kernel_reach(spec):
    ws = adjoint_weight_system(spec)
    return ws, _kernel(ws.roots, ws.rank, "weyl", ws.weyl_order)[2]


@pytest.mark.parametrize("weights,rank,N,reach", [
    (MIXED_WEIGHTS, 2, 30, (1, 2)),
    (WRAP_WEIGHTS, 3, 20, (1, 2, 2)),
    (SPIN1_PLUS_SPIN2.weights, 1, 30, (2,)),
    (adjoint_weight_system("su2xsu2").weights, 2, 30, (1, 1)),
    (adjoint_weight_system("su2xsu3").weights, 3, 30, (1, 2, 2)),
    (adjoint_weight_system("su2xsu3").weights, 3, 34, (1, 2, 2)),
], ids=["mixed", "wrap", "spin1+spin2", "2x2", "2x3-int64", "2x3-residue"])
def test_box_from_cached_plan_equals_freshly_planned(weights, rank, N, reach):
    for modulus in (2 ** 64, _moduli(2 ** 64)[1]):
        last_phase_degrees(weights, rank, N, reach, modulus)
        hits = _box_plan.cache_info().hits
        cached = last_phase_degrees(weights, rank, N, reach, modulus)
        assert _box_plan.cache_info().hits == hits + 1
        _box_plan.cache_clear()
        fresh = last_phase_degrees(weights, rank, N, reach, modulus)
        assert _box_plan.cache_info().misses == 1
        for (cells, center), (fresh_cells, fresh_center) in zip(cached, fresh, strict=True):
            assert center == fresh_center and np.array_equal(cells, fresh_cells)


def application_maxima(weights, axis):
    """(P_k, S_k) on one axis for each nonzero weight k, in application
    order."""
    order = [w for w in sorted(weights, key=_application_order) if any(w)]
    moves = [abs(w[axis]) for w in order]
    return [(max(moves[:k + 1]), max(moves[k:])) for k in range(len(moves))]


@pytest.mark.parametrize("spec,axis,degrees", [
    ("su2xsu2", 0, [0, 1, 2, 7, 20, 33, 60]),
    ("su2xsu3", 0, [0, 1, 2, 7, 20, 30, 34]),
])
def test_slab_extent_is_the_widest_window_of_its_degree(spec, axis, degrees):
    ws, reach = kernel_reach(spec)
    maxima = application_maxima(ws.weights, axis)
    for N in degrees:
        plan = _box_plan(ws.weights, ws.rank, N, reach)
        assert plan.axis == axis
        widest = [max(min(d * P, (N - d) * S + reach[axis]) for P, S in maxima)
                  for d in range(N + 1)]
        assert list(plan.extents) == widest, N
        assert plan.slabs == tuple(itertools.accumulate(
            [(2 * r + 1) * plan.plane for r in widest], initial=0))
        # the first and last cells that the runs of degree d write reach
        # exactly r_d on the slab axis
        ends = np.concatenate([np.r_[t[2], t[2] + t[1] - t[0] - 1]
                               for t in plan.phases[0].runs])
        degree = np.searchsorted(plan.slabs, ends, side="right") - 1
        position = (ends - np.array(plan.slabs)[degree]) // plan.plane
        reached = np.zeros(N + 1, dtype=int)
        np.maximum.at(reached, degree, np.abs(position - np.array(widest)[degree]))
        assert reached.tolist() == widest, N


def test_pruned_box_shape_2x3():
    # radius max_d min(d, 30 - d + reach) per axis, kernel reach (1, 2, 2),
    # and gutters of max |w_y| = max |w_z| = 1 at both ends of axes y and z
    ws, reach = kernel_reach("su2xsu3")
    assert reach == (1, 2, 2) == _axis_reach(
        [exp for exp, _ in _root_polynomial(ws.roots, ws.rank)], ws.rank)
    plan = _box_plan(ws.weights, ws.rank, 30, reach)
    assert plan.axis == 0 and plan.phases[0].cut == (15, 17, 17)
    # stored, degree d reaches min(d, 31 - d) on axis x: 511 planes of
    # 35 x 35 cells in all, not 31 x 31
    assert plan.plane == 35 * 35 and plan.phases[0].shape == (511, 35, 35)
    assert plan.extents == tuple(min(d, 31 - d) for d in range(31))
    assert plan.cells == 625_975 == sum(2 * r + 1 for r in plan.extents) * 35 * 35


def test_plan_reports_box_geometry():
    ws, reach = kernel_reach("su2xsu3")
    plan = _box_plan(ws.weights, ws.rank, 30, reach)
    assert plan.nbytes == 8 * plan.cells == 8 * 625_975
    # the kernel reads the last phase: every plane cut to the 5 x 5 cells
    # within reach on y and z
    scratch = np.zeros(plan.scratch_cells, dtype=np.uint64)
    assert _fill_box(plan, 2 ** 64, scratch).shape == (511, 5, 5)
    assert plan.bound == math.comb(64, 30) < 2 ** 64
    assert _box_plan(ws.weights, ws.rank, 34, reach).bound == math.comb(68, 34) >= 2 ** 64
    # SU(2)xSU(2) sets the extent of axis z, its first, per degree, on rows
    # of 63 cells of axis w
    ws, reach = kernel_reach("su2xsu2")
    plan = _box_plan(ws.weights, ws.rank, 60, reach)
    assert plan.phases[0].cut == (30, 31) and plan.plane == 63
    assert plan.cells == 121_023 == sum(2 * min(d, 61 - d) + 1 for d in range(61)) * 63


def test_weyl_and_reduced_share_one_plan():
    ws = adjoint_weight_system("su2xsu3")
    molien_series(ws, 12)
    before = _box_plan.cache_info()
    molien_series(ws, 12, backend="reduced")
    after = _box_plan.cache_info()
    assert after.hits == before.hits + 1
    assert after.currsize == before.currsize == 1


def test_plan_arrays_are_read_only():
    ws, reach = kernel_reach("su2xsu3")
    molien_series(ws, 12)
    plan = _box_plan(ws.weights, ws.rank, 12, reach)
    table, kept, _, _ = next(iter(plan.kernels.values()))
    runs = [table for phase in plan.phases for table in phase.runs]
    assert len(plan.phases) == 3
    for array in runs + [plan.origins, table, kept]:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    with pytest.raises(AttributeError):
        plan.axis = 1


def test_a_dirty_scratch_box_leaves_the_next_request_unchanged():
    ws, reach = kernel_reach("su2xsu3")
    for N in (20, 34):  # one 2^64 pass; residue passes
        # the box, the band after it and the zero cell after that: every
        # cell a request reuses
        plan = _box_plan(ws.weights, ws.rank, N, reach)
        dirty = _scratch_box(plan.scratch_cells)
        dirty[:] = 7
        assert molien_series(ws, N, degree_cap=N) == rational_form_for("su2xsu3").series(N)
        assert np.shares_memory(dirty, _scratch_box(1))


def test_scratch_box_is_zeroed_and_kept_up_to_its_bound():
    first = _scratch_box(1000)
    first[:] = 7
    again = _scratch_box(600)
    assert np.shares_memory(first, again)
    assert again.dtype == np.uint64 and again.shape == (600,) and not again.any()
    beyond = _scratch_box(_SCRATCH_BOX_MAX_BYTES // 8 + 1)
    assert not np.shares_memory(beyond, _scratch_box(1000))


def test_threads_build_their_boxes_apart():
    ws = adjoint_weight_system("su2xsu3")
    degrees = [16, 22, 18, 24] * 2
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(lambda N: molien_series(ws, N, degree_cap=N), degrees))
        other = pool.submit(_scratch_box, 1000).result()
    assert got == [rational_form_for("su2xsu3").series(N) for N in degrees]
    assert not np.shares_memory(other, _scratch_box(1000))


def test_plan_cache_is_bounded():
    bound = _box_plan.cache_info().maxsize
    assert bound is not None
    for N in range(bound + 8):
        _box_plan(SPIN1.weights, 1, N, (1,))
        assert _box_plan.cache_info().currsize <= bound
    assert _box_plan.cache_info().currsize == bound


def test_empty_weight_system():
    ws = WeightSystem(1, (), (), 1)
    assert molien_series(ws, 0) == [1]
    assert molien_series(ws, 3) == [1, 0, 0, 0]


# -- series values ------------------------------------------------------------------

def test_poincare_2x3_low_degrees():
    ws = adjoint_weight_system("su2xsu3")
    assert molien_series(ws, 4) == [1, 0, 3, 4, 15]


def test_poincare_2x3_through_16():
    ws = adjoint_weight_system("su2xsu3")
    assert molien_series(ws, 16) == POINCARE_2X3


def test_two_qubit_series_matches_rational():
    ws = adjoint_weight_system("su2xsu2")
    assert molien_series(ws, 20) == TWO_QUBIT_RATIONAL.series(20)


def test_trivial_group_counts_free_ring():
    # the last input has bound C(79, 40) ~ 2^75 and runs two residue passes
    for dim, degree in [(1, 10), (2, 10), (3, 10), (4, 10), (5, 10), (40, 40)]:
        ws = WeightSystem(1, ((0,),) * dim, (), 1)
        series = molien_series(ws, degree, degree_cap=degree)
        expect = [math.comb(dim + d - 1, d) for d in range(degree + 1)]
        assert series == expect


def test_truncation_soundness():
    ws = adjoint_weight_system("su2xsu3")
    assert molien_series(ws, 12)[:9] == molien_series(ws, 8)


def test_reduced_backend_agrees():
    ws22 = adjoint_weight_system("su2xsu2")
    assert (molien_series(ws22, 12, backend="reduced")
            == molien_series(ws22, 12))
    ws23 = adjoint_weight_system("su2xsu3")
    assert (molien_series(ws23, 8, backend="reduced")
            == POINCARE_2X3[:9])


@pytest.mark.parametrize("ws", [SPIN1, SPIN1_PLUS_SPIN2],
                         ids=["spin1", "spin1+spin2"])
def test_reduced_backend_matches_weyl_on_any_weight_system(ws):
    assert molien_series(ws, 20, backend="reduced") == molien_series(ws, 20)


def kernel_items(spec, backend):
    ws = adjoint_weight_system(spec)
    exps, coefs, _, divisor = _kernel(ws.roots, ws.rank, backend, ws.weyl_order)
    assert exps.dtype == coefs.dtype == np.int64
    return list(zip(map(tuple, exps.tolist()), coefs.tolist())), divisor


def test_reduced_kernels_of_the_built_in_groups():
    # (1 - z^-1)(1 - w^-1)
    assert kernel_items("su2xsu2", "reduced") == (
        [((0, 0), 1), ((0, -1), -1), ((-1, 0), -1), ((-1, -1), 1)], 1)
    # (1 - x^-1)(1 - y^-1)(1 - z^-1)(1 - (yz)^-1)
    assert kernel_items("su2xsu3", "reduced") == (
        [((0, 0, 0), 1), ((0, 0, -1), -1), ((0, -1, -2), 1), ((0, -1, 0), -1),
         ((0, -2, -1), 1), ((0, -2, -2), -1), ((-1, 0, 0), -1), ((-1, 0, -1), 1),
         ((-1, -1, -2), -1), ((-1, -1, 0), 1), ((-1, -2, -1), -1),
         ((-1, -2, -2), 1)], 1)
    items, divisor = kernel_items("su2xsu2", "weyl")
    assert len(items) == 9 and divisor == 4


def python_integer_constant_terms(degrees, exps, coefs):
    """The kernel product summed in Python integers, every entry of the
    last phase read on its own: the reference for the int64 sums."""
    out = []
    for cells, center in degrees:
        total = 0
        for e, c in zip(exps.tolist(), coefs.tolist()):
            pos = tuple(x - y for x, y in zip(center, e))
            if all(0 <= p < n for p, n in zip(pos, cells.shape)):
                total += c * int(cells[pos])
        out.append(total)
    return out


# 2x3 leaves the single int64 sum at degree 26 (weyl) and 30 (reduced), and
# its entries stay below 2^64 through degree 33
@pytest.mark.parametrize("spec,top", [("su2xsu2", 40), ("su2xsu3", 33)])
def test_constant_terms_in_int64_equal_the_python_integer_sum(spec, top):
    ws = adjoint_weight_system(spec)
    kernels = [_kernel(ws.roots, ws.rank, backend, ws.weyl_order)
               for backend in ("weyl", "reduced")]
    reach = kernels[0][2]
    assert kernels[1][2] == reach
    in_int64 = set()
    for N in range(top + 1):
        plan = _box_plan(ws.weights, ws.rank, N, reach)
        degrees = last_phase_degrees(ws.weights, ws.rank, N, reach)
        for exps, coefs, _, _ in kernels:
            got = _constant_terms(plan, exps, coefs)
            assert got == python_integer_constant_terms(degrees, exps, coefs), N
            assert all(type(v) is int for v in got)
            in_int64.add(_kernel_cells(plan, exps, coefs)[3] * plan.bound < 2 ** 63)
    assert in_int64 == ({True} if spec == "su2xsu2" else {True, False})


@pytest.mark.parametrize("coefs", [(1, 1, 0), (1, 1, 1), (1, -1, -1)])
def test_constant_terms_leave_int64_before_a_sum_can_overflow(coefs):
    # entries at 2^62 - 1: two of them still sum in int64, a third would
    # wrap around, so the sum must move to 32-bit halves; entries up to
    # 2^64 - 1, as the 2^64 pass leaves them, sum by halves too
    coefs = np.array(coefs, dtype=np.int64)
    weight = int(np.abs(coefs).sum())
    for top in (2 ** 62 - 1, 2 ** 63, 2 ** 64 - 1):
        rows = np.array([[top] * 3, [top, top - 1, 1], [0, top, top]], dtype=np.uint64)
        expect = [sum(c * v for c, v in zip(coefs.tolist(), row))
                  for row in rows.tolist()]
        assert _kernel_sums(rows, coefs, weight * top) == expect


def test_degree_cap():
    ws = adjoint_weight_system("su2xsu2")
    assert len(molien_series(ws, 22, degree_cap=25)) == 23


def test_kernel_coefficients_must_sum_below_2_31():
    # (1 - x)^16 (1 - x^-1)^16 = x^-16 (1 - x)^32 has |coefficient| sum 2^32;
    # its positive half (1 - x^-1)^16 has 2^16
    roots = ((1,), (-1,)) * 16
    with pytest.raises(ValueError, match="too large"):
        _kernel(roots, 1, "weyl", 2)
    assert sum(map(abs, _kernel(roots, 1, "reduced", 2)[1].tolist())) == 2 ** 16


def test_no_floating_point_in_the_module():
    # every count is exact: no float literal, true division, float type or
    # numpy float attribute anywhere in the module
    with open(molien.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append("true division")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append("name float")
        elif isinstance(node, ast.Attribute) and "float" in node.attr:
            found.append(f"attribute {node.attr}")
        else:
            continue
        found[-1] += f" on line {node.lineno}"
    assert found == []


# -- rational forms ------------------------------------------------------------------

def test_rational_series_geometric():
    assert rational_series([1], [(1, 1)], 8) == [1] * 9


def test_rational_series_two_qubit_low_degrees():
    assert TWO_QUBIT_RATIONAL.series(3) == [1, 0, 3, 2]


@pytest.mark.parametrize("form,N", [(TWO_QUBIT_RATIONAL, 20)])
def test_rational_series_matches_fraction_oracle(form, N):
    oracle = expand_rational_fraction_oracle(form.numerator, form.denominator, N)
    assert form.series(N) == oracle


def test_qubit_qutrit_rational_matches_fraction_oracle():
    form = qubit_qutrit_rational()
    oracle = expand_rational_fraction_oracle(form.numerator, form.denominator, 16)
    assert form.series(16) == oracle


def test_qubit_qutrit_rational_matches_series():
    assert qubit_qutrit_rational().series(16) == POINCARE_2X3


@pytest.mark.parametrize("backend", ["weyl", "reduced"])
def test_qubit_qutrit_series_matches_rational_through_31(backend):
    # 31 is the deepest degree whose entries stay below 2^62
    ws = adjoint_weight_system("su2xsu3")
    assert (molien_series(ws, 31, backend=backend, degree_cap=31)
            == qubit_qutrit_rational().series(31))


@pytest.mark.parametrize("backend", ["weyl", "reduced"])
def test_qubit_qutrit_series_matches_rational_through_38(backend):
    # q^38 is the last printed numerator coefficient; from 34 on the
    # series comes from residue passes
    ws = adjoint_weight_system("su2xsu3")
    assert (molien_series(ws, 38, backend=backend, degree_cap=38)
            == qubit_qutrit_rational().series(38))


def test_qubit_qutrit_series_matches_rational_through_76():
    # the whole completed numerator, q^0..q^75, and one degree beyond; the
    # box entries reach C(110, 76) ~ 2^95, so this runs the 2^64 pass and
    # one odd-modulus pass
    ws = adjoint_weight_system("su2xsu3")
    assert (molien_series(ws, 76, degree_cap=76)
            == qubit_qutrit_rational().series(76))


@pytest.mark.parametrize("backend", ["weyl", "reduced"])
@pytest.mark.parametrize("spec,top", [("su2xsu2", 60), ("su2xsu3", 31)])
def test_series_matches_rational_at_every_degree(spec, top, backend):
    # each truncation degree N has windows of its own, so each is checked
    # as a request of its own
    ws = adjoint_weight_system(spec)
    rational = rational_form_for(spec).series(top)
    for N in range(top + 1):
        assert (molien_series(ws, N, backend=backend, degree_cap=N)
                == rational[:N + 1]), N


def test_rational_form_holds_only_numerator_and_denominator():
    assert [f.name for f in dataclasses.fields(RationalForm)] == [
        "numerator", "denominator"]


def test_palindromy_two_qubit():
    # Stanley: H(1/q) = (-1)^r q^(dim V) H(q), r the number of denominator
    # factors
    r = sum(mult for _, mult in TWO_QUBIT_RATIONAL.denominator)
    dim = len(adjoint_weight_system("su2xsu2").weights)
    assert _functional_equation(TWO_QUBIT_RATIONAL.numerator,
                                TWO_QUBIT_RATIONAL.denominator) == ((-1) ** r, dim)
    assert ((-1) ** r, dim) == (-1, 15)
    assert palindromy_check(TWO_QUBIT_RATIONAL.numerator,
                            TWO_QUBIT_RATIONAL.denominator, -1, 15)
    assert not palindromy_check(TWO_QUBIT_RATIONAL.numerator,
                                TWO_QUBIT_RATIONAL.denominator, 1, 15)
    assert not palindromy_check(TWO_QUBIT_RATIONAL.numerator,
                                TWO_QUBIT_RATIONAL.denominator, -1, 14)


def test_palindromy_qubit_qutrit():
    form = qubit_qutrit_rational()
    r = sum(mult for _, mult in form.denominator)
    dim = len(adjoint_weight_system("su2xsu3").weights)
    assert _functional_equation(form.numerator, form.denominator) == ((-1) ** r, dim)
    assert ((-1) ** r, dim) == (1, 35)
    assert palindromy_check(form.numerator, QUBIT_QUTRIT_DENOMINATOR, 1, 35)
    assert not palindromy_check(form.numerator, QUBIT_QUTRIT_DENOMINATOR, -1, 35)
    # the top degree is the printed prefix's last term
    assert len(form.numerator) == 76 and form.numerator[-1] == 1


def test_palindromy_rejects_non_palindrome():
    assert not palindromy_check([1, 1, 0], [(1, 2)], 1, 0)
    assert _functional_equation((0, 0), [(1, 2)]) is None
    assert _functional_equation((), [(1, 2)]) is None
    for numerator in ((1, 0, 2), (1, 2, 0, -1)):
        assert _functional_equation(numerator, [(1, 2)]) is None
        assert not any(palindromy_check(numerator, [(1, 2)], sign, degree)
                       for sign in (1, -1) for degree in range(-3, 4))


def test_palindromy_ignores_zero_padding():
    # q^lo P(q): the equation reads P, whatever zeros pad the list
    assert _functional_equation([1, 1], [(1, 2)]) == (1, 1)
    assert _functional_equation([1, 1, 0], [(1, 2)]) == (1, 1)
    assert palindromy_check([1, 1, 0], [(1, 2)], 1, 1)
    assert _functional_equation([0, 1, 1], [(1, 2)]) == (1, -1)
    assert _functional_equation([0, 0, 1, 2, -2, -1, 0], [(1, 1)]) == (1, -6)
    form = TWO_QUBIT_RATIONAL
    assert (_functional_equation(form.numerator + (0, 0), form.denominator)
            == _functional_equation(form.numerator, form.denominator))


def test_palindromy_sign_flipped_numerator():
    # odd antisymmetric numerator: N(1/q) = -q^-3 N(q), and the denominator
    # (1 - q) contributes -q, so M(1/q) = q^-2 M(q)
    assert _functional_equation([1, 2, -2, -1], [(1, 1)]) == (1, -2)
    assert palindromy_check([1, 2, -2, -1], [(1, 1)], 1, -2)
    assert not palindromy_check([1, 2, -2, -1], [(1, 1)], -1, -2)


def test_numerator_completion_consistency():
    num = qubit_qutrit_rational().numerator
    assert len(num) == 76
    assert num[39] == num[36] == 4308636
    assert num[72] == num[73] == num[74] == 0
    assert num == num[::-1]


@pytest.mark.parametrize("prefix,degree", [({-1: 5}, -1), ({0: 1, -2: 3}, -2),
                                           ({0: 1, 5: 2}, 5)])
def test_numerator_completion_rejects_degrees_outside_range(prefix, degree):
    with pytest.raises(ValueError, match=rf"degree {degree} is outside 0\.\.4"):
        complete_numerator_by_palindromy(prefix, 4)


def test_numerator_coefficients_take_numpy_integers():
    assert rational_series(np.array([1, 2]), [(1, 1)], 3) == [1, 3, 3, 3]
    assert palindromy_check(np.array([1, 1], dtype=np.int32), [(1, 1)], -1, 0)
    assert complete_numerator_by_palindromy(
        {np.int64(0): np.int64(2)}, np.int8(2)) == (2, 0, 2)


def test_numerator_completion_rejects_inconsistent_prefix():
    with pytest.raises(ArithmeticError, match="palindromy"):
        complete_numerator_by_palindromy({0: 1, 4: 2, 71: 3, 75: 1}, 75)
