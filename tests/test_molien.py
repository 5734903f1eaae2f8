"""Torus weight systems, exact series extraction and rational-form checks."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qqinv.molien import (TWO_QUBIT_RATIONAL, QUBIT_QUTRIT_DENOMINATOR,
                          WeightSystem, _axis_reach, _build_product_boxes,
                          _kernel, _root_polynomial,
                          adjoint_weight_system,
                          complete_numerator_by_palindromy, molien_series,
                          palindromy_check, qubit_qutrit_rational,
                          rational_form_for, rational_series)

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
    kept."""
    poly = {(0,) * (len(weights[0]) + 1): 1}  # (q-degree, *exponent) -> coefficient
    for w in weights:
        nxt = {}
        for (d, *exp), c in poly.items():
            for k in range(N + 1 - d):
                key = (d + k,) + tuple(e + k * x for e, x in zip(exp, w))
                nxt[key] = nxt.get(key, 0) + c
        poly = nxt
    out = [{} for _ in range(N + 1)]
    for (d, *exp), c in poly.items():
        out[d][tuple(exp)] = c
    return out


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
    ws.validate()
    weights = list(ws.weights)
    for w in weights:
        neg = tuple(-x for x in w)
        assert weights.count(neg) == weights.count(w)


def test_weight_system_validate_rejects_bad():
    with pytest.raises(ValueError, match="sum to 0"):
        WeightSystem(1, ((1,), (0,)), (), 1).validate()
    with pytest.raises(ValueError, match="paired"):
        WeightSystem(1, ((1,), (-1,)), ((1,),), 2).validate()


def test_unknown_group_spec():
    with pytest.raises(ValueError, match="unknown group spec"):
        adjoint_weight_system("su3xsu3")


# -- truncated torus series --------------------------------------------------------

def full_reach_box_series(ws, N):
    """The product box at reach N wmax, where the pruned windows are the full
    supports, as one {exponent: coefficient} dict of nonzero cells per
    q-degree."""
    reach = tuple(N * m for m in _axis_reach(ws.weights, ws.rank))
    boxes, center = _build_product_boxes(ws.weights, ws.rank, N, reach)
    return [{tuple(int(p - c) for p, c in zip(pos, center))[:ws.rank]:
             int(boxes[(d,) + tuple(pos)]) for pos in np.argwhere(boxes[d] != 0)}
            for d in range(N + 1)]


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


def test_box_dtype_follows_entry_bound():
    # 35 weights: C(65, 31) < 2^62 <= C(66, 32)
    zeros = ((0,),) * 35
    boxes, _ = _build_product_boxes(zeros, 1, 31, (0,))
    assert boxes.dtype == np.int64
    assert int(boxes[31, 0, 0, 0]) == math.comb(65, 31)
    boxes, _ = _build_product_boxes(zeros, 1, 32, (0,))
    assert boxes.dtype == object
    assert boxes[32, 0, 0, 0] == math.comb(66, 32)


def test_pruned_box_shape_2x3():
    # radius max_d min(d, 30 - d + reach) per axis, kernel reach (1, 2, 2),
    # and a gutter of max |w_z| = 1 at both ends of the innermost axis
    ws = adjoint_weight_system("su2xsu3")
    reach = _axis_reach([exp for exp, _ in _root_polynomial(ws.roots, ws.rank)],
                        ws.rank)
    assert reach == (1, 2, 2)
    boxes, center = _build_product_boxes(ws.weights, ws.rank, 30, reach)
    assert boxes.shape == (31, 31, 33, 35)
    assert center == (15, 16, 17)


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

#: rank 3, |w_a| up to 2 on every axis: runs over the flattened axes 1 and 2
#: cross row ends by up to 2 cells, which the gutter must absorb
WRAP_WEIGHTS = ((0, 0, 0), (0, 2, -1), (0, -2, 1), (0, 1, 2), (0, -1, -2),
                (0, 0, 2), (0, 0, -2), (1, 2, 2), (-1, -2, -2), (2, -1, 1),
                (-2, 1, -1), (2, 0, 0), (-2, 0, 0))


def test_per_factor_windows_exact_within_reach():
    # a cell within reach but outside the box reads as 0, as in
    # _extract_constant_terms
    for weights, reach in ((MIXED_WEIGHTS, (1, 2)), (WRAP_WEIGHTS, (1, 2, 2))):
        rank = len(reach)
        expect = dict_product_series(weights, 12)  # degree d is the same at any N >= d
        for N in range(13):
            boxes, center = _build_product_boxes(weights, rank, N, reach)
            for d in range(N + 1):
                for p in itertools.product(*(range(-r, r + 1) for r in reach)):
                    cell = (d,) + tuple(c + x for c, x in zip(center, p + (0,) * (3 - rank)))
                    inside = all(abs(x) <= c for x, c in zip(p, center))
                    got = int(boxes[cell]) if inside else 0
                    assert got == expect[d].get(p, 0), (weights, N, d, p)


def test_box_independent_of_weight_order():
    rng = np.random.default_rng(3)
    for N in (5, 12):
        boxes, center = _build_product_boxes(MIXED_WEIGHTS, 2, N, (1, 2))
        shuffled = [MIXED_WEIGHTS[i] for i in rng.permutation(len(MIXED_WEIGHTS))]
        again, center_again = _build_product_boxes(shuffled, 2, N, (1, 2))
        assert center_again == center
        assert again.dtype == boxes.dtype and np.array_equal(again, boxes)


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
    # the last input has bound C(79, 40) ~ 2^75 and runs on the object box
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
    assert all(type(c) is int for c in coefs)
    return list(zip(map(tuple, exps[:, :ws.rank].tolist()), coefs.tolist())), divisor


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


def test_degree_cap():
    ws = adjoint_weight_system("su2xsu2")
    with pytest.raises(ValueError, match="resource cap 20"):
        molien_series(ws, 21)
    assert len(molien_series(ws, 22, degree_cap=25)) == 23


def test_bad_backend():
    ws = adjoint_weight_system("su2xsu2")
    with pytest.raises(ValueError, match="backend"):
        molien_series(ws, 4, backend="contour")


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
    # 31 is the deepest degree whose product box still fits int64
    ws = adjoint_weight_system("su2xsu3")
    assert (molien_series(ws, 31, backend=backend, degree_cap=31)
            == qubit_qutrit_rational().series(31))


@pytest.mark.parametrize("backend", ["weyl", "reduced"])
def test_qubit_qutrit_series_matches_rational_through_38(backend):
    # q^38 is the last printed numerator coefficient; from 32 on the box
    # holds Python integers
    ws = adjoint_weight_system("su2xsu3")
    assert (molien_series(ws, 38, backend=backend, degree_cap=38)
            == qubit_qutrit_rational().series(38))


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


def test_rational_series_validates_denominator():
    with pytest.raises(ValueError, match="degree"):
        rational_series([1], [(0, 1)], 4)
    with pytest.raises(ValueError, match="multiplicity"):
        rational_series([1], [(2, 0)], 4)


def test_palindromy_two_qubit():
    assert palindromy_check(TWO_QUBIT_RATIONAL.numerator,
                            TWO_QUBIT_RATIONAL.denominator, -1, 15)
    assert not palindromy_check(TWO_QUBIT_RATIONAL.numerator,
                                TWO_QUBIT_RATIONAL.denominator, 1, 15)
    assert not palindromy_check(TWO_QUBIT_RATIONAL.numerator,
                                TWO_QUBIT_RATIONAL.denominator, -1, 14)


def test_palindromy_qubit_qutrit():
    form = qubit_qutrit_rational()
    assert palindromy_check(form.numerator, QUBIT_QUTRIT_DENOMINATOR, 1, 35)


def test_palindromy_rejects_non_palindrome():
    assert not palindromy_check([1, 1, 0], [(1, 2)], 1, 0)


def test_palindromy_sign_flipped_numerator():
    # odd antisymmetric numerator: N(1/q) = -q^-3 N(q)
    assert palindromy_check([1, 2, -2, -1], [(1, 1)], 1, -2)


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


def test_numerator_completion_rejects_inconsistent_prefix():
    with pytest.raises(ArithmeticError, match="palindromy"):
        complete_numerator_by_palindromy({0: 1, 4: 2, 71: 3, 75: 1}, 75)
