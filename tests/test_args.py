"""The argument contract of the public functions (qqinv._args), as one table.

Each row of CONTRACT is (call, bad value, exception type, exact message): the
call is given the bad value in place of one argument and must raise that
exception with exactly that message.  A new input check is one more row.
ACCEPTED lists the other side of the contract: inputs that are read as the
value they stand for.
"""

import re

import numpy as np
import pytest

from qqinv import _args
from qqinv import casimir_positivity as cp
from qqinv import local_invariants as li
from qqinv import molien, states, su_algebra

SU3 = su_algebra.build_basis("su3-gellmann")
SC3 = su_algebra.structure_constants("su3-gellmann")
SC6 = su_algebra.structure_constants("su6-tensor")
TWO_QUBIT = molien.TWO_QUBIT_RATIONAL
XI = states.state_to_xi(states.random_density(4))
RAGGED_C = [[0] * 8, [0] * 8, [0] * 7]
RAGGED = "is ragged: its nested sequences differ in length"


def _ws22():
    """The SU(2)xSU(2) system, built on first use: this module builds no
    WeightSystem at import time, so that a constructor check cannot fail
    its collection."""
    return molien.adjoint_weight_system("su2xsu2")


def _abc(**fields):
    """A state document in the abc form with the given fields replaced."""
    return {"abc": {"a": [0] * 3, "b": [0] * 8, "C": [[0] * 8] * 3, **fields}}


#: the field shapes of one state
STATE_SHAPES = {"a": (3,), "b": (8,), "C": (3, 8)}


def _state(field):
    """QubitQutritState of zero fields with the given field replaced."""
    zeros = {key: np.zeros(shape) for key, shape in STATE_SHAPES.items()}
    return lambda v: states.QubitQutritState(**{**zeros, field: v})


def row(case, call, value, exc, message):
    return pytest.param(call, value, exc, message, id=case)


#: every function that seeds numpy generators from its caller's seed
SEEDED = {
    "random_densities": lambda v: states.random_densities([0, v]),
    "random_density": lambda v: states.random_density(v),
    "random_nonpsd_unit_traces": lambda v: states.random_nonpsd_unit_traces([v], -0.1),
    "random_nonpsd_unit_trace": lambda v: states.random_nonpsd_unit_trace(v, -0.1),
    "random_unitaries-local": lambda v: states.random_unitaries([v], local=True),
    "random_unitaries-global": lambda v: states.random_unitaries([v], local=False),
    "random_local_unitary": lambda v: states.random_local_unitary(v),
    "random_global_unitary": lambda v: states.random_global_unitary(v),
    "closure_max_violation": lambda v: su_algebra.closure_max_violation(SU3, SC3, v),
}

#: every local_invariants function that takes a seed; their bools, floats
#: and None are rejected in tests/test_invariants.py
SEEDED_PANELS = {
    "random_panel": lambda v: li.random_panel(v, 3),
    "kernel_at_degree": lambda v: li.kernel_at_degree(4, v),
    "nonkernel_words": lambda v: li.nonkernel_words(2, v),
    "panel_violations": lambda v: li.panel_violations(v, 3),
    "rank_at_degree": lambda v: li.rank_at_degree(2, False, v),
    "degree4_completion_rank": lambda v: li.degree4_completion_rank(v),
    "independence_evidence": lambda v: li.independence_evidence(2, v),
    "invariance_test": lambda v: li.invariance_test("aa", 3, v),
}

#: a state and a point for the trace-word entry points
STATE = states.random_density(1)
POINT = np.full(35, 0.1)

#: the word, words or selector argument of each trace-word entry point, with
#: a value that is neither a word nor a sequence of words; each raised a
#: bare "'int' object is not iterable" (or its NoneType or float variant)
NOT_WORDS = {
    "eval_trace": (lambda v: li.eval_trace(v, STATE), "word", 5),
    "eval_trace_complex": (lambda v: li.eval_trace_complex(v, STATE), "word", None),
    "trace_jacobian": (lambda v: li.trace_jacobian(v, POINT), "words", 5),
    "jacobian_rank": (lambda v: li.jacobian_rank(v, POINT), "words", 3.0),
    "invariance_test": (lambda v: li.invariance_test(v, 3), "selector", 5),
}


def _molien_series_warm(max_degree):
    """molien_series with the plans of degrees 3 and 1 cached: 3.0 hashes
    like 3, so a cached plan must not let it through."""
    molien.molien_series(_ws22(), 3)
    molien.molien_series(_ws22(), 1)
    return molien.molien_series(_ws22(), max_degree)


#: molien_series on a cold and on a warm plan cache
MOLIEN_SERIES = {
    "cold": lambda v: (molien._box_plan.cache_clear(), molien.molien_series(_ws22(), v)),
    "warm": _molien_series_warm,
}

#: the arguments of the integer weight system of SU(2) on spin 1, its
#: torus coordinate scaled by 3, with the same weights and roots as floats
#: and numpy integers
SPIN1_BY_3 = {
    "int": (1, ((0,), (3,), (-3,)), ((3,), (-3,)), 2),
    "3.0": (1, ((0.0,), (3.0,), (-3.0,)), ((3.0,), (-3.0,)), 2),
    "numpy": (1, tuple((np.int64(x),) for x in (0, 3, -3)),
              ((np.int64(3),), (np.int64(-3),)), 2),
}


def _series_planned_after(first, then):
    """molien_series at degree 4 of the system built from `first` on empty
    kernel and plan caches, then of the one built from `then` on the caches
    that `first` filled."""
    molien._kernel.cache_clear()
    molien._box_plan.cache_clear()
    return (molien.molien_series(molien.WeightSystem(*first), 4)
            + molien.molien_series(molien.WeightSystem(*then), 4))


def _series_of(args):
    """molien_series at degree 4 of the system built from args: an invalid
    system raises in its constructor, so molien_series never sees it."""
    return molien.molien_series(molien.WeightSystem(*args), 4)


#: the arguments of weight systems with a weight or root that is not an
#: integer vector of their rank; unchecked, the first ran as (+-1,), the
#: next two gave [0, 0, 0, 0, 0] and [1, 2, 3, 4, 5], and the last two
#: raised numpy's reshape error and a TypeError on slice indices.  The
#: next three, weights that do not sum to 0, an unpaired root and |W| = 0,
#: gave [1, -1, 0, 0, 0], an ArithmeticError and a ZeroDivisionError on
#: the weyl backend; the last is not a number at all
R1, R2 = ((1,), (-1,)), ((1, 0), (-1, 0))
MALFORMED = (
    ("weight-1.5", (1, ((0,), (1.5,), (-1.5,)), R1, 2),
     "weight (1.5,) is not an integer vector of rank 1"),
    ("weights-of-rank-1-in-rank-2", (2, ((0,), (1,), (-1,)), R2, 2),
     "weight (0,) is not an integer vector of rank 2"),
    ("weights-of-rank-3-in-rank-2", (2, ((0, 0, 0), (1, 0, 0), (-1, 0, 0)), R2, 2),
     "weight (0, 0, 0) is not an integer vector of rank 2"),
    ("weights-of-rank-2-in-rank-1", (1, ((1, 0), (-1, 0)), R1, 2),
     "weight (1, 0) is not an integer vector of rank 1"),
    ("root-0.5", (1, ((0,), (1,), (-1,)), ((0.5,), (-0.5,)), 2),
     "root (0.5,) is not an integer vector of rank 1"),
    ("weights-sum-to-2", (1, ((1,), (1,)), R1, 2),
     "weight coordinates do not sum to 0 on axis 0"),
    ("root-unpaired", (1, ((0,), (1,), (-1,)), ((1,),), 2),
     "roots are not paired: (1,) vs (-1,)"),
    ("weyl_order-0", (1, ((0,), (1,), (-1,)), R1, 0), "weyl_order must be positive"),
    ("weight-None", (1, ((None,),), (), 1), "weight (None,) is not an integer vector of rank 1"),
    ("rank-0", (0, (), (), 1), "rank must be >= 1, got 0"),
)

#: the arguments of weight systems whose rank or |W| is not an integer;
#: |W| = 2.0 gave the float counts [1.0, 0.0, 1.0, 0.0, 1.0] and left them
#: in the kernel cache for every later system of the same roots with |W| = 2
NOT_INTEGER = (
    ("weyl_order-2.0", (1, ((0,), (1,), (-1,)), ((1,), (-1,)), 2.0),
     "weyl_order must be an integer, got 2.0"),
    ("weyl_order-True", (1, ((0,), (1,), (-1,)), ((1,), (-1,)), True),
     "weyl_order must be an integer, got True"),
    ("rank-True", (True, ((0,), (1,), (-1,)), ((1,), (-1,)), 2),
     "rank must be an integer, got True"),
    ("rank-1.0", (1.0, ((0,), (1,), (-1,)), ((1,), (-1,)), 2),
     "rank must be an integer, got 1.0"),
)

#: the two routes to rational_series's max_degree
RATIONAL_SERIES = {
    "rational_series": lambda v: molien.rational_series([1], [(2, 1)], v),
    "RationalForm.series": lambda v: TWO_QUBIT.series(v),
}

#: every reader of numerator coefficients, degrees and top degrees
NUMERATORS = {
    "rational_series": ("numerator coefficient",
                        lambda v: molien.rational_series([1, v], [(1, 1)], 3)),
    # every coefficient is read, also one beyond max_degree
    "rational_series-beyond": ("numerator coefficient",
                               lambda v: molien.rational_series([1, 0, 0, v], [(1, 1)], 1)),
    "palindromy_check": ("numerator coefficient",
                         lambda v: molien.palindromy_check([v, v], [(1, 1)], -1, 0)),
    "functional_equation": ("numerator coefficient",
                            lambda v: molien._functional_equation([1, v, 1], [(1, 1)])),
    "complete_numerator": ("numerator coefficient",
                           lambda v: molien.complete_numerator_by_palindromy({0: v, 3: 1}, 3)),
    "complete_numerator-degree": (
        "numerator degree", lambda v: molien.complete_numerator_by_palindromy({0: 1, v: 1}, 3)),
    "complete_numerator-top_degree": (
        "top_degree", lambda v: molien.complete_numerator_by_palindromy({0: 1}, v)),
}

BAD_SEEDS = ((True, TypeError, "seed must be an integer, got True"),
             (None, TypeError, "seed must be an integer, got None"),
             (2.5, TypeError, "seed must be an integer, got 2.5"),
             (-1, ValueError, "seed must be >= 0, got -1"))

CONTRACT = [
    # the readers themselves
    row("integer-numpy-bool", lambda v: _args.integer(v, "n"), np.True_,
        TypeError, "n must be an integer, got np.True_"),
    row("integer-numpy-float", lambda v: _args.integer(v, "n"), np.float64(2.0),
        TypeError, "n must be an integer, got np.float64(2.0)"),
    row("integer-str", lambda v: _args.integer(v, "n"), "3",
        TypeError, "n must be an integer, got '3'"),
    row("integer-below-lo..hi", lambda v: _args.integer(v, "n", 1, 8), 0,
        ValueError, "n must be in 1..8, got 0"),
    row("integer-above-lo..hi", lambda v: _args.integer(v, "n", 1, 8), 9,
        ValueError, "n must be in 1..8, got 9"),
    # seeds
    *(row(f"{name}-{value!r}", call, value, exc, message)
      for name, call in SEEDED.items() for value, exc, message in BAD_SEEDS),
    # degrees, sizes and counts
    row("molien_series-max_degree", lambda v: molien.molien_series(_ws22(), v), -1,
        ValueError, "max_degree must be >= 0, got -1"),
    *(row(f"molien_series-max_degree-{cache}-{value!r}", call, value, TypeError,
          f"max_degree must be an integer, got {value!r}")
      for cache, call in MOLIEN_SERIES.items() for value in (3.0, 1.0, True, False, "3")),
    # True once acted as cap 1, 2.5 was accepted and None raised a bare
    # comparison error
    *(row(f"molien_series-degree_cap-{value!r}",
          lambda v: molien.molien_series(_ws22(), 1, degree_cap=v), value, TypeError,
          f"degree_cap must be an integer, got {value!r}")
      for value in (None, True, False, 2.5, 3.0, "3")),
    row("molien_series-degree_cap-negative",
        lambda v: molien.molien_series(_ws22(), 0, degree_cap=v), -1,
        ValueError, "degree_cap must be >= 0, got -1"),
    row("molien_series-max_degree-over-cap", lambda v: molien.molien_series(_ws22(), v), 21,
        ValueError, "max_degree 21 exceeds the resource cap 20; "
                    "pass degree_cap explicitly to override"),
    *(row(f"molien_series-{case}", _series_of, args, ValueError, message)
      for case, args, message in MALFORMED),
    *(row(f"molien_series-{case}", _series_of, args, TypeError, message)
      for case, args, message in NOT_INTEGER),
    # valid systems that molien_series cannot run: a wrong |W|, whose
    # constant terms it does not divide, and a torus of rank 4
    row("molien_series-weyl_order-4", _series_of, (1, ((0,), (1,), (-1,)), R1, 4),
        ArithmeticError, "constant term 2 at degree 0 is not divisible by 4"),
    row("molien_series-rank-4", _series_of, (4, ((0, 0, 0, 0),), (), 1),
        ValueError, "torus rank 4 not supported (max 3)"),
    # names of a group and of a backend
    row("adjoint_weight_system-spec", molien.adjoint_weight_system, "su3xsu3",
        ValueError, "unknown group spec 'su3xsu3'; expected one of ('su2xsu2', 'su2xsu3')"),
    row("molien_series-backend", lambda v: molien.molien_series(_ws22(), 4, backend=v),
        "contour", ValueError, "unknown backend 'contour'"),
    row("rational_form_for-label", molien.rational_form_for, "su3xsu3",
        ValueError, "no rational form for 'su3xsu3'"),
    # a negative degree once sliced the numerator from its end:
    # TWO_QUBIT_RATIONAL.series(-2) gave 15 coefficients, and
    # rational_series([1], [(2, 1)], -1) gave []
    *(row(f"{name}-max_degree-{value!r}", call, value, exc, message)
      for name, call in RATIONAL_SERIES.items()
      for value, exc, message in (
          (-1, ValueError, "max_degree must be >= 0, got -1"),
          (-2, ValueError, "max_degree must be >= 0, got -2"),
          *((bad, TypeError, f"max_degree must be an integer, got {bad!r}")
            for bad in (3.0, True, False, "3")))),
    row("kernel_at_degree-panel_size", lambda v: li.kernel_at_degree(2, panel_size=v), 0,
        ValueError, "panel_size must be >= 1, got 0"),
    *(row(f"{name}--1", call, -1, ValueError, "seed must be >= 0, got -1")
      for name, call in SEEDED_PANELS.items()),
    *(row(f"enumerate_words-degree-{value}", li.enumerate_words, value,
          ValueError, f"degree must be in 1..8, got {value}") for value in (0, 9)),
    row("kernel_at_degree-degree-7", li.kernel_at_degree, 7,
        ValueError, "degree must be in 1..6, got 7"),
    row("rank_at_degree-degree-7", lambda v: li.rank_at_degree(v, include_products=False), 7,
        ValueError, "degree must be in 1..6, got 7"),
    row("independence_evidence-degree_cap-9", li.independence_evidence, 9,
        ValueError, "degree_cap must be in 1..8, got 9"),
    row("invariance_test-trials-0", lambda v: li.invariance_test("aa", v), 0,
        ValueError, "trials must be >= 1, got 0"),
    # words
    *(row(f"{name}-{name_of}-{value!r}", call, value, TypeError,
          f"{name_of} must be a str, a TraceWord or a sequence of them, got {value!r}")
      for name, (call, name_of, value) in NOT_WORDS.items()),
    *(row(f"eval_trace-word-in-{value!r}", lambda v: li.eval_trace(v, STATE), value,
          TypeError, f"word must be a str, got {value[-1]!r}") for value in ([5], ["ab", 7])),
    row("invariance_test-selector-[5]", lambda v: li.invariance_test(v, 3), [5],
        ValueError, "unknown invariant selector 5"),
    row("panel_violations-panel_size", lambda v: li.panel_violations(panel_size=v), 0,
        ValueError, "panel_size must be >= 1, got 0"),
    row("complete_numerator-top_degree",
        lambda v: molien.complete_numerator_by_palindromy({}, v), -5,
        ValueError, "top_degree must be >= 0, got -5"),
    # denominator exponents, the sign and the degree of a functional equation;
    # (True, 1) was read as 1/(1 - q) and (2, 1.5) raised range's message
    *(row(f"rational_series-denominator-{value!r}",
          lambda v: molien.rational_series([1], [v], 4), value, exc, message)
      for value, exc, message in (
          ((True, 1), TypeError, "denominator degree must be an integer, got True"),
          ((2.0, 1), TypeError, "denominator degree must be an integer, got 2.0"),
          ((2, False), TypeError, "denominator multiplicity must be an integer, got False"),
          ((2, 1.5), TypeError, "denominator multiplicity must be an integer, got 1.5"),
          ((0, 1), ValueError, "denominator degree must be >= 1, got 0"),
          ((2, 0), ValueError, "denominator multiplicity must be >= 1, got 0"))),
    row("functional_equation-degree",
        lambda v: molien._functional_equation([1, 1], [(v, 1)]), 1.5,
        TypeError, "denominator degree must be an integer, got 1.5"),
    row("functional_equation-multiplicity",
        lambda v: molien._functional_equation([1, 1], [(2, v)]), -1,
        ValueError, "denominator multiplicity must be >= 1, got -1"),
    row("palindromy_check-degree",
        lambda v: molien.palindromy_check([1, 1], [(v, 1)], -1, 0), 1.5,
        TypeError, "denominator degree must be an integer, got 1.5"),
    row("palindromy_check-sign-float",
        lambda v: molien.palindromy_check(TWO_QUBIT.numerator, TWO_QUBIT.denominator,
                                          v, 15), -1.0,
        TypeError, "sign must be an integer, got -1.0"),
    row("palindromy_check-sign-bool",
        lambda v: molien.palindromy_check([1, 1], [(1, 1)], v, 0), True,
        TypeError, "sign must be an integer, got True"),
    row("palindromy_check-top_degree",
        lambda v: molien.palindromy_check(TWO_QUBIT.numerator, TWO_QUBIT.denominator,
                                          -1, v), 15.0,
        TypeError, "top_degree must be an integer, got 15.0"),
    # numerator coefficients and degrees
    *(row(f"{name}-{value!r}", call, value, TypeError,
          f"{what} must be an integer, got {value!r}")
      for name, (what, call) in NUMERATORS.items() for value in (1.5, True)),
    # real coordinate arrays
    row("casimirs_from_vee-complex", lambda v: cp.casimirs_from_vee(v, SC6), XI * 1j,
        ValueError, "field 'xi' has dtype complex128, expected real coordinates"),
    row("vee-u-complex", lambda v: cp.vee(v, XI, SC6), XI * 1j,
        ValueError, "field 'u' has dtype complex128, expected real coordinates"),
    row("vee-v-complex", lambda v: cp.vee(XI, v, SC6), XI * 1j,
        ValueError, "field 'v' has dtype complex128, expected real coordinates"),
    row("casimirs_from_vee-bool", lambda v: cp.casimirs_from_vee(v, SC6),
        np.ones(35, bool), ValueError, "field 'xi' has dtype bool, expected real coordinates"),
    row("vee-u-bool", lambda v: cp.vee(v, np.ones(35), SC6), np.ones(35, bool),
        ValueError, "field 'u' has dtype bool, expected real coordinates"),
    row("vee-v-bool", lambda v: cp.vee(np.ones(35), v, SC6), np.ones(35, bool),
        ValueError, "field 'v' has dtype bool, expected real coordinates"),
    row("casimirs_from_vee-ragged", lambda v: cp.casimirs_from_vee(v, SC6),
        [[0.0] * 35, [0.0] * 34], ValueError, f"field 'xi' {RAGGED}"),
    # the Casimirs are su(6)'s: su(3)'s once divided by zero in normalized
    row("casimirs_from_vee-su3", lambda v: cp.casimirs_from_vee(np.zeros(8), v), SC3,
        ValueError, "Casimirs are su(6)'s: got structure constants of su(3)"),
    row("vee-u-ragged", lambda v: cp.vee(v, XI, SC6), [[0.0] * 35, [0.0]],
        ValueError, f"field 'u' {RAGGED}"),
    # numpy would drop the imaginary part with a ComplexWarning, and bools
    # were read as 0 and 1: a = [True, False, False] gave a = [1, 0, 0]
    *(row(f"state-{field}-{case}", _state(field), value, ValueError,
          f"field '{field}' has dtype {dtype}, expected real coordinates")
      for field, shape in STATE_SHAPES.items()
      for case, value, dtype in (
          ("complex", np.zeros(shape) + 1j, "complex128"),
          ("complex-real-valued", np.zeros(shape, complex), "complex128"),
          ("bool", np.full(shape, True), "bool"),
          ("object", np.full(shape, None), "object"),
          ("str", np.full(shape, "0"), "<U1"))),
    # C.T has 24 entries too, but reshaping it would scramble the
    # correlations
    *(row(f"state-{case}", lambda v: states.QubitQutritState(*map(np.zeros, v)), shapes,
          ValueError, message)
      for case, shapes, message in (
          ("C-transposed", ((3,), (8,), (8, 3)),
           "field 'C' has shape (8, 3), expected (3, 8) or (24,)"),
          ("a-length-4", ((4,), (8,), (3, 8)), "field 'a' has shape (4,), expected (..., 3)"),
          ("a-scalar", ((), (8,), (3, 8)), "field 'a' has shape (), expected (..., 3)"),
          ("b-2x4", ((3,), (2, 4), (3, 8)), "field 'b' has shape (2, 4), expected (8,)"),
          ("b-1x8", ((3,), (1, 8), (3, 8)), "field 'b' has shape (1, 8), expected (8,)"),
          ("C-length-25", ((3,), (8,), (25,)),
           "field 'C' has shape (25,), expected (3, 8) or (24,)"),
          ("b-without-batch", ((2, 3), (8,), (2, 3, 8)),
           "field 'b' has shape (8,), expected (2, 8)"),
          ("C-without-batch", ((2, 3), (2, 8), (3, 8)),
           "field 'C' has shape (3, 8), expected (2, 3, 8) or (2, 24)"),
          ("b-other-batch", ((2, 3), (3, 8), (3, 3, 8)),
           "field 'b' has shape (3, 8), expected (2, 8)"),
          ("C-flat-other-batch", ((2, 3), (2, 8), (3, 24)),
           "field 'C' has shape (3, 24), expected (2, 3, 8) or (2, 24)"))),
    row("state-a-ragged", lambda v: states.QubitQutritState(v, np.zeros(8), np.zeros(24)),
        [0, 0, [0]], ValueError, f"field 'a' {RAGGED}"),
    row("state-C-ragged", lambda v: states.QubitQutritState(np.zeros(3), np.zeros(8), v),
        RAGGED_C, ValueError, f"field 'C' {RAGGED}"),
    row("state-file-C-ragged", lambda v: states.state_from_json_dict(_abc(C=v)), RAGGED_C,
        ValueError, f"field 'C' {RAGGED}"),
    row("state-file-a-strings", lambda v: states.state_from_json_dict(_abc(a=v)),
        ["0.1", "0", "0"], ValueError, "field 'a' has dtype <U3, expected real coordinates"),
    row("state-file-a-bools", lambda v: states.state_from_json_dict(_abc(a=v)),
        [True, False, False], ValueError, "field 'a' has dtype bool, expected real coordinates"),
    row("state-file-rho-object", lambda v: states.state_from_json_dict({"rho": v}),
        {"x": 1}, ValueError, "field 'rho' has dtype object, expected real coordinates"),
    row("state-file-not-an-object", states.state_from_json_dict, [1],
        ValueError, "state document must be a JSON object"),
    row("state-file-abc-without-C", states.state_from_json_dict,
        {"abc": {"a": [0] * 3, "b": [0] * 8}}, ValueError, "missing field 'C' in abc state"),
    row("trace_jacobian-bool", lambda v: li.trace_jacobian(["aa", "gg"], v),
        np.zeros(35, bool), ValueError, "field 'point' has dtype bool, expected real coordinates"),
    # real scalars
    *(row(f"{name}-level-{value!r}", call, value, TypeError,
          f"min_negative_eigenvalue must be a real number, got {value!r}")
      for name, call in {
          "random_nonpsd_unit_trace": lambda v: states.random_nonpsd_unit_trace(1, v),
          "random_nonpsd_unit_traces": lambda v: states.random_nonpsd_unit_traces([1], v),
      }.items() for value in ("-0.1", True, None)),
    row("real-complex", lambda v: _args.real(v, "t"), -0.1 + 0j,
        TypeError, "t must be a real number, got (-0.1+0j)"),
]


@pytest.mark.parametrize("call, value, exc, message", CONTRACT)
def test_contract_case(call, value, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call(value)


ACCEPTED = {
    "random_density-numpy-seed": (lambda: states.random_density(np.int64(3)).x,
                                  lambda: states.random_density(3).x),
    "random_unitaries-numpy-seeds": (lambda: states.random_unitaries(np.arange(3), True),
                                     lambda: states.random_unitaries(range(3), True)),
    "closure_max_violation-numpy-seed": (
        lambda: su_algebra.closure_max_violation(SU3, SC3, np.int64(5)),
        lambda: su_algebra.closure_max_violation(SU3, SC3, 5)),
    "molien_series-numpy-max_degree": (lambda: molien.molien_series(_ws22(), np.int64(4)),
                                       lambda: molien.molien_series(_ws22(), 4)),
    "molien_series-numpy-degree_cap": (
        lambda: molien.molien_series(_ws22(), 4, degree_cap=np.int64(4)),
        lambda: molien.molien_series(_ws22(), 4)),
    **{f"molien_series-{form}-weights-planned-{when}": (
        lambda pair=pair: _series_planned_after(*pair), lambda: [1, 0, 1, 0, 1] * 2)
       for form in ("3.0", "numpy")
       for when, pair in (("first", (SPIN1_BY_3[form], SPIN1_BY_3["int"])),
                          ("second", (SPIN1_BY_3["int"], SPIN1_BY_3[form])))},
    "molien_series-numpy-rank-and-weyl_order": (
        lambda: _series_of((np.int64(1), ((0,), (1,), (-1,)), ((1,), (-1,)), np.int8(2))),
        lambda: [1, 0, 1, 0, 1]),
    "RationalForm.series-numpy-max_degree": (lambda: TWO_QUBIT.series(np.int64(3)),
                                             lambda: [1, 0, 3, 2]),
    "rational_series-max_degree-0": (lambda: molien.rational_series([1], [(2, 1)], 0),
                                     lambda: [1]),
    "rational_series-numpy-denominator": (
        lambda: molien.rational_series([1], [(np.int64(2), np.int64(1))], 4),
        lambda: [1, 0, 1, 0, 1]),
    "palindromy_check-numpy-integers": (
        lambda: molien.palindromy_check(TWO_QUBIT.numerator,
                                        np.array(TWO_QUBIT.denominator),
                                        np.int8(-1), np.int64(15)),
        lambda: True),
    "casimirs_from_vee-integer-vector": (
        lambda: cp.casimirs_from_vee(np.ones(35, int), SC6).raw,
        lambda: cp.casimirs_from_vee(np.ones(35), SC6).raw),
    "random_nonpsd_unit_trace-numpy-level": (
        lambda: states.random_nonpsd_unit_trace(1, np.float32(-0.25)).x,
        lambda: states.random_nonpsd_unit_trace(1, -0.25).x),
    "random_nonpsd_unit_trace-integer-level": (
        lambda: states.random_nonpsd_unit_trace(1, -1).x,
        lambda: states.random_nonpsd_unit_trace(1, -1.0).x),
    "state-nested-lists": (
        lambda: states.QubitQutritState([1, 0, 0], [0] * 8, [[0] * 8] * 3).x,
        lambda: np.r_[1.0, np.zeros(34)]),
}


@pytest.mark.parametrize("got, expected", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_contract_accepts(got, expected):
    assert np.array_equal(got(), expected())
