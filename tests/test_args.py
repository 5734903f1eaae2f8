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
WS22 = molien.adjoint_weight_system("su2xsu2")
TWO_QUBIT = molien.TWO_QUBIT_RATIONAL
XI = states.state_to_xi(states.random_density(4))
RAGGED_C = [[0] * 8, [0] * 8, [0] * 7]
RAGGED = "is ragged: its nested sequences differ in length"


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

def _molien_series_warm(max_degree):
    """molien_series with the plans of degrees 3 and 1 cached: 3.0 hashes
    like 3, so a cached plan must not let it through."""
    molien.molien_series(WS22, 3)
    molien.molien_series(WS22, 1)
    return molien.molien_series(WS22, max_degree)


#: molien_series on a cold and on a warm plan cache
MOLIEN_SERIES = {
    "cold": lambda v: (molien._box_plan.cache_clear(), molien.molien_series(WS22, v)),
    "warm": _molien_series_warm,
}

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
    row("molien_series-max_degree", lambda v: molien.molien_series(WS22, v), -1,
        ValueError, "max_degree must be >= 0, got -1"),
    *(row(f"molien_series-max_degree-{cache}-{value!r}", call, value, TypeError,
          f"max_degree must be an integer, got {value!r}")
      for cache, call in MOLIEN_SERIES.items() for value in (3.0, 1.0, True, False, "3")),
    # True once acted as cap 1, 2.5 was accepted and None raised a bare
    # comparison error
    *(row(f"molien_series-degree_cap-{value!r}",
          lambda v: molien.molien_series(WS22, 1, degree_cap=v), value, TypeError,
          f"degree_cap must be an integer, got {value!r}")
      for value in (None, True, False, 2.5, 3.0, "3")),
    row("molien_series-degree_cap-negative",
        lambda v: molien.molien_series(WS22, 0, degree_cap=v), -1,
        ValueError, "degree_cap must be >= 0, got -1"),
    row("molien_series-max_degree-over-cap", lambda v: molien.molien_series(WS22, v), 21,
        ValueError, "max_degree 21 exceeds the resource cap 20; "
                    "pass degree_cap explicitly to override"),
    # names of a group and of a backend
    row("adjoint_weight_system-spec", molien.adjoint_weight_system, "su3xsu3",
        ValueError, "unknown group spec 'su3xsu3'; expected one of ('su2xsu2', 'su2xsu3')"),
    row("molien_series-backend", lambda v: molien.molien_series(WS22, 4, backend=v),
        "contour", ValueError, "unknown backend 'contour'"),
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
    "molien_series-numpy-max_degree": (lambda: molien.molien_series(WS22, np.int64(4)),
                                       lambda: molien.molien_series(WS22, 4)),
    "molien_series-numpy-degree_cap": (
        lambda: molien.molien_series(WS22, 4, degree_cap=np.int64(4)),
        lambda: molien.molien_series(WS22, 4)),
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
