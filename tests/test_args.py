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
    row("kernel_at_degree-panel_size", lambda v: li.kernel_at_degree(2, panel_size=v), 0,
        ValueError, "panel_size must be >= 1, got 0"),
    row("panel_violations-panel_size", lambda v: li.panel_violations(panel_size=v), 0,
        ValueError, "panel_size must be >= 1, got 0"),
    row("complete_numerator-top_degree",
        lambda v: molien.complete_numerator_by_palindromy({}, v), -5,
        ValueError, "top_degree must be >= 0, got -5"),
    # denominator exponents, the sign and the degree of a functional equation
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
    "palindromy_check-numpy-integers": (
        lambda: molien.palindromy_check(TWO_QUBIT.numerator,
                                        np.array(TWO_QUBIT.denominator),
                                        np.int8(-1), np.int64(15)),
        lambda: True),
    "casimirs_from_vee-integer-vector": (
        lambda: cp.casimirs_from_vee(np.ones(35, int), SC6).raw,
        lambda: cp.casimirs_from_vee(np.ones(35), SC6).raw),
    "state-nested-lists": (
        lambda: states.QubitQutritState([1, 0, 0], [0] * 8, [[0] * 8] * 3).x,
        lambda: np.r_[1.0, np.zeros(34)]),
}


@pytest.mark.parametrize("got, expected", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_contract_accepts(got, expected):
    assert np.array_equal(got(), expected())
