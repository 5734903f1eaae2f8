"""Casimir routes, characteristic coefficients and positivity verdicts."""

import math
import pickle

import numpy as np
import pytest

from qqinv import casimir_positivity as cp
from qqinv import states
from qqinv.casimir_positivity import (CasimirValues, casimir_inequality_exprs,
                                      casimirs_from_traces, casimirs_from_vee,
                                      char_poly_coeffs,
                                      char_poly_coeffs_determinant,
                                      dual_route_report, eigenvalue_oracle,
                                      moments, positivity_report, vee)
from qqinv.states import QubitQutritState, random_density, to_matrix
from qqinv.su_algebra import structure_constants

SC3 = structure_constants("su3-gellmann")
SC6 = structure_constants("su6-tensor")


def test_vee_zero_and_symmetry():
    rng = np.random.default_rng(0)
    u, v = rng.normal(size=8), rng.normal(size=8)
    assert np.abs(vee(np.zeros(8), v, SC3)).max() == 0.0
    assert np.abs(vee(u, v, SC3) - vee(v, u, SC3)).max() < 1e-12


def test_vee_su3_lambda8_axis():
    e8 = np.zeros(8)
    e8[7] = 1.0
    out = vee(e8, e8, SC3)
    kappa = math.sqrt(3.0)
    expect = kappa * SC3.d[7, 7, 7] * e8  # d_888 = -1/sqrt(3)
    assert np.abs(out - expect).max() < 1e-12
    assert abs(out[7] + 1.0) < 1e-12


def test_vee_dimension_mismatch():
    with pytest.raises(ValueError, match="length 8"):
        vee(np.zeros(3), np.zeros(3), SC3)


def test_casimirs_maximally_mixed():
    cas = casimirs_from_traces(QubitQutritState.zero())
    assert np.abs(cas.raw).max() == 0.0
    assert np.abs(cas.normalized).max() == 0.0


def test_casimirs_pure_state():
    cas = casimirs_from_traces(random_density(5, "pure"))
    assert abs(cas.normalized[0] - 1.0) < 1e-10  # tr rho^2 = 1 forces C2 = 1


def test_casimir_normalization_relation():
    cas = CasimirValues(6, (1.0, 2.0, 3.0, 4.0, 5.0))
    n = 6
    for k, (raw, norm) in enumerate(zip(cas.raw, cas.normalized), start=2):
        denom = 1.0
        for j in range(1, k):
            denom *= n - j
        assert abs(norm - math.factorial(k - 1) / denom * raw) < 1e-15


def test_casimirs_from_traces_eigenvalue_oracle():
    # independent route: moments from the eigenvalues, then the same inversion
    for seed in range(40):
        s = random_density(seed)
        lam = np.linalg.eigvalsh(to_matrix(s))
        om_eigs = 6 * lam - 1
        t = [(om_eigs ** k).sum() / 6 for k in range(2, 7)]
        c2 = t[0]
        c3 = t[1]
        c4 = t[2] - c2 ** 2
        c5 = t[3] - 2 * c2 * c3
        c6 = t[4] - c2 ** 3 - 2 * c2 * c4 - c3 ** 2
        cas = casimirs_from_traces(s)
        assert np.abs(np.array(cas.raw) - [c2, c3, c4, c5, c6]).max() < 1e-10


def via_from_matrix(f, matrix):
    """f of a matrix: f refuses the array itself with a TypeError naming
    from_matrix (an error of any other kind fails the test, whatever the
    caller expects), and takes it only through from_matrix, which validates
    it."""
    try:
        f(matrix)
    except Exception as exc:
        assert type(exc) is TypeError and "states.from_matrix" in str(exc), exc
    else:
        raise AssertionError(f"{f.__name__} took a matrix")
    return f(states.from_matrix(matrix))


def test_casimirs_from_traces_rejects_wrong_trace():
    with pytest.raises(ValueError, match=r"^matrix trace deviates from 1 by 5.000e\+00$"):
        via_from_matrix(casimirs_from_traces, np.eye(6, dtype=complex))


def test_casimirs_from_traces_names_the_hermiticity_defect():
    # unit trace but not Hermitian: the message gives the Hermiticity
    # deviation, not the (zero) trace deviation
    bad = np.eye(6, dtype=complex) / 6
    bad[0, 1] = 1e-3
    with pytest.raises(ValueError,
                       match=r"^matrix is not Hermitian: max \|rho - rho\^\+\| = 1.000e-03$"):
        via_from_matrix(casimirs_from_traces, bad)


@pytest.mark.parametrize("f", [positivity_report, casimirs_from_traces,
                               eigenvalue_oracle])
def test_the_entry_points_take_states_only(f, monkeypatch):
    # a density matrix is validated in one place, from_matrix; anything else
    # is refused before the matrix memo is read or written
    s = random_density(26)
    memo = (None, None)
    monkeypatch.setattr(cp, "_LAST_RECORD", memo)
    for given in (to_matrix(s), to_matrix(states.random_densities(range(3))),
                  to_matrix(s).tolist(), None):
        with pytest.raises(TypeError, match=r"^expected a QubitQutritState, got "
                                            r"\w+; convert a density matrix "
                                            r"with states\.from_matrix$"):
            f(given)
    assert cp._LAST_RECORD is memo
    f(states.from_matrix(to_matrix(s)))


def test_what_from_matrix_accepts_gets_a_report():
    # a matrix has one scale of checks, from_matrix's: these are within
    # HERM_TOL and TRACE_TOL of a density matrix, and from_matrix drops the
    # excess trace and the anti-Hermitian part
    skew = np.eye(6, dtype=complex) / 6
    skew[0, 1] = 4e-10
    heavy = np.eye(6, dtype=complex) * (1 / 6 + 1e-10)
    for rho in (skew, heavy):
        s = states.from_matrix(rho)
        report = positivity_report(s)
        assert report.positive_semidefinite and report.consistent
        assert casimirs_from_traces(s).raw[0] < 1e-17
        assert np.abs(eigenvalue_oracle(s) - 1 / 6).max() < 1e-9


def test_casimir_routes_on_a_stack_match_single_states():
    stack = states.random_densities(range(300, 320))
    traces = casimirs_from_traces(stack)
    vees = casimirs_from_vee(states.state_to_xi(stack), SC6)
    for i in range(20):
        s = random_density(300 + i)
        assert tuple(c[i] for c in traces.raw) == casimirs_from_traces(s).raw
        single = np.array(casimirs_from_vee(states.state_to_xi(s), SC6).raw)
        stacked = np.array([c[i] for c in vees.raw])
        assert (np.abs(stacked - single) <= 1e-14 * np.abs(single)).all()


def huge_states():
    """Unit-trace states so large that tr omega still rounds to 0 while tr
    rho does not, or while their powers overflow: random_density(3) with
    every coordinate scaled by 1e49 or 1e52, and a = (1e60, 0, 0)."""
    base = random_density(3)
    out = {f"{s:.0e}": QubitQutritState(base.a * s, base.b * s, base.C * s)
           for s in (1e49, 1e52)}
    out["a=1e60"] = QubitQutritState(np.array([1e60, 0.0, 0.0]), np.zeros(8),
                                     np.zeros((3, 8)))
    return out


@pytest.mark.parametrize("case,message", [
    ("1e+49", r"unit trace: \|tr rho - 1\| = 2.434e\+32"),
    ("1e+52", r"unit trace: \|tr rho - 1\| = 8.308e\+34"),
    ("a=1e60", "moments tr rho\\^k overflow"),
], ids=["scaled-1e49", "scaled-1e52", "a-1e60"])
def test_huge_states_are_rejected(case, message):
    # 1e49 got a report with t_1 = 2.4e32; 1e52 warned of overflow in
    # matmul and raised OverflowError; a = 1e60 warned of overflow.  The
    # suite turns RuntimeWarnings into errors, so none may escape
    state, other = huge_states()[case], random_density(4)
    stack = QubitQutritState(*(np.stack([x, y]) for x, y in
                               zip((other.a, other.b, other.C),
                                   (state.a, state.b, state.C))))
    # each entry point in turn on one input: a refused input leaves no
    # record for the next one to read
    for given in (state, stack):
        for f in (positivity_report, casimirs_from_traces, eigenvalue_oracle):
            with pytest.raises(ValueError, match=message):
                f(given)


def test_an_empty_stack_gets_an_empty_report():
    empty = states.random_densities([])
    report = positivity_report(empty)
    for values in (report.t, report.S, report.S_bar, report.casimir_exprs,
                   report.verdict_S, report.verdict_casimir):
        assert all(v.shape == (0,) for v in values)
    assert report.consistent.shape == (0,)
    assert report.positive_semidefinite.shape == (0,)
    assert eigenvalue_oracle(empty).shape == (0, 6)


def test_vee_route_rejects_wrong_length():
    with pytest.raises(ValueError, match="length 35"):
        casimirs_from_vee(np.zeros(8), SC6)


def test_vee_route_zero():
    cas = casimirs_from_vee(np.zeros(35), SC6)
    assert np.abs(cas.raw).max() == 0.0


def test_vee_route_homogeneity():
    rng = np.random.default_rng(8)
    xi = rng.uniform(-0.2, 0.2, 35)
    base = np.array(casimirs_from_vee(xi, SC6).raw)
    t = 1.7
    scaled = np.array(casimirs_from_vee(t * xi, SC6).raw)
    powers = t ** np.arange(2, 7)
    assert np.abs(scaled - powers * base).max() < 1e-10


def test_dual_route_agreement():
    worst = np.zeros(5)
    for seed in range(60):
        s = random_density(seed)
        diff = dual_route_report(s, SC6)["abs_diff"]
        worst = np.maximum(worst, diff)
    assert worst[:4].max() < 1e-9  # c2..c5
    # the left-associated degree-6 contraction is recorded; observed to agree
    assert worst[4] < 1e-9


def test_char_poly_maximally_mixed():
    t = [6 / 6 ** k for k in range(1, 7)]
    S = char_poly_coeffs(t)
    for k in range(1, 7):
        assert abs(S[k - 1] - math.comb(6, 6 - k) / 6 ** k) < 1e-14
    report = positivity_report(QubitQutritState.zero())
    assert np.abs(np.array(report.S_bar) - 1.0).max() < 1e-12


def test_char_poly_pure_state():
    S = char_poly_coeffs([1.0] * 6)
    assert abs(S[0] - 1.0) < 1e-14
    assert np.abs(S[1:]).max() < 1e-14  # characteristic polynomial x^5 (x - 1)


def test_newton_equals_determinant_route():
    rng = np.random.default_rng(17)
    for _ in range(100):
        t = rng.uniform(-1, 1, 6)
        newton = char_poly_coeffs(t)
        det = char_poly_coeffs_determinant(t)
        assert max(abs(a - b) for a, b in zip(newton, det)) < 1e-12


def test_both_routes_on_moment_stacks_match_single_vectors():
    # moments first, as moments returns them: column i is moment vector i
    t = np.random.default_rng(18).uniform(-1, 1, (40, 6)).T
    newton, det = char_poly_coeffs(t), char_poly_coeffs_determinant(t)
    assert all(c.shape == (40,) for c in newton + det)
    for i in range(40):
        assert tuple(c[i] for c in newton) == char_poly_coeffs(t[:, i])
        assert tuple(c[i] for c in det) == char_poly_coeffs_determinant(t[:, i])


def test_both_routes_take_the_moments_of_a_stack_as_moments_returns_them():
    t = moments(to_matrix(states.random_densities(range(4))))
    newton, det = char_poly_coeffs(t), char_poly_coeffs_determinant(t)
    assert len(newton) == len(det) == 6
    assert all(c.shape == (4,) for c in newton + det)
    for i in range(4):
        report = positivity_report(random_density(i))
        assert tuple(c[i] for c in newton) == report.S
        assert tuple(c[i] for c in det) == char_poly_coeffs_determinant(report.t)
        assert max(abs(c[i] - s) for c, s in zip(det, report.S)) < 1e-12


@pytest.mark.parametrize("route", [char_poly_coeffs, char_poly_coeffs_determinant])
def test_both_routes_on_a_two_axis_batch(route):
    t = np.random.default_rng(19).uniform(-1, 1, (6, 2, 3))
    S = route(t)
    assert len(S) == 6 and all(c.shape == (2, 3) for c in S)
    for i in range(2):
        for j in range(3):
            assert tuple(c[i, j] for c in S) == route(t[:, i, j])


def test_positivity_report_takes_S_from_char_poly_coeffs(monkeypatch):
    calls = []
    monkeypatch.setattr(cp, "char_poly_coeffs",
                        lambda t: calls.append(t) or char_poly_coeffs(t))
    for state in (random_density(3), states.random_densities(range(4))):
        report = positivity_report(state)
        assert calls[-1] is report.t
    assert len(calls) == 2


def test_positivity_report_takes_its_casimirs_from_casimirs_from_traces(monkeypatch):
    # the report's Casimirs are whatever the module's trace route returns
    calls = []

    def route(state):
        calls.append((state, casimirs_from_traces(state)))
        return calls[-1][1]

    monkeypatch.setattr(cp, "casimirs_from_traces", route)
    for state in (random_density(3), states.random_densities(range(4))):
        report = positivity_report(state)
        assert calls[-1][0] is state
        want = casimir_inequality_exprs(calls[-1][1].normalized)
        assert np.array(report.casimir_exprs).tobytes() == np.array(want).tobytes()
    assert len(calls) == 2


def test_positivity_report_maximally_mixed():
    report = positivity_report(QubitQutritState.zero())
    assert report.positive_semidefinite and report.consistent
    assert all(report.verdict_casimir)
    assert all(0 <= e <= 1 for e in report.casimir_exprs)


def test_positivity_report_ginibre_passes():
    for seed in range(50):
        report = positivity_report(random_density(seed))
        assert report.positive_semidefinite
        assert all(report.verdict_casimir) and report.consistent


def test_positivity_report_nonpsd_fails_both_ways():
    for seed in range(50):
        report = positivity_report(states.random_nonpsd_unit_trace(seed, -0.1))
        assert min(report.S) < 0
        assert not report.positive_semidefinite
        assert not all(report.verdict_casimir)
        assert report.consistent


@pytest.mark.parametrize("shape", [(3, 3), (4, 4), (8, 8), (6, 5), (6, 6, 2)])
def test_positivity_report_rejects_shapes_other_than_6x6(shape):
    # 3x3 and 4x4 would divide by zero in CasimirValues.normalized, and an
    # 8x8 matrix would be judged against the n = 6 table of max S_k; (6, 6,
    # 2) is the re/im layout of a rho file
    rho = np.zeros(shape, dtype=complex)
    rho[..., 0, 0] = rho[..., 1, 1] = 0.5
    with pytest.raises(ValueError, match="expected a 6x6 matrix"):
        via_from_matrix(positivity_report, rho)


def test_positivity_report_rejects_non_hermitian():
    bad = np.eye(6, dtype=complex) / 6
    bad[0, 1] = 1j
    with pytest.raises(ValueError, match="Hermitian"):
        via_from_matrix(positivity_report, bad)


def nan_inputs():
    nan_state = QubitQutritState.zero()
    nan_state.C[1, 4] = np.nan
    inf_state = QubitQutritState.zero()
    inf_state.a[2] = np.inf
    neg_inf_state = QubitQutritState.zero()
    neg_inf_state.b[0] = -np.inf
    huge_state = QubitQutritState.zero()
    huge_state.b[7] = 1.7e308  # finite, but its matrix overflows
    inf_diag = np.eye(6, dtype=complex) / 6
    inf_diag[2, 2] = np.inf
    return {"nan matrix": np.full((6, 6), np.nan), "inf diagonal": inf_diag,
            "nan state": nan_state, "inf state": inf_state,
            "-inf state": neg_inf_state, "huge state": huge_state}


NON_FINITE_CASES = ["nan matrix", "inf diagonal", "nan state", "inf state",
                    "-inf state", "huge state"]


def checked(f, given, monkeypatch):
    """f of a state on an emptied matrix memo, or of a matrix through
    from_matrix."""
    if isinstance(given, QubitQutritState):
        return fresh(f, given, monkeypatch)
    return via_from_matrix(f, given)


@pytest.mark.parametrize("case", NON_FINITE_CASES)
@pytest.mark.parametrize("check", [positivity_report, casimirs_from_traces])
def test_non_finite_input_is_rejected(check, case, monkeypatch):
    # a NaN deviation compares False with `> tol`, so these once came back as
    # positive_semidefinite=False, consistent=True; the infinite and huge
    # states once warned (invalid value, overflow) while building the matrix,
    # which the RuntimeWarning filter of the test run turns into a failure
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        checked(check, nan_inputs()[case], monkeypatch)


def test_oracle_rejects_a_non_hermitian_matrix():
    # eigvalsh reads the lower triangle only and gave [0, 0, 0, 0, .5, .5]
    bad = np.diag([0.5, 0.5, 0, 0, 0, 0]).astype(complex)
    bad[0, 5] = 0.3
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        via_from_matrix(eigenvalue_oracle, bad)


@pytest.mark.parametrize("case", NON_FINITE_CASES)
def test_oracle_rejects_a_non_finite_matrix(case, monkeypatch):
    # eigvalsh raised LinAlgError: Eigenvalues did not converge, for a state
    # too
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        checked(eigenvalue_oracle, nan_inputs()[case], monkeypatch)


REPORT_FIELDS = ("t", "S", "S_bar", "casimir_exprs", "verdict_S",
                 "verdict_casimir", "consistent")


def report_states():
    """States of each kind the positivity path meets: the maximally mixed
    one and 20 each of Ginibre, fixed-rank and non-PSD draws."""
    out = [QubitQutritState.zero()]
    for seed in range(20):
        out.append(random_density(seed))
        out.append(random_density(seed, f"rank-{seed % 5 + 1}"))
        out.append(states.random_nonpsd_unit_trace(seed, -10.0 ** -(seed % 12 + 1)))
    return out


def sequential_moments(rho):
    """tr(rho^k) for k = 1..6 from one @ product after another, each traced
    on its own: the reference for moments."""
    out, power = [], rho
    for _ in range(6):
        out.append(np.trace(power, axis1=-2, axis2=-1).real)
        power = power @ rho
    return np.array(out)


def test_report_moments_are_the_moments_of_the_matrix():
    for s in report_states():
        t = positivity_report(s).t
        want = sequential_moments(to_matrix(s))
        assert all(type(x) is float for x in t)
        assert np.array(t).tobytes() == want.tobytes()
        assert moments(to_matrix(s)).tobytes() == want.tobytes()
    stack = states.random_nonpsd_unit_traces(range(40), -1e-4)
    want = sequential_moments(to_matrix(stack))
    got = moments(to_matrix(stack))
    assert got.shape == (6, 40) and got.dtype == float
    assert got.tobytes() == want.tobytes()
    assert np.array(positivity_report(stack).t).tobytes() == want.tobytes()


def test_report_exprs_are_the_trace_route_exprs():
    for s in report_states():
        assert (positivity_report(s).casimir_exprs
                == casimir_inequality_exprs(casimirs_from_traces(s).normalized))
    stack = states.random_densities(range(40), "rank-3")
    want = casimir_inequality_exprs(casimirs_from_traces(stack).normalized)
    for got, expected in zip(positivity_report(stack).casimir_exprs, want):
        assert np.array_equal(got, expected)


def test_report_of_a_state_skips_the_hermiticity_check(monkeypatch):
    # a state's matrix is exactly Hermitian (see test_states), so no
    # Hermiticity tolerance is read for it, and its traceless check is read
    # from the moments
    s, stack = random_density(5), states.random_densities(range(6))
    want, want_stack = positivity_report(s), positivity_report(stack)
    base = random_density(1)
    moment_checks = []
    check_moments = cp._check_moments
    monkeypatch.setattr(states, "HERM_TOL", -1.0)
    monkeypatch.setattr(cp, "_check_moments", lambda t, t_om: (
        moment_checks.append(type(t[0])), check_moments(t, t_om)))
    assert positivity_report(s) == want
    got_stack = positivity_report(stack)
    for field in REPORT_FIELDS[:-1]:
        for x, y in zip(getattr(got_stack, field), getattr(want_stack, field)):
            assert np.array_equal(x, y)
    assert moment_checks == [float, np.ndarray]
    # random_density(1) scaled by 1e7 is finite, but its tr omega rounds to
    # 1.9e-9: the state's traceless check still rejects it, before tr rho
    off = QubitQutritState(base.a * 1e7, base.b * 1e7, base.C * 1e7)
    for given in (off, QubitQutritState(*(np.stack([x, y]) for x, y in
                                          zip((s.a, s.b, s.C), (off.a, off.b, off.C))))):
        with pytest.raises(ValueError, match=r"^omega = n rho - I is not traceless: "
                                             r"\|tr omega\| = 1.863e-09$"):
            positivity_report(given)
    assert moment_checks == [float, np.ndarray, float, np.ndarray]


def test_oracle_of_a_state_skips_the_matrix_checks(monkeypatch):
    # a state is Hermitian by construction: the positivity path of a state
    # costs no Hermiticity check in the oracle
    s = random_density(3)
    monkeypatch.setattr(states, "HERM_TOL", -1.0)
    assert np.array_equal(eigenvalue_oracle(s), np.linalg.eigvalsh(to_matrix(s)))


def fresh(f, state, monkeypatch):
    """f(state) with the matrix memo emptied first."""
    monkeypatch.setattr(cp, "_LAST_RECORD", (None, None))
    return f(state)


def test_report_and_oracle_of_a_state_build_its_matrix_once(monkeypatch):
    monkeypatch.setattr(cp, "_LAST_RECORD", (None, None))
    builds = []
    build = states.to_matrix
    monkeypatch.setattr(states, "to_matrix",
                        lambda s: (builds.append(s.x.shape), build(s))[1])
    s, stack = random_density(21), states.random_densities(range(21, 25))
    for given in (s, stack, s):
        positivity_report(given)
        eigenvalue_oracle(given)
        casimirs_from_traces(given)
    assert builds == [(35,), (4, 35), (35,)]


def test_report_casimirs_and_oracle_of_a_state_take_its_moments_once(monkeypatch):
    monkeypatch.setattr(cp, "_LAST_RECORD", (None, None))
    passes = []
    monkeypatch.setattr(cp, "moments",
                        lambda m: (passes.append(m.shape), moments(m))[1])
    for given in (random_density(20), states.random_densities(range(20, 23))):
        positivity_report(given)
        casimirs_from_traces(given)
        eigenvalue_oracle(given)
    assert passes == [(2, 6, 6), (2, 3, 6, 6)]


def test_a_state_changed_in_place_is_checked_again():
    s = random_density(22)
    positivity_report(s)
    eigenvalue_oracle(s)
    s.C[1, 4] = np.nan
    for f in (positivity_report, eigenvalue_oracle, casimirs_from_traces):
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            f(s)


def test_a_state_and_its_one_stack_get_results_of_their_own(monkeypatch):
    # the same 35 coordinate bytes with and without a batch axis
    s = random_density(23)
    one = QubitQutritState(s.a[None], s.b[None], s.C[None])
    for first, second in ((s, one), (one, s)):
        for f in (positivity_report, eigenvalue_oracle, casimirs_from_traces):
            f(first)
            assert (pickle.dumps(f(second))
                    == pickle.dumps(fresh(f, second, monkeypatch)))
    assert type(positivity_report(s).t[0]) is float
    assert positivity_report(one).t[0].shape == (1,)
    assert eigenvalue_oracle(one).shape == (1, 6)
    assert eigenvalue_oracle(s).shape == (6,)


def test_a_written_matrix_does_not_reach_a_later_report():
    s = random_density(24)
    want = pickle.dumps(positivity_report(s))
    m = to_matrix(s)
    want_m = m.copy()
    m[:] = np.eye(6)
    assert pickle.dumps(positivity_report(s)) == want
    assert np.array_equal(to_matrix(s), want_m)
    # the matrix the checks of one state share cannot be written
    with pytest.raises(ValueError, match="read-only"):
        cp._checked_record(s)[0][0, 0] = 1.0
    assert pickle.dumps(positivity_report(s)) == want
    # nor can the moments of a stack, which the report hands out
    stack = states.random_densities(range(24, 27))
    with pytest.raises(ValueError, match="read-only"):
        positivity_report(stack).t[0][0] = 2.0


def test_interleaved_states_get_their_fresh_results(monkeypatch):
    a, b = random_density(25, "rank-2"), states.random_nonpsd_unit_trace(25, -1e-3)
    stack = states.random_densities(range(25, 30))
    for f in (positivity_report, eigenvalue_oracle, casimirs_from_traces):
        for given in (a, b, a, stack, a, a, stack, b):
            got = f(given)
            assert pickle.dumps(got) == pickle.dumps(fresh(f, given, monkeypatch))


@pytest.mark.parametrize("size", [5, 6])
def test_positivity_report_takes_a_stack(size):
    # a stack of exactly 6 states once passed through conj().T, which also
    # reversed the batch axis and failed the Hermiticity check
    stack = states.random_densities(range(size))
    report = positivity_report(stack)
    assert report.positive_semidefinite.shape == (size,)
    assert report.positive_semidefinite.all() and report.consistent.all()


def _stack(case, n=200):
    if case == "zero":  # the maximally mixed state, twice, between two drawn ones
        zero, some = QubitQutritState.zero(), states.random_densities(range(2))
        mix = lambda z, x: np.stack([z, x[0], z, x[1]])
        return QubitQutritState(mix(zero.a, some.a), mix(zero.b, some.b),
                                mix(zero.C, some.C))
    if isinstance(case, float):
        return states.random_nonpsd_unit_traces(range(n), case)
    return states.random_densities(range(n), case)


@pytest.mark.parametrize("case", ["ginibre-full-rank", "pure"]
                         + [f"rank-{r}" for r in range(1, 6)]
                         + [-10.0 ** -e for e in range(1, 10)] + ["zero"])
def test_stacked_report_is_the_single_reports_bit_for_bit(case):
    # exact equality: the powers in the Casimir route and in E_k go through
    # Python's float power on both paths (numpy's vectorized cube differs in
    # the last bit of E_6 on some states)
    fields = ("t", "S", "S_bar", "casimir_exprs", "verdict_S",
              "verdict_casimir")
    stack = _stack(case)
    report = positivity_report(stack)
    for i in range(stack.a.shape[0]):
        one = positivity_report(QubitQutritState(stack.a[i], stack.b[i], stack.C[i]))
        for field in fields:
            single = getattr(one, field)
            assert all(type(x) in (float, bool) for x in single)
            assert tuple(x[i] for x in getattr(report, field)) == single, field
        assert type(one.consistent) is bool
        assert report.consistent[i] == one.consistent
        assert report.positive_semidefinite[i] == one.positive_semidefinite


def test_oracle_equivalence_panel():
    for seed in range(150):
        good = random_density(seed + 1000)
        bad = states.random_nonpsd_unit_trace(seed + 2000, -0.05)
        for s, expect in ((good, True), (bad, False)):
            verdict = positivity_report(s).positive_semidefinite
            oracle = eigenvalue_oracle(s).min() >= -cp.ORACLE_EIG_TOL
            assert verdict == oracle == expect


@pytest.mark.parametrize("ensemble", [-1e-3, -1e-5, -1e-6, -1e-7, "pure",
                                      "rank-1", "rank-2", "rank-3", "rank-4",
                                      "rank-5"])
def test_verdicts_agree_near_the_boundary(ensemble):
    # S_6 is about lambda_min * prod(lambda) ~ -3e-10 at lambda_min = -1e-6,
    # inside 1e-9 on the raw scale but not on the normalized one
    for seed in range(300):
        if isinstance(ensemble, float):
            s, expect = states.random_nonpsd_unit_trace(seed, ensemble), False
        else:
            s, expect = random_density(seed, ensemble), True
        report = positivity_report(s)
        oracle = eigenvalue_oracle(s).min() >= -cp.ORACLE_EIG_TOL
        assert report.positive_semidefinite == oracle == expect
        assert report.consistent


def test_casimir_expr_affine_identification():
    # E_k = 1 - Sbar_k for k = 2..4 and E_k = Sbar_k for k = 5, 6
    for seed in range(60):
        s = (random_density(seed) if seed % 2
             else states.random_nonpsd_unit_trace(seed, -0.2))
        report = positivity_report(s)
        E, S_bar = report.casimir_exprs, report.S_bar
        for j in range(3):
            assert abs(E[j] - (1.0 - S_bar[j])) < 1e-8
        for j in range(3, 5):
            assert abs(E[j] - S_bar[j]) < 1e-8


def test_scalars_invariant_under_global_unitary():
    for seed in range(30):
        s = random_density(seed)
        u = states.random_global_unitary(seed + 99)
        t = states.conjugate(s, u)
        r_s, r_t = positivity_report(s), positivity_report(t)
        assert np.abs(np.array(casimirs_from_traces(s).raw)
                      - casimirs_from_traces(t).raw).max() < 1e-9
        assert np.abs(np.array(r_s.S) - r_t.S).max() < 1e-9
        assert np.abs(np.array(r_s.S_bar) - r_t.S_bar).max() < 1e-9


def test_moments_unit_trace():
    s = random_density(77)
    t = moments(to_matrix(s))
    assert abs(t[0] - 1.0) < 1e-12
    assert len(t) == 6
    assert abs(positivity_report(s).S[0] - 1.0) < 1e-12


def test_inequality_exprs_match_direct_formula():
    cas = casimirs_from_traces(random_density(12))
    C2, C3, C4, C5, C6 = cas.normalized
    e = casimir_inequality_exprs(cas.normalized)
    assert abs(e[0] - C2) < 1e-15
    assert abs(e[1] - (3 * C2 - C3)) < 1e-15
    assert abs(e[2] - (6 * C2 - 5 * C2 ** 2 - 4 * C3 + C4)) < 1e-15
