"""State parametrization, partial traces, random ensembles, unitaries, files."""

import json
import re

import numpy as np
import pytest

from qqinv.states import (QubitQutritState, conjugate, from_matrix,
                          letter_matrices, omega_matrix,
                          random_densities, random_density,
                          random_global_unitary, random_local_unitary,
                          random_nonpsd_unit_trace, random_nonpsd_unit_traces,
                          random_su, random_unitaries,
                          reduced_qubit, reduced_qutrit, state_from_json_dict,
                          state_to_json_dict, state_to_xi, to_matrix)
from qqinv.casimir_positivity import casimirs_from_vee
from qqinv.su_algebra import GELL_MANN, PAULI, structure_constants

# sigma_i x I3, I2 x lambda_a and sigma_i x lambda_a: the Kronecker bases of
# the reference einsums below
SIG_I3 = np.array([np.kron(PAULI[i], np.eye(3, dtype=complex)) for i in range(3)])
I2_LAM = np.array([np.kron(np.eye(2, dtype=complex), GELL_MANN[a]) for a in range(8)])
SIG_LAM = np.array([[np.kron(PAULI[i], GELL_MANN[a]) for a in range(8)]
                    for i in range(3)])


def random_state(seed, scale=0.25):
    rng = np.random.default_rng(seed)
    return QubitQutritState(rng.uniform(-scale, scale, 3),
                            rng.uniform(-scale, scale, 8),
                            rng.uniform(-scale, scale, (3, 8)))


def test_to_matrix_maximally_mixed():
    assert np.allclose(to_matrix(QubitQutritState.zero()), np.eye(6) / 6)


def test_to_matrix_qubit_z():
    s = QubitQutritState([0, 0, 1], np.zeros(8), np.zeros((3, 8)))
    expect = (np.eye(6) + np.kron(PAULI[2], np.eye(3))) / 6
    assert np.allclose(to_matrix(s), expect, atol=1e-14)


def test_to_matrix_hermitian_unit_trace():
    for seed in range(20):
        rho = to_matrix(random_state(seed))
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert abs(np.trace(rho) - 1) < 1e-12


def test_from_matrix_identity():
    s = from_matrix(np.eye(6) / 6)
    assert np.abs(s.a).max() < 1e-14
    assert np.abs(s.b).max() < 1e-14
    assert np.abs(s.C).max() < 1e-14


def test_roundtrip_hundred_states():
    for seed in range(100):
        s = random_state(seed)
        t = from_matrix(to_matrix(s))
        dev = max(np.abs(s.a - t.a).max(), np.abs(s.b - t.b).max(),
                  np.abs(s.C - t.C).max())
        assert dev < 1e-10


def test_from_matrix_single_correlation():
    rho = (np.eye(6) + np.kron(PAULI[0], GELL_MANN[0])) / 6
    s = from_matrix(rho)
    expect = np.zeros((3, 8))
    expect[0, 0] = 1.0
    assert np.abs(s.C - expect).max() < 1e-12
    assert np.abs(s.a).max() < 1e-12 and np.abs(s.b).max() < 1e-12


def test_from_matrix_rejects_bad_input():
    bad = np.eye(6, dtype=complex) / 6
    bad[0, 1] = 0.5
    with pytest.raises(ValueError, match="not Hermitian"):
        from_matrix(bad)
    with pytest.raises(ValueError, match="trace deviates"):
        from_matrix(np.eye(6, dtype=complex))
    with pytest.raises(ValueError, match="6x6"):
        from_matrix(np.eye(4) / 4)
    nan = np.eye(6, dtype=complex) / 6
    nan[2, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        from_matrix(nan)


def test_a_non_hermitian_matrix_at_the_float_limit_is_rejected():
    # rho - rho^+ and tr rho overflowed with a RuntimeWarning before the
    # checks; alone and in a stack, each is rejected with its deviation
    skew = np.zeros((6, 6), dtype=complex)
    skew[0, 0], skew[0, 1], skew[1, 0] = 1.0, 1e308, -1e308
    heavy = np.diag([1e308, 1e308, 0, 0, 0, 0]).astype(complex)
    fine = np.eye(6, dtype=complex) / 6
    for rho, message in ((skew, r"is not Hermitian: max \|rho - rho\^\+\| = inf$"),
                         (heavy, r"trace deviates from 1 by inf$")):
        for given in (rho, np.stack([fine, rho])):
            with pytest.raises(ValueError, match="^matrix " + message):
                from_matrix(given)


def test_a_matrix_whose_projection_overflows_is_rejected():
    # finite, Hermitian and unit-trace, but a[2] (and C[2, 2]) overflowed to
    # inf in the projection and b[2] in its weight 3/2, and the state came
    # back with infinite coordinates and no error
    fine = np.eye(6, dtype=complex) / 6
    for diag in ([1e308, 0, 0, -1e308, 1, 0], [0.7e308, -0.7e308, 1, 0, 0, 0]):
        rho = np.diag(diag).astype(complex)
        for given in (rho, np.stack([fine, rho])):
            with pytest.raises(ValueError, match="^matrix coordinates overflow"):
                from_matrix(given)


def non_finite_states():
    """States with an infinite, a NaN and a huge coordinate, each alone and
    in a stack behind a finite state."""
    out = []
    for field, index, value in (("a", 2, np.inf), ("C", (1, 4), np.nan),
                                ("b", 0, -np.inf), ("b", 7, 1.7e308)):
        s = QubitQutritState.zero()
        getattr(s, field)[index] = value
        out.append(s)
        out.append(QubitQutritState(*(np.stack([np.zeros_like(x), x])
                                      for x in (s.a, s.b, s.C))))
    return out


def test_non_finite_coordinates_give_non_finite_matrices_quietly():
    # to_matrix and the partial traces warned "invalid value encountered in
    # divide" on an infinite coordinate, and the letters on -inf in b or a
    # huge coordinate (invalid value, overflow in multiply), state_to_xi
    # overflow in multiply, casimirs_from_vee and conjugate invalid value
    # in matmul, which this suite makes an error; the partial traces are
    # finite or not by where the entry sits
    sc6 = structure_constants("su6-tensor")
    for s in non_finite_states():
        reduced_qubit(s)
        reduced_qutrit(s)
        letter_matrices(s)
        xi = state_to_xi(s)
        casimirs = np.array(casimirs_from_vee(xi, sc6).raw)
        for m in (to_matrix(s), omega_matrix(s)):
            finite = np.isfinite(m).all(axis=(-2, -1))
            assert not finite.all()
            assert finite.ndim == 0 or finite[..., 0].all()
        for v in (xi, casimirs.T):
            finite = np.isfinite(v).all(axis=-1)
            assert not finite.all()
            assert finite.ndim == 0 or finite[..., 0].all()
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            conjugate(s, np.broadcast_to(np.eye(6), s.a.shape[:-1] + (6, 6)))


def same_bits(x, y):
    """Equal down to the last bit and the sign of every zero."""
    x, y = np.asarray(x), np.asarray(y)
    return (x.dtype == y.dtype and x.shape == y.shape
            and np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes())


def per_group_projection(rho):
    """from_matrix's coordinates as three einsums, one per group of the
    basis: the reference for the one stacked projection."""
    a = np.einsum("...uv,ivu->...i", rho, SIG_I3).real
    b = 1.5 * np.einsum("...uv,avu->...a", rho, I2_LAM).real
    C = 1.5 * np.einsum("...uv,iavu->...ia", rho, SIG_LAM).real
    return a, b, C


def einsum_matrices(s):
    """alpha, beta, gamma, omega and rho of a state with one einsum per
    letter against the Kronecker bases: the reference for the gather table."""
    alpha = np.einsum("...i,iuv->...uv", s.a, SIG_I3)
    beta = np.einsum("...a,auv->...uv", s.b, I2_LAM)
    gamma = np.einsum("...ia,iauv->...uv", s.C, SIG_LAM)
    omega = alpha + beta + gamma
    return alpha, beta, gamma, omega, (np.eye(6) + omega) / 6.0


def gathered_matrices(s):
    """The same five matrices from the program, each checked C-contiguous."""
    out = letter_matrices(s) + (omega_matrix(s), to_matrix(s))
    assert all(m.flags.c_contiguous for m in out)
    return out


def spectral_matrices(seed, n):
    """U diag(lam) U^+ with Haar U and lam in every sign pattern the
    positivity benchmark draws: positive, rank-deficient and slightly
    negative."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        lam = rng.uniform(0.2, 1.0, 6)
        lam[:i % 4] = (0.0, -1e-3, -1e-9)[i % 3]
        lam /= lam.sum()
        u = random_su(6, rng)
        rho = (u * lam) @ u.conj().T
        out.append((rho + rho.conj().T) / 2)
    return np.array(out)


def scaled_hermitian(seed, scale):
    """Unit-trace Hermitian matrix whose off-diagonal entries have the given
    scale; mirrored exactly, with a diagonal that sums to 1."""
    rng = np.random.default_rng(seed)
    z = scale * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    rho = np.triu(z, 1) + np.triu(z, 1).conj().T
    lam = rng.uniform(0.2, 1.0, 6)
    rho[np.diag_indices(6)] = lam / lam.sum()
    return rho


@pytest.mark.parametrize("case", ["spectral", "scaled", "stack"])
def test_from_matrix_is_the_per_group_projection_bit_for_bit(case):
    if case == "spectral":
        mats = list(spectral_matrices(7, 400))
    elif case == "scaled":
        mats = [scaled_hermitian(seed, 10.0 ** e)
                for e in range(-20, 21) for seed in range(5)]
    else:
        mats = [spectral_matrices(8, 60), spectral_matrices(9, 24).reshape(4, 6, 6, 6)]
    for rho in mats:
        s = from_matrix(rho)
        a, b, C = per_group_projection(rho)
        assert same_bits(s.a, a) and same_bits(s.b, b) and same_bits(s.C, C)


@pytest.mark.parametrize("exponent", [-300, -200, -100, -20, 0, 20, 100, 200, 300])
def test_to_matrix_is_exactly_hermitian(exponent):
    # positivity_report and eigenvalue_oracle skip the Hermiticity check of a
    # state's matrix: this is the invariant that makes it safe
    rng = np.random.default_rng(exponent + 400)
    scale = 10.0 ** exponent
    for _ in range(20):
        s = QubitQutritState(scale * rng.uniform(-1, 1, 3),
                             scale * rng.uniform(-1, 1, 8),
                             scale * rng.uniform(-1, 1, (3, 8)))
        rho = to_matrix(s)
        assert np.isfinite(rho).all()
        assert np.array_equal(rho, rho.conj().T)
    stack = random_densities(range(30))
    moved = QubitQutritState(scale * stack.a, scale * stack.b, scale * stack.C)
    rho = to_matrix(moved)
    assert np.array_equal(rho, rho.conj().swapaxes(-1, -2))


def test_to_matrix_is_exactly_hermitian_with_signed_zeros():
    rng = np.random.default_rng(12)
    for _ in range(50):
        coords = [rng.choice([-0.0, 0.0, -1e-300, 1e-300, -0.5, 0.5], size=shape)
                  for shape in ((3,), (8,), (3, 8))]
        rho = to_matrix(QubitQutritState(*coords))
        assert np.array_equal(rho, rho.conj().T)
    rho = to_matrix(QubitQutritState(-np.zeros(3), -np.zeros(8), -np.zeros((3, 8))))
    assert np.array_equal(rho, rho.conj().T)


def scaled(s, factor):
    return QubitQutritState(factor * s.a, factor * s.b, factor * s.C)


def signed_zero_stack(seed, batch):
    """States of the given batch shape whose coordinates are +-0, +-1e-300
    or +-0.5."""
    rng = np.random.default_rng(seed)
    return QubitQutritState(*(rng.choice([-0.0, 0.0, -1e-300, 1e-300, -0.5, 0.5],
                                         size=batch + shape)
                              for shape in ((3,), (8,), (3, 8))))


def unstack(s):
    return [QubitQutritState(s.a[i], s.b[i], s.C[i]) for i in range(len(s.a))]


def gather_cases(case):
    """States for the gather-table tests, one state or a stack each."""
    if case == "spectral":
        stack = from_matrix(spectral_matrices(11, 120))
        return [stack] + unstack(stack)[::7]
    if case == "scaled":
        stack = random_densities(range(30))
        return [scaled(s, 10.0 ** e) for e in range(-300, 301, 25)
                for s in (stack, random_density(e + 1000))]
    if case == "signed-zeros":
        zeros = [QubitQutritState(z * np.ones(3), z * np.ones(8), z * np.ones((3, 8)))
                 for z in (0.0, -0.0)]
        return zeros + unstack(signed_zero_stack(13, (60,)))
    if case == "stacks":
        return [random_densities(range(60)), random_densities([]),
                signed_zero_stack(14, (4, 6))]
    # non-contiguous fields: strided slices of a wider array, Fortran order
    rng = np.random.default_rng(15)
    wide = [rng.uniform(-0.3, 0.3, (50, 2 * n)) for n in (3, 8, 24)]
    strided = QubitQutritState(wide[0][::2, ::2], wide[1][::2, ::2],
                               wide[2][::2, ::2].reshape(25, 3, 8))
    fortran = random_densities(range(40, 52))
    fortran = QubitQutritState(np.asfortranarray(fortran.a), np.asfortranarray(fortran.b),
                               np.asfortranarray(fortran.C))
    single = random_density(16)
    return [strided, fortran, unstack(strided)[3],
            QubitQutritState(single.a[::-1], single.b[::-1], np.asfortranarray(single.C))]


@pytest.mark.parametrize("case", ["spectral", "scaled", "signed-zeros", "stacks",
                                  "non-contiguous"])
def test_letters_and_matrices_are_the_einsums_byte_for_byte(case):
    for s in gather_cases(case):
        for x, y in zip(gathered_matrices(s), einsum_matrices(s)):
            assert same_bits(x, y)


@pytest.mark.parametrize("case", ["spectral", "stacks", "non-contiguous"])
def test_stacked_matrices_are_the_single_state_matrices(case):
    for s in gather_cases(case):
        batch = s.a.shape[:-1]
        if not batch:
            continue
        got = gathered_matrices(s)
        for i in np.ndindex(batch):
            one = gathered_matrices(QubitQutritState(s.a[i], s.b[i], s.C[i]))
            for x, y in zip(got, one):
                assert same_bits(x[i], y)


@pytest.mark.parametrize("field", ["a", "b", "C"])
def test_state_rejects_complex_coordinates(field):
    # numpy would drop the imaginary part with a ComplexWarning
    fields = {"a": np.zeros(3), "b": np.zeros(8), "C": np.zeros((3, 8))}
    fields[field] = fields[field] + 1j
    with pytest.raises(ValueError,
                       match=rf"field '{field}' has dtype complex128, expected real"):
        QubitQutritState(**fields)
    fields[field] = fields[field].real.astype(complex)
    with pytest.raises(ValueError, match=rf"field '{field}' has dtype complex128"):
        QubitQutritState(**fields)


def test_empty_batches_give_empty_results():
    empty = from_matrix(np.zeros((0, 6, 6)))
    assert (empty.a.shape, empty.b.shape, empty.C.shape) == ((0, 3), (0, 8), (0, 3, 8))
    for ensemble in ("ginibre-full-rank", "pure", "rank-3"):
        s = random_densities([], ensemble)
        assert (s.a.shape, s.b.shape, s.C.shape) == ((0, 3), (0, 8), (0, 3, 8))
    assert random_nonpsd_unit_traces([], -0.1).C.shape == (0, 3, 8)
    for local in (True, False):
        u = random_unitaries([], local)
        assert u.shape == (0, 6, 6)
        assert conjugate(random_densities([]), u).C.shape == (0, 3, 8)
    assert to_matrix(empty).shape == (0, 6, 6)
    assert state_to_xi(empty).shape == (0, 35)


def test_state_accepts_flat_correlations():
    rng = np.random.default_rng(3)
    a, b, C = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 8), rng.uniform(-1, 1, (3, 8))
    assert np.array_equal(QubitQutritState(a, b, C.reshape(24)).C, C)
    stacked = QubitQutritState(np.stack([a, a]), np.stack([b, b]),
                               np.stack([C, C]).reshape(2, 24))
    assert stacked.C.shape == (2, 3, 8) and np.array_equal(stacked.C[1], C)


@pytest.mark.parametrize("a,b,C,field,shape", [
    # C.T has 24 entries too, but reshaping it scrambles the correlations
    ((3,), (8,), (8, 3), "C", (8, 3)),
    ((4,), (8,), (3, 8), "a", (4,)),
    ((), (8,), (3, 8), "a", ()),
    ((3,), (2, 4), (3, 8), "b", (2, 4)),
    ((3,), (1, 8), (3, 8), "b", (1, 8)),
    ((3,), (8,), (25,), "C", (25,)),
    ((2, 3), (8,), (2, 3, 8), "b", (8,)),
    ((2, 3), (2, 8), (3, 8), "C", (3, 8)),
    ((2, 3), (3, 8), (3, 3, 8), "b", (3, 8)),
    ((2, 3), (2, 8), (3, 24), "C", (3, 24)),
], ids=["C-transposed", "a-length-4", "a-scalar", "b-2x4", "b-1x8",
        "C-length-25", "b-without-batch", "C-without-batch", "b-other-batch",
        "C-flat-other-batch"])
def test_state_rejects_misshapen_fields(a, b, C, field, shape):
    with pytest.raises(ValueError,
                       match=rf"field '{field}' has shape {re.escape(str(shape))}"):
        QubitQutritState(np.zeros(a), np.zeros(b), np.zeros(C))


def test_reduced_states():
    assert np.allclose(reduced_qubit(QubitQutritState.zero()), np.eye(2) / 2)
    assert np.allclose(reduced_qutrit(QubitQutritState.zero()), np.eye(3) / 3)
    s = QubitQutritState([1, 0, 0], np.zeros(8), np.zeros((3, 8)))
    assert np.allclose(reduced_qubit(s), (np.eye(2) + PAULI[0]) / 2, atol=1e-14)
    sC = QubitQutritState(np.zeros(3), np.zeros(8),
                          np.random.default_rng(5).uniform(-0.2, 0.2, (3, 8)))
    assert np.abs(reduced_qubit(sC) - np.eye(2) / 2).max() < 1e-12
    assert np.abs(reduced_qutrit(sC) - np.eye(3) / 3).max() < 1e-12


def test_reduced_states_of_a_stack_are_the_single_state_results():
    stack = random_densities(range(3))
    grid = signed_zero_stack(17, (2, 3))
    for f, n in ((reduced_qubit, 2), (reduced_qutrit, 3)):
        assert f(random_densities([])).shape == (0, n, n)
        for s in (stack, grid):
            got = f(s)
            assert got.shape == s.a.shape[:-1] + (n, n)
            for i in np.ndindex(s.a.shape[:-1]):
                assert same_bits(got[i], f(QubitQutritState(s.a[i], s.b[i], s.C[i])))


def test_reduced_states_match_bloch_form():
    for seed in range(25):
        s = random_state(seed)
        qubit = (np.eye(2) + np.einsum("i,iuv->uv", s.a, PAULI)) / 2
        qutrit = (np.eye(3) + np.einsum("a,auv->uv", s.b, GELL_MANN)) / 3
        assert np.abs(reduced_qubit(s) - qubit).max() < 1e-12
        assert np.abs(reduced_qutrit(s) - qutrit).max() < 1e-12
        assert abs(np.trace(reduced_qubit(s)) - 1) < 1e-12
        assert abs(np.trace(reduced_qutrit(s)) - 1) < 1e-12


def test_omega_traceless_and_norm():
    for seed in range(25):
        s = random_state(seed)
        om = omega_matrix(s)
        assert abs(np.trace(om)) < 1e-12
        expect = 6 * s.a @ s.a + 4 * s.b @ s.b + 4 * (s.C ** 2).sum()
        assert abs(np.trace(om @ om).real - expect) < 1e-10


def test_random_density_pure():
    s = random_density(7, "pure")
    rho = to_matrix(s)
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-10


def test_random_density_full_rank_positive():
    for seed in range(30):
        eig = np.linalg.eigvalsh(to_matrix(random_density(seed)))
        assert eig.min() > 0


def test_random_density_rank_k():
    s = random_density(3, "rank-2")
    eig = np.linalg.eigvalsh(to_matrix(s))
    assert (eig > 1e-12).sum() == 2


def test_random_density_deterministic():
    s1, s2 = random_density(123), random_density(123)
    assert np.array_equal(s1.a, s2.a)
    assert np.array_equal(s1.b, s2.b)
    assert np.array_equal(s1.C, s2.C)


def test_random_density_rejects_bad_ensemble():
    with pytest.raises(ValueError, match="rank"):
        random_density(1, "rank-7")
    with pytest.raises(ValueError, match="rank"):
        random_density(1, "rank-0")
    with pytest.raises(ValueError, match="unknown ensemble"):
        random_density(1, "thermal")


def test_random_nonpsd():
    for seed in range(20):
        s = random_nonpsd_unit_trace(seed, -0.1)
        rho = to_matrix(s)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() <= -0.1 + 1e-12


def test_random_nonpsd_rejects_bad_level():
    with pytest.raises(ValueError, match=r"\[-1, 0\)"):
        random_nonpsd_unit_trace(1, 0.1)
    with pytest.raises(ValueError, match=r"\[-1, 0\)"):
        random_nonpsd_unit_trace(1, -1.5)


@pytest.mark.parametrize("ensemble", ["ginibre-full-rank", "pure", "rank-3"])
def test_stacked_draw_matches_single_draws(ensemble):
    seeds = range(500, 540)
    stack = random_densities(seeds, ensemble)
    assert stack.a.shape == (40, 3) and stack.C.shape == (40, 3, 8)
    matrices = (*letter_matrices(stack), to_matrix(stack), state_to_xi(stack))
    for i, seed in enumerate(seeds):
        s = random_density(seed, ensemble)
        assert np.array_equal(stack.a[i], s.a)
        assert np.array_equal(stack.b[i], s.b)
        assert np.array_equal(stack.C[i], s.C)
        single = (*letter_matrices(s), to_matrix(s), state_to_xi(s))
        for values, one in zip(matrices, single):
            assert np.array_equal(values[i], one)


@pytest.mark.parametrize("level", [-10.0 ** -e for e in range(1, 10)])
def test_stacked_nonpsd_draw_matches_single_draws(level):
    seeds = range(800, 830)
    stack = random_nonpsd_unit_traces(seeds, level)
    assert stack.a.shape == (30, 3) and stack.C.shape == (30, 3, 8)
    for i, seed in enumerate(seeds):
        s = random_nonpsd_unit_trace(seed, level)
        assert np.array_equal(stack.a[i], s.a)
        assert np.array_equal(stack.b[i], s.b)
        assert np.array_equal(stack.C[i], s.C)


def test_stacked_unitaries_and_conjugation_match_single_draws():
    seeds = range(700, 730)
    local, full = random_unitaries(seeds, local=True), random_unitaries(seeds, local=False)
    stack = random_densities(range(30))
    moved = conjugate(stack, full)
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        k1 = random_su(2, rng)  # one generator: the SU(2) factor first
        assert np.array_equal(local[i], np.kron(k1, random_su(3, rng)))
        assert np.array_equal(local[i], random_local_unitary(seed))
        assert np.array_equal(full[i], random_su(6, np.random.default_rng(seed)))
        assert np.array_equal(full[i], random_global_unitary(seed))
        single = conjugate(random_density(i), random_global_unitary(seed))
        assert np.array_equal(moved.a[i], single.a)
        assert np.array_equal(moved.C[i], single.C)


def test_from_matrix_stack_reports_worst_deviation():
    rho = np.array([np.eye(6) / 6] * 3, dtype=complex)
    rho[1, 0, 1] = 1e-3
    with pytest.raises(ValueError, match="not Hermitian: .* 1.000e-03"):
        from_matrix(rho)


@pytest.mark.parametrize("draw,n", [(random_local_unitary, 6),
                                    (random_global_unitary, 6)])
def test_unitaries_special_unitary(draw, n):
    for seed in range(10):
        u = draw(seed)
        assert np.abs(u @ u.conj().T - np.eye(n)).max() < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-10


def test_local_unitary_fixes_maximally_mixed():
    u = random_local_unitary(4)
    s = conjugate(QubitQutritState.zero(), u)
    assert np.abs(s.a).max() < 1e-12
    assert np.abs(s.b).max() < 1e-12
    assert np.abs(s.C).max() < 1e-12


def test_local_unitary_preserves_sectors():
    s = QubitQutritState([0.3, -0.1, 0.2], np.zeros(8), np.zeros((3, 8)))
    t = conjugate(s, random_local_unitary(9))
    assert np.abs(t.b).max() < 1e-12
    assert np.abs(t.C).max() < 1e-12
    assert abs(np.linalg.norm(t.a) - np.linalg.norm(s.a)) < 1e-12


def test_sector_norms_invariant_under_local_action():
    for seed in range(20):
        s = random_density(seed + 50)
        t = conjugate(s, random_local_unitary(seed))
        assert abs(np.linalg.norm(s.a) - np.linalg.norm(t.a)) < 1e-9
        assert abs(np.linalg.norm(s.b) - np.linalg.norm(t.b)) < 1e-9
        sv_s = np.linalg.svd(s.C, compute_uv=False)
        sv_t = np.linalg.svd(t.C, compute_uv=False)
        assert np.abs(sv_s - sv_t).max() < 1e-9


def test_state_to_xi_norm():
    # omega = kappa xi . tau implies tr(omega^2) = 2 kappa^2 |xi|^2
    for seed in range(10):
        s = random_state(seed)
        om = omega_matrix(s)
        xi = state_to_xi(s)
        assert abs(np.trace(om @ om).real - 30.0 * xi @ xi) < 1e-10


def test_state_json_roundtrip():
    s = random_state(31)
    doc = state_to_json_dict(s)
    assert set(doc) == {"abc"}
    t = state_from_json_dict(json.loads(json.dumps(doc)))
    assert np.abs(s.C - t.C).max() < 1e-15


def test_state_json_rho_form():
    s = random_state(32)
    rho = to_matrix(s)
    doc = {"rho": np.stack([rho.real, rho.imag], axis=-1).tolist()}
    t = state_from_json_dict(doc)
    assert np.abs(s.a - t.a).max() < 1e-10
    assert np.abs(s.C - t.C).max() < 1e-10


def test_state_json_field_errors():
    with pytest.raises(ValueError, match="'a'"):
        state_from_json_dict({"abc": {"a": [1, 2], "b": [0] * 8, "C": [[0] * 8] * 3}})
    with pytest.raises(ValueError, match="'C'"):
        state_from_json_dict({"abc": {"a": [0] * 3, "b": [0] * 8, "C": [[0] * 7] * 3}})
    with pytest.raises(ValueError, match="'rho'"):
        state_from_json_dict({"rho": [[0] * 6] * 6})
    with pytest.raises(ValueError, match="abc.*rho|rho.*abc"):
        state_from_json_dict({"x": 1})
