"""State parametrization, partial traces, random ensembles, unitaries, files."""

import json

import numpy as np
import pytest

from qqinv.states import (QubitQutritState, alpha_matrix, beta_matrix,
                          conjugate, from_matrix, gamma_matrix, omega_matrix,
                          random_densities, random_density,
                          random_global_unitary, random_local_unitary,
                          random_nonpsd_unit_trace, random_su, random_unitaries,
                          reduced_qubit, reduced_qutrit, state_from_json_dict,
                          state_to_json_dict, state_to_xi, to_matrix)
from qqinv.su_algebra import GELL_MANN, PAULI


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


def test_reduced_states():
    assert np.allclose(reduced_qubit(QubitQutritState.zero()), np.eye(2) / 2)
    assert np.allclose(reduced_qutrit(QubitQutritState.zero()), np.eye(3) / 3)
    s = QubitQutritState([1, 0, 0], np.zeros(8), np.zeros((3, 8)))
    assert np.allclose(reduced_qubit(s), (np.eye(2) + PAULI[0]) / 2, atol=1e-14)
    sC = QubitQutritState(np.zeros(3), np.zeros(8),
                          np.random.default_rng(5).uniform(-0.2, 0.2, (3, 8)))
    assert np.abs(reduced_qubit(sC) - np.eye(2) / 2).max() < 1e-12
    assert np.abs(reduced_qutrit(sC) - np.eye(3) / 3).max() < 1e-12


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
    letters = (alpha_matrix, beta_matrix, gamma_matrix, to_matrix, state_to_xi)
    stacked = [f(stack) for f in letters]
    for i, seed in enumerate(seeds):
        s = random_density(seed, ensemble)
        assert np.array_equal(stack.a[i], s.a)
        assert np.array_equal(stack.b[i], s.b)
        assert np.array_equal(stack.C[i], s.C)
        for f, values in zip(letters, stacked):
            assert np.array_equal(values[i], f(s))


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
