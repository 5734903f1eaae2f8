"""Bases, structure constants, identity families and symmetrized traces."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from qqinv import su_algebra
from qqinv.su_algebra import (SuBasis, build_basis, basis_defects,
                              closure_max_violation, structure_constants,
                              structure_constants_of, symmetrized_trace,
                              symmetrized_trace_closed, to_json_dict,
                              verify_structure_identities)

SQ3 = math.sqrt(3.0)


def test_build_basis_su2():
    basis = build_basis("su2-pauli")
    assert basis.n == 2 and len(basis) == 3
    assert np.allclose(basis.elements[2], np.diag([1, -1]))


def test_build_basis_su3():
    basis = build_basis("su3-gellmann")
    assert basis.n == 3 and len(basis) == 8
    assert np.allclose(basis.elements[7], np.diag([1, 1, -2]) / SQ3)


def test_build_basis_su6_norms():
    basis = build_basis("su6-tensor")
    assert len(basis) == 35
    for t in basis.elements:
        assert abs(np.trace(t @ t).real - 2.0) < 1e-12


def test_build_basis_unknown_label():
    with pytest.raises(ValueError, match="unknown basis label"):
        build_basis("su4")


def test_su6_enumeration_index_map():
    tau = build_basis("su6-tensor").elements
    s = build_basis("su2-pauli").elements
    lam = build_basis("su3-gellmann").elements
    i2, i3 = np.eye(2), np.eye(3)
    assert np.allclose(tau[0], np.kron(s[0], i3) / SQ3)
    assert np.allclose(tau[2], np.kron(s[2], i3) / SQ3)
    assert np.allclose(tau[3], np.kron(i2, lam[0]) / math.sqrt(2))
    assert np.allclose(tau[10], np.kron(i2, lam[7]) / math.sqrt(2))
    assert np.allclose(tau[11], np.kron(s[0], lam[0]) / math.sqrt(2))
    assert np.allclose(tau[19], np.kron(s[1], lam[0]) / math.sqrt(2))
    assert np.allclose(tau[27], np.kron(s[2], lam[0]) / math.sqrt(2))


@pytest.mark.parametrize("label", su_algebra.BASIS_LABELS)
def test_basis_invariants(label):
    defects = basis_defects(build_basis(label))
    assert defects["hermiticity"] < 1e-12
    assert defects["trace"] < 1e-12
    assert defects["orthonormality"] < 1e-12


def test_structure_constant_oracle_values():
    # independent oracle: the defining traces evaluated by direct arithmetic
    lam = build_basis("su3-gellmann").elements
    d118 = np.trace((lam[0] @ lam[0] + lam[0] @ lam[0]) @ lam[7]).real / 4
    f123 = (-1j * np.trace((lam[0] @ lam[1] - lam[1] @ lam[0]) @ lam[2])).real / 4
    sc = structure_constants("su3-gellmann")
    assert abs(d118 - 1 / SQ3) < 1e-12
    assert abs(sc.d[0, 0, 7] - 1 / SQ3) < 1e-12
    assert abs(f123 - 1.0) < 1e-12
    assert abs(sc.f[0, 1, 2] - 1.0) < 1e-12
    assert abs(sc.d[7, 7, 7] + 1 / SQ3) < 1e-12


@pytest.mark.parametrize("label", su_algebra.BASIS_LABELS)
def test_structure_constant_symmetries(label):
    sc = structure_constants(label)
    for perm, sign in [((0, 2, 1), -1), ((1, 0, 2), -1), ((1, 2, 0), 1),
                       ((2, 0, 1), 1), ((2, 1, 0), -1)]:
        assert np.abs(sc.d - sc.d.transpose(perm)).max() < 1e-12
        assert np.abs(sc.f - sign * sc.f.transpose(perm)).max() < 1e-12
    # repeated index kills the antisymmetric tensor
    assert np.abs(np.einsum("aab->ab", sc.f)).max() < 1e-12


def test_structure_constants_reject_nonorthonormal():
    lam = build_basis("su3-gellmann").elements
    bad = SuBasis("scaled", 3, 2.0 * lam)
    with pytest.raises(ValueError, match="not orthonormal"):
        structure_constants_of(bad)


def dense_identity_violations(sc):
    """Reference: every identity family contracted densely over all k^4
    free-index tuples, one einsum per product term."""
    d, f, n = sc.d, sc.f, sc.n
    eye = np.eye(sc.dim)

    def cyc(x, y):
        return (np.einsum("abc,cpq->abpq", x, y)
                + np.einsum("bpc,caq->abpq", x, y)
                + np.einsum("pac,cbq->abpq", x, y))

    ff = np.einsum("abc,cpq->abpq", f, f)
    dpq = np.einsum("apc,cbq->abpq", d, d)
    daq = np.einsum("aqc,cbp->abpq", d, d)
    dd_pair = np.einsum("abc,cpq->abpq", d, d)
    dl_ap_bq = np.einsum("ap,bq->abpq", eye, eye)
    dl_aq_bp = np.einsum("aq,bp->abpq", eye, eye)
    dl_ab_pq = np.einsum("ab,pq->abpq", eye, eye)
    out = {
        "jacobi_ff": np.abs(cyc(f, f)).max(),
        "mixed_df": np.abs(cyc(d, f)).max(),
        "ff_to_dd": np.abs(ff - dpq + daq
                           - (2.0 / n) * (dl_ap_bq - dl_aq_bp)).max(),
        "ff_dd_sym": np.abs(ff + np.einsum("aqc,cpb->abpq", f, f)
                            - 2 * dpq + dd_pair + daq
                            - (2.0 / n) * (2 * dl_ap_bq - dl_ab_pq - dl_aq_bp)).max(),
    }
    if n == 3:
        out["dd_cyclic"] = np.abs(cyc(d, d) - (dl_ab_pq + dl_ap_bq + dl_aq_bp) / 3).max()
    return out


@pytest.mark.parametrize("label", su_algebra.BASIS_LABELS)
def test_sparse_identity_pass_matches_dense_contractions(label):
    sc = structure_constants(label)
    sparse = verify_structure_identities(sc).violations
    dense = dense_identity_violations(sc)
    assert set(sparse) == set(dense)
    for family, value in dense.items():
        assert abs(sparse[family] - value) <= 1e-14


def broken_su3():
    sc = structure_constants("su3-gellmann")
    f = sc.f.copy()
    for perm, sign in [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)]:
        f[tuple(np.array((0, 1, 2))[list(perm)])] = sign * 1.1
    return su_algebra.StructureConstants(3, sc.d, f)


def test_sparse_identity_pass_detects_a_broken_tensor():
    broken = broken_su3()
    sparse = verify_structure_identities(broken).violations
    dense = dense_identity_violations(broken)
    assert sparse["jacobi_ff"] > 1e-3
    for family, value in dense.items():
        assert abs(sparse[family] - value) <= 1e-14


def flat_bincount_violations(sc):
    """Reference: each family gathered by one bincount over a flat array of
    all k^4 tuples, the pass the blockwise one replaced (12 MB per family
    for su(6))."""
    k = sc.dim
    products, families = su_algebra._identity_terms(sc)
    out = {}
    for name, terms in families.items():
        index, weight = [], []
        for coef, prod, slots in terms:
            idx, val = products[prod]
            flat = 0
            for free in "abpq":
                flat = flat * k + idx[slots.index(free)]
            index.append(flat)
            weight.append(coef * val)
        residual = np.bincount(np.concatenate(index), np.concatenate(weight),
                               minlength=k ** 4)
        out[name] = float(np.abs(residual).max())
    return out


@pytest.mark.parametrize("label", su_algebra.BASIS_LABELS + ("broken",))
def test_blockwise_residuals_equal_the_flat_pass(label):
    # the terms are stably ordered by a, so every bin sums the same terms in
    # the same order as the flat array: equal, not merely close
    sc = broken_su3() if label == "broken" else structure_constants(label)
    assert verify_structure_identities(sc).violations == flat_bincount_violations(sc)


@pytest.mark.parametrize("tensor, entry", [("d", (4, 18, 12)), ("f", (8, 6, 4)),
                                           ("d", (20, 3, 14))])
def test_nan_entry_fails_the_identity_pass(tensor, entry):
    sc = structure_constants("su6-tensor")
    broken = {"d": sc.d.copy(), "f": sc.f.copy()}
    broken[tensor][entry] = np.nan
    report = verify_structure_identities(
        su_algebra.StructureConstants(6, broken["d"], broken["f"]))
    clean = verify_structure_identities(sc).violations
    # every family but jacobi_ff has a d or f in each product; jacobi_ff has f only
    for family, value in report.violations.items():
        if tensor == "d" and family == "jacobi_ff":
            assert value == clean[family]
        else:
            assert math.isnan(value)
    assert not report.passed


def test_su6_identity_pass_peak_memory():
    # the flat pass held a 12 MB array of k^4 bins per family and peaked at
    # about 35 MB; the blocks of k^3 bins bring it to about 13 MB
    sc = structure_constants("su6-tensor")
    tracemalloc.start()
    try:
        verify_structure_identities(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


@pytest.mark.parametrize("label", su_algebra.BASIS_LABELS)
def test_structure_constants_match_triple_trace_einsum(label):
    # the built-in bases have one nonzero entry per row, so the row-by-row
    # products are exact and the tensors equal the einsum ones bit for bit
    t = build_basis(label).elements
    abc = np.einsum("aij,bjk,cki->abc", t, t, t)
    acb = np.einsum("aij,cjk,bki->abc", t, t, t)
    sc = structure_constants(label)
    assert np.array_equal(sc.d, ((abc + acb) / 4).real)
    assert np.array_equal(sc.f, (-1j * (abc - acb) / 4).real)


def test_structure_constants_of_a_rotated_basis():
    # a generic orthogonal mix of the Gell-Mann matrices has dense rows
    lam = build_basis("su3-gellmann").elements
    q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((8, 8)))
    t = np.einsum("ab,bij->aij", q, lam)
    sc = structure_constants_of(SuBasis("rotated", 3, t))
    abc = np.einsum("aij,bjk,cki->abc", t, t, t)
    acb = np.einsum("aij,cjk,bki->abc", t, t, t)
    assert np.abs(sc.d - ((abc + acb) / 4).real).max() < 1e-14
    assert np.abs(sc.f - (-1j * (abc - acb) / 4).real).max() < 1e-14
    assert verify_structure_identities(sc).passed


@pytest.mark.parametrize("label", su_algebra.BASIS_LABELS)
def test_identity_families(label):
    report = verify_structure_identities(structure_constants(label))
    assert report.passed
    assert max(report.violations.values()) < 1e-12
    expected = {"jacobi_ff", "mixed_df", "ff_to_dd", "ff_dd_sym"}
    if label == "su3-gellmann":
        expected.add("dd_cyclic")
    assert set(report.violations) == expected


@pytest.mark.parametrize("label", su_algebra.BASIS_LABELS)
def test_closure_relation(label):
    basis = build_basis(label)
    sc = structure_constants(label)
    assert closure_max_violation(basis, sc, seed=11) < 1e-12


def test_symmetrized_trace_pair_and_triple():
    basis = build_basis("su3-gellmann")
    sc = structure_constants("su3-gellmann")
    for a in range(8):
        for b in range(8):
            expect = 2.0 if a == b else 0.0
            assert abs(symmetrized_trace(basis, (a, b)) - expect) < 1e-12
    assert abs(symmetrized_trace(basis, (0, 0, 7)) - 2 * sc.d[0, 0, 7]) < 1e-12


def test_symmetrized_trace_quartic_example():
    # tau_1^4 in su(6): (4/6) + 2 * sum_e d_{11e} d_{e11}, both routes
    basis = build_basis("su6-tensor")
    sc = structure_constants("su6-tensor")
    direct = symmetrized_trace(basis, (0, 0, 0, 0))
    closed = 4.0 / 6.0 + 2.0 * float(sc.d[0, 0] @ sc.d[:, 0, 0])
    assert abs(direct - closed) < 1e-12


def permutation_trace(basis, idx):
    """Reference: the mean of tr(t_p1 ... t_pk) over all k! orderings p.

    Each distinct ordering of a multiset occurs equally often among the k!,
    so the mean over the distinct ones is the same number.
    """
    t = basis.elements
    orderings = set(itertools.permutations(idx))
    total = 0.0 + 0.0j
    for perm in orderings:
        m = t[perm[0]]
        for p in perm[1:]:
            m = m @ t[p]
        total += np.trace(m)
    return (total / len(orderings)).real


@pytest.mark.parametrize("label", su_algebra.BASIS_LABELS)
@pytest.mark.parametrize("arity", [2, 3, 4, 5, 6])
def test_symmetrized_trace_matches_closed_form(label, arity):
    basis = build_basis(label)
    sc = structure_constants(label)
    rng = np.random.default_rng(100 + arity)
    tuples = [tuple(int(i) for i in rng.integers(0, len(basis), size=arity))
              for _ in range(50)]
    tuples += [(a,) * arity for a in range(len(basis))]
    worst_trace = worst_closed = 0.0
    for idx in tuples:
        expect = permutation_trace(basis, idx)
        worst_trace = max(worst_trace, abs(symmetrized_trace(basis, idx) - expect))
        worst_closed = max(worst_closed,
                           abs(symmetrized_trace_closed(sc, idx) - expect))
    assert worst_trace < 1e-10
    assert worst_closed < 1e-10


def test_symmetrized_trace_validates_input():
    basis = build_basis("su2-pauli")
    sc = structure_constants("su2-pauli")
    for route, arg in ((symmetrized_trace, basis), (symmetrized_trace_closed, sc)):
        with pytest.raises(ValueError, match="2..6"):
            route(arg, (1,))
        with pytest.raises(ValueError, match="2..6"):
            route(arg, (0,) * 7)
        for bad in ((0, 5), (-1, -1), (0, 99)):
            with pytest.raises(ValueError, match="out of range"):
                route(arg, bad)


@pytest.mark.parametrize("label", su_algebra.BASIS_LABELS)
def test_one_integers_call_draws_the_loop_pairs_and_tuples(label):
    # PCG64 serves bounded draws below 2^32 from one buffered 32-bit stream,
    # so one (m, r) call gives what m calls of r give
    k = len(build_basis(label))
    for seed in range(300):
        loop, stacked = np.random.default_rng(seed), np.random.default_rng(seed)
        pairs = [loop.integers(0, k, size=2) for _ in range(su_algebra.CLOSURE_PAIRS)]
        assert np.array_equal(
            stacked.integers(0, k, size=(su_algebra.CLOSURE_PAIRS, 2)), pairs)
        for arity in range(2, 7):
            tuples = [loop.integers(0, k, size=arity) for _ in range(10)]
            assert np.array_equal(stacked.integers(0, k, size=(10, arity)), tuples)


def polarize_one(idx, dim, value):
    """Reference: the polarization identity for one index tuple."""
    k = len(idx)
    members = (np.arange(1, 2 ** k)[:, None] >> np.arange(k)) & 1
    x = members @ np.eye(dim)[list(idx)]
    signs = (-1.0) ** (k - members.sum(axis=1))
    return float(signs @ value(x)) / math.factorial(k)


def symmetrized_trace_one(basis, idx):
    t = basis.elements
    return polarize_one(idx, len(basis), lambda x: np.trace(
        np.linalg.matrix_power(np.tensordot(x, t, 1), len(idx)),
        axis1=-2, axis2=-1).real)


def symmetrized_trace_closed_one(sc, idx):
    return polarize_one(idx, sc.dim, lambda x: su_algebra._power_trace_closed(
        sc, x, len(idx)))


@pytest.mark.parametrize("label", su_algebra.BASIS_LABELS)
def test_stacked_symmetrized_traces_equal_one_tuple_values(label):
    basis, sc = build_basis(label), structure_constants(label)
    for seed in (0, 5, 20260):
        rng = np.random.default_rng(seed)
        for arity in range(2, 7):
            idx = rng.integers(0, len(basis), size=(10, arity))
            for route, arg, one in (
                    (symmetrized_trace, basis, symmetrized_trace_one),
                    (symmetrized_trace_closed, sc, symmetrized_trace_closed_one)):
                stacked = route(arg, idx)
                assert stacked.shape == (10,)
                rows = [tuple(int(i) for i in row) for row in idx]
                for values in ([route(arg, row) for row in rows],
                               [one(arg, row) for row in rows]):
                    assert stacked.tobytes() == np.array(values).tobytes()


def test_symmetrized_trace_validates_stacks():
    basis = build_basis("su3-gellmann")
    with pytest.raises(ValueError, match="out of range.*\\(2, 8\\)"):
        symmetrized_trace(basis, [[0, 1], [2, 8], [3, 3]])
    with pytest.raises(ValueError, match="one tuple or an \\(m, k\\) stack"):
        symmetrized_trace(basis, np.zeros((2, 2, 2), dtype=int))
    assert symmetrized_trace(basis, np.zeros((0, 3), dtype=int)).shape == (0,)


@pytest.mark.parametrize("route", ["symmetrized_trace", "symmetrized_trace_closed"])
def test_symmetrized_trace_rejects_non_integer_and_empty_indices(route):
    # numpy would cast [0.9, 0.2] to (0, 0) and read [True, 1] as (1, 1)
    label = "su3-gellmann"
    fn = getattr(su_algebra, route)
    arg = (build_basis(label) if route == "symmetrized_trace"
           else structure_constants(label))
    for bad, shown in (([0.9, 0.2], "0.9"), ([True, 1], "True"),
                       (np.array([1.0, 2.0]), "1.0"), ([[0, 1], [2, 2.5]], "2.5"),
                       (np.array([True, False]), "True")):
        with pytest.raises(TypeError, match=f"indices must be integers, got {shown}"):
            fn(arg, bad)
    for empty in ([], ()):
        with pytest.raises(ValueError, match="need 2..6 indices, got 0"):
            fn(arg, empty)
    assert fn(arg, [np.int64(1), 1]) == fn(arg, (1, 1))


def test_json_export_shape_and_values():
    doc = to_json_dict("su3-gellmann")
    assert doc["label"] == "su3-gellmann" and doc["n"] == 3
    d = {tuple(e[:3]): e[3] for e in doc["d"]}
    f = {tuple(e[:3]): e[3] for e in doc["f"]}
    assert abs(d[(1, 1, 8)] - 1 / SQ3) < 1e-12
    assert abs(f[(1, 2, 3)] - 1.0) < 1e-12
    for a, b, c in d:
        assert 1 <= a <= b <= c <= 8
    # antisymmetric tensor has no repeated-index entries
    assert all(a < b < c for a, b, c in f)


def json_entries_reference(tensor):
    """Reference: the dump's entries by nested loops over a <= b <= c."""
    k = tensor.shape[0]
    out = []
    for a in range(k):
        for b in range(a, k):
            for c in range(b, k):
                v = float(tensor[a, b, c])
                if abs(v) > 1e-12:
                    out.append([a + 1, b + 1, c + 1, v])
    return out


@pytest.mark.parametrize("label", ["su2-pauli", "su3-gellmann", "su6-tensor"])
def test_json_export_matches_nested_loops(label):
    doc = to_json_dict(label)
    sc = structure_constants(label)
    for key, tensor in (("d", sc.d), ("f", sc.f)):
        want = json_entries_reference(tensor)
        assert json.dumps(doc[key]) == json.dumps(want)
        assert all(type(x) is int for e in doc[key] for x in e[:3])


def test_json_export_su6_counts():
    doc = to_json_dict("su6-tensor")
    assert doc["n"] == 6
    assert len(doc["d"]) > 100 and len(doc["f"]) > 100
    for a, b, c, v in doc["d"]:
        assert 1 <= a <= b <= c <= 35 and abs(v) > 1e-12
