"""Command-line behavior: formats, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qqinv import casimir_positivity, cli, local_invariants, molien, states
from qqinv.states import QubitQutritState, save_state


def run_cli(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.json"
    save_state(QubitQutritState.zero(), str(path))
    return str(path)


@pytest.fixture
def nonpsd_file(tmp_path):
    path = tmp_path / "nonpsd.json"
    save_state(states.random_nonpsd_unit_trace(5, -0.1), str(path))
    return str(path)


def test_molien_line_output():
    code, out = run_cli("molien", "--group", "2x3", "--degree", "4")
    assert code == 0
    assert out.splitlines() == ["0 1", "1 0", "2 3", "3 4", "4 15"]


def test_molien_json_output():
    code, out = run_cli("molien", "--group", "2x2", "--degree", "3",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == [1, 0, 3, 2]


def test_molien_compare_rational_ok():
    code, out = run_cli("molien", "--group", "2x2", "--degree", "10",
                        "--compare-rational")
    assert code == 0
    assert "rational-match ok" in out


def test_molien_compare_rational_mismatch_fails(monkeypatch):
    # a rational form that disagrees with the series at degree 2
    form = molien.RationalForm((1, 0, 1), ((2, 1),))
    monkeypatch.setattr(molien, "rational_form_for", lambda label: form)
    code, out = run_cli("molien", "--group", "2x2", "--degree", "3", "--compare-rational")
    assert code == 1
    assert out.splitlines() == ["0 1", "1 0", "2 3", "3 2", "rational-match MISMATCH"]
    code, out = run_cli("molien", "--group", "2x2", "--degree", "3", "--compare-rational",
                        "--format", "json")
    assert code == 1
    assert json.loads(out)["rational_match"] is False


def test_molien_reduced_backend():
    code, out = run_cli("molien", "--group", "2x3", "--degree", "5",
                        "--backend", "reduced")
    assert code == 0
    assert out.splitlines()[-1] == "5 25"


def test_molien_degree_cap_is_input_error():
    code, _ = run_cli("molien", "--group", "2x3", "--degree", "21")
    assert code == 2


def test_molien_cap_message_names_the_cli_option(capsys):
    code, _ = run_cli("molien", "--group", "2x3", "--degree", "40")
    assert code == 2
    assert capsys.readouterr().err == (
        "qqinv: --degree 40 exceeds the resource cap 20; pass --cap to override\n")


def test_option_defaults_are_read_from_their_modules(capsys):
    # the parser sets its defaults from qqinv._args, and they are the values
    # that molien and local_invariants export, parsed and in the help text
    parser = cli.build_parser()
    args = parser.parse_args(["molien", "--group", "2x2", "--degree", "1"])
    assert args.cap == molien.DEFAULT_DEGREE_CAP
    for command in (["invariants", "state.json"], ["selftest"]):
        assert parser.parse_args(command).seed == local_invariants.DEFAULT_PANEL_SEED
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["molien", "--help"])
    assert (f"resource cap on the degree (default {molien.DEFAULT_DEGREE_CAP})"
            in " ".join(capsys.readouterr().out.split()))


def test_molien_negative_degree_names_the_cli_option(capsys):
    code, _ = run_cli("molien", "--group", "2x2", "--degree", "-1")
    assert code == 2
    assert capsys.readouterr().err == "qqinv: --degree must be >= 0, got -1\n"


def test_molien_negative_cap_names_the_cli_option(capsys):
    code, _ = run_cli("molien", "--group", "2x2", "--degree", "3", "--cap", "-1")
    assert code == 2
    assert capsys.readouterr().err == "qqinv: --cap must be >= 0, got -1\n"


def test_molien_cap_override():
    code, out = run_cli("molien", "--group", "2x2", "--degree", "21",
                        "--cap", "25")
    assert code == 0
    assert len(out.splitlines()) == 22


def test_basis_dump():
    code, out = run_cli("basis", "--algebra", "su3")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    assert [1, 2, 3, 1.0] in doc["f"]


def test_basis_default_su6():
    code, out = run_cli("basis")
    assert json.loads(out)["n"] == 6 and code == 0


def test_basis_table_prints_one_entry_per_line():
    # each (A, B, C, value) entry of d and f on one line, as a leaf list
    code, out = run_cli("basis", "--algebra", "su2", "--format", "table")
    assert code == 0
    assert out == "d      []\nf:\n  [1, 2, 3, 1.0]\nlabel  su2-pauli\nn      2\n"
    # su(6): 199 entries of d and 173 of f, two headers, label and n
    code, out = run_cli("basis", "--algebra", "su6", "--format", "table")
    assert code == 0 and len(out.splitlines()) == 376


def test_invariants_table_nests_one_table_per_word(mixed_file):
    code, out = run_cli("invariants", mixed_file, "--max-degree", "1", "--format", "table")
    assert code == 0
    assert out.splitlines() == [
        "max_degree  1", "words:",
        "  multidegree  [1, 0, 0]", "  value        0.0", "  word         a",
        "  multidegree  [0, 1, 0]", "  value        0.0", "  word         b",
        "  multidegree  [0, 0, 1]", "  value        0.0", "  word         g"]


def test_positivity_mixed_passes(mixed_file):
    code, out = run_cli("positivity", mixed_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["positive_semidefinite"] and doc["consistent"]
    assert all(abs(s - 1) < 1e-9 for s in doc["S_bar"])


def test_positivity_nonpsd_exit_code(nonpsd_file):
    code, out = run_cli("positivity", nonpsd_file)
    assert code == 1
    doc = json.loads(out)
    assert not doc["positive_semidefinite"]
    assert doc["consistent"]


def test_positivity_oracle_flag(mixed_file):
    code, out = run_cli("positivity", mixed_file, "--oracle")
    doc = json.loads(out)
    assert code == 0
    assert np.allclose(doc["eigenvalues"], 1 / 6)


def test_positivity_missing_file():
    code, _ = run_cli("positivity", "/nonexistent/state.json")
    assert code == 2


def test_positivity_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run_cli("positivity", str(path))
    assert code == 2


def test_positivity_bad_shape(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"abc": {"a": [1, 2], "b": [0] * 8,
                                        "C": [[0] * 8] * 3}}))
    code, _ = run_cli("positivity", str(path))
    assert code == 2


def _abc(**fields):
    return {"abc": {"a": [0] * 3, "b": [0] * 8, "C": [[0] * 8] * 3, **fields}}


_NAN_RHO = (np.eye(6) / 6).tolist()
_NAN_RHO[0][0] = float("nan")


@pytest.mark.parametrize("doc", [
    pytest.param({"abc": 5}, id="abc-scalar"),
    pytest.param(_abc(a=5), id="a-scalar"),
    pytest.param(_abc(a={"x": 1, "y": 2, "z": 3}), id="a-object"),
    pytest.param(_abc(a=[[0], [0], [0]]), id="a-column"),
    pytest.param(_abc(a=["0.1", "0", "0"]), id="a-strings"),
    pytest.param(_abc(C=[[0] * 8, [0] * 8, [0] * 7]), id="C-ragged"),
    pytest.param(_abc(b=[0] * 7 + [float("nan")]), id="abc-nan"),
    pytest.param({"rho": {"x": 1}}, id="rho-object"),
    pytest.param({"rho": np.stack([_NAN_RHO, np.zeros((6, 6))], axis=-1).tolist()},
                 id="rho-nan"),
])
def test_invalid_state_is_input_error(tmp_path, capsys, doc):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    for command in ("positivity", "invariants"):
        code, out = run_cli(command, str(path))
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(f"qqinv: invalid state in {path}: ")


@pytest.mark.parametrize("scale,message", [
    (1e49, "rho does not have unit trace"), (1e52, "rho does not have unit trace"),
    (1e60, "the moments tr rho^k overflow")], ids=["scaled-1e49", "scaled-1e52", "a-1e60"])
def test_positivity_of_a_huge_state_is_input_error(tmp_path, capsys, scale, message):
    # 1e49 printed a report, 1e52 and 1e60 died with a traceback
    base = states.random_density(3)
    path = tmp_path / "huge.json"
    if scale == 1e60:
        save_state(QubitQutritState(np.array([scale, 0.0, 0.0]), np.zeros(8),
                                    np.zeros((3, 8))), str(path))
    else:
        save_state(QubitQutritState(base.a * scale, base.b * scale, base.C * scale),
                   str(path))
    for extra in ((), ("--oracle",)):
        code, out = run_cli("positivity", str(path), *extra)
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith(f"qqinv: invalid state in {path}: {message}")


def test_a_rho_file_whose_projection_overflows_is_input_error(tmp_path, capsys):
    # from_matrix returned a[2] = inf; positivity then named non-finite
    # matrix entries and invariants a non-finite trace, neither the cause
    rho = np.diag([1e308, 0, 0, -1e308, 1, 0])
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"rho": np.stack([rho, np.zeros((6, 6))],
                                                axis=-1).tolist()}))
    for command in ("positivity", "invariants"):
        code, out = run_cli(command, str(path))
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            f"qqinv: invalid state in {path}: matrix coordinates overflow: "
            "the projection onto (a, b, C) is not finite\n")


def test_positivity_rho_form(tmp_path):
    rho = np.eye(6) / 6
    doc = {"rho": np.stack([rho, np.zeros((6, 6))], axis=-1).tolist()}
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli("positivity", str(path))
    assert code == 0
    assert json.loads(out)["positive_semidefinite"]


def test_invariants_output(mixed_file):
    code, out = run_cli("invariants", mixed_file, "--max-degree", "2")
    assert code == 0
    doc = json.loads(out)
    words = {w["word"]: w for w in doc["words"]}
    assert set(words) == {"a", "b", "g", "aa", "ab", "ag", "bb", "bg", "gg"}
    assert all(abs(w["value"]) < 1e-12 for w in doc["words"])
    assert words["aa"]["multidegree"] == [2, 0, 0]


def test_invariants_checks_flag(tmp_path):
    path = tmp_path / "state.json"
    save_state(states.random_density(11), str(path))
    code, out = run_cli("invariants", str(path), "--max-degree", "2",
                        "--checks", "--panel-size", "10")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert set(checks) == {"sign_relation", "gamma3_formula", "i004_identity",
                           "product_relation", "multidegree_relations",
                           "casimir_decomposition"}
    assert all(c["passed"] for c in checks.values())
    for name, c in checks.items():
        assert c["tolerance"] == local_invariants.PANEL_IDENTITIES[name][1]
    assert set(checks["multidegree_relations"]["detail"]) == {
        "aagg_agag", "aagg_product", "bbgg_product", "bbgg_bgbg"}
    assert set(checks["casimir_decomposition"]["detail"]) == {"c2", "c3", "c4"}
    for name in ("multidegree_relations", "casimir_decomposition"):
        assert checks[name]["violation"] == max(checks[name]["detail"].values())
    assert all("detail" not in checks[name] for name in
               ("sign_relation", "gamma3_formula", "i004_identity",
                "product_relation"))


@pytest.mark.parametrize("size", ["0", "-3"])
def test_panel_size_below_one_is_input_error(mixed_file, size):
    code, out = run_cli("invariants", mixed_file, "--checks", "--panel-size", size)
    assert code == 2 and out == ""
    code, out = run_cli("selftest", "--panel-size", size)
    assert code == 2 and out == ""


@pytest.mark.parametrize("seed", ["-1", "-5"])
def test_negative_seed_is_input_error(mixed_file, seed, capsys):
    code, out = run_cli("invariants", mixed_file, "--checks", "--seed", seed)
    assert code == 2 and out == ""
    code, out = run_cli("selftest", "--seed", seed)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.count(f"qqinv: --seed must be >= 0, got {seed}\n") == 2


def test_invariants_flags_complex_words(tmp_path):
    path = tmp_path / "state.json"
    save_state(states.random_density(11), str(path))
    code, out = run_cli("invariants", str(path), "--max-degree", "5")
    assert code == 0
    doc = json.loads(out)
    flagged = [w for w in doc["words"] if w["value"] is None]
    assert flagged and all("trace_im" in w for w in flagged)


def test_invariants_forms_the_letter_matrices_once(mixed_file, monkeypatch):
    calls = []
    letter_matrices = local_invariants._letter_matrices
    monkeypatch.setattr(local_invariants, "_letter_matrices",
                        lambda state: calls.append(state) or letter_matrices(state))
    code, out = run_cli("invariants", mixed_file, "--max-degree", "4")
    assert code == 0 and len(json.loads(out)["words"]) > 1
    assert len(calls) == 1


def test_invariants_rejects_non_finite_traces(tmp_path, capsys):
    s = states.random_density(3)
    path = tmp_path / "huge.json"
    save_state(QubitQutritState(1e200 * s.a, 1e200 * s.b, 1e200 * s.C), str(path))
    code, out = run_cli("invariants", str(path))
    assert code == 2 and out == ""
    assert "trace of word 'aa' is not finite" in capsys.readouterr().err


def test_invariants_bad_degree(mixed_file):
    code, _ = run_cli("invariants", mixed_file, "--max-degree", "9")
    assert code == 2


def test_json_output_deterministic(mixed_file):
    _, first = run_cli("positivity", mixed_file)
    _, second = run_cli("positivity", mixed_file)
    assert first == second
    _, a = run_cli("basis", "--algebra", "su2")
    _, b = run_cli("basis", "--algebra", "su2")
    assert a == b


def test_table_format(mixed_file):
    code, out = run_cli("positivity", mixed_file, "--format", "table")
    assert code == 0
    assert "positive_semidefinite" in out
    assert "{" not in out


def test_selftest_passes():
    code, out = run_cli("selftest", "--panel-size", "12")
    assert code == 0, out
    assert "FAIL" not in out
    assert "seed=" in out.splitlines()[0]
    code, js = run_cli("selftest", "--panel-size", "12", "--format", "json")
    assert code == 0, js
    records = json.loads(js)
    assert len(records) == 36
    assert all(set(r) == {"name", "passed", "detail"} and r["passed"]
               for r in records)
    table_names = [line[6:].split("  ")[0] for line in out.splitlines()[1:-1]]
    assert [r["name"] for r in records] == table_names


def test_selftest_c6_row_fails_on_route_disagreement(monkeypatch):
    report = casimir_positivity.dual_route_report

    def inflated(state, sc):
        doc = report(state, sc)
        return {**doc, "abs_diff": doc["abs_diff"][:4] + (1e-6,)}

    monkeypatch.setattr(casimir_positivity, "dual_route_report", inflated)
    code, js = run_cli("selftest", "--panel-size", "2", "--format", "json")
    assert code == 1
    failed = [r for r in json.loads(js) if not r["passed"]]
    assert [(r["name"], r["detail"]) for r in failed] == [
        ("casimir: c6 left-associated reading discrepancy", "reported 1.00e-06")]


def test_selftest_positivity_row_fails_on_one_flipped_oracle_verdict(monkeypatch):
    oracle = casimir_positivity.eigenvalue_oracle

    def flipped(state):
        eig = oracle(state).copy()
        eig[-1, 0] = -1.0  # flips the verdict of the last PSD state only
        return eig

    monkeypatch.setattr(casimir_positivity, "eigenvalue_oracle", flipped)
    code, js = run_cli("selftest", "--panel-size", "3", "--format", "json")
    assert code == 1
    failed = [r for r in json.loads(js) if not r["passed"]]
    assert [(r["name"], r["detail"]) for r in failed] == [
        ("positivity: S_k verdict == eigenvalue oracle == Casimir verdict",
         "6 states")]


def test_selftest_palindromy_row_fails_on_a_non_palindromic_numerator(monkeypatch):
    # the same series to degree 20, but no functional equation
    form = molien.TWO_QUBIT_RATIONAL
    broken = molien.RationalForm(form.numerator + (0,) * 6 + (1,), form.denominator)
    assert molien._functional_equation(broken.numerator, broken.denominator) is None
    monkeypatch.setattr(molien, "TWO_QUBIT_RATIONAL", broken)
    code, js = run_cli("selftest", "--panel-size", "2", "--format", "json")
    assert code == 1
    failed = [(r["name"], r["detail"]) for r in json.loads(js) if not r["passed"]]
    assert failed == [("molien: palindromy of both rational forms",
                       "signs (-,15) and (+,35)")]


def test_selftest_local_invariance_row_fails_under_global_unitaries(monkeypatch):
    unitaries = states.random_unitaries
    monkeypatch.setattr(states, "random_unitaries",
                        lambda seeds, local: unitaries(seeds, local=False))
    code, js = run_cli("selftest", "--panel-size", "2", "--format", "json")
    assert code == 1
    failed = [r["name"] for r in json.loads(js) if not r["passed"]]
    assert failed == ["invariants: local-unitary invariance"]


def test_selftest_in_one_process_equals_cold_runs():
    # the panel store and the cached kernel words outlive a run; a run after
    # others in one process must print what a fresh process prints
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1])] + sys.path))
    cold = {}
    for seed, size in ((20260, 60), (5, 17)):
        argv = ["selftest", "--seed", str(seed), "--panel-size", str(size),
                "--format", "json"]
        proc = subprocess.run([sys.executable, "-m", "qqinv", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        cold[seed] = (proc.returncode, proc.stdout, argv)
    for seed in (20260, 5, 20260):
        code, out, argv = cold[seed]
        assert run_cli(*argv) == (code, out)
