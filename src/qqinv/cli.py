"""Command-line interface.

Subcommands:

  basis       dump a basis and its d/f structure constants as JSON
  positivity  full positivity report for a state file
  invariants  evaluate canonical trace words on a state file
  molien      invariant-counting series for 2x2 or 2x3, one "d c_d" per line
  selftest    run the whole identity/cross-validation battery

Exit status: 0 on success, 1 when a check or verdict fails, 2 on input
errors.  JSON output is canonical (sorted keys, fixed separators) so that
identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import _args

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


class InputError(Exception):
    """Bad file, malformed document or invalid option combination."""


def _dump(doc, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)
    return _as_table(doc)


def _as_table(doc, prefix: str = "") -> str:
    lines = []
    if isinstance(doc, dict):
        width = max((len(str(k)) for k in doc), default=0)
        for key, value in sorted(doc.items()):
            nested = isinstance(value, dict) or (
                isinstance(value, list) and value
                and isinstance(value[0], (dict, list)))
            if nested:
                lines.append(f"{prefix}{key}:")
                lines.append(_as_table(value, prefix + "  "))
            else:
                lines.append(f"{prefix}{str(key):<{width}}  {value}")
    elif isinstance(doc, list):
        for item in doc:
            lines.append(_as_table(item, prefix))
    else:
        lines.append(f"{prefix}{doc}")
    return "\n".join(lines)


def _load_state(path: str):
    from . import states

    try:
        return states.load_state(path)
    except FileNotFoundError:
        raise InputError(f"cannot read {path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"cannot parse {path}: invalid JSON ({exc.msg})") from None
    except ValueError as exc:
        raise InputError(f"invalid state in {path}: {exc}") from None


# -- subcommands -----------------------------------------------------------------

def _cmd_basis(args, out) -> int:
    from . import su_algebra

    label = {"su2": "su2-pauli", "su3": "su3-gellmann", "su6": "su6-tensor"}[args.algebra]
    print(_dump(su_algebra.to_json_dict(label), args.format), file=out)
    return EXIT_OK


def _cmd_positivity(args, out) -> int:
    from . import casimir_positivity

    state = _load_state(args.statefile)
    try:
        report = casimir_positivity.positivity_report(state)
    except ValueError as exc:
        raise InputError(f"invalid state in {args.statefile}: {exc}") from None
    doc = report.to_json_dict()
    if args.oracle:
        doc["eigenvalues"] = casimir_positivity.eigenvalue_oracle(state).tolist()
    print(_dump(doc, args.format), file=out)
    if not report.consistent or not report.positive_semidefinite:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_invariants(args, out) -> int:
    from . import local_invariants

    state = _load_state(args.statefile)
    listed = [w for degree in range(1, args.max_degree + 1)
              for w in local_invariants.enumerate_words(degree)]
    values = local_invariants.eval_trace_complex(listed, state)
    words = []
    for w, val in zip(listed, values):
        if not np.isfinite(val):
            raise InputError(f"invalid state in {args.statefile}: trace of "
                             f"word {w.letters!r} is not finite")
        entry = {"word": w.letters, "multidegree": list(w.multidegree)}
        if abs(val.imag) > local_invariants.IMAG_TOL:
            # complex trace: outside the real sector, never truncated
            entry["value"] = None
            entry["trace_re"] = val.real
            entry["trace_im"] = val.imag
        else:
            entry["value"] = val.real
        words.append(entry)
    doc = {"max_degree": args.max_degree, "words": words}
    failed = False
    if args.checks:
        checks = _run_checks(args.seed, args.panel_size)
        doc["checks"] = checks
        failed = not all(c["passed"] for c in checks.values())
    print(_dump(doc, args.format), file=out)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_molien(args, out) -> int:
    from . import molien

    label = {"2x2": "su2xsu2", "2x3": "su2xsu3"}[args.group]
    ws = molien.adjoint_weight_system(label)
    if args.degree > args.cap:
        # molien_series would refuse too, naming its degree_cap argument
        raise InputError(f"--degree {args.degree} exceeds the resource cap "
                         f"{args.cap}; pass --cap to override")
    try:
        series = molien.molien_series(ws, args.degree, backend=args.backend,
                                      degree_cap=args.cap)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    mismatch = None
    if args.compare_rational:
        reference = molien.rational_form_for(label).series(args.degree)
        if reference != series:
            mismatch = {"computed": series, "rational": reference}
    if args.format == "json":
        doc = {"group": args.group, "backend": args.backend,
               "coefficients": series,
               "rational_match": None if not args.compare_rational else mismatch is None}
        print(_dump(doc, "json"), file=out)
    else:
        for d, c in enumerate(series):
            print(f"{d} {c}", file=out)
        if args.compare_rational:
            print("rational-match " + ("ok" if mismatch is None else "MISMATCH"),
                  file=out)
    return EXIT_CHECK_FAILED if mismatch is not None else EXIT_OK


def _run_checks(seed: int, panel_size: int) -> dict[str, dict]:
    from . import local_invariants

    checks = {}
    for name, worst in local_invariants.panel_violations(seed, panel_size).items():
        tol = local_invariants.PANEL_IDENTITIES[name][1]
        violation = max(worst.values())
        doc = {"violation": violation, "tolerance": tol, "passed": violation < tol}
        if len(worst) > 1:
            doc["detail"] = worst
        checks[name] = doc
    return checks


def _selftest_rows(seed: int, panel_size: int):
    """(name, passed, detail) rows covering every check operation."""
    from . import casimir_positivity, local_invariants, molien, states, su_algebra

    rows = []

    def add(name, passed, detail):
        rows.append((name, bool(passed), detail))

    for label in su_algebra.BASIS_LABELS:
        basis = su_algebra.build_basis(label)
        defects = su_algebra.basis_defects(basis)
        add(f"{label}: basis defects", max(defects.values()) < 1e-12,
            f"max {max(defects.values()):.2e}")
        sc = su_algebra.structure_constants(label)
        report = su_algebra.verify_structure_identities(sc)
        worst = max(report.violations.values())
        add(f"{label}: structure identities", report.passed, f"max {worst:.2e}")
        add(f"{label}: closure relation",
            su_algebra.closure_max_violation(basis, sc, seed=seed) < 1e-12,
            "product of basis elements")
        rng = np.random.default_rng(seed)
        # ten index tuples of each arity 2..6, each arity as one stack
        stacks = [rng.integers(0, len(basis), size=(10, arity))
                  for arity in range(2, 7)]
        worst = float(np.max([np.abs(su_algebra.symmetrized_trace(basis, idx)
                                     - su_algebra.symmetrized_trace_closed(sc, idx))
                              for idx in stacks]))
        add(f"{label}: symmetrized traces vs closed forms",
            worst < su_algebra.CLOSED_FORM_TOL,
            f"max {worst:.2e}")

    sc6 = su_algebra.structure_constants("su6-tensor")
    worst = [float(np.max(d)) for d in casimir_positivity.dual_route_report(
        local_invariants.random_panel(seed, panel_size), sc6)["abs_diff"]]
    add("casimir: vee route matches trace route (c2..c5)",
        max(worst[:4]) < 1e-9, f"max {max(worst[:4]):.2e}")
    add("casimir: c6 left-associated reading discrepancy",
        worst[4] < 1e-9, f"reported {worst[4]:.2e}")

    t = np.random.default_rng(seed + 1).uniform(-1, 1, (100, 6)).T
    newton = casimir_positivity.char_poly_coeffs(t)
    det = casimir_positivity.char_poly_coeffs_determinant(t)
    worst_nd = max(float(np.max(np.abs(x - y))) for x, y in zip(newton, det))
    add("positivity: Newton route matches determinant route", worst_nd < 1e-12,
        f"max {worst_nd:.2e}")

    agree = True
    psd = states.random_densities(range(seed + 300, seed + 300 + panel_size))
    bad = states.random_nonpsd_unit_traces(
        range(seed + 600, seed + 600 + panel_size), -0.1)
    for s, expect in ((psd, True), (bad, False)):
        report = casimir_positivity.positivity_report(s)
        eig = (casimir_positivity.eigenvalue_oracle(s).min(axis=-1)
               >= -casimir_positivity.ORACLE_EIG_TOL)
        agree &= bool(np.all((report.positive_semidefinite == expect)
                             & (eig == expect) & report.consistent))
    add("positivity: S_k verdict == eigenvalue oracle == Casimir verdict",
        agree, f"{2 * panel_size} states")

    li = local_invariants
    words4 = li.enumerate_words(4)
    add("invariants: 18 canonical words at degree 4", len(words4) == 18,
        f"found {len(words4)}")
    kernel = li.kernel_at_degree(4, seed, panel_size)
    expected = {"aaab", "abbb", "aaag", "bbbg", "aabg"}
    add("invariants: degree-4 trace-map kernel",
        {w.letters for w in kernel.words} == expected,
        ",".join(w.letters for w in kernel.words))
    for name, doc in _run_checks(seed, panel_size).items():
        add(f"invariants: {name}", doc["passed"], f"max {doc['violation']:.2e}")
    ranks = (li.rank_at_degree(2, False, seed), li.rank_at_degree(3, False, seed),
             li.rank_at_degree(4, True, seed))
    add("invariants: ranks at degree 2/3/4", ranks == (3, 4, 14),
        f"{ranks} (trace-word span at degree 4 misses one direction)")
    comp = li.degree4_completion_rank(seed)
    add("invariants: degree-4 span + correlation quartic", comp == 15, f"rank {comp}")
    rank15 = li.jacobian_rank(li.listed_invariants_through_degree4(),
                              np.random.default_rng(seed).uniform(-0.3, 0.3, 35))
    add("invariants: Jacobian rank of the 15 listed", rank15 == 15, f"{rank15}")
    cap = li.independence_evidence(4, seed)
    add("invariants: independence evidence <= 24", cap <= 24, f"rank {cap}")

    dev = li.invariance_test(li.listed_invariants_through_degree4(), 25, seed)
    add("invariants: local-unitary invariance", dev < 1e-9, f"max {dev:.2e}")
    dev = li.invariance_test([f"C{k}" for k in range(2, 7)], 25, seed)
    add("casimir: global-unitary invariance", dev < 1e-9, f"max {dev:.2e}")
    dev = li.invariance_test("aa", 25, seed, unitary="global")
    add("invariants: negative control changes under global action",
        dev > 1e-6, f"max {dev:.2e}")

    ws22 = molien.adjoint_weight_system("su2xsu2")
    s22 = molien.molien_series(ws22, 20)
    add("molien: 2x2 series == rational form through 20",
        s22 == molien.TWO_QUBIT_RATIONAL.series(20), str(s22[:8]) + "...")
    ws23 = molien.adjoint_weight_system("su2xsu3")
    s23 = molien.molien_series(ws23, 16)
    reference = [1, 0, 3, 4, 15, 25, 90, 170, 489, 1059, 2600, 5641, 12872,
                 27099, 57990, 118254, 240187]
    add("molien: 2x3 series coefficients 0..16", s23 == reference,
        str(s23[-1]))
    add("molien: 2x3 series == rational form through 16",
        s23 == molien.qubit_qutrit_rational().series(16), "exact")
    add("molien: reduced backend agrees (2x3, degree 8)",
        molien.molien_series(ws23, 8, backend="reduced") == reference[:9], "exact")
    # Stanley: H(1/q) = (-1)^r q^(dim V) H(q), r the number of denominator factors
    forms = (molien.TWO_QUBIT_RATIONAL, molien.qubit_qutrit_rational())
    expected = [((-1) ** sum(m for _, m in f.denominator), len(ws.weights))
                for f, ws in zip(forms, (ws22, ws23))]
    add("molien: palindromy of both rational forms",
        all(molien.palindromy_check(f.numerator, f.denominator, *e)
            for f, e in zip(forms, expected)),
        "signs " + " and ".join(f"({'+' if sign > 0 else '-'},{dim})"
                                for sign, dim in expected))
    return rows


def _cmd_selftest(args, out) -> int:
    rows = _selftest_rows(args.seed, args.panel_size)
    failures = sum(not passed for _, passed, _ in rows)
    if args.format == "json":
        print(_dump([{"name": name, "passed": passed, "detail": detail}
                     for name, passed, detail in rows], "json"), file=out)
    else:
        print(f"selftest  seed={args.seed}  panel-size={args.panel_size}", file=out)
        width = max(len(name) for name, _, _ in rows)
        for name, passed, detail in rows:
            print(f"{'pass' if passed else 'FAIL'}  {name:<{width}}  {detail}", file=out)
        print(f"{len(rows) - failures}/{len(rows)} checks passed", file=out)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# -- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qqinv",
        description="Local unitary invariants, Casimir positivity and Molien "
                    "series for qubit-qutrit states.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default=None,
                        help="output format (default json; molien defaults to "
                             "plain 'd c_d' lines, selftest to table)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", parents=[common],
                       help="dump a basis with its d/f tensors")
    p.add_argument("--algebra", choices=("su2", "su3", "su6"), default="su6")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("positivity", parents=[common],
                       help="positivity report for a state file")
    p.add_argument("statefile")
    p.add_argument("--oracle", action="store_true",
                   help="append the eigenvalues of the state")
    p.set_defaults(func=_cmd_positivity)

    p = sub.add_parser("invariants", parents=[common],
                       help="evaluate canonical trace words on a state file")
    p.add_argument("statefile")
    p.add_argument("--max-degree", type=int, default=4, metavar="D")
    p.add_argument("--checks", action="store_true",
                   help="append the identity-check reports")
    p.add_argument("--seed", type=int, default=_args.DEFAULT_PANEL_SEED)
    p.add_argument("--panel-size", type=int, default=50)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("molien", parents=[common],
                       help="series of invariant counts, one 'd c_d' per line")
    p.add_argument("--group", choices=("2x2", "2x3"), required=True)
    p.add_argument("--degree", type=int, required=True, metavar="N")
    p.add_argument("--backend", choices=("weyl", "reduced"), default="weyl",
                   help="constant-term kernel: weyl, the product over all roots "
                        "of (1 - x^r) divided by |W|; reduced, the product over "
                        "the positive roots of (1 - x^-r)")
    p.add_argument("--compare-rational", action="store_true",
                   help="exit nonzero unless the series matches the rational form")
    p.add_argument("--cap", type=int, default=_args.DEFAULT_DEGREE_CAP,
                   help="resource cap on the degree (default %(default)s)")
    p.set_defaults(func=_cmd_molien)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the full check battery")
    p.add_argument("--seed", type=int, default=_args.DEFAULT_PANEL_SEED)
    p.add_argument("--panel-size", type=int, default=60, metavar="M")
    p.set_defaults(func=_cmd_selftest)
    return parser


def _integer_options(command: str) -> list[tuple[str, int, int | None]]:
    """(option, lo, hi) of each integer option the command checks before it
    runs, hi None for no upper bound."""
    panel = [("--panel-size", 1, None), ("--seed", 0, None)]
    if command == "molien":
        return [("--degree", 0, None), ("--cap", 0, None)]
    if command == "invariants":
        return [("--max-degree", 1, _args.MAX_WORD_DEGREE)] + panel
    return panel if command == "selftest" else []


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.format is None:
        args.format = "table" if args.command in ("molien", "selftest") else "json"
    try:
        for option, lo, hi in _integer_options(args.command):
            _args.integer(getattr(args, option[2:].replace("-", "_")), option, lo, hi)
    except ValueError as exc:
        print(f"qqinv: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return args.func(args, out)
    except InputError as exc:
        print(f"qqinv: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(run())
