"""The package's public namespace, the modules each entry point loads, and
the one home of the argument contract."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import qqinv
from qqinv.states import QubitQutritState, save_state

SRC = str(Path(qqinv.__file__).parents[1])


def loaded_modules(code: str) -> list[list[str]]:
    """Run code in a fresh interpreter; each call of the show() it is given
    records the qqinv modules in sys.modules at that point."""
    prelude = ("import json, sys\n"
               "def show():\n"
               "    print(json.dumps(sorted(m for m in sys.modules"
               " if m == 'qqinv' or m.startswith('qqinv.'))))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC] + sys.path))
    proc = subprocess.run([sys.executable, "-c", prelude + code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("[")]


def cli_modules(*argv: str) -> set[str]:
    """The qqinv modules that `python -m qqinv ARGV` has loaded at its exit."""
    (names,) = loaded_modules(
        "import contextlib, io, runpy\n"
        f"sys.argv = ['qqinv', *{list(argv)!r}]\n"
        "try:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        runpy.run_module('qqinv', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass\n"
        "show()\n")
    return set(names)


def test_all_names_resolve_and_are_listed_once():
    assert len(qqinv.__all__) == len(set(qqinv.__all__))
    missing = [name for name in qqinv.__all__ if not hasattr(qqinv, name)]
    assert missing == []


def test_dir_lists_every_exported_name():
    assert set(qqinv.__all__) <= set(dir(qqinv))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from qqinv import *", namespace)
    assert [name for name in qqinv.__all__
            if namespace.get(name) is not getattr(qqinv, name)] == []


def test_importing_the_package_loads_no_submodule():
    assert loaded_modules("import qqinv\nshow()\n"
                          "from qqinv import molien_series\nshow()\n") == [
        ["qqinv"], ["qqinv", "qqinv._args", "qqinv.molien"]]


def test_molien_command_loads_only_the_molien_module():
    assert cli_modules("molien", "--group", "2x3", "--degree", "4") == {
        "qqinv", "qqinv._args", "qqinv.cli", "qqinv.molien"}


def test_positivity_command_does_not_load_the_trace_words(tmp_path):
    path = tmp_path / "state.json"
    save_state(QubitQutritState.zero(), str(path))
    assert cli_modules("positivity", str(path)) == {
        "qqinv", "qqinv._args", "qqinv.cli", "qqinv.states",
        "qqinv.casimir_positivity", "qqinv.su_algebra"}


def test_only_the_argument_module_reads_integers():
    # the integer rule lives in qqinv._args; a second copy of it would drift
    offenders = []
    for path in sorted(Path(qqinv.__file__).parent.glob("*.py")):
        if path.name == "_args.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and any(
                    isinstance(n, ast.Constant) and "must be an integer" in str(n.value)
                    for n in ast.walk(node)):
                offenders.append(f"{path.name}:{node.lineno} raises the message")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and any(isinstance(n, ast.Name) and n.id == "bool"
                            for n in ast.walk(node.args[1]))):
                offenders.append(f"{path.name}:{node.lineno} tests for bool")
    assert offenders == []
