"""Local unitary invariants, Casimir positivity tests and Molien series for
qubit-qutrit mixed states.

The public names below are resolved on first use (PEP 562), so importing
the package loads no submodule and each name loads only its own module.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "su_algebra": ("SuBasis", "StructureConstants", "build_basis",
                   "structure_constants", "symmetrized_trace",
                   "verify_structure_identities"),
    "states": ("QubitQutritState", "from_matrix", "to_matrix",
               "random_density", "random_global_unitary",
               "random_local_unitary", "random_nonpsd_unit_trace",
               "reduced_qubit", "reduced_qutrit"),
    "casimir_positivity": ("CasimirValues", "PositivityReport",
                           "casimirs_from_traces", "casimirs_from_vee",
                           "char_poly_coeffs", "positivity_report", "vee"),
    "molien": ("WeightSystem", "adjoint_weight_system", "molien_series",
               "palindromy_check", "rational_series"),
    "local_invariants": ("TraceWord", "enumerate_words", "eval_trace",
                         "independence_evidence", "invariance_test",
                         "kernel_at_degree", "rank_at_degree", "trace_word"),
}

#: exported name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
