"""Local unitary invariants, Casimir positivity tests and Molien series for
qubit-qutrit mixed states."""

from .su_algebra import (SuBasis, StructureConstants, build_basis,
                         structure_constants, symmetrized_trace,
                         verify_structure_identities)
from .states import (QubitQutritState, from_matrix, to_matrix,
                     random_density, random_global_unitary,
                     random_local_unitary, random_nonpsd_unit_trace,
                     reduced_qubit, reduced_qutrit)
from .casimir_positivity import (CasimirValues, PositivityReport,
                                 casimirs_from_traces, casimirs_from_vee,
                                 char_poly_coeffs, positivity_report, vee)
from .molien import (WeightSystem, adjoint_weight_system, molien_series,
                     palindromy_check, rational_series)
from .local_invariants import (TraceWord, enumerate_words, eval_trace,
                               independence_evidence, invariance_test,
                               kernel_at_degree, rank_at_degree, trace_word)

__version__ = "0.1.0"

__all__ = [
    "SuBasis", "StructureConstants", "build_basis", "structure_constants",
    "symmetrized_trace", "verify_structure_identities",
    "QubitQutritState", "from_matrix", "to_matrix",
    "random_density", "random_global_unitary", "random_local_unitary",
    "random_nonpsd_unit_trace", "reduced_qubit", "reduced_qutrit",
    "CasimirValues", "PositivityReport", "casimirs_from_traces",
    "casimirs_from_vee", "char_poly_coeffs", "positivity_report", "vee",
    "WeightSystem", "adjoint_weight_system",
    "molien_series", "palindromy_check", "rational_series",
    "TraceWord", "enumerate_words", "eval_trace", "independence_evidence",
    "invariance_test", "kernel_at_degree", "rank_at_degree", "trace_word",
]
