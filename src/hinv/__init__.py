"""Exact certification and construction of minimax-optimal fixed-step methods
for nonexpansive fixed-point problems.

A fixed-step method is a lower-triangular matrix of rational coefficients
(:class:`HMatrix`).  The package decides, in exact rational arithmetic,
whether the method attains the optimal terminal rate 4R^2/N^2, produces an
explicit counterexample witness when it does not, generates every known
optimal family from certificate-sparsity patterns, and simulates methods
against operator oracles in floats.
"""

from types import ModuleType as _ModuleType

from .algebra import (
    DegenerateProfileError,
    HMatrix,
    QProfile,
    d_value,
    h_dual,
    h_from_q_profile,
    p_invariant,
    q_partial,
    q_profile,
)
from .certify import (
    STATUS_CERTIFICATE_VIOLATED,
    STATUS_INVARIANCE_VIOLATED,
    STATUS_OPTIMAL,
    CertificateSet,
    InternalConsistencyError,
    InvarianceError,
    InvarianceReport,
    Verdict,
    certificates,
    certify,
    invariance_report,
)

__version__ = "1.0.0"

# The public names are the ones imported above and the keys of _LAZY below;
# __all__ is read off both, so each name is written once.  Every _LAZY name
# resolves on first use (PEP 562) from the module that owns it: a bare
# ``import hinv`` loads algebra, combinatorics and certify only, the catalog,
# witness and oracle modules load with their first name, and numpy only with a
# hinv.simulate name.  The keys catalog, worstcase and exactlinalg resolve to
# the modules themselves and, like the submodules the imports above bind, are
# not in __all__.
_LAZY = {
    **dict.fromkeys(("BOTTOM", "TOP", "DegeneratePatternError", "SparsityChoice", "anytime_extend",
                     "dual_ohm", "h_from_sparsity", "is_ohm_tail", "ohm", "q_from_sparsity",
                     "second_mixed", "self_dual_mixed", "strange3", "catalog"), "catalog"),
    **dict.fromkeys(("GramWitness", "TraceLedger", "WorstCaseOperator", "build_perturbation", "gram_g0",
                     "interpolation_traces", "suboptimality_witness", "terminal_gy", "witness_vectors",
                     "worst_case_residual_sq", "worst_operator", "worstcase"), "worstcase"),
    **dict.fromkeys(("adjugate_spotcheck", "necessity_triangular_solve", "s_coefficients",
                     "solve_lambda_by_elimination"), "oracles"),
    **dict.fromkeys(("OperatorOracle", "Trajectory", "anytime_check", "linear_oracle",
                     "rotation_oracle", "run", "worst_case_oracle", "worst_case_start"),
                    "simulate"),
    "exactlinalg": "exactlinalg",
}
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)]
                 + [name for name, module in _LAZY.items() if name != module])
del _ModuleType


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
