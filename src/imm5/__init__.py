"""Regular-homotopy classification of immersions of closed oriented
3-manifolds in 5-space.

A 3-manifold enters as a framed-link surgery presentation (its linking
matrix).  The package computes the complete classifying pair: the Wu
class in Gamma2(M), the 2-torsion subgroup of H^2(M; Z), and the
integer invariant i read off singular Seifert data.  On top of that sit
the connected-sum action of sphere immersions, the signature calculus
deciding which classes contain embeddings, and validators with
independent brute-force oracles for every identity the arithmetic
relies on.

``import imm5`` loads no submodule.  Each public name is looked up in
``_EXPORTS`` on first use (PEP 562 ``__getattr__``), which imports the
submodule that defines it; ``from imm5 import *`` loads them all.  So a
program, the ``imm5`` command among them, pays only for the modules it
calls: ``analyze`` and ``embeddings`` load ``cli``, ``errors``,
``fixtures``, ``intlinalg``, ``surgery`` and ``embeddings``, and no
command loads ``spin``.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it; __all__, __getattr__ and
# __dir__ read this one table
_EXPORTS = {name: module for module, names in {
    "embeddings": (
        "EmbeddingClassSet", "SpinBoundarySignatures", "embedding_classes",
        "is_embedding_class", "rohlin_compatible", "seifert_signature_criterion",
    ),
    "errors": (
        "AsymmetricMatrix", "CosetUncovered", "HypothesisViolated", "Imm5Error",
        "InvalidSpinStructure", "MissingData", "NoSolution", "ParityError",
        "ParityViolation", "ParseError", "WuMismatch",
    ),
    "intlinalg": (
        "IntSymMatrix", "Mod2Solution", "SmithDecomposition", "congruence",
        "det_int", "signature", "smith_normal_form", "solve_mod2",
    ),
    "invariants": (
        "ImmersionDoubleData", "RegHomotopyClass", "SeifertFillingR5",
        "SeifertFillingR6", "SmaleClass", "connected_sum_act", "i_a", "i_b",
        "smale_via_seifert_r5", "smale_via_seifert_r6", "solve_for_summand",
        "track_correction",
    ),
    "spin": (
        "SpinStructure", "WuCoset", "spin_structures", "wu_coset_of_difference",
    ),
    "surgery": (
        "Gamma2Element", "HomologyProfile", "SurgeryPresentation",
        "gamma2_elements", "homology_profile",
    ),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """The public name from its submodule, imported on first use and then
    bound here, so later reads are plain attribute reads."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
