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
"""

from .embeddings import (
    EmbeddingClassSet,
    SpinBoundarySignatures,
    embedding_classes,
    is_embedding_class,
    rohlin_compatible,
    seifert_signature_criterion,
)
from .errors import (
    AsymmetricMatrix,
    CosetUncovered,
    HypothesisViolated,
    Imm5Error,
    InvalidSpinStructure,
    MissingData,
    NoSolution,
    ParityError,
    ParityViolation,
    ParseError,
    WuMismatch,
)
from .intlinalg import (
    IntSymMatrix,
    Mod2Solution,
    SmithDecomposition,
    SmithMod2,
    congruence,
    det_int,
    signature,
    smith_mod2,
    smith_normal_form,
    solve_mod2,
)
from .invariants import (
    ImmersionDoubleData,
    RegHomotopyClass,
    SeifertFillingR5,
    SeifertFillingR6,
    SmaleClass,
    connected_sum_act,
    i_a,
    i_b,
    smale_via_seifert_r5,
    smale_via_seifert_r6,
    solve_for_summand,
    track_correction,
)
from .spin import (
    SpinStructure,
    WuCoset,
    spin_structures,
    wu_coset_of_difference,
)
from .surgery import (
    Gamma2Element,
    HomologyProfile,
    SurgeryPresentation,
    gamma2_elements,
    homology_profile,
)

__version__ = "0.1.0"

# every class and function imported above, which is the public surface
__all__ = sorted(name for name, obj in globals().items()
                 if getattr(obj, "__module__", "").startswith("imm5."))
