"""Signature coset calculus: which classes contain embeddings.

For each Wu class the realisable Seifert-surface signatures of
embeddings are supplied as data (the base signatures); the embedding
classes inside that Wu component are then the arithmetic progressions
i = 3*(s0 - alpha)/2 + 24Z.  Rohlin's theorem makes the offsets well
defined mod 24: shifting a base signature by 16 shifts i by 24.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import _QUOTE, CosetUncovered, HypothesisViolated, ParityViolation, _Value
from .surgery import Gamma2Element, HomologyProfile, gamma2_elements

if TYPE_CHECKING:  # an annotation only, so analyze and embeddings skip invariants
    from .invariants import RegHomotopyClass


class SpinBoundarySignatures(_Value):
    """Base signatures of spin fillings, keyed by Wu coset.

    A coset may carry several base signatures when distinct spin
    structures land in the same Wu class (the 3-torus carries {0, 8}
    on its single coset).
    """

    per_coset: Mapping[Gamma2Element, frozenset[int]]

    def __init__(self, per_coset) -> None:
        self._set(per_coset)

    @classmethod
    def from_dict(
        cls, data: Mapping[Gamma2Element, Iterable[int]]
    ) -> "SpinBoundarySignatures":
        return cls({c: frozenset(int(s) for s in sigs) for c, sigs in data.items()})


class EmbeddingClassSet(_Value):
    """Embedding offsets mod 24, per Wu coset.

    A class (wu, i) contains an embedding iff i mod 24 lies in the
    offset set of its coset.
    """

    offsets_mod_24: Mapping[Gamma2Element, frozenset[int]]

    def __init__(self, offsets_mod_24) -> None:
        self._set(offsets_mod_24)


def embedding_classes(h: HomologyProfile,
                      sig: SpinBoundarySignatures) -> EmbeddingClassSet:
    """Embedding offsets {3*(s0 - alpha)/2 mod 24} for every Wu coset.

    Every coset must carry at least one base signature (each Wu class
    does contain embeddings, so an empty entry is a data error), and
    every base signature must have the parity of alpha.
    """
    alpha, per_coset = h.alpha, sig.per_coset
    offsets: dict[Gamma2Element, frozenset[int]] = {}
    for coset in gamma2_elements(h):
        sigs = per_coset.get(coset)
        if not sigs:
            raise CosetUncovered(
                f"no base signature supplied for Wu coset {coset}"
            )
        here = set()
        for s0 in sigs:
            if (s0 - alpha) % 2:
                raise ParityViolation(
                    f"base signature {_QUOTE.repr(s0)} has the wrong parity "
                    f"(alpha = {alpha})"
                )
            here.add((3 * (s0 - alpha) // 2) % 24)
        offsets[coset] = frozenset(here)
    return EmbeddingClassSet(offsets)


def is_embedding_class(c: RegHomotopyClass, e: EmbeddingClassSet) -> bool:
    """Whether the class (wu, i) contains an embedding."""
    offsets = e.offsets_mod_24.get(c.wu)
    if offsets is None:
        raise CosetUncovered(f"no embedding data for Wu coset {c.wu}")
    return c.i % 24 in offsets


def seifert_signature_criterion(s1: int, s2: int, h: HomologyProfile) -> bool:
    """Regular homotopy test for embeddings when H^2 has no 2-torsion.

    With alpha = 0 the Wu class of every embedding is forced to zero
    and i = 3*(sigma - alpha)/2 is injective in the Seifert signature,
    so two embeddings are regularly homotopic iff their Seifert
    surfaces have equal signature.
    """
    if h.alpha != 0:
        raise HypothesisViolated(
            "the equal-signature criterion needs alpha = 0 "
            f"(got alpha = {h.alpha})"
        )
    return s1 == s2


def rohlin_compatible(s1: int, s2: int) -> bool:
    """Whether two signatures can come from spin fillings inducing the
    same spin structure: s1 = s2 mod 16."""
    return (s1 - s2) % 16 == 0
