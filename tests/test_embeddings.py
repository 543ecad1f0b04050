"""Signature coset calculus for embedding classes."""

import pytest

from imm5.embeddings import (
    SpinBoundarySignatures,
    embedding_classes,
    is_embedding_class,
    rohlin_compatible,
    seifert_signature_criterion,
)
from imm5.errors import CosetUncovered, HypothesisViolated, ParityViolation
from imm5.fixtures import presentation
from imm5.intlinalg import IntSymMatrix, signature
from imm5.invariants import RegHomotopyClass
from imm5.surgery import Gamma2Element, HomologyProfile, homology_profile

WU0 = Gamma2Element(())
SPHERE = HomologyProfile(0, ())


def direct_sum(a, b):
    """Block-diagonal sum of two symmetric integer matrices."""
    return IntSymMatrix([list(r) + [0] * b.n for r in a.entries]
                        + [[0] * a.n + list(r) for r in b.entries])


def sphere_set():
    return embedding_classes(
        SPHERE, SpinBoundarySignatures.from_dict({WU0: [0]}))


def torus_set():
    h = homology_profile(presentation("t3"))
    return embedding_classes(
        h, SpinBoundarySignatures.from_dict({WU0: [0, 8]}))


class TestEmbeddingClasses:
    def test_sphere_is_24z(self):
        assert sphere_set().offsets_mod_24[WU0] == frozenset({0})

    def test_torus_is_12z(self):
        assert torus_set().offsets_mod_24[WU0] == frozenset({0, 12})

    def test_single_progression(self):
        classes = embedding_classes(
            SPHERE, SpinBoundarySignatures.from_dict({WU0: [0]}))
        assert classes.offsets_mod_24 == {WU0: frozenset({0})}

    def test_base_signatures_reduce_mod_16(self):
        # shifting a base signature by 16 shifts i by 24: same offsets
        a = embedding_classes(
            SPHERE, SpinBoundarySignatures.from_dict({WU0: [0, 16, -16, 32]}))
        assert a.offsets_mod_24[WU0] == frozenset({0})

    def test_uncovered_coset(self):
        h = homology_profile(presentation("rp3"))
        partial = SpinBoundarySignatures.from_dict({Gamma2Element((0,)): [1]})
        with pytest.raises(CosetUncovered):
            embedding_classes(h, partial)

    def test_parity_violation(self):
        with pytest.raises(ParityViolation):
            embedding_classes(
                SPHERE, SpinBoundarySignatures.from_dict({WU0: [1]}))

    def test_alpha_one_offsets(self):
        h = homology_profile(presentation("rp3"))
        sig = SpinBoundarySignatures.from_dict(
            {Gamma2Element((0,)): [1], Gamma2Element((1,)): [3]})
        classes = embedding_classes(h, sig)
        assert classes.offsets_mod_24[Gamma2Element((0,))] == frozenset({0})
        assert classes.offsets_mod_24[Gamma2Element((1,))] == frozenset({3})


class TestMembership:
    def test_torus_twelve_is_embedding(self):
        assert is_embedding_class(RegHomotopyClass(WU0, 12), torus_set())

    def test_twelve_fails_against_sphere_set(self):
        assert not is_embedding_class(RegHomotopyClass(WU0, 12), sphere_set())

    def test_standard_class(self):
        assert is_embedding_class(RegHomotopyClass(WU0, 0), torus_set())
        assert is_embedding_class(RegHomotopyClass(WU0, 0), sphere_set())

    def test_uncovered_coset_membership(self):
        with pytest.raises(CosetUncovered):
            is_embedding_class(
                RegHomotopyClass(Gamma2Element((1,)), 0), sphere_set())

    def test_closed_under_sphere_embedding_sums(self):
        classes = torus_set()
        for i in range(-48, 49):
            member = is_embedding_class(RegHomotopyClass(WU0, i), classes)
            for k in (-2, -1, 1, 2):
                shifted = RegHomotopyClass(WU0, i + 24 * k)
                assert is_embedding_class(shifted, classes) == member

    def test_torus_non_multiples_of_12_flagged(self):
        classes = torus_set()
        for i in range(-60, 61):
            assert is_embedding_class(RegHomotopyClass(WU0, i), classes) \
                == (i % 12 == 0)


class TestSignatureCriteria:
    def test_equal_signature_criterion(self):
        assert seifert_signature_criterion(0, 0, SPHERE)
        assert seifert_signature_criterion(-16, -16, SPHERE)

    def test_torus_zero_vs_eight(self):
        h = homology_profile(presentation("t3"))
        assert not seifert_signature_criterion(0, 8, h)

    def test_hypothesis_guard(self):
        h = homology_profile(presentation("rp3"))
        with pytest.raises(HypothesisViolated):
            seifert_signature_criterion(0, 0, h)

    def test_rohlin_compatibility(self):
        assert rohlin_compatible(0, 16)
        assert not rohlin_compatible(0, 8)
        assert rohlin_compatible(8, 24)
        assert rohlin_compatible(-16, 16)

    def test_glued_signature_is_difference(self):
        # Novikov additivity at the matrix level: glueing V to -W adds
        # signatures, so the stored bookkeeping uses sigma(V) - sigma(W)
        v = IntSymMatrix([[2, 1], [1, 2]])
        w = IntSymMatrix([[4]])
        negated = IntSymMatrix([[-x for x in row] for row in w.entries])
        assert signature(direct_sum(v, negated)) == signature(v) - signature(w)


class TestTorusReproduction:
    def test_summand_arithmetic(self):
        # i(E # h) = 12(k+1) always lands back in the torus embedding set
        classes = torus_set()
        f0_i, f8_i = 0, 12
        for k in range(-10, 11):
            i_total = 12 * (k + 1)
            assert is_embedding_class(RegHomotopyClass(WU0, i_total), classes)
            if k % 2 == 0:
                assert f8_i + 24 * (k // 2) == i_total
            else:
                assert f0_i + 24 * ((k + 1) // 2) == i_total
