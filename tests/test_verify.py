"""Validators, oracle sweeps and built-in reproductions."""

import random

import pytest

from imm5.errors import HypothesisViolated, MissingData
from imm5.invariants import (
    ClosedMapRecordR5,
    ClosedMapRecordR6,
    ImmersionDoubleData,
    PartitionRecord,
    SeifertFillingR5,
    check_closed_r5,
    check_closed_r6,
    check_cusp_residue,
    check_partition_divisibility,
    check_spin_even_components,
)
from imm5.verify import (
    hughes_melvin_sweep,
    invariant_factors_via_minors,
    oracle_gluing,
    oracle_invariant_coincidence,
    oracle_parity_lemma,
    oracle_signature,
    oracle_snf,
    random_consistent_seifert_data,
    random_r5_pair,
    random_r6_pair,
    signature_via_charpoly,
    torus_absorption_sweep,
    torus_summand_obstruction,
)


class TestClosedIdentities:
    def test_closed_r5(self):
        assert check_closed_r5(ClosedMapRecordR5(0, 0))
        assert check_closed_r5(ClosedMapRecordR5(-1, 3))
        assert not check_closed_r5(ClosedMapRecordR5(1, 0))

    def test_closed_r6(self):
        assert check_closed_r6(ClosedMapRecordR6(0, 0, 0))
        assert check_closed_r6(ClosedMapRecordR6(1, 1, 2))
        assert not check_closed_r6(ClosedMapRecordR6(1, 0, 0))

    def test_cusp_residue(self):
        assert check_cusp_residue(SeifertFillingR5(0, 0), ImmersionDoubleData(0))
        assert check_cusp_residue(SeifertFillingR5(0, 24), ImmersionDoubleData(12))
        assert not check_cusp_residue(SeifertFillingR5(0, 1), ImmersionDoubleData(0))

    def test_spin_even_components(self):
        assert check_spin_even_components(
            ClosedMapRecordR5(2, -2, (0, 2, -4), is_spin=True))
        assert not check_spin_even_components(
            ClosedMapRecordR5(0, 2, (1, 1), is_spin=True))
        assert check_spin_even_components(
            ClosedMapRecordR5(0, 0, (), is_spin=True))

    def test_spin_even_components_guards(self):
        with pytest.raises(MissingData):
            check_spin_even_components(ClosedMapRecordR5(0, 0, None, is_spin=True))
        with pytest.raises(HypothesisViolated):
            check_spin_even_components(ClosedMapRecordR5(0, 0, (0,), is_spin=False))

    def test_partition_divisibility(self):
        assert check_partition_divisibility(PartitionRecord((6, -6)))
        assert check_partition_divisibility(PartitionRecord((0, 0)))
        assert not check_partition_divisibility(PartitionRecord((3, -3)))


class TestIndependentOracles:
    def test_minor_gcd_examples(self):
        assert invariant_factors_via_minors([[2]]) == (2,)
        assert invariant_factors_via_minors([[4, 0], [0, 6]]) == (2, 12)
        assert invariant_factors_via_minors([[0, 2], [2, 0]]) == (2, 2)
        assert invariant_factors_via_minors([]) == ()
        assert invariant_factors_via_minors([[0, 0], [0, 0]]) == (0, 0)

    def test_charpoly_signature_examples(self):
        assert signature_via_charpoly([[1, 0], [0, -1]]) == 0
        assert signature_via_charpoly([[2, 1], [1, 2]]) == 2
        assert signature_via_charpoly([[0, 1], [1, 0]]) == 0
        assert signature_via_charpoly([]) == 0


class TestOracleSweeps:
    def test_parity_lemma_sweep(self):
        report = oracle_parity_lemma(trials=120, max_dim=6, seed=1)
        assert report.passed and report.trials == 120

    def test_snf_sweep(self):
        assert oracle_snf(trials=120, max_dim=5, seed=2).passed

    def test_signature_sweep(self):
        assert oracle_signature(trials=120, max_dim=5, seed=3).passed

    def test_coincidence_sweep(self):
        assert oracle_invariant_coincidence(trials=250, seed=4).passed

    def test_gluing_sweep(self):
        assert oracle_gluing(trials=120, seed=5).passed

    def test_sweeps_are_deterministic(self):
        assert oracle_snf(trials=40, seed=9) == oracle_snf(trials=40, seed=9)

    def test_pair_generators_share_the_immersion(self):
        rng = random.Random(14)
        for _ in range(60):
            a, b = random_r5_pair(rng)
            assert 3 * a.sigma + a.cusps_algebraic == 3 * b.sigma + b.cusps_algebraic
            c, d = random_r6_pair(rng)
            assert (c.sigma + c.triple_points - c.singular_linking
                    == d.sigma + d.triple_points - d.singular_linking)

    def test_residue_follows_from_coincidence(self):
        rng = random.Random(15)
        for _ in range(200):
            r5, _, d, _ = random_consistent_seifert_data(rng)
            assert check_cusp_residue(r5, d)


class TestReproductions:
    def test_hughes_melvin(self):
        report = hughes_melvin_sweep()
        assert report.passed

    def test_summand_obstruction(self):
        report = torus_summand_obstruction()
        assert report.passed
        text = "\n".join(report.lines)
        assert "12 = 3/2·8 = i(F₈)" in text
        assert "≠ 24k" in text

    def test_absorption(self):
        assert torus_absorption_sweep().passed
