"""The invariant formulas and the connected-sum action."""

import random

import pytest

from imm5.errors import ParityError, WuMismatch
from imm5.fixtures import presentation
from imm5.invariants import (
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
from imm5.surgery import Gamma2Element, HomologyProfile, homology_profile
from imm5.verify import random_consistent_seifert_data

SPHERE = HomologyProfile(0, ())


class TestSmaleFormulas:
    def test_standard_embedding(self):
        assert smale_via_seifert_r5(SeifertFillingR5(0, 0)).omega == 0

    def test_first_nonstandard_embedding(self):
        assert smale_via_seifert_r5(SeifertFillingR5(16, 0)).omega == 24

    def test_cusps_only(self):
        assert smale_via_seifert_r5(SeifertFillingR5(0, 24)).omega == 12

    def test_parity_error(self):
        with pytest.raises(ParityError):
            smale_via_seifert_r5(SeifertFillingR5(1, 0))

    def test_triple_point_route(self):
        nodata = ImmersionDoubleData(0)
        assert smale_via_seifert_r6(SeifertFillingR6(0, 0, 0), nodata).omega == 0
        assert smale_via_seifert_r6(SeifertFillingR6(16, 0, 0), nodata).omega == 24
        assert smale_via_seifert_r6(
            SeifertFillingR6(0, 1, 0), ImmersionDoubleData(1)).omega == 2

    def test_triple_point_route_parity_error(self):
        with pytest.raises(ParityError):
            smale_via_seifert_r6(SeifertFillingR6(0, 1, 0), ImmersionDoubleData(0))

    def test_routes_agree_when_cusps_match(self):
        # #cusps = 3t - 3l + L ties the two formulas together; the cusp
        # relation is independent of sigma, so force the even sigma the
        # sphere formulas need
        rng = random.Random(21)
        for _ in range(200):
            r5, r6, d, _ = random_consistent_seifert_data(rng)
            sigma = 2 * (r5.sigma // 2)
            r5e = SeifertFillingR5(sigma, r5.cusps_algebraic)
            r6e = SeifertFillingR6(sigma, r6.triple_points, r6.singular_linking)
            assert (smale_via_seifert_r5(r5e).omega
                    == smale_via_seifert_r6(r6e, d).omega)

    def test_embedding_image_is_24z(self):
        for sigma in range(-64, 65):
            filling = SeifertFillingR5(sigma, 0)
            if (3 * sigma) % 2:
                with pytest.raises(ParityError):
                    smale_via_seifert_r5(filling)
                continue
            omega = smale_via_seifert_r5(filling).omega
            assert (omega % 24 == 0) == (sigma % 16 == 0)


class TestIntegerInvariant:
    def test_zero_data(self):
        assert i_a(SeifertFillingR5(0, 0), SPHERE) == 0

    def test_torus_signature_eight_filling(self):
        h = homology_profile(presentation("t3"))
        assert i_a(SeifertFillingR5(8, 0), h) == 12

    def test_alpha_one(self):
        h = homology_profile(presentation("rp3"))
        assert h.alpha == 1
        assert i_a(SeifertFillingR5(1, 0), h) == 0

    def test_parity_error_signals_corrupt_data(self):
        with pytest.raises(ParityError):
            i_a(SeifertFillingR5(1, 0), SPHERE)

    def test_ib_values(self):
        nodata = ImmersionDoubleData(0)
        assert i_b(SeifertFillingR6(0, 0, 0), nodata, SPHERE) == 0
        assert i_b(SeifertFillingR6(8, 0, 0), nodata, SPHERE) == 12
        assert i_b(SeifertFillingR6(0, 1, 1), nodata, SPHERE) == 0

    def test_coincidence_on_consistent_tuples(self):
        rng = random.Random(2024)
        for _ in range(300):
            r5, r6, d, h = random_consistent_seifert_data(rng)
            assert i_a(r5, h) == i_b(r6, d, h)

    def test_integrality_matches_signature_parity(self):
        # with no singular data, i_a is defined exactly when sigma = alpha mod 2
        for sigma in range(-6, 7):
            for alpha in range(4):
                h = HomologyProfile(0, (2,) * alpha)
                filling = SeifertFillingR5(sigma, 0)
                if (sigma - alpha) % 2:
                    with pytest.raises(ParityError):
                        i_a(filling, h)
                else:
                    assert 2 * i_a(filling, h) == 3 * (sigma - alpha)

    def test_per_component_sum_validated(self):
        with pytest.raises(ValueError):
            SeifertFillingR5(0, 2, (1, 2))


class TestConnectedSumAction:
    wu0 = Gamma2Element(())
    wu1 = Gamma2Element((1,))

    def test_shifts_i_only(self):
        start = RegHomotopyClass(self.wu0, 0)
        assert connected_sum_act(start, SmaleClass(24)).i == 24
        assert connected_sum_act(start, SmaleClass(24)).wu == self.wu0

    def test_identity_and_inverse(self):
        cls = RegHomotopyClass(self.wu1, 5)
        assert connected_sum_act(cls, SmaleClass(0)) == cls
        assert connected_sum_act(cls, SmaleClass(-5)).i == 0

    def test_action_is_free_and_transitive_on_fibre(self):
        rng = random.Random(3)
        for _ in range(50):
            i0, g1, g2 = (rng.randint(-50, 50) for _ in range(3))
            f = RegHomotopyClass(self.wu0, i0)
            once = connected_sum_act(connected_sum_act(f, SmaleClass(g1)),
                                     SmaleClass(g2))
            assert once == connected_sum_act(f, SmaleClass(g1 + g2))
            target = RegHomotopyClass(self.wu0, rng.randint(-50, 50))
            g = solve_for_summand(f, target)
            assert connected_sum_act(f, g) == target

    def test_solving_across_components_fails(self):
        h = HomologyProfile(0, (2,))
        zero, one = Gamma2Element((0,)), Gamma2Element((1,))
        with pytest.raises(WuMismatch):
            solve_for_summand(RegHomotopyClass(zero, 0),
                              RegHomotopyClass(one, 0))
        assert h.gamma2_order == 2

    def test_torus_summand_value(self):
        f0 = RegHomotopyClass(self.wu0, 0)
        f8 = RegHomotopyClass(self.wu0, 12)
        assert solve_for_summand(f0, f8).omega == 12
        assert solve_for_summand(f0, f0).omega == 0


class TestTrackCorrection:
    def test_examples(self):
        assert track_correction(0, 0, 0)
        assert track_correction(3, 0, 1)
        assert not track_correction(1, 0, 1)

    def test_random_consistency(self):
        rng = random.Random(6)
        for _ in range(50):
            l_after = rng.randint(-10, 10)
            t = rng.randint(-5, 5)
            assert track_correction(l_after + 3 * t, l_after, t)
