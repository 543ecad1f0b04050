"""Homology profiles from linking matrices."""

import random
import sys

import pytest

from imm5 import intlinalg
from imm5.cli import parse_manifold
from imm5.fixtures import e8_form, presentation
from imm5.intlinalg import IntSymMatrix, congruence, signature, solve_mod2
from imm5.surgery import (
    Gamma2Element,
    HomologyProfile,
    SurgeryPresentation,
    even_torsion_positions,
    gamma2_elements,
    homology_profile,
)
from imm5.spin import spin_structures, wu_coset_of_difference
from imm5.verify import random_even_symmetric_nonsingular, random_symmetric


def _pres(rows, name="m"):
    return SurgeryPresentation(name, IntSymMatrix(rows))


def direct_sum(a, b):
    """Block-diagonal sum of two symmetric integer matrices."""
    return IntSymMatrix([list(r) + [0] * b.n for r in a.entries]
                        + [[0] * a.n + list(r) for r in b.entries])


def is_even_presentation(p):
    """True iff every framing is even, i.e. the presented 4-manifold is spin."""
    return all(d % 2 == 0 for d in p.q.diagonal())


class TestHomologyProfile:
    @pytest.mark.parametrize(
        "rows,betti1,torsion,alpha",
        [
            ([], 0, (), 0),                                    # empty link
            ([[0]], 1, (), 0),                                 # one 0-framed unknot
            ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 3, (), 0),     # 3-torus
            ([[2]], 0, (2,), 1),
            ([[3]], 0, (3,), 0),
            ([[4]], 0, (4,), 1),
            ([[0, 2], [2, 0]], 0, (2, 2), 2),
            ([[2, 0], [0, 4]], 0, (2, 4), 2),
        ],
    )
    def test_profiles(self, rows, betti1, torsion, alpha):
        h = homology_profile(_pres(rows))
        assert (h.betti1, h.torsion_factors, h.alpha) == (betti1, torsion, alpha)
        assert h.gamma2_order == 2 ** alpha

    def test_torus_has_trivial_gamma2(self):
        h = homology_profile(presentation("t3"))
        assert h.alpha == 0 and h.gamma2_order == 1

    def test_stability_under_blowup_and_congruence(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 5)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    rows[i][j] = rows[j][i] = rng.randint(-5, 5)
            q = IntSymMatrix(rows)
            h = homology_profile(_pres(rows))
            for unit in (1, -1):
                blown = direct_sum(q, IntSymMatrix([[unit]]))
                assert homology_profile(SurgeryPresentation("b", blown)) == h
            g = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for _ in range(2 * n):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    c = rng.randint(-2, 2)
                    for k in range(n):
                        g[i][k] += c * g[j][k]
            moved = congruence(q, [list(col) for col in zip(*g)])
            assert homology_profile(SurgeryPresentation("c", moved)) == h

    def test_parity_of_even_nonsingular_forms(self):
        # size of an even symmetric nonsingular form has the parity of alpha
        rng = random.Random(12345)
        for _ in range(200):
            n = rng.randint(1, 6)
            q = random_even_symmetric_nonsingular(rng, n)
            h = homology_profile(SurgeryPresentation("r", q))
            assert (n - h.alpha) % 2 == 0

    def test_mod2_kernel_dimension_hook(self):
        # dim ker(q mod 2) = betti1 + alpha, the spin-structure exponent
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(0, 6)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    rows[i][j] = rows[j][i] = rng.randint(-5, 5)
            h = homology_profile(_pres(rows))
            sol = solve_mod2(rows, [0] * n)
            assert len(sol.kernel) == h.betti1 + h.alpha


class TestGamma2:
    def test_trivial_group(self):
        h = HomologyProfile(0, ())
        assert gamma2_elements(h) == [Gamma2Element(())]

    def test_order_two(self):
        h = HomologyProfile(0, (2,))
        assert [e.coords for e in gamma2_elements(h)] == [(0,), (1,)]

    def test_rank_two_enumeration_order(self):
        h = HomologyProfile(0, (2, 2))
        assert [str(e) for e in gamma2_elements(h)] == ["00", "01", "10", "11"]

    def test_zero_first_and_group_laws(self):
        h = HomologyProfile(1, (2, 4))
        elements = gamma2_elements(h)
        zero = elements[0]
        assert zero.is_zero
        for e in elements:
            assert e + zero == e
            assert (e + e).is_zero

    def test_adding_another_type_raises_type_error(self):
        """An element plus anything but an element is Python's TypeError,
        from either side."""
        g = Gamma2Element((1, 0))
        for other in (1, (1, 0), None, "10"):
            assert g.__add__(other) is NotImplemented
            with pytest.raises(TypeError, match="unsupported operand type"):
                g + other
            with pytest.raises(TypeError):
                other + g
        with pytest.raises(ValueError, match="rank mismatch"):
            g + Gamma2Element((1,))

    def test_even_torsion_positions(self):
        assert even_torsion_positions((1, 2, 6, 0, 0)) == [1, 2]
        assert even_torsion_positions((1, 3, 9)) == []
        assert even_torsion_positions(()) == []


class TestTraceData:
    def test_signatures(self):
        assert signature(presentation("t3").q) == 0
        assert signature(_pres([[2]]).q) == 1
        assert signature(SurgeryPresentation("w8", e8_form()).q) == 8

    def test_even_presentations(self):
        assert is_even_presentation(presentation("t3"))
        assert is_even_presentation(_pres([[2]]))
        assert not is_even_presentation(_pres([[3]]))
        assert not is_even_presentation(_pres([[2, 1], [1, 3]]))
        assert is_even_presentation(SurgeryPresentation("w8", e8_form()))


def _plumbing_chain(n):
    return [[-2 if i == j else int(abs(i - j) == 1) for j in range(n)] for i in range(n)]


class TestOneReductionEach:
    """q is eliminated once over Z (``_signature_det``) and once over Z2
    (``_gauss_jordan_mod2``) however many readers ask, and by
    ``smith_mod2`` once when its H1 route needs the Smith form and never
    otherwise."""

    REDUCTIONS = ("_signature_det", "_gauss_jordan_mod2", "smith_mod2")

    def _count_calls(self, monkeypatch):
        """Count each reduction through every module of the package that
        binds it by name."""
        counts = dict.fromkeys(self.REDUCTIONS, 0)
        for name in self.REDUCTIONS:
            original = getattr(intlinalg, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("imm5")
                        and getattr(module, name, None) is original):
                    monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize("rows, betti1, alpha, counts", [
        (_plumbing_chain(199), 0, 1, (1, 1, 0)),
        (random_symmetric(random.Random(0), 40).row_lists(), 0, 1, (1, 1, 0)),
        (random_symmetric(random.Random(3), 40).row_lists(), 0, 2, (1, 1, 1)),
        # singular: the zero block of #^4 S1xS2
        ([[0] * 4 for _ in range(4)], 4, 0, (1, 1, 1)),
    ], ids=["chain199", "random40", "random40-alpha2", "s1xs2-sum4"])
    def test_one_pass_per_presentation(self, monkeypatch, rows, betti1, alpha, counts):
        calls = self._count_calls(monkeypatch)
        m = parse_manifold({"name": "m", "linking_matrix": rows})
        p = m.presentation
        signature(p.q)
        spins = spin_structures(p)
        for k in (1, 2):
            wu_coset_of_difference(p, spins[k % len(spins)], spins[0])
        assert (m.profile.betti1, m.profile.alpha) == (betti1, alpha)
        assert tuple(calls[name] for name in self.REDUCTIONS) == counts
