"""Unit and property tests for the exact linear algebra layer."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imm5.errors import _QUOTE, AsymmetricMatrix, NoSolution
from imm5.fixtures import e8_form
from imm5.intlinalg import (
    IntSymMatrix,
    _mask,
    congruence,
    det_int,
    signature,
    smith_normal_form,
    solve_mod2,
)
from imm5.verify import invariant_factors_via_minors, signature_via_charpoly


def direct_sum(a, b):
    """Block-diagonal sum of two symmetric integer matrices."""
    return IntSymMatrix([list(r) + [0] * b.n for r in a.entries]
                        + [[0] * a.n + list(r) for r in b.entries])


def random_unimodular(rng, n):
    """Product of random elementary matrices (det +-1)."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    if n and rng.random() < 0.5:
        k = rng.randrange(n)
        m[k] = [-x for x in m[k]]
    return m


def random_symmetric_rows(rng, n, lo=-9, hi=9):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return rows


@st.composite
def integer_matrices(draw, max_dim=5, bound=9):
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    entry = st.integers(-bound, bound)
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


class TestIntSymMatrix:
    def test_symmetry_enforced(self):
        with pytest.raises(AsymmetricMatrix):
            IntSymMatrix([[1, 2], [3, 1]])

    def test_square_enforced(self):
        with pytest.raises(AsymmetricMatrix):
            IntSymMatrix([[1, 2]])

    def test_entries_coerced_through_int(self):
        a = IntSymMatrix([[2, 1, 3], [1.9, True, 4], (x for x in (3, 4.5, 8))])
        assert a.entries == ((2, 1, 3), (1, 1, 4), (3, 4, 8))
        assert all(type(x) is int for row in a.entries for x in row)
        assert IntSymMatrix([[False, -2.0], [-2, 1]]).entries == ((0, -2), (-2, 1))
        assert IntSymMatrix(["12", "21"]).entries == ((1, 2), (2, 1))
        with pytest.raises(ValueError):
            IntSymMatrix([[float("nan")]])
        with pytest.raises(TypeError):
            IntSymMatrix([[None]])

    def test_int_rows_kept(self):
        row = (5, 2 ** 80)
        a = IntSymMatrix([row, [2 ** 80, -1]])
        assert a.entries[0] is row and a.entries == ((5, 2 ** 80), (2 ** 80, -1))

    def test_asymmetry_names_first_entry(self):
        with pytest.raises(AsymmetricMatrix,
                           match=r"^entry \(2,1\) = 4 differs from entry \(1,2\) = 6$"):
            IntSymMatrix([[0, 1, 2, 2], [1, 0, 6, 0], [2, 4, 0, 0], [9, 0, 0, 0]])
        big = 7 * 10 ** 50
        with pytest.raises(AsymmetricMatrix) as exc:
            IntSymMatrix([[0, big], [1.0, 0]])
        assert str(exc.value) == (f"entry (1,0) = {_QUOTE.repr(1)} differs "
                                  f"from entry (0,1) = {_QUOTE.repr(big)}")

    def test_empty_is_legal(self):
        assert IntSymMatrix([]).n == 0

    def test_equality_and_hash(self):
        a = IntSymMatrix([[2, 1], [1, 2]])
        b = IntSymMatrix([[2, 1], [1, 2]])
        assert a == b and hash(a) == hash(b)


class TestSmithNormalForm:
    def test_already_diagonal(self):
        assert smith_normal_form([[2]]).invariant_factors == (2,)

    def test_hyperbolic_even_form(self):
        # cross-checked against the determinantal-divisor oracle
        a = [[0, 2], [2, 0]]
        dec = smith_normal_form(a)
        assert dec.invariant_factors == (2, 2)
        assert dec.invariant_factors == invariant_factors_via_minors(a)

    def test_empty(self):
        dec = smith_normal_form([])
        assert dec.invariant_factors == ()
        assert dec.u == () and dec.v == () and dec.s == ()

    def test_gcd_lcm_reduction(self):
        assert smith_normal_form([[4, 0], [0, 6]]).invariant_factors == (2, 12)

    def test_identity_and_zero(self):
        eye3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert smith_normal_form(eye3).invariant_factors == (1, 1, 1)
        assert smith_normal_form([[0, 0], [0, 0]]).invariant_factors == (0, 0)

    @staticmethod
    def _check_sound(a, dec):
        m, n = len(a), len(a[0]) if a else 0
        prod = [[sum(dec.u[i][k] * a[k][j] for k in range(m)) for j in range(n)]
                for i in range(m)]
        prod = [[sum(prod[i][k] * dec.v[k][j] for k in range(n)) for j in range(n)]
                for i in range(m)]
        assert tuple(tuple(r) for r in prod) == dec.s
        assert abs(det_int(dec.u)) == 1
        assert abs(det_int(dec.v)) == 1
        factors = dec.invariant_factors
        assert all(d >= 0 for d in factors)
        nonzero = [d for d in factors if d]
        assert factors == tuple(nonzero) + (0,) * (len(factors) - len(nonzero))
        for a_, b_ in zip(nonzero, nonzero[1:]):
            assert b_ % a_ == 0

    def test_soundness_random_sweep(self):
        rng = random.Random(20240917)
        for _ in range(150):
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            self._check_sound(a, smith_normal_form(a))

    @settings(max_examples=60, deadline=None)
    @given(integer_matrices())
    def test_soundness_property(self, a):
        self._check_sound(a, smith_normal_form(a))

    @settings(max_examples=60, deadline=None)
    @given(integer_matrices(max_dim=4, bound=6))
    def test_matches_minor_gcd_oracle(self, a):
        assert smith_normal_form(a).invariant_factors == invariant_factors_via_minors(a)

    def test_cokernel_invariant_under_unimodular_congruence(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 5)
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            p = random_unimodular(rng, n)
            q = random_unimodular(rng, n)
            pa = [[sum(p[i][k] * a[k][j] for k in range(n)) for j in range(n)]
                  for i in range(n)]
            paq = [[sum(pa[i][k] * q[k][j] for k in range(n)) for j in range(n)]
                   for i in range(n)]
            assert (smith_normal_form(a).invariant_factors
                    == smith_normal_form(paq).invariant_factors)


class TestSignature:
    def test_antisymmetric_spectrum(self):
        assert signature([[1, 0], [0, -1]]) == 0

    def test_positive_definite_2x2(self):
        # eigenvalues 1 and 3
        assert signature([[2, 1], [1, 2]]) == 2
        assert signature_via_charpoly([[2, 1], [1, 2]]) == 2

    def test_rank8_even_unimodular_form(self):
        form = e8_form()
        assert det_int(form) == 1
        assert all(d % 2 == 0 for d in form.diagonal())
        assert signature(form) == 8
        assert signature_via_charpoly(form.entries) == 8

    def test_empty(self):
        assert signature([]) == 0

    def test_hyperbolic_plane(self):
        assert signature([[0, 1], [1, 0]]) == 0

    def test_matches_charpoly_oracle(self):
        rng = random.Random(99)
        for _ in range(120):
            rows = random_symmetric_rows(rng, rng.randint(0, 6), -5, 5)
            assert signature(rows) == signature_via_charpoly(rows)

    def test_additivity_negation_congruence(self):
        rng = random.Random(7)
        for _ in range(60):
            a = IntSymMatrix(random_symmetric_rows(rng, rng.randint(0, 4)))
            b = IntSymMatrix(random_symmetric_rows(rng, rng.randint(0, 4)))
            assert signature(direct_sum(a, b)) == signature(a) + signature(b)
            neg = IntSymMatrix([[-x for x in row] for row in a.entries])
            assert signature(neg) == -signature(a)
            g = random_unimodular(rng, a.n)
            assert signature(congruence(a, g)) == signature(a)


class TestSolveMod2:
    def test_zero_system(self):
        sol = solve_mod2([[0]], [0])
        assert sol.particular == (0,)
        assert sol.kernel == ((1,),)

    def test_unique_solution(self):
        sol = solve_mod2([[1]], [1])
        assert sol.particular == (1,)
        assert sol.kernel == ()

    def test_rank_deficient(self):
        sol = solve_mod2([[1, 1], [1, 1]], [1, 1])
        assert sol.particular == (1, 0)
        assert sol.kernel == ((1, 1),)

    def test_no_solution(self):
        with pytest.raises(NoSolution):
            solve_mod2([[0]], [1])

    def test_empty_system(self):
        sol = solve_mod2([], [])
        assert sol.particular == ()
        assert list(sol.masks()) == [0]

    def test_solution_set_matches_exhaustive_search(self):
        rng = random.Random(11)
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 10)
            rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
            x0 = [rng.randint(0, 1) for _ in range(n)]
            b = [sum(rows[i][j] * x0[j] for j in range(n)) % 2 for i in range(m)]
            sol = solve_mod2(rows, b)
            brute = {
                cand
                for cand in itertools.product((0, 1), repeat=n)
                if all(sum(rows[i][j] * cand[j] for j in range(n)) % 2 == b[i]
                       for i in range(m))
            }
            assert set(sol.masks()) == set(map(_mask, brute))
            assert sol.count == len(brute)


class TestDeterminant:
    def test_examples(self):
        assert det_int([]) == 1
        assert det_int([[5]]) == 5
        assert det_int([[0, 2], [2, 0]]) == -4
        assert det_int([[1, 2], [3, 4]]) == -2

    def test_zero_pivot_path(self):
        assert det_int([[0, 1, 0], [1, 0, 0], [0, 0, 3]]) == -3
