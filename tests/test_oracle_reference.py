"""The oracle batteries against their former versions, kept here verbatim.

``det_int``, the five batteries, their random instance generators, the
minors and characteristic-polynomial oracles, and the Smith pivot loop
are copied below as they were before the batteries drew their random
numbers through ``verify._randint``, before ``det_int`` expanded small
matrices by cofactors and checked that its input is square, and before
``charpoly_int`` used Berkowitz's recurrence.  The copies keep their
names, so each body runs as it did then; they reach the package only for
the kernels the batteries check (Smith form, signature, H1) and for the
value types.  The package itself is reached as ``verify`` and
``intlinalg``.

Each battery, at seeds 0 to 99 with 50 trials and at seeds 0 to 3 with
its default trials, must give an equal ``OracleReport`` and leave its
generator in the same state.  ``random_symmetric`` must draw the same
entries and leave the same state at the sizes and seeds of the
benchmark's census inputs, redrawing as the census setup does until a
matrix has full rank modulo a prime.  A ``random.Random`` subclass must
still be drawn from through its own ``randint``.  ``det_int`` must
agree with the copy on 10,000 seeded square matrices, from 0 x 0 to
8 x 8, with entries up to 2**70, bools, floats and numeric strings,
raise what the copy raised on an entry ``int()`` refuses, and raise
ValueError on every matrix that is not square.  ``charpoly_int`` must
agree with the copy on symmetric and other square matrices.
``_smith_reduce`` must replay the same operations and leave the same
matrix as the copy.
"""

import itertools
import random
from contextlib import contextmanager
from math import gcd
from operator import mul

import pytest

from imm5 import intlinalg, verify
from imm5.intlinalg import (
    IntSymMatrix,
    Rows,
    _factors_mod_det,
    _Mod2InverseCols,
    signature,
    smith_normal_form,
)
from imm5.invariants import (
    ClosedMapRecordR5,
    ClosedMapRecordR6,
    ImmersionDoubleData,
    SeifertFillingR5,
    SeifertFillingR6,
    check_closed_r5,
    check_closed_r6,
    check_cusp_residue,
    i_a,
    i_b,
)
from imm5.surgery import HomologyProfile, SurgeryPresentation, homology_profile
from imm5.verify import OracleReport

# ----------------------------------------------------------------------
# The former code, verbatim
# ----------------------------------------------------------------------

def _as_row_lists(a: IntSymMatrix | Rows) -> list[list[int]]:
    if isinstance(a, IntSymMatrix):
        return a.row_lists()
    return [[int(x) for x in row] for row in a]


def det_int(a: IntSymMatrix | Rows) -> int:
    """Exact determinant of a square integer matrix."""
    m = _as_row_lists(a)
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def invariant_factors_via_minors(rows) -> tuple[int, ...]:
    """Invariant factors from determinantal divisors.

    d_k = gcd(all k-minors) / gcd(all (k-1)-minors), with zeros once
    some gcd vanishes.  Shares no code with the elimination-based Smith
    routine, which it cross-checks.
    """
    mat = [list(map(int, row)) for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    r = min(m, n)
    factors: list[int] = []
    prev = 1
    for k in range(1, r + 1):
        g = 0
        for rows_k in itertools.combinations(range(m), k):
            for cols_k in itertools.combinations(range(n), k):
                sub = [[mat[i][j] for j in cols_k] for i in rows_k]
                g = gcd(g, det_int(sub))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            factors.extend([0] * (r - k + 1))
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def charpoly_int(rows) -> list[int]:
    """Coefficients [1, c1, ..., cn] of det(x*I - A), exactly.

    Faddeev-LeVerrier in integers: for an integer matrix every
    intermediate matrix is integral and k divides the k-th trace, so
    each division is exact.
    """
    n = len(rows)
    a = [[int(x) for x in row] for row in rows]
    work = [[int(i == j) for j in range(n)] for i in range(n)]
    coeffs = [1]
    for k in range(1, n + 1):
        cols = list(zip(*work))
        work = [[sum(map(mul, arow, col)) for col in cols] for arow in a]
        q, r = divmod(sum(work[i][i] for i in range(n)), k)
        assert r == 0, "Faddeev-LeVerrier trace not divisible by k"
        coeffs.append(-q)
        for i in range(n):
            work[i][i] -= q
    return coeffs


def _sign_changes(seq: list[int]) -> int:
    signs = [1 if x > 0 else -1 for x in seq if x != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def signature_via_charpoly(rows) -> int:
    """Root-sign count on the characteristic polynomial.

    All eigenvalues of a symmetric matrix are real, so Descartes' rule
    is exact: positive eigenvalues are the sign changes of p(x),
    negative ones those of p(-x).
    """
    coeffs = charpoly_int(rows)
    n = len(coeffs) - 1
    pos = _sign_changes(coeffs)
    neg = _sign_changes([((-1) ** (n - k)) * c for k, c in enumerate(coeffs)])
    return pos - neg


def random_symmetric(rng: random.Random, n: int) -> IntSymMatrix:
    """Random symmetric matrix, entries uniform in [-5, 5]."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = rng.randint(-5, 5)
    return IntSymMatrix(rows)


def random_even_symmetric_nonsingular(rng: random.Random, n: int) -> IntSymMatrix:
    """Random symmetric matrix, even diagonal, nonzero determinant.

    Entries are uniform in [-5, 5] with the diagonal forced even;
    singular draws are rejected.
    """
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i] = rng.randint(-5, 5)
            rows[i][i] = 2 * rng.randint(-2, 2)
        if det_int(rows) != 0:
            return IntSymMatrix(rows)


def random_int_matrix(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """Random m x n integer matrix, entries uniform in [-5, 5]."""
    return [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]


def random_consistent_seifert_data(
    rng: random.Random,
) -> tuple[SeifertFillingR5, SeifertFillingR6, ImmersionDoubleData, HomologyProfile]:
    """A parity-valid tuple with cusps = 3t - 3l + L on a shared filling."""
    sigma = rng.randint(-8, 8)
    alpha = rng.randint(0, 3)
    if (sigma - alpha) % 2:
        alpha += 1
    h = HomologyProfile(rng.randint(0, 2), (2,) * alpha)
    t = rng.randint(-4, 4)
    l = rng.randint(-4, 4)
    big_l = 2 * rng.randint(-5, 5) + ((t - l) % 2)
    cusps = 3 * t - 3 * l + big_l
    return (SeifertFillingR5(sigma, cusps),
            SeifertFillingR6(sigma, t, l),
            ImmersionDoubleData(big_l),
            h)


def random_r5_pair(rng: random.Random) -> tuple[SeifertFillingR5, SeifertFillingR5]:
    """Two cusp-route fillings of one immersion (equal 3*sigma + cusps)."""
    omega = rng.randint(-20, 20)
    s1, s2 = rng.randint(-8, 8), rng.randint(-8, 8)
    return (SeifertFillingR5(s1, 2 * omega - 3 * s1),
            SeifertFillingR5(s2, 2 * omega - 3 * s2))


def random_r6_pair(rng: random.Random) -> tuple[SeifertFillingR6, SeifertFillingR6]:
    """Two triple-point-route fillings of one immersion (equal sigma + t - l)."""
    level = rng.randint(-8, 8)
    s1, t1 = rng.randint(-8, 8), rng.randint(-4, 4)
    s2, t2 = rng.randint(-8, 8), rng.randint(-4, 4)
    return (SeifertFillingR6(s1, t1, s1 + t1 - level),
            SeifertFillingR6(s2, t2, s2 + t2 - level))


def _battery(name: str, trials: int, seed: int, trial) -> OracleReport:
    """trials calls of trial(rng) on one generator seeded with seed; each
    call returns a failure line, or None when the identity holds."""
    rng = random.Random(seed)
    failures = [line for line in (trial(rng) for _ in range(trials))
                if line is not None]
    return OracleReport(name, trials, tuple(failures))


def oracle_parity_lemma(trials: int = 500, max_dim: int = 6, seed: int = 0) -> OracleReport:
    """Size parity of random even nonsingular symmetric forms equals the
    parity of alpha of their cokernel, as ``homology_profile`` reads it."""
    def trial(rng):
        n = rng.randint(1, max_dim)
        q = random_even_symmetric_nonsingular(rng, n)
        alpha = homology_profile(SurgeryPresentation("q", q)).alpha
        if (n - alpha) % 2:
            return f"size {n} vs alpha {alpha} for {q.entries}"
        return None
    return _battery("parity lemma", trials, seed, trial)


def oracle_snf(trials: int = 500, max_dim: int = 6, seed: int = 0) -> OracleReport:
    """Smith form soundness and agreement with the determinantal-divisor
    oracle on random integer matrices; on the square nonsingular ones,
    the factors modulo the determinant agree with that oracle too."""
    def trial(rng):
        m = rng.randint(0, max_dim)
        n = rng.randint(0, max_dim)
        a = random_int_matrix(rng, m, n)
        dec = smith_normal_form(a)
        prod = [[sum(dec.u[i][k] * a[k][j] for k in range(m)) for j in range(n)]
                for i in range(m)]
        prod = [[sum(prod[i][k] * dec.v[k][j] for k in range(n)) for j in range(n)]
                for i in range(m)]
        if tuple(tuple(r) for r in prod) != dec.s:
            return f"u*a*v != s for {a}"
        if abs(det_int(dec.u)) != 1 or abs(det_int(dec.v)) != 1:
            return f"non-unimodular transform for {a}"
        want = invariant_factors_via_minors(a)
        if dec.invariant_factors != want:
            return f"factor mismatch for {a}: {dec.invariant_factors} vs {want}"
        d = abs(det_int(a)) if m == n else 0
        got = _factors_mod_det(a, d, 0) if d else want
        if got != want:
            return f"mod-det factor mismatch for {a}: {got} vs {want}"
        return None
    return _battery("SNF", trials, seed, trial)


def oracle_signature(trials: int = 500, max_dim: int = 6, seed: int = 0) -> OracleReport:
    """Congruence-reduction signature vs the root-sign-count oracle."""
    def trial(rng):
        q = random_symmetric(rng, rng.randint(0, max_dim))
        got = signature(q)
        want = signature_via_charpoly(q.entries)
        if got != want:
            return f"signature {got} vs oracle {want} for {q.entries}"
        return None
    return _battery("signature", trials, seed, trial)


def oracle_invariant_coincidence(trials: int = 1000, seed: int = 0) -> OracleReport:
    """i_a = i_b and the mod-3 cusp residue on random consistent tuples."""
    def trial(rng):
        r5, r6, d, h = random_consistent_seifert_data(rng)
        ia = i_a(r5, h)
        ib = i_b(r6, d, h)
        if ia != ib:
            return f"i_a {ia} != i_b {ib} for {r5}, {r6}, {d}"
        if not check_cusp_residue(r5, d):
            return f"cusp residue failed for {r5}, {d}"
        return None
    return _battery("i_a = i_b coincidence", trials, seed, trial)


def oracle_gluing(trials: int = 500, seed: int = 0) -> OracleReport:
    """Closed-manifold identities on differences of filling pairs."""
    def trial(rng):
        a5, b5 = random_r5_pair(rng)
        glued5 = ClosedMapRecordR5(a5.sigma - b5.sigma,
                                   a5.cusps_algebraic - b5.cusps_algebraic)
        if not check_closed_r5(glued5):
            return f"5-space gluing failed for {a5}, {b5}"
        a6, b6 = random_r6_pair(rng)
        glued6 = ClosedMapRecordR6(a6.sigma - b6.sigma,
                                   a6.triple_points - b6.triple_points,
                                   a6.singular_linking - b6.singular_linking)
        if not check_closed_r6(glued6):
            return f"6-space gluing failed for {a6}, {b6}"
        return None
    return _battery("gluing coherence", trials, seed, trial)


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class _IntRows:
    """Exact integer rows, starting from the identity, that replay row
    operations (a column operation on v is a row operation on v^T)."""

    def __init__(self, n: int):
        self.rows = _identity(n)

    def swap(self, i: int, j: int) -> None:
        self.rows[i], self.rows[j] = self.rows[j], self.rows[i]

    def add(self, dst: int, src: int, c: int) -> None:
        _row_add(self.rows, dst, src, c)

    def negate(self, k: int) -> None:
        self.rows[k] = [-x for x in self.rows[k]]


def _min_abs_entry(a: list[list[int]], t: int) -> tuple[int, int] | None:
    best = None
    best_abs = None
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, len(row)):
            x = row[j]
            if x != 0 and (best_abs is None or abs(x) < best_abs):
                best = (i, j)
                best_abs = abs(x)
                if best_abs == 1:
                    return best
    return best


def _swap_cols(a: list[list[int]], j0: int, j1: int) -> None:
    for row in a:
        row[j0], row[j1] = row[j1], row[j0]


def _row_add(a: list[list[int]], dst: int, src: int, c: int) -> None:
    arow, srow = a[dst], a[src]
    for j in range(len(arow)):
        arow[j] += c * srow[j]


def _col_add(a: list[list[int]], dst: int, src: int, c: int) -> None:
    for row in a:
        row[dst] += c * row[src]


def _smith_reduce(A: list[list[int]], u, vt) -> tuple[int, ...]:
    """Reduce the m x n matrix A in place to Smith form; return its diagonal.

    This is the one pivot loop behind every Smith routine.  Each row
    operation on A is passed to ``u`` and each column operation to ``vt``
    (unless it is None) as the matching row operation, through
    ``swap``/``add``/``negate`` methods: ``_IntRows`` replays them, so
    vt ends as v^T, and ``_Mod2InverseCols`` keeps the inverse mod 2.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    t = 0
    while t < min(m, n):
        piv = _min_abs_entry(A, t)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            A[t], A[i0] = A[i0], A[t]
            u.swap(t, i0)
        if j0 != t:
            _swap_cols(A, t, j0)
            if vt is not None:
                vt.swap(t, j0)
        p = A[t][t]
        dirty = False
        for i in range(t + 1, m):
            if A[i][t]:
                q = A[i][t] // p
                _row_add(A, i, t, -q)
                u.add(i, t, -q)
                dirty = dirty or A[i][t] != 0
        for j in range(t + 1, n):
            if A[t][j]:
                q = A[t][j] // p
                _col_add(A, j, t, -q)
                if vt is not None:
                    vt.add(j, t, -q)
                dirty = dirty or A[t][j] != 0
        if dirty:
            # a remainder smaller than the pivot appeared; rehunt
            continue
        off = None
        if p not in (1, -1):  # a unit pivot divides everything
            for i in range(t + 1, m):
                if any(A[i][j] % p for j in range(t + 1, n)):
                    off = i
                    break
        if off is not None:
            # fold the offending row in so the pivot can shrink to the gcd
            _row_add(A, t, off, 1)
            u.add(t, off, 1)
            continue
        t += 1
    for k in range(min(m, n)):
        if A[k][k] < 0:
            A[k] = [-x for x in A[k]]
            u.negate(k)
    return tuple(A[k][k] for k in range(min(m, n)))




# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------

@contextmanager
def generators_seeded():
    """The ``random.Random`` instances seeded inside the block, in order.
    ``Random.__init__`` seeds through ``seed``, which is wrapped here; the
    instances stay exactly ``random.Random``."""
    made = []
    seed = random.Random.seed

    def recording(self, *args, **kwargs):
        made.append(self)
        return seed(self, *args, **kwargs)

    random.Random.seed = recording
    try:
        yield made
    finally:
        random.Random.seed = seed


def run_battery(battery, *args, **kwargs):
    """The report of battery(*args, **kwargs) and the final state of the
    one generator it seeds."""
    with generators_seeded() as made:
        report = battery(*args, **kwargs)
    assert len(made) == 1
    return report, made[0].getstate()


BATTERIES = {
    "parity": (oracle_parity_lemma, verify.oracle_parity_lemma),
    "snf": (oracle_snf, verify.oracle_snf),
    "signature": (oracle_signature, verify.oracle_signature),
    "coincidence": (oracle_invariant_coincidence, verify.oracle_invariant_coincidence),
    "gluing": (oracle_gluing, verify.oracle_gluing),
}
WITH_DIM = {"parity", "snf", "signature"}


@pytest.mark.parametrize("name", sorted(BATTERIES))
def test_batteries_match_former_batteries_at_50_trials(name):
    former, current = BATTERIES[name]
    for seed in range(100):
        args = (50, 6, seed) if name in WITH_DIM else (50, seed)
        want = run_battery(former, *args)
        assert run_battery(current, *args) == want, seed
        assert want[0].trials == 50 and want[0].passed


@pytest.mark.parametrize("name", sorted(BATTERIES))
def test_batteries_match_former_batteries_at_default_trials(name):
    former, current = BATTERIES[name]
    for seed in range(4):
        want = run_battery(former, seed=seed)
        assert run_battery(current, seed=seed) == want, seed
        assert want[0].passed


def full_rank_mod_p(rows, p=32749) -> bool:
    """Whether the square matrix rows has full rank over GF(p).  Forward
    elimination; each step keeps only the columns right of its pivot."""
    a = [[x % p for x in row] for row in rows]
    while a:
        r = next((i for i, row in enumerate(a) if row[0]), None)
        if r is None:
            return False
        prow = a.pop(r)
        inv = pow(prow[0], -1, p)
        tail = prow[1:]
        for i, row in enumerate(a):
            f = row[0] * inv % p
            a[i] = [(x - f * y) % p for x, y in zip(row[1:], tail)] if f else row[1:]
    return True


def test_random_symmetric_draws_the_census_inputs():
    """Both generators draw in lockstep, as the benchmark's census setup
    draws: until a matrix has full rank modulo a prime.  The benchmark's
    prime is 2**61 - 1; a smaller one keeps the entries small here, and
    both accept the first draw at every seed and size below."""
    for seed in range(30):
        for n in (20, 40, 60):
            a = random.Random(seed * 1000 + n)
            b = random.Random(seed * 1000 + n)
            while True:
                q = verify.random_symmetric(a, n)
                assert q == random_symmetric(b, n), (seed, n)
                if full_rank_mod_p(q.entries):
                    break
            assert a.getstate() == b.getstate(), (seed, n)


def test_generators_draw_like_randint():
    """Every generator, on a generator of its own and on one that counts
    its ``randint`` calls, draws as the former one did."""

    class Counting(random.Random):
        calls = 0

        def randint(self, a, b):
            Counting.calls += 1
            return super().randint(a, b)

    generators = [
        (random_symmetric, verify.random_symmetric, (5,)),
        (random_even_symmetric_nonsingular, verify.random_even_symmetric_nonsingular, (4,)),
        (random_int_matrix, verify.random_int_matrix, (3, 5)),
        (random_consistent_seifert_data, verify.random_consistent_seifert_data, ()),
        (random_r5_pair, verify.random_r5_pair, ()),
        (random_r6_pair, verify.random_r6_pair, ()),
    ]
    for former, current, args in generators:
        for kind in (random.Random, Counting):
            for seed in range(20):
                a, b = kind(seed), kind(seed)
                Counting.calls = 0
                want = former(a, *args)
                former_calls = Counting.calls
                Counting.calls = 0
                assert current(b, *args) == want
                assert a.getstate() == b.getstate()
                # a subclass goes through its own randint, call for call
                assert Counting.calls == former_calls


def test_randint_reproduces_the_interpreter_randint():
    ranges = [(-5, 5), (-2, 2), (0, 6), (1, 6), (-8, 8), (0, 3), (0, 2), (-4, 4),
              (-20, 20), (7, 7), (0, 1), (-(1 << 70), 1 << 70)]
    for seed in range(50):
        a, b = random.Random(seed), random.Random(seed)
        for lo, hi in ranges * 30:
            assert verify._randint(b, lo, hi) == a.randint(lo, hi)
        assert verify._randints(b, -5, 5, 40) == [a.randint(-5, 5) for _ in range(40)]
        assert a.getstate() == b.getstate()


def entry_pool(rng: random.Random) -> list:
    """Matrix entries: mostly small ints, some up to 2**70, and the non-int
    kinds ``int()`` coerces (bools, floats, numeric strings)."""
    return ([rng.randint(-5, 5) for _ in range(300)]
            + [rng.randint(-(1 << 70), 1 << 70) for _ in range(40)]
            + [True, False] * 10
            + [float(rng.randint(-5, 5)) + rng.choice((0.0, 0.25, -0.75)) for _ in range(20)]
            + [str(rng.randint(-9, 9)) for _ in range(20)])


def square_matrix(rng: random.Random, pool: list, n: int):
    flat = rng.choices(pool, k=n * n)
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    if n > 1 and rng.random() < 0.2:
        rows[rng.randrange(n)] = list(rows[rng.randrange(n)])  # a repeated row
    if n and rng.random() < 0.2:
        rows[rng.randrange(n)] = [0] * n  # a zero row
    if n > 1 and rng.random() < 0.2:
        for row in rows:  # a zero first column forces a swap
            row[0] = 0
    return [tuple(row) if rng.random() < 0.3 else row for row in rows]


def test_det_int_matches_former_det_int():
    rng = random.Random(27)
    pool = entry_pool(rng)
    sizes = [0] * 9
    for _ in range(10_000):
        n = rng.randrange(9)
        sizes[n] += 1
        rows = square_matrix(rng, pool, n)
        copied = [list(row) for row in rows]
        assert intlinalg.det_int(rows) == det_int(copied), rows
        assert [list(row) for row in rows] == copied  # the input is not changed
    assert min(sizes) >= 1000
    for n in range(7):
        q = IntSymMatrix(random_symmetric(rng, n).entries)
        assert intlinalg.det_int(q) == det_int(q)


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


def test_det_int_coerces_entries_as_former_det_int():
    """A square matrix with an entry ``int()`` refuses raises what the
    former ``det_int`` raised."""
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randrange(1, 8)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(
            ("x", None, "1.5", float("nan"), float("inf"), [1], "2" * 5000))
        want = outcome(det_int, [list(row) for row in rows])
        assert isinstance(want, tuple)
        assert outcome(intlinalg.det_int, rows) == want


def test_charpoly_matches_former_charpoly():
    """Berkowitz's recurrence against Faddeev-LeVerrier, on symmetric and
    other square matrices; both are exact, so the coefficients agree."""
    rng = random.Random(8)
    for _ in range(800):
        n = rng.randrange(9)
        bound = rng.choice((1, 5, 1000, 1 << 40))
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            rows = [[rows[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
        assert verify.charpoly_int(rows) == charpoly_int(rows), rows
        assert verify.signature_via_charpoly(rows) == signature_via_charpoly(rows)
    with pytest.raises(ValueError, match="^charpoly_int needs a square matrix$"):
        verify.charpoly_int([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("rows", [
    [[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]], [[1], [2, 3]],
    [[]], [[1, 2]], [[1], [2]], [[1, 2, 3], [4, 5, 6], [7, 8]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], [[1, 0, 0, 0, 0]] * 4 + [[1, 2]],
    [[0] * 6] * 5 + [[0] * 7],
])
def test_det_int_refuses_matrices_that_are_not_square(rows):
    with pytest.raises(ValueError, match="^det_int needs a square matrix$"):
        intlinalg.det_int(rows)


def smith_case(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:  # the SNF battery's inputs
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        return [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
    if kind == 1:  # larger, with entries that grow
        m, n = rng.randint(7, 10), rng.randint(7, 10)
        return [[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)]
    if kind == 2:  # symmetric, as smith_mod2 sees a linking matrix
        n = rng.randint(1, 10)
        return [list(r) for r in random_symmetric(rng, n).entries]
    n = rng.randint(1, 8)  # diagonal-heavy, so the fold-in step runs
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice((2, 4, 6, 9, 12, 0, -4))
    if n > 1:
        rows[0][1] = rng.choice((0, 2, 3))
    return rows


def test_smith_reduce_matches_former_pivot_loop():
    rng = random.Random(41)
    for _ in range(600):
        rows = smith_case(rng)
        m = len(rows)
        n = len(rows[0]) if m else 0
        got_a, want_a = [list(r) for r in rows], [list(r) for r in rows]
        got_u, got_vt = intlinalg._IntRows(m), intlinalg._IntRows(n)
        want_u, want_vt = _IntRows(m), _IntRows(n)
        got = intlinalg._smith_reduce(got_a, got_u, got_vt)
        assert got == _smith_reduce(want_a, want_u, want_vt), rows
        assert (got_a, got_u.rows, got_vt.rows) == (want_a, want_u.rows, want_vt.rows)
        got_inv, want_inv = _Mod2InverseCols(m), _Mod2InverseCols(m)
        got_a = [list(r) for r in rows]
        assert intlinalg._smith_reduce(got_a, got_inv, None) == \
            _smith_reduce([list(r) for r in rows], want_inv, None)
        assert got_inv.cols == want_inv.cols
