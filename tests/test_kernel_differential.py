"""Seeded differential tests: each kernel against one reference.

A reference is the routine the kernel replaced, kept here verbatim, or a
computation straight from the definitions.  FAMILIES are four seeded
families of matrices: general, singular, zero-diagonal (the hyperbolic
move) and alpha >= 2.

The signature is checked against the former ``Fraction`` congruence
routine, on 2,500 matrices of each family.

``smith_mod2`` is checked against the full ``smith_normal_form``: the same
factors, and u times the kept u^{-1} is the identity mod 2, on 2,500
matrices of each family.

H1 as ``homology_profile`` computes it is checked against the former Smith
route: u replayed mod 2 through ``_smith_reduce``, then inverted over Z2.
There are 10,000 instances in five families: random symmetric, plumbing
trees, singular, alpha >= 2 block sums, and diagonals sharing odd primes.
The Wu coordinates of 6 spin pairs are checked on each with alpha <= 1.

The Wu map's coordinates for alpha >= 2 are checked against the former
per-call route, a Smith form and a GF(2) solve of u^T c = delta on every
call: 8 spin structures on each of 300 presentations.

``solve_mod2`` and ``spin_structures`` are checked against the former
numpy ``uint8`` routine, on 12,000 systems and 500 presentations of each
family.  Both tests skip when numpy is absent.

``Mod2Solution.masks`` and ``mask``, and the lazy ``spin_structures``
sequence, are checked against the former tuple routines, on 10,000
solution sets and 400 presentations.

The upper-triangle Bareiss pass ``_signature_det`` is checked against the
former full-storage pass: the same (signature, det, minor) on 2,500
matrices of each family, plumbing chains and trees, dense matrices up to
n = 60, the empty and 1 x 1 matrices, 500 with zero rows, and 1,000 block
sums that force several swaps and hyperbolic mates.

The characteristic test, the Wu map, ``spins[k]`` and ``in``/``count``/
``index`` are checked against ``SpinReference``, which reads c entry by
entry, with no XOR table, memo or carried mask.  The tuple family is 10
probe pairs on each of 1,000 presentations.  The fast-path family is 8
kinds of probe, 1,300 at each n up to 199.  The carried family is 13 kinds
of Wu probe, 1,300 at each n up to 64, each made in two rounds.  The
straight-line family pairs one of 9 kinds of index probe and one of 8
kinds of member probe with a Wu probe, 1,300 at each n up to 64, and a
quarter of its presentations start with their memo at the cap.  Every Wu
call of those two families also checks the memo contract.

``_gauss_jordan_mod2`` is checked against the former column scan, on
10,000 systems.

``parse_wu_coords``, the coset block of ``parse_manifold``,
``embedding_classes`` and the ``Gamma2Element`` check are checked against
their former versions, on 3,500 probes each.

One walk over ``SurgeryPresentation._wu_tables`` is checked against row
parities of q and popcount parities against the generators, at n up to
199 with alpha from 0 to 12.

``Mod2Solution.index`` is checked against a map from each solution to its
position, on 1,500 systems, wherever there are at most 64 solutions.
"""

import copy
import dataclasses
import inspect
import pickle
import random
import itertools
import sys
import types
from collections import Counter
from fractions import Fraction
from math import gcd, prod
from operator import index, mul

import pytest

from imm5 import surgery
from imm5.cli import ManifoldData, _cut, _ints, parse_manifold, parse_wu_coords
from imm5.embeddings import EmbeddingClassSet, SpinBoundarySignatures, embedding_classes
from imm5.errors import (
    _QUOTE,
    CosetUncovered,
    InvalidSpinStructure,
    NoSolution,
    ParityViolation,
    ParseError,
    _Value,
)
from imm5.intlinalg import (
    _CHUNK,
    _TAIL,
    IntSymMatrix,
    Mod2Solution,
    _as_row_lists,
    _factors_mod_det,
    _gauss_jordan_mod2,
    _rescale,
    _signature_det,
    _smith_reduce,
    _xor_lookup,
    det_int,
    signature,
    smith_mod2,
    smith_normal_form,
    solve_mod2,
)
from imm5.spin import (
    _WU_COSET_CAP,
    SpinStructure,
    WuCoset,
    spin_structures,
    wu_coset_of_difference,
)
from imm5.surgery import (
    Gamma2Element,
    HomologyProfile,
    SurgeryPresentation,
    even_torsion_positions,
    gamma2_elements,
    homology_profile,
)
from imm5.verify import random_symmetric

PER_FAMILY = 2500
FAMILIES = ("general", "singular", "zero_diagonal", "even_torsion")
SYSTEMS = 12000
SPIN_CASES = 10000
ROUTE_FAMILIES = ("random", "plumbing", "singular", "alpha2", "shared_primes")
ROUTE_CASES = 10000


def fraction_signature(a) -> int:
    """Signature of a symmetric integer matrix, computed exactly.

    Returns (#positive - #negative eigenvalues) via symmetric
    congruence reduction with rational pivots.  The empty matrix has
    signature 0.
    """
    rows = _as_row_lists(a)
    n = len(rows)
    M = [[Fraction(x) for x in row] for row in rows]
    pos = neg = 0
    t = 0
    while t < n:
        if M[t][t] == 0:
            swap = next((j for j in range(t + 1, n) if M[j][j] != 0), None)
            if swap is not None:
                M[t], M[swap] = M[swap], M[t]
                for row in M:
                    row[t], row[swap] = row[swap], row[t]
            else:
                mate = next((j for j in range(t + 1, n) if M[t][j] != 0), None)
                if mate is None:
                    # zero row: a zero eigenvalue, no signature contribution
                    t += 1
                    continue
                # all remaining diagonal entries vanish, so this makes
                # M[t][t] = 2*M[t][mate] != 0
                for j in range(n):
                    M[t][j] += M[mate][j]
                for i in range(n):
                    M[i][t] += M[i][mate]
        p = M[t][t]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(t + 1, n):
            if M[i][t]:
                c = M[i][t] / p
                for j in range(n):
                    M[i][j] -= c * M[t][j]
                for k in range(n):
                    M[k][i] -= c * M[k][t]
        t += 1
    return pos - neg


def numpy_solve_mod2(m, b) -> Mod2Solution:
    """Solve m x = b over Z2 by Gauss-Jordan elimination.

    The former numpy routine, with ``Z2Matrix.from_rows`` inlined.
    Raises NoSolution when b is outside the column space.  Free
    variables are set to 0 in the particular solution; the kernel basis
    has one vector per free column.
    """
    np = pytest.importorskip("numpy")
    rl = [[int(x) & 1 for x in row] for row in m]
    A = np.array(rl, dtype=np.uint8)
    if A.ndim != 2:
        A = A.reshape(len(rl), 0)
    nrows, ncols = A.shape
    rhs = np.array([int(x) & 1 for x in b], dtype=np.uint8)
    if rhs.shape[0] != nrows:
        raise ValueError("dimension mismatch between matrix and right-hand side")

    aug = np.concatenate([A, rhs[:, None]], axis=1) if ncols else rhs[:, None].copy()
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if aug[i, c]), None)
        if pivot is None:
            continue
        if pivot != r:
            aug[[r, pivot]] = aug[[pivot, r]]
        for i in range(nrows):
            if i != r and aug[i, c]:
                aug[i, :] ^= aug[r, :]
        pivots.append(c)
        r += 1
        if r == nrows:
            break

    for i in range(r, nrows):
        if aug[i, ncols]:
            raise NoSolution("right-hand side is outside the column space")

    x = np.zeros(ncols, dtype=np.uint8)
    for row, c in enumerate(pivots):
        x[c] = aug[row, ncols]

    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    kernel: list[tuple[int, ...]] = []
    for f in free_cols:
        vec = np.zeros(ncols, dtype=np.uint8)
        vec[f] = 1
        for row, c in enumerate(pivots):
            vec[c] = aug[row, f]
        kernel.append(tuple(int(v) for v in vec))

    return Mod2Solution(tuple(int(v) for v in x), tuple(kernel))


def numpy_solutions(sol: Mod2Solution):
    """The former numpy ``Mod2Solution.solutions``: all solutions,
    starting from the particular one."""
    np = pytest.importorskip("numpy")
    base = np.array(sol.particular, dtype=np.uint8)
    basis = [np.array(k, dtype=np.uint8) for k in sol.kernel]
    for picks in itertools.product((0, 1), repeat=len(basis)):
        x = base.copy()
        for take, vec in zip(picks, basis):
            if take:
                x ^= vec
        yield tuple(int(b) for b in x)


def per_call_wu_coords(p: SurgeryPresentation, s1, s2) -> tuple[int, ...]:
    """The former Wu route: Smith form and GF(2) solve on every call."""
    delta = [a ^ b for a, b in zip(s1.c, s2.c)]
    dec = smith_normal_form(p.q)
    ut = [[dec.u[j][i] for j in range(p.n)] for i in range(p.n)]
    sol = solve_mod2(ut, delta)
    assert not sol.kernel
    return tuple(sol.particular[i]
                 for i in even_torsion_positions(dec.invariant_factors))


def _unimodular(rng, n):
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in g:
            row[i] += c * row[j]
    return g


def _congruent_diagonal(rng, diag):
    """g^T diag(d) g for a random unimodular g."""
    n = len(diag)
    g = _unimodular(rng, n)
    return [[sum(g[k][i] * diag[k] * g[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _symmetric(rng, n, lo, hi):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return rows


def instance(family: str, rng: random.Random) -> list[list[int]]:
    n = rng.randint(0, 7)
    if family == "general":
        return _symmetric(rng, n, -4, 4)
    if family == "singular":
        # congruent to a diagonal with at least one zero
        n = max(n, 1)
        diag = [rng.choice((0, 0, 1, -1, 2, -3, 4)) for _ in range(n)]
        diag[rng.randrange(n)] = 0
        return _congruent_diagonal(rng, diag)
    if family == "zero_diagonal":
        rows = _symmetric(rng, n, -2, 2) if rng.random() < 0.5 else \
            [[rng.choice((0, 0, 0, 1, -1)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
            rows[i][i] = 0
        return rows
    # even_torsion: at least two even torsion factors, so alpha >= 2
    n = max(n, 2)
    diag = [rng.choice((2, -2, 4, 6, -8, 1, 3, 0)) for _ in range(n)]
    diag[0], diag[1] = rng.choice((2, -2, 4)), rng.choice((2, 6, -4))
    return _congruent_diagonal(rng, diag)


def _mask(bits) -> int:
    return sum((x & 1) << j for j, x in enumerate(bits))


@pytest.mark.parametrize("family", FAMILIES)
def test_signature_matches_fraction_reference(family):
    rng = random.Random(f"signature-{family}")
    for _ in range(PER_FAMILY):
        rows = instance(family, rng)
        assert signature(rows) == fraction_signature(rows), rows


@pytest.mark.parametrize("family", FAMILIES)
def test_smith_mod2_matches_full_transform(family):
    rng = random.Random(f"smith-{family}")
    for _ in range(PER_FAMILY):
        rows = instance(family, rng)
        full = smith_normal_form(rows)
        fast = smith_mod2(rows)
        assert fast.invariant_factors == full.invariant_factors, rows
        # (u u^{-1})[r][i] is the parity of row r of u against column i
        assert [[(_mask(r) & c).bit_count() & 1 for c in fast.u_inverse_mod2]
                for r in full.u] == [[int(i == j) for j in range(len(rows))]
                                     for i in range(len(rows))], rows


def route_instance(family: str, rng: random.Random) -> list[list[int]]:
    if family == "random":
        n = rng.randint(0, 10) if rng.random() < 0.95 else rng.randint(11, 20)
        return _symmetric(rng, n, -5, 5)
    if family == "plumbing":
        # a plumbing tree: framings on the diagonal, 1 on each edge
        n = rng.randint(1, 20)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randint(-6, 6)
            if i:
                j = i - 1 if rng.random() < 0.5 else rng.randrange(i)
                rows[i][j] = rows[j][i] = 1
        return rows
    if family == "singular":
        return instance("singular", rng)
    if family == "alpha2":
        return instance("even_torsion", rng)
    # shared_primes: odd primes repeated across the diagonal, and at most
    # one even entry, so alpha <= 1 and the odd part of H1 is not cyclic
    n = rng.randint(2, 8)
    diag = [rng.choice((1, -1, 3, -3, 9, 5, 15, -45, 27)) for _ in range(n)]
    if rng.random() < 0.5:
        diag[rng.randrange(n)] *= rng.choice((2, 4, -2))
    return _congruent_diagonal(rng, diag)


class Mod2Rows:
    """The former replay of ``smith_mod2``: u mod 2, one int bitmask per
    row."""

    def __init__(self, n: int):
        self.rows = [1 << i for i in range(n)]

    def swap(self, i: int, j: int) -> None:
        self.rows[i], self.rows[j] = self.rows[j], self.rows[i]

    def add(self, dst: int, src: int, c: int) -> None:
        if c & 1:
            self.rows[dst] ^= self.rows[src]

    def negate(self, k: int) -> None:
        pass


def inverse_mod2(rows, n: int) -> list[int]:
    """Inverse over Z2 of an invertible n x n bit matrix given as row
    bitmasks (bit j of ``rows[i]`` is entry (i, j)), as row bitmasks.

    Raises NoSolution when the matrix is singular mod 2.
    """
    # [a | I]: the identity rides in bits n .. 2n-1
    aug = [r | (1 << (n + i)) for i, r in enumerate(rows)]
    if len(_gauss_jordan_mod2(aug, n)) < n:
        raise NoSolution("matrix is singular mod 2")
    return [r >> n for r in aug]


def smith_route(rows):
    """Factors and Gamma2 generators as the former Smith route gave them:
    u mod 2 from the Smith elimination, and the columns of u^{-1} mod 2."""
    u = Mod2Rows(len(rows))
    factors = _smith_reduce([list(r) for r in rows], u, None)
    inv = inverse_mod2(u.rows, len(rows))
    gens = tuple(sum(((row >> i) & 1) << j for j, row in enumerate(inv))
                 for i in even_torsion_positions(factors))
    return factors, gens


def test_homology_routes_match_smith_route(monkeypatch):
    smith_runs = []

    def counted_smith_mod2(a):
        smith_runs.append(a)
        return smith_mod2(a)

    monkeypatch.setattr(surgery, "smith_mod2", counted_smith_mod2)
    rng = random.Random("homology-routes")
    mod_det = alpha1 = block = modulus = smith = wu_checked = 0
    for k in range(ROUTE_CASES):
        rows = route_instance(ROUTE_FAMILIES[k % len(ROUTE_FAMILIES)], rng)
        factors, gens = smith_route(rows)
        p = SurgeryPresentation("d", IntSymMatrix(rows))
        runs = len(smith_runs)
        h = homology_profile(p)
        assert h.betti1 == factors.count(0), rows
        assert h.torsion_factors == tuple(d for d in factors if d >= 2), rows
        assert h.alpha == len(gens), rows

        _, det, minor = _signature_det([list(r) for r in rows])
        assert det == det_int(rows), rows
        if det:
            # homology_profile ran the factors modulo gcd(det, minor) when
            # alpha <= 1; here the whole determinant is the modulus
            assert minor % prod(factors[:-1]) == 0, rows
            if k % 3 == 0:
                assert _factors_mod_det(rows, abs(det), 0) == factors, rows

        if len(smith_runs) > runs:
            assert p.gamma2_generators == gens, rows
            smith += 1
        else:
            mod_det += 1
            alpha1 += h.alpha == 1
            block += len(h.torsion_factors) >= 2
            modulus += gcd(det, minor) > 1
        if h.alpha <= 1:
            spins = spin_structures(p)
            for _ in range(6):
                s1, s2 = rng.choice(spins), rng.choice(spins)
                delta = _mask(s1.c) ^ _mask(s2.c)
                want = tuple((delta & g).bit_count() & 1 for g in gens)
                assert wu_coset_of_difference(p, s1, s2).value.coords == want, rows
                wu_checked += any(want)
    assert len(smith_runs) == smith
    assert mod_det >= 5000 and smith >= 4000
    assert alpha1 >= 2000 and block >= 1500 and modulus >= 2500
    assert wu_checked >= 8000


def test_families_cover_the_special_cases():
    rng = random.Random("coverage")
    singular = hyperbolic = alpha2 = 0
    for family in FAMILIES:
        for _ in range(200):
            rows = instance(family, rng)
            factors = smith_normal_form(rows).invariant_factors
            singular += 0 in factors
            alpha2 += sum(1 for d in factors if d and d % 2 == 0) >= 2
            hyperbolic += (len(rows) > 0 and not any(rows[i][i] for i in range(len(rows)))
                           and any(map(any, rows)))
    assert singular >= 100 and hyperbolic >= 100 and alpha2 >= 100


def test_wu_map_matches_per_call_route():
    rng = random.Random("wu")
    checked = 0
    for k in range(300):
        rows = instance("even_torsion" if k % 3 else "singular", rng)
        p = SurgeryPresentation("d", IntSymMatrix(rows))
        spins = spin_structures(p)
        base = spins[0]
        h = homology_profile(p)
        for s in rng.sample(spins, min(len(spins), 8)):
            got = wu_coset_of_difference(p, s, base).value.coords
            assert len(got) == h.alpha
            assert got == per_call_wu_coords(p, s, base), rows
            checked += h.alpha >= 2
    assert checked >= 500



def z2_system(rng: random.Random):
    """A seeded Z2 system m x = b: any shape (the empty one included),
    often rank-deficient, with entries outside {0, 1} read mod 2, and b
    either in the column space or random."""
    nrows = rng.randint(0, 8)
    ncols = rng.randint(0, 8) if nrows else 0
    if rng.random() < 0.5:
        rows = [[rng.choice((0, 0, 1, 1, -1, 2, 3)) for _ in range(ncols)]
                for _ in range(nrows)]
    else:
        # a product through a narrow middle dimension caps the rank
        k = rng.randint(0, max(min(nrows, ncols) - 1, 0))
        left = [[rng.randint(0, 1) for _ in range(k)] for _ in range(nrows)]
        right = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(k)]
        rows = [[sum(left[i][t] * right[t][j] for t in range(k))
                 for j in range(ncols)] for i in range(nrows)]
    if rng.random() < 0.5:
        x0 = [rng.randint(0, 1) for _ in range(ncols)]
        b = [sum(u * v for u, v in zip(row, x0)) for row in rows]
    else:
        b = [rng.choice((0, 1, -1, 2)) for _ in range(nrows)]
    return rows, b


def test_solve_mod2_matches_numpy_reference():
    rng = random.Random("solve-mod2")
    rect = empty = deficient = inconsistent = 0
    for _ in range(SYSTEMS):
        rows, b = z2_system(rng)
        try:
            want = numpy_solve_mod2(rows, b)
        except NoSolution:
            with pytest.raises(NoSolution):
                solve_mod2(rows, b)
            inconsistent += 1
            continue
        got = solve_mod2(rows, b)
        assert got.particular == want.particular, (rows, b)
        assert got.kernel == want.kernel, (rows, b)
        assert list(got.masks()) == list(map(_mask, numpy_solutions(want))), (rows, b)
        ncols = len(want.particular)
        rect += len(rows) != ncols
        empty += not rows
        deficient += ncols - len(want.kernel) < min(len(rows), ncols)
    assert min(rect, deficient, inconsistent) >= 1000 and empty >= 100


@pytest.mark.parametrize("family", FAMILIES)
def test_spin_structures_match_numpy_reference(family):
    rng = random.Random(f"spin-{family}")
    for _ in range(PER_FAMILY // 5):
        p = SurgeryPresentation("d", IntSymMatrix(instance(family, rng)))
        b = [d % 2 for d in p.q.diagonal()]
        want = [SpinStructure(c)
                for c in numpy_solutions(numpy_solve_mod2(p.q.entries, b))]
        assert list(spin_structures(p)) == want, p.q


def tuple_solutions(self):
    """The former tuple ``Mod2Solution.solutions``: all solutions,
    starting from the particular one."""
    n = len(self.particular)
    base = _mask(self.particular)
    basis = [_mask(k) for k in self.kernel]
    for picks in itertools.product((0, 1), repeat=len(basis)):
        x = base
        for take, vec in zip(picks, basis):
            if take:
                x ^= vec
        yield tuple((x >> j) & 1 for j in range(n))



def test_enumeration_matches_tuple_reference():
    """Order and content of the streamed enumeration, for kernels on both
    sides of the tabulated tail, with entries read mod 2."""
    rng = random.Random("enumerate")
    empty = streamed = 0
    for k in range(SPIN_CASES):
        if k % 40:
            n = rng.randint(0, 12)
            dim = rng.randint(0, min(n, 5))
        else:
            # more kernel vectors than the tabulated tail
            n = rng.randint(_TAIL + 3, 12)
            dim = rng.randint(_TAIL + 1, _TAIL + 3)
        entries = (0, 1) if rng.random() < 0.8 else (0, 1, -1, 2, 3)
        sol = Mod2Solution(tuple(rng.choice(entries) for _ in range(n)),
                           tuple(tuple(rng.choice(entries) for _ in range(n))
                                 for _ in range(dim)))
        want = [_mask(x) for x in tuple_solutions(sol)]
        assert list(sol.masks()) == want, sol
        assert [sol.mask(k) for k in range(sol.count)] == want, sol
        empty += not dim
        streamed += dim > _TAIL
    assert empty >= 100 and streamed >= 100


def low_rank_mod2(rng: random.Random, n: int, rank: int) -> list[list[int]]:
    """A seeded symmetric n x n matrix whose reduction mod 2 has rank at
    most ``rank``: a sum of that many outer products v v^T, plus twice a
    symmetric matrix with entries in -2 .. 2, so entries leave {0, 1}."""
    vs = [[rng.randint(0, 1) for _ in range(n)] for _ in range(rank)]
    even = _symmetric(rng, n, -2, 2)
    return [[sum(v[i] * v[j] for v in vs) % 2 + 2 * even[i][j] for j in range(n)]
            for i in range(n)]


def test_spin_sequence_matches_tuple_reference():
    """The lazy ``spin_structures`` against the list it replaced: length,
    iteration order, every index from either end, slices, the bounds and
    seeded ``sample``/``choice``, for kernels of dimension 0 to past the
    tabulated tail."""
    rng = random.Random("spin-sequence")
    dims = set()
    for k in range(400):
        if k == 0:
            n = rank = 0
        elif k % 10 == 0:
            n = rng.randint(_TAIL + 1, _TAIL + 4)
            rank = rng.randint(0, n - _TAIL - 1)
        else:
            n = rng.randint(1, 8)
            rank = rng.randint(0, n)
        p = SurgeryPresentation("d", IntSymMatrix(low_rank_mod2(rng, n, rank)))
        sol = p.q._over_z2[2]
        want = [SpinStructure(c) for c in tuple_solutions(sol)]
        spins = spin_structures(p)
        dims.add(len(sol.kernel))
        assert len(spins) == len(want) and list(spins) == want, p.q
        for i in range(len(want)):
            assert spins[i] == want[i] and spins[-i - 1] == want[-i - 1], (p.q, i)
        for bad in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                spins[bad]
        cut = slice(rng.randint(-3, 3), rng.randint(-3, 40), rng.choice((1, 2, -1)))
        assert spins[cut] == want[cut], (p.q, cut)
        seed = rng.random()
        twin, mine = random.Random(seed), random.Random(seed)
        m = min(len(want), 5)
        assert mine.sample(spins, m) == twin.sample(want, m), p.q
        assert mine.choice(spins) == twin.choice(want), p.q
    assert dims >= set(range(_TAIL + 3))


def full_signature_det(M: list[list[int]]) -> tuple[int, int, int]:
    """(signature, determinant, an (n-1)-minor) of the symmetric matrix
    M, consumed.

    Symmetric Bareiss elimination (Bareiss 1968).  After a pivot p the
    trailing block holds p times the Schur complement, so the next step
    divides exactly by p, and the rational pivot the step stands for is
    new/p: positive when the new pivot has the sign of p.

    Scaling is lazy: a row whose pivot-column entry is 0 is left as it
    is and remembers the pivot ``level[i]`` it was last scaled by, so a
    sparse matrix costs little more than its nonzero entries.  Row i
    times (current pivot) / level[i] is its value in the current block,
    an integer because every such entry is a bordered minor.

    The symmetric swap and the hyperbolic "mate" step are congruences by
    unimodular matrices, so the pivots are the leading minors of a
    matrix unimodularly congruent to M: the last is det M unless a zero
    row turned up, when det M = 0, and the one before it (1 when n <= 1)
    is an (n-1)-minor of that matrix.
    """
    n = len(M)
    level = [1] * n
    prev = minor = 1
    pos = neg = 0
    singular = False
    t = 0
    while t < n:
        if M[t][t] == 0:
            swap = next((j for j in range(t + 1, n) if M[j][j] != 0), None)
            if swap is not None:
                M[t], M[swap] = M[swap], M[t]
                level[t], level[swap] = level[swap], level[t]
                for k in range(t, n):
                    row = M[k]
                    row[t], row[swap] = row[swap], row[t]
            else:
                mate = next((j for j in range(t + 1, n) if M[t][j] != 0), None)
                if mate is None:
                    # zero row: a zero eigenvalue, no signature contribution
                    singular = True
                    t += 1
                    continue
                # all remaining diagonal entries vanish, so this makes
                # M[t][t] = 2*M[t][mate] != 0; both rows first come to
                # the current scale
                for i in (t, mate):
                    _rescale(M[i], t, level[i], prev)
                    level[i] = prev
                rt, rm = M[t], M[mate]
                for j in range(t, n):
                    rt[j] += rm[j]
                for k in range(t, n):
                    M[k][t] += M[k][mate]
        piv = M[t]
        _rescale(piv, t, level[t], prev)
        p = piv[t]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        ptail = piv[t + 1:]
        for i in range(t + 1, n):
            row = M[i]
            c = row[t]
            if c:
                lv = level[i]
                row[t + 1:] = [(p * x - c * y) // lv
                               for x, y in zip(row[t + 1:], ptail)]
                level[i] = p
        minor, prev = prev, p
        t += 1
    return pos - neg, 0 if singular else prev, minor



def reference_events(rows) -> tuple[int, int]:
    """(swaps, mates) the reference pass makes on rows: the executions of
    the line that starts each, counted by a line tracer."""
    lines, first = inspect.getsourcelines(full_signature_det)
    starts = {text.strip(): first + k for k, text in enumerate(lines)}
    swap_line = starts["M[t], M[swap] = M[swap], M[t]"]
    mate_line = starts["rt, rm = M[t], M[mate]"]
    code = full_signature_det.__code__
    counts = Counter()

    def count_lines(frame, event, arg):
        if event == "line":
            counts[frame.f_lineno] += 1
        return count_lines

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count_lines if frame.f_code is code else None)
    try:
        full_signature_det([list(r) for r in rows])
    finally:
        sys.settrace(old)
    return counts[swap_line], counts[mate_line]


def plumbing_tree(rng: random.Random, n: int) -> list[list[int]]:
    """A plumbing tree, mostly a chain, with framings that include 0."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice((-2, -2, -1, 0, 1, 2, -3))
        if i:
            j = i - 1 if rng.random() < 0.8 else rng.randrange(i)
            rows[i][j] = rows[j][i] = rng.choice((1, 1, -1, 2))
    return rows


def zeroed_rows(rng: random.Random) -> list[list[int]]:
    """A family instance with some rows (and their columns) set to 0."""
    rows = instance(FAMILIES[rng.randrange(len(FAMILIES))], rng) or [[0]]
    for k in rng.sample(range(len(rows)), rng.randint(1, len(rows))):
        for j in range(len(rows)):
            rows[k][j] = rows[j][k] = 0
    return rows


def swaps_and_mates(rng: random.Random) -> list[list[int]]:
    """A block sum of hyperbolic planes a*H, zero-diagonal 3 x 3 blocks,
    1 x 1 blocks (0 among them) and now and then a congruent pair,
    symmetrically permuted: the zero diagonal entries force swaps and,
    once no nonzero diagonal entry is left, mates."""
    blocks = []
    for _ in range(rng.randint(2, 6)):
        kind = rng.randrange(4)
        if kind == 0:
            a = rng.choice((1, -1, 2, 3))
            blocks.append([[0, a], [a, 0]])
        elif kind == 1:
            a, b, c = (rng.choice((0, 1, -1, 2)) for _ in range(3))
            blocks.append([[0, a, b], [a, 0, c], [b, c, 0]])
        elif kind == 2:
            blocks.append([[rng.choice((0, 1, -1, 2, -5))]])
        else:
            blocks.append(_congruent_diagonal(rng, [rng.choice((1, -1, 2)), 0]))
    n = sum(map(len, blocks))
    full = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            full[at + i][at:at + len(b)] = row
        at += len(b)
    perm = rng.sample(range(n), n)
    return [[full[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def upper_triangle_cases():
    """(kind, rows) for the differential of the upper-triangle pass."""
    for family in FAMILIES:
        rng = random.Random(f"upper-{family}")
        for _ in range(PER_FAMILY):
            yield family, instance(family, rng)
    rng = random.Random("upper-plumbing")
    for n in range(1, 61):
        yield "chain", [[-2 if i == j else int(abs(i - j) == 1) for j in range(n)]
                        for i in range(n)]
        for _ in range(5):
            yield "plumbing", plumbing_tree(rng, n)
    for n in (20, 30, 40, 50, 60):
        yield "dense", [list(r) for r in random_symmetric(random.Random(n), n).entries]
    yield "empty", []
    for x in (0, 1, -1, 2, -7, 10 ** 40):
        yield "1x1", [[x]]
    rng = random.Random("upper-zero-rows")
    for _ in range(500):
        yield "zero_rows", zeroed_rows(rng)
    rng = random.Random("upper-swaps-mates")
    for _ in range(1000):
        yield "swaps_mates", swaps_and_mates(rng)


def test_upper_triangle_pass_matches_full_storage_reference():
    kinds = Counter()
    several_swaps = several_mates = both = 0
    for kind, rows in upper_triangle_cases():
        want = full_signature_det([list(r) for r in rows])
        assert _signature_det([list(r) for r in rows]) == want, (kind, rows)
        kinds[kind] += 1
        if kind == "swaps_mates":
            swaps, mates = reference_events(rows)
            several_swaps += swaps >= 2
            several_mates += mates >= 2
            both += swaps >= 2 and mates >= 2
    assert sum(kinds.values()) == 4 * PER_FAMILY + 60 * 6 + 5 + 1 + 6 + 500 + 1000
    assert several_swaps >= 600 and several_mates >= 500 and both >= 400


# ----------------------------------------------------------------------
# The characteristic test, the Wu map, spins[k] and membership, against
# one reference that reads c entry by entry.  The four tests keep the
# names of the former routines each was first checked against.
# ----------------------------------------------------------------------

TUPLE_PRESENTATIONS = 1000
TUPLE_PAIRS = 10  # per presentation
FAST_PATH_SIZES = (0, 1, 4, 8, 9, 16, 17, 199)
FAST_PATH_PROBES = 1300  # per size
CARRIED_SIZES = (0, 1, 4, 8, 9, 16, 17, 64)
CARRIED_PROBES = 1300  # per size


class SpinReference:
    """The spin structures of p and their Wu map, with no XOR table, no
    memo and no carried mask.

    ``mask`` is the characteristic test and ``wu`` the Wu map.  Both read c
    entry by entry with ``& 1``, so a bad argument raises the TypeError,
    AttributeError or InvalidSpinStructure of ``wu_coset_of_difference``,
    with its message.  Row i of q c mod 2 is the parity of c against row i
    of q, and the Gamma2 coordinates are popcount parities against
    ``p.gamma2_generators``.

    ``[k]``, ``in``, ``count`` and ``index`` are those of the list of the
    solutions of q c = diag q mod 2 as ``spins[k]`` reads them.  Solution k
    is the particular solution XOR the kernel vectors the bits of k pick,
    the first kernel vector the most significant bit, and it carries its
    mask after c.  The position of a characteristic mask x is the k that
    ``Mod2Solution.index`` reads, checked here: solution k must be x, and
    the solutions are distinct, so no other k is."""

    def __init__(self, p: SurgeryPresentation):
        self.p, self.n = p, p.n
        self.rows = [_mask(row) for row in p.q.entries]
        self.diagonal = _mask(p.q.diagonal())
        self.sol = p.q._over_z2[2]
        self.particular = _mask(self.sol.particular)
        self.kernel = [_mask(vec) for vec in reversed(self.sol.kernel)]
        self.size = 2 ** len(self.kernel)

    def _characteristic(self, x: int) -> bool:
        return self.diagonal == sum(((row & x).bit_count() & 1) << i
                                    for i, row in enumerate(self.rows))

    def mask(self, s) -> int | None:
        """The mask of s when s is characteristic for p, else None."""
        c = s.c
        if len(c) != self.n:
            return None
        x = 0
        for j, bit in enumerate(c):
            if bit & 1:
                x |= 1 << j
        return x if self._characteristic(x) else None

    def wu(self, s1, s2) -> WuCoset:
        delta = 0
        for s in (s1, s2):
            x = self.mask(s)
            if x is None:
                raise InvalidSpinStructure(
                    f"vector {_QUOTE.repr(s.c)} fails the characteristic equation "
                    f"for {_QUOTE.repr(self.p.name)}")
            delta ^= x
        return WuCoset(Gamma2Element(tuple((delta & g).bit_count() & 1
                                           for g in self.p.gamma2_generators)))

    def _solution(self, k: int) -> int:
        x = self.particular
        for i, vec in enumerate(self.kernel):
            if k >> i & 1:
                x ^= vec
        return x

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(self.size))]
        k = index(k)
        if not -self.size <= k < self.size:
            raise IndexError("spin structure index out of range")
        x = self._solution(k % self.size)
        s = SpinStructure(tuple((x >> j) & 1 for j in range(self.n)))
        vars(s)["_mask"] = x
        return s

    def _position(self, s) -> int | None:
        """The k of the element s equals, else None: s is a
        ``SpinStructure`` whose c is a tuple of n entries, each equal to 0 or
        1, and those equal to 1 are characteristic."""
        if (type(s) is not SpinStructure or not isinstance(s.c, tuple)
                or len(s.c) != self.n or not all(x == 0 or x == 1 for x in s.c)):
            return None
        x = sum(1 << j for j, b in enumerate(s.c) if b == 1)
        if not self._characteristic(x):
            return None
        k = self.sol.index(x)
        assert self._solution(k) == x, (self.p.q, s)
        return k

    def __contains__(self, s) -> bool:
        return self._position(s) is not None

    def count(self, s) -> int:
        return int(s in self)

    def index(self, s, start=0, stop=None) -> int:
        k = self._position(s)
        if k is None or k not in range(*slice(start, stop).indices(self.size)):
            raise ValueError(f"{_QUOTE.repr(s)} is not in the sequence")
        return k


def moved_diagonal(rng: random.Random, n: int) -> list[list[int]]:
    """A diagonal of 0, +-1, +-2, +-3 and +-4 moved by elementary
    congruences (add c times row and column j to row and column i), so
    that betti1 and alpha are both often large; O(n) per move."""
    q = [[rng.choice((0, 1, -1, 2, -2, 3, 4, -4)) if i == j else 0 for j in range(n)]
         for i in range(n)]
    for _ in range(min(2 * n, 120) if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1, 2))
        for row in q:
            row[i] += c * row[j]
        q[i] = [a + c * b for a, b in zip(q[i], q[j])]
    return q


def any_spin(rng, p, spins):
    """A seeded spin structure of p; ``len(spins)`` overflows past 2**63."""
    return spins[rng.randrange(homology_profile(p).spin_structure_count)]


def spin_probe(rng, p, spins):
    """A vector to test against p: a spin structure, a random 0/1 vector,
    one of the wrong length, or one with entries outside {0, 1}."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(spins)
    if kind == 1:
        return SpinStructure(tuple(rng.randint(0, 1) for _ in range(p.n)))
    if kind == 2:
        wrong = p.n + 1 if p.n == 0 or rng.random() < 0.5 else p.n - 1
        return SpinStructure(tuple(rng.randint(0, 1) for _ in range(wrong)))
    # a spin structure or a random vector, shifted by even amounts
    base = rng.choice(spins).c if rng.random() < 0.5 else \
        tuple(rng.randint(0, 1) for _ in range(p.n))
    return SpinStructure(tuple(x + rng.choice((0, 2, -2, 4)) for x in base))


def fast_path_probe(rng, p, spins, kinds: Counter):
    """A vector to test against p, its kind counted in ``kinds``."""
    n = p.n
    base = list(any_spin(rng, p, spins).c if rng.random() < 0.6 else
                [rng.randint(0, 1) for _ in range(n)])
    kind = rng.choice(("bits", "large", "negative", "bool", "list", "length",
                       "float", "str"))
    if kind == "large" and n:
        # entries past one byte, odd and even
        for j in rng.sample(range(n), rng.randint(1, n)):
            base[j] += rng.choice((256, 258, 1000, 2 ** 70))
    elif kind == "negative" and n:
        for j in rng.sample(range(n), rng.randint(1, n)):
            base[j] -= rng.choice((2, 4, 256, 2 ** 70))
    elif kind == "bool":
        base = [bool(x) for x in base]
    elif kind == "length":
        base = base[:-1] if n and rng.random() < 0.5 else base + [rng.randint(0, 1)]
    elif kind in ("float", "str") and n:
        base[rng.randrange(n)] = rng.choice((0.0, 1.0, 2.5)) if kind == "float" \
            else rng.choice(("", "0", "1"))
    kinds[kind] += 1
    return SpinStructure(base if kind == "list" else tuple(base))


CARRIED_KINDS = ("spin", "foreign", "tuple", "list", "bool", "negative", "huge",
                 "length", "float", "other", "copy", "pickle", "replace")


def carried_probe(rng, kind, spins, foreign):
    """A vector of the given kind for the Wu map of the presentation of
    ``spins``; ``foreign`` is the sequence of another presentation of the
    same n.  "copy", "pickle" and "replace" (a rebuild from c) start from a
    spin structure that carries its mask, or a user-built one."""
    if kind in ("spin", "foreign"):
        own = spins if kind == "spin" else foreign
        return any_spin(rng, own._p, own)
    base = list(any_spin(rng, spins._p, spins).c if rng.random() < 0.6 else
                [rng.randint(0, 1) for _ in range(spins._n)])
    n = len(base)
    if kind == "negative" and n:
        for j in rng.sample(range(n), rng.randint(1, n)):
            base[j] -= rng.choice((1, 2, 3, 2 ** 70))
    elif kind == "huge" and n:
        for j in rng.sample(range(n), rng.randint(1, n)):
            base[j] += rng.choice((2 ** 64, 2 ** 64 + 1, 2 ** 65 + 2, 3 ** 50))
    elif kind == "bool":
        base = [bool(x) for x in base]
    elif kind == "length":
        base = base[:-1] if n and rng.random() < 0.5 else base + [rng.randint(0, 1)]
    elif kind == "float" and n:
        base[rng.randrange(n)] = rng.choice((0.0, 1.0))
    if kind == "other":
        return rng.choice((tuple(base), None, base))
    s = SpinStructure(base if kind == "list" else tuple(base))
    if kind in ("copy", "pickle", "replace"):
        if rng.random() < 0.5:
            s = any_spin(rng, spins._p, spins)
        s = (copy.copy(s) if kind == "copy" else
             pickle.loads(pickle.dumps(s)) if kind == "pickle" else
             type(s)(s.c))
    return s


class Index:
    """An integer known to ``operator.index`` only."""

    def __init__(self, k):
        self.k = k

    def __index__(self):
        return self.k


class BitTuple(tuple):
    pass


def index_probe(rng, count: int):
    """An index of each kind ``spins[k]`` takes or refuses."""
    kind = rng.randrange(9)
    k = rng.randrange(count)
    if kind <= 2:
        return k
    if kind == 3:
        return k - count
    if kind == 4:
        return rng.choice((True, False))
    if kind == 5:
        return Index(k if rng.random() < 0.8 else count)
    if kind == 6:
        start = rng.choice((k, k - count))
        return slice(start, start + rng.randint(-3, 3), rng.choice((None, 1, 2, -1)))
    if kind == 7:
        return rng.choice((count, -count - 1, count + 2 ** 80, -2 ** 90))
    return rng.choice((1.0, "0", None, 2 ** 0.5))


def member_probe(rng, spins):
    """A vector for ``in``, ``count`` and ``index``: an element, one with
    entries True/False, 1.0 or -0.0, one of the wrong length, a list c, a
    tuple subclass, entries outside {0, 1}, or no spin structure at all."""
    n = spins._n
    c = list(any_spin(rng, spins._p, spins).c if rng.random() < 0.7 else
             [rng.randint(0, 1) for _ in range(n)])
    kind = rng.randrange(8)
    if kind == 1:
        c = [bool(x) for x in c]
    elif kind == 2 and n:
        for j in rng.sample(range(n), rng.randint(1, n)):
            c[j] = float(c[j]) if c[j] else rng.choice((0.0, -0.0))
    elif kind == 3:
        c = c[:-1] if c and rng.random() < 0.5 else c + [0]
    elif kind == 4:
        return SpinStructure(c)
    elif kind == 5:
        return SpinStructure(BitTuple(c))
    elif kind == 6 and n:
        c[rng.randrange(n)] = rng.choice((2, -1, "1", None))
    elif kind == 7:
        return rng.choice((tuple(c), None, "spin"))
    return SpinStructure(tuple(c))


def outcome(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def field_names(obj) -> list[str] | None:
    """The field names of a dataclass or of a value type of the package
    (``errors._Value``), read from the class's annotations; None for any
    other object."""
    if dataclasses.is_dataclass(obj):
        return [f.name for f in dataclasses.fields(obj)]
    if isinstance(obj, _Value):
        return list(type(obj).__annotations__)
    return None


def object_state(obj):
    """What two returned objects must share: the class, the instance dict
    in order, the field names, hash and repr, each also after a pickle,
    copy and ``type(o)(*fields)`` round trip, for a dataclass and for a
    value type of the package alike; for a ``WuCoset`` the same of its
    value.  A list gives the states of its items, any other value
    itself."""
    if isinstance(obj, list):
        return [object_state(x) for x in obj]
    names = field_names(obj)
    if names is None:
        return obj

    def own(o):
        return (type(o), list(o.__dict__.items()), field_names(o), outcome(hash, o), repr(o))

    trips = (pickle.loads(pickle.dumps(obj)), copy.copy(obj),
             type(obj)(*[getattr(obj, name) for name in names]))
    inner = object_state(obj.value) if type(obj) is WuCoset else None
    return own(obj), [own(o) for o in trips], inner


def wu_verdict(p: SurgeryPresentation, s, spin: SpinStructure):
    """The Wu map's verdict on the probe s, in the form of the outcome of
    ``SpinReference.mask``.  s goes into both argument positions against
    ``spin``, a spin structure of p, and both must agree: None when both
    raise InvalidSpinStructure, the type and message of any other exception
    both raise, else the mask of c.  Either way the calls leave the
    instance dict of s as it was."""
    before = list(getattr(s, "__dict__", {}).items())
    first = outcome(wu_coset_of_difference, p, s, spin)
    second = outcome(wu_coset_of_difference, p, spin, s)
    assert list(getattr(s, "__dict__", {}).items()) == before, s
    if not isinstance(first, WuCoset):
        assert second == first, (s, first, second)
        return None if first[0] is InvalidSpinStructure else first
    assert isinstance(second, WuCoset) and second.value == first.value, s
    return _mask(s.c)


def memo_wu(p: SurgeryPresentation, s1, s2, want) -> str:
    """The Wu map on (s1, s2), called twice, against ``want``, the
    reference's outcome, and the memo contract; the name of what happened.
    A coset the memo holds comes back as that object, whose state was
    checked when it was built.  Else, while the memo has room, the new
    coset is kept and comes back again; past _WU_COSET_CAP each call builds
    a new coset of the same state and keeps none."""
    memo = p._wu_cosets
    if isinstance(want, WuCoset):
        key = _mask(want.value.coords)
        kept, room = memo.get(key), len(memo) < _WU_COSET_CAP
    got = outcome(wu_coset_of_difference, p, s1, s2)
    again = outcome(wu_coset_of_difference, p, s1, s2)
    if not isinstance(want, WuCoset):
        assert got == want and again == want, (p.q, s1, s2)
        return "wu " + want[0].__name__
    assert len(memo) <= _WU_COSET_CAP
    if kept is not None:
        assert got is kept and again is kept and got == want, (p.q, s1, s2)
        return "wu kept"
    state = object_state(want)
    assert object_state(got) == state, (p.q, s1, s2)
    if room:
        assert memo[key] is got and again is got, (p.q, s1, s2)
        return "wu stored"
    assert key not in memo and again is not got, (p.q, s1, s2)
    assert object_state(again) == state, (p.q, s1, s2)
    return "wu rebuilt"


def test_spin_predicate_and_wu_match_tuple_reference():
    """The Wu map's verdict on a probe (``wu_verdict``) and
    ``wu_coset_of_difference`` against ``SpinReference`` on 10 pairs of
    ``spin_probe`` vectors on each of 1,000 presentations of the four
    families: the same mask or None, the same coset, or the same exception
    type and message.  The probes include vectors of the wrong length and
    entries outside {0, 1}."""
    rng = random.Random("spin-path")
    noncharacteristic = nonbit = wu_rejected = wu_mapped = 0
    for k in range(TUPLE_PRESENTATIONS):
        p = SurgeryPresentation("d", IntSymMatrix(instance(FAMILIES[k % 4], rng)))
        ref, spins = SpinReference(p), spin_structures(p)
        for _ in range(TUPLE_PAIRS):
            s1, s2 = spin_probe(rng, p, spins), spin_probe(rng, p, spins)
            want = ref.mask(s1)
            assert wu_verdict(p, s1, spins[0]) == want, (p.q, s1)
            noncharacteristic += want is None
            nonbit += any(x not in (0, 1) for x in s1.c + s2.c)
            want = outcome(ref.wu, s1, s2)
            assert outcome(wu_coset_of_difference, p, s1, s2) == want, (p.q, s1, s2)
            wu_rejected += isinstance(want, tuple)
            wu_mapped += isinstance(want, WuCoset)
    assert noncharacteristic >= 1000 and nonbit >= 1000
    assert wu_rejected >= 1000 and wu_mapped >= 1000


def test_table_lookups_match_loop_reference():
    """The Wu map's verdict on a probe (``wu_verdict``) and
    ``wu_coset_of_difference`` against ``SpinReference`` on 1,300
    ``fast_path_probe`` vectors at each n in FAST_PATH_SIZES: the same mask
    or None, the same coset, or the same exception type and message, with
    entries past one byte, negative, ``bool``, ``float`` and ``str``, and
    vectors held in a list."""
    rng = random.Random("table-lookups")
    kinds, results = Counter(), Counter()
    probes = 0
    for n in FAST_PATH_SIZES:
        presentations = []
        for _ in range(2 if n == 199 else 20):
            p = SurgeryPresentation("d", IntSymMatrix(moved_diagonal(rng, n)))
            presentations.append((p, SpinReference(p), spin_structures(p)))
        for _ in range(FAST_PATH_PROBES):
            p, ref, spins = rng.choice(presentations)
            s1 = fast_path_probe(rng, p, spins, kinds)
            s2 = fast_path_probe(rng, p, spins, kinds) if rng.random() < 0.3 else \
                any_spin(rng, p, spins)
            want = outcome(ref.mask, s1)
            assert wu_verdict(p, s1, spins[0]) == want, (p.q, s1)
            results["raised" if isinstance(want, tuple) else
                    "none" if want is None else "mask"] += 1
            want = outcome(ref.wu, s1, s2)
            assert outcome(wu_coset_of_difference, p, s1, s2) == want, (p.q, s1, s2)
            results["wu" if isinstance(want, WuCoset) else want[0].__name__] += 1
            probes += 1
    assert probes >= 10000
    assert min(kinds.values()) >= 1000 and len(kinds) == 8, kinds
    assert min(results.values()) >= 500, results
    assert results["wu"] >= 2000 and set(results) == {
        "raised", "none", "mask", "wu", "InvalidSpinStructure", "TypeError"}, results


def test_carried_masks_and_memo_match_uncached_reference():
    """The Wu map's verdict on a probe (``wu_verdict``), ``spins[k]`` and
    ``wu_coset_of_difference`` against ``SpinReference``, 1,300 probes at
    each n in CARRIED_SIZES: the same element, the same mask or None, and
    the same coset or the same exception type and message.  The probes are
    spin structures of the presentation and of another one of the same n,
    user-built tuples, lists, bools, negative entries, entries past 2**64,
    the wrong length, floats, arguments that are not spin structures, and
    copy, pickle and rebuilt spin structures.  Each goes through two
    rounds, and a list c is changed in place between them, so it must be
    read afresh.  Every Wu call is made twice and checked against the memo
    contract (``memo_wu``)."""
    rng = random.Random("carried-masks")
    kinds, results = Counter(), Counter()
    foreign_rejected = probes = 0
    for n in CARRIED_SIZES:
        spaces = []
        for _ in range(2 if n == 64 else 12):
            p = SurgeryPresentation("d", IntSymMatrix(moved_diagonal(rng, n)))
            spaces.append((p, SpinReference(p), spin_structures(p)))
        for _ in range(CARRIED_PROBES):
            (p, ref, spins), foreign = rng.choice(spaces), rng.choice(spaces)[2]
            k = rng.randrange(ref.size)
            assert list(vars(spins[k]).items()) == list(vars(ref[k]).items()), k
            kind = rng.choice(CARRIED_KINDS)
            s1 = carried_probe(rng, kind, spins, foreign)
            s2 = carried_probe(rng, rng.choice(CARRIED_KINDS), spins, foreign) \
                if rng.random() < 0.3 else spins[k]
            for again in (False, True):
                if again and kind == "list" and s1.c:
                    s1.c[rng.randrange(len(s1.c))] += 1
                happened = memo_wu(p, s1, s2, outcome(ref.wu, s1, s2))
                if not again:
                    results[happened] += 1
                want_mask = outcome(ref.mask, s1)
                assert wu_verdict(p, s1, spins[k]) == want_mask, (p.q, s1)
            kinds[kind] += 1
            foreign_rejected += (kind == "foreign" and foreign is not spins
                                 and want_mask is None)
            probes += 1
    assert probes >= 10000
    assert min(kinds.values()) >= 600 and len(kinds) == len(CARRIED_KINDS), kinds
    assert foreign_rejected >= 200
    assert results["wu kept"] + results["wu stored"] >= 2000
    assert min(results.values()) >= 200 and set(results) == {
        "wu kept", "wu stored", "wu InvalidSpinStructure", "wu TypeError",
        "wu AttributeError"}, results


def test_straight_line_spin_and_wu_match_lookup_call_reference():
    """``spins[k]``, ``in``/``count``/``index`` and the Wu map against
    ``SpinReference``, 1,300 probes at each n in CARRIED_SIZES: the same
    value with the same object state (``object_state``), or the same
    exception type and message.  Indices include negative ones, bools,
    ``__index__`` objects, slices, out-of-range and non-integer ones.  The
    Wu probes are those of ``carried_probe``, each call checked against
    the memo contract (``memo_wu``), and a quarter of the presentations
    start with their memo at the cap.  Iteration is checked on the first
    64 elements of each presentation."""
    rng = random.Random("straight-line")
    results = Counter()
    at_cap = 0
    for n in CARRIED_SIZES:
        spaces = []
        for _ in range(2 if n == 64 else 12):
            p = SurgeryPresentation("d", IntSymMatrix(moved_diagonal(rng, n)))
            if rng.random() < 0.25:
                # the memo already at the cap, with keys no coordinates take
                p._wu_cosets.update((-1 - i, None) for i in range(_WU_COSET_CAP))
                at_cap += 1
            ref, spins = SpinReference(p), spin_structures(p)
            # iteration unpacks the elements apart from spins[k]
            for k, s in zip(range(64), spins):
                assert list(vars(s).items()) == list(vars(ref[k]).items()), (p.q, k)
            spaces.append((p, ref, spins))
        for _ in range(CARRIED_PROBES):
            (p, ref, spins), foreign = rng.choice(spaces), rng.choice(spaces)[2]
            i = index_probe(rng, ref.size)
            want = outcome(ref.__getitem__, i)
            assert object_state(outcome(spins.__getitem__, i)) == object_state(want), i
            results["read " + (type(want).__name__ if not isinstance(want, tuple)
                               else want[0].__name__)] += 1

            s = member_probe(rng, spins)
            start, stop = rng.choice(((0, None), (1, None), (0, 1), (-2, None)))
            for method in ("__contains__", "count"):
                assert outcome(getattr(spins, method), s) == \
                    outcome(getattr(ref, method), s), s
            want = outcome(ref.index, s, start, stop)
            assert outcome(spins.index, s, start, stop) == want, s
            results["member " + ("index" if isinstance(want, int) else "ValueError")] += 1

            s1 = carried_probe(rng, rng.choice(CARRIED_KINDS), spins, foreign)
            s2 = carried_probe(rng, rng.choice(CARRIED_KINDS), spins, foreign) \
                if rng.random() < 0.3 else spins[0]
            results[memo_wu(p, s1, s2, outcome(ref.wu, s1, s2))] += 1
    assert at_cap >= 10
    assert sum(results[k] for k in results if k.startswith("read")) >= 10000
    assert sum(results[k] for k in ("wu kept", "wu stored", "wu rebuilt")) >= 2000
    assert min(results.values()) >= 200 and set(results) == {
        "read SpinStructure", "read list", "read IndexError", "read TypeError",
        "member index", "member ValueError", "wu kept", "wu stored", "wu rebuilt",
        "wu InvalidSpinStructure", "wu TypeError", "wu AttributeError"}, results


# ----------------------------------------------------------------------
# The GF(2) elimination keyed by lowest set bit, against the column scan
# it replaced
# ----------------------------------------------------------------------

GJ_SYSTEMS = 10000


def column_scan_gauss_jordan_mod2(rows: list[int], ncols: int) -> list[int]:
    """The former ``_gauss_jordan_mod2``, verbatim."""
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        bit = 1 << c
        piv = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        for i, row in enumerate(rows):
            if i != r and row & bit:
                rows[i] = row ^ prow
        pivots.append(c)
        r += 1
    return pivots


def gf2_system(rng: random.Random) -> tuple[str, list[int], int, int]:
    """(shape, bitmask rows with the augmented columns in bits ncols and up,
    ncols, augmented width).  Chains and plumbing trees run up to n = 200,
    dense square systems up to n = 60; some rows are zeroed or repeated,
    and the augmented columns are either images of random vectors or
    random bits, so that many systems are inconsistent."""
    shape = rng.choice(("chain", "tree", "dense", "rectangular"))
    if shape in ("chain", "tree"):
        # q mod 2 of a plumbing: framings on the diagonal, one edge from
        # each vertex to an earlier one (the one before, on a chain)
        ncols = rng.randint(41, 200) if rng.random() < 0.06 else rng.randint(1, 40)
        left = [(rng.random() < 0.6) << i for i in range(ncols)]
        for i in range(1, ncols):
            j = i - 1 if shape == "chain" or rng.random() < 0.8 else rng.randrange(i)
            if rng.random() < 0.8:  # an odd edge
                left[i] |= 1 << j
                left[j] |= 1 << i
    elif shape == "dense":
        ncols = 60 if rng.random() < 0.2 else rng.randint(1, 60)
        left = [rng.getrandbits(ncols) for _ in range(ncols)]
    else:
        ncols = rng.randint(0, 30)
        left = [rng.getrandbits(ncols) & rng.getrandbits(ncols) if ncols else 0
                for _ in range(rng.randint(0, 30))]
    if left and rng.random() < 0.4:
        for i in rng.sample(range(len(left)), rng.randint(1, len(left))):
            left[i] = 0 if rng.random() < 0.5 else left[rng.randrange(len(left))]
    width = rng.randint(1, 3)
    if rng.random() < 0.5:
        xs = [rng.getrandbits(ncols) if ncols else 0 for _ in range(width)]
        aug = [sum(((row & x).bit_count() & 1) << k for k, x in enumerate(xs))
               for row in left]
    else:
        aug = [rng.getrandbits(width) for _ in left]
    return shape, [row | (b << ncols) for row, b in zip(left, aug)], ncols, width


def xor_span(vectors) -> set[int]:
    """Every XOR of a subset of the bitmask vectors."""
    span = {0}
    for v in vectors:
        span |= {x ^ v for x in span}
    return span


def test_lowest_bit_elimination_matches_column_scan_reference():
    """``_gauss_jordan_mod2`` against the column scan it replaced, on
    10,000 seeded systems: chains and plumbing trees up to n = 200, dense
    systems up to n = 60, rectangular ones, with one to three augmented
    columns.  The pivots are the same.  A consistent system gives the same
    rows; an inconsistent one the same rows below ncols, a leftover row
    with a nonzero augmented part in both, and the same row space."""
    rng = random.Random("lowest-bit")
    shapes, results = Counter(), Counter()
    for _ in range(GJ_SYSTEMS):
        shape, rows, ncols, _ = gf2_system(rng)
        old, new = list(rows), list(rows)
        pivots = column_scan_gauss_jordan_mod2(old, ncols)
        assert _gauss_jordan_mod2(new, ncols) == pivots, (rows, ncols)
        inconsistent = any(row >> ncols for row in old[len(pivots):])
        assert any(row >> ncols for row in new[len(pivots):]) == inconsistent
        if inconsistent:
            # the same rows below ncols; the pivot rows' augmented parts
            # differ by a combination of the leftover rows', which span the
            # same space: the same row space
            low = (1 << ncols) - 1
            assert [row & low for row in new] == [row & low for row in old]
            span = xor_span(row >> ncols for row in old[len(pivots):])
            assert xor_span(row >> ncols for row in new[len(pivots):]) == span
            assert all((a ^ b) >> ncols in span for a, b in zip(new, old))
        else:
            assert new == old, (rows, ncols)
        shapes[shape] += 1
        results["inconsistent" if inconsistent else "consistent"] += 1
        results["large"] += ncols > 150
    assert min(shapes.values()) >= 2000, shapes
    assert min(results.values()) >= 50, results
    assert results["inconsistent"] >= 2000 and results["consistent"] >= 2000, results



# ----------------------------------------------------------------------
# Coset parsing, embedding offsets and the Gamma2Element check, against
# the routines they replaced
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PostInitGamma2Element:
    """The former ``Gamma2Element``'s field and check, verbatim: the frozen
    dataclass ``__init__``, then ``__post_init__``."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = self.coords
        # a tuple of bits passes at C speed; anything else is checked entry
        # by entry
        if (type(coords) is not tuple
                or coords.count(0) + coords.count(1) != len(coords)):
            if any(b not in (0, 1) for b in coords):
                raise ValueError("coordinates must be bits")


def string_pass_parse_wu_coords(text: str, alpha: int) -> Gamma2Element:
    """The former ``parse_wu_coords``, verbatim."""
    cleaned = str(text).strip().strip("()").replace(",", "").replace(" ", "")
    if alpha == 0:
        if cleaned in ("", "0"):
            return Gamma2Element(())
        raise ParseError(
            f"Wu coordinates {_QUOTE.repr(text)} invalid: Gamma2 is trivial here")
    if len(cleaned) != alpha or cleaned.strip("01"):
        raise ParseError(
            f"Wu coordinates {_QUOTE.repr(text)} invalid: expected {alpha} bits"
        )
    return Gamma2Element(tuple(map(int, cleaned)))


def eager_label_parse_manifold(data: dict) -> ManifoldData:
    """The former ``parse_manifold``, verbatim but for the name of the
    coordinate parser: its coset block builds each coset's error label
    before reading the coset's signatures."""
    if not isinstance(data, dict):
        raise ParseError("manifold file must hold a JSON object")
    name = str(data.get("name", "unnamed"))
    matrix = data.get("linking_matrix")
    if not isinstance(matrix, list):
        raise ParseError("manifold file needs a 'linking_matrix' list of rows")
    rows = [_ints(row, f"linking_matrix[{r}]") for r, row in enumerate(matrix)]
    pres = SurgeryPresentation(name, IntSymMatrix(rows))
    profile = homology_profile(pres)

    signatures = None
    block = data.get("spin_boundary_signatures")
    if block is not None:
        if not isinstance(block, dict):
            raise ParseError("'spin_boundary_signatures' must map cosets to lists")
        per_coset: dict[Gamma2Element, frozenset[int]] = {}
        for key, values in block.items():
            coset = string_pass_parse_wu_coords(key, profile.alpha)
            sigs = frozenset(_ints(values, f"signatures for coset {_cut(key)!r}"))
            for s0 in sigs:
                if (s0 - profile.alpha) % 2:
                    raise ParityViolation(
                        f"base signature {_QUOTE.repr(s0)} for coset {_cut(key)!r} "
                        f"has the wrong parity (alpha = {profile.alpha})"
                    )
            per_coset[coset] = per_coset.get(coset, frozenset()) | sigs
        signatures = SpinBoundarySignatures(per_coset)
    return ManifoldData(pres, profile, signatures)


def coset_lookup_embedding_classes(h: HomologyProfile,
                                   sig: SpinBoundarySignatures) -> EmbeddingClassSet:
    """The former ``embedding_classes``, verbatim."""
    offsets: dict[Gamma2Element, frozenset[int]] = {}
    for coset in gamma2_elements(h):
        sigs = sig.per_coset.get(coset)
        if not sigs:
            raise CosetUncovered(
                f"no base signature supplied for Wu coset {coset}"
            )
        here = set()
        for s0 in sigs:
            if (s0 - h.alpha) % 2:
                raise ParityViolation(
                    f"base signature {_QUOTE.repr(s0)} has the wrong parity "
                    f"(alpha = {h.alpha})"
                )
            here.add((3 * (s0 - h.alpha) // 2) % 24)
        offsets[coset] = frozenset(here)
    return EmbeddingClassSet(offsets)


COSET_PROBES = 3500  # of each of the three kinds below


def mapping_state(mapping):
    """The items of a coset-keyed mapping in order: each key's class,
    instance dict, hash and repr (``object_state`` without the round
    trips), each value with its type."""
    return [((type(k), list(k.__dict__.items()), hash(k), repr(k)), v, type(v))
            for k, v in mapping.items()]


def coset_key(rng, alpha: int) -> str:
    """A coset key as a file may hold it, well formed or not."""
    bits = "".join(rng.choice("01") for _ in range(alpha))
    kind = rng.randrange(12)
    if kind <= 4:
        return bits or rng.choice(("", "0"))
    if kind == 5:
        return "(" + ", ".join(bits) + ")"
    if kind == 6:
        return rng.choice((" ", "\t", "\n", "")) + " ".join(bits) + rng.choice((" ", "\n", ""))
    if kind == 7:
        # a line break inside, brackets, a digit past 1, the wrong length
        at = rng.randint(0, len(bits))
        return bits[:at] + rng.choice(("\n", "\r\n", "[", "]", "2", "", "0", "x")) + bits[at:]
    if kind == 8:
        return bits.translate(str.maketrans("01", rng.choice(("٠١", "０１", "oi"))))
    if kind == 9:
        return bits * rng.randint(20, 60)  # cut in a message
    if kind == 10:
        return rng.choice(("", "0", "00", "()", "1", "(,)"))
    return bits[:-1] if bits else "01"


def signature_list(rng, alpha: int):
    """A signature list as a file may hold it: integers of the parity of
    alpha or not, booleans, floats, decimal strings, nested lists, or no
    list at all."""
    good = [alpha + 2 * rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
    kind = rng.randrange(12)
    if kind <= 5:
        return good
    if kind == 6:
        return good + [alpha + 1 + 2 * rng.randint(-3, 3)]
    if kind == 7:
        return good + [rng.choice((True, False, 2.0, 0.5, float(alpha)))]
    if kind == 8:
        return good + [rng.choice((str(alpha), f" {alpha + 2} ", "-4", "1e3", "0x10", "٣",
                                   "9" * 5000, str(2 ** 70 + alpha), ""))]
    if kind == 9:
        return good + [[alpha]] if rng.random() < 0.5 else [good]
    if kind == 10:
        return good + [2 ** 80 + alpha]
    return rng.choice((None, alpha, str(alpha), {"s": alpha}, "", True))


def coset_matrix(rng) -> list[list[int]]:
    """A linking matrix with alpha from 0 to 4: a diagonal moved by
    congruences."""
    diag = [rng.choice((2, -2, 4, 6, 1, -1, 3, 5, 0)) for _ in range(rng.randint(0, 5))]
    return _congruent_diagonal(rng, diag) if diag else []


def gamma2_coords(rng):
    """Coordinates to build a ``Gamma2Element`` from: bits, bools,
    floats, lists, strings, bytes, ranges, nested tuples, a tuple
    subclass, or no sequence at all."""
    bits = [rng.randint(0, 1) for _ in range(rng.randint(0, 12))]
    kind = rng.randrange(10)
    if kind <= 3:
        return tuple(bits)
    if kind == 4:
        return tuple(bool(b) for b in bits)
    if kind == 5 and bits:
        bits[rng.randrange(len(bits))] = rng.choice((1.0, 0.0, -0.0, 2.0, 0.5, 2, -1))
        return tuple(bits)
    if kind == 6:
        return bits
    if kind == 7:
        return rng.choice(("".join(map(str, bits)), bytes(bits), range(2), ((0,), (1,))))
    if kind == 8:
        return BitTuple(bits)
    return rng.choice((None, 0, 1, 1.5))


def gamma2_state(g):
    """``object_state`` of a Gamma2Element of either class, named alike."""
    state = repr(object_state(g))
    return state.replace("PostInitGamma2Element", "Gamma2Element").replace(
        "test_kernel_differential.", "imm5.surgery.")


def test_coset_parsing_and_offsets_match_string_pass_reference():
    """``parse_wu_coords``, the coset block of ``parse_manifold``,
    ``embedding_classes`` and the ``Gamma2Element`` check against the
    former routines, 3,500 seeded probes each: the same value and object
    state, or the same exception type and message.  Keys (strings, as a
    JSON object holds them) are bare bit strings, bracketed, spaced, broken
    by line breaks, of the wrong length, in other digits or long enough to
    be cut; signature lists hold integers of either parity, booleans,
    floats, decimal strings, nested lists, or are no list at all.  Offsets
    are asked of coverings with a coset missing or empty, a wrong parity,
    extra keys, keys with bool or float coordinates, and a read-only
    mapping."""
    rng = random.Random("coset-parsing")
    results = Counter()
    for _ in range(COSET_PROBES):
        alpha = rng.randint(0, 4)
        text = coset_key(rng, alpha) if rng.random() < 0.9 else rng.choice(
            (0, 101, None, True, 1.5, [0, 1], b"01"))
        want = outcome(string_pass_parse_wu_coords, text, alpha)
        assert object_state(outcome(parse_wu_coords, text, alpha)) == object_state(want), text
        results["coords " + ("ok" if isinstance(want, Gamma2Element) else want[0].__name__)] += 1

    matrices = []
    for _ in range(40):
        rows = coset_matrix(rng)
        matrices.append((rows, homology_profile(SurgeryPresentation("m", IntSymMatrix(rows))).alpha))
    for _ in range(COSET_PROBES):
        rows, alpha = rng.choice(matrices)
        block = {coset_key(rng, alpha): signature_list(rng, alpha)
                 for _ in range(rng.randint(0, 6))}
        data = {"name": "m", "linking_matrix": rows, "spin_boundary_signatures": block}
        want = outcome(eager_label_parse_manifold, data)
        got = outcome(parse_manifold, data)
        if isinstance(want, tuple):
            assert got == want, block
            results["parse " + want[0].__name__] += 1
            continue
        assert (got.presentation, got.profile) == (want.presentation, want.profile)
        assert mapping_state(got.signatures.per_coset) == \
            mapping_state(want.signatures.per_coset), block
        results["parse ok"] += 1
        results["parse merged"] += len(want.signatures.per_coset) < len(block)

    for _ in range(COSET_PROBES):
        coords = gamma2_coords(rng)
        want = outcome(PostInitGamma2Element, coords)
        got = outcome(Gamma2Element, coords)
        if isinstance(want, tuple):
            assert got == want, coords
            results["gamma2 " + want[0].__name__] += 1
            continue
        assert gamma2_state(got) == gamma2_state(want), coords
        assert gamma2_state(Gamma2Element(coords=coords)) == gamma2_state(want)
        results["gamma2 ok"] += 1

        h = HomologyProfile(rng.randint(0, 2), tuple(rng.choice((2, 4, 6, 8))
                                                     for _ in range(rng.randint(0, 5))))
        per_coset = {c: frozenset(h.alpha + 2 * rng.randint(-9, 9)
                                  for _ in range(rng.randint(1, 3)))
                     for c in gamma2_elements(h)}
        kind = rng.randrange(8)
        cosets = list(per_coset)
        pick = rng.choice(cosets)
        if kind == 1:
            del per_coset[pick]
        elif kind == 2:
            per_coset[pick] = rng.choice((frozenset(), [], ()))
        elif kind == 3:
            per_coset[pick] = per_coset[pick] | {h.alpha + 1}
        elif kind == 4:
            # keys no coset equals: another rank, a string, a bare tuple, and
            # an object of another class with the same coordinates
            for extra in (Gamma2Element((0,) * (h.alpha + 1)), str(pick), pick.coords,
                          PostInitGamma2Element(pick.coords)):
                per_coset[extra] = frozenset({h.alpha + 1})
            if rng.random() < 0.5:
                del per_coset[pick]
        elif kind == 5 and pick.coords:
            sigs = per_coset.pop(pick)
            per_coset[Gamma2Element(tuple(rng.choice((bool(b), float(b)))
                                          for b in pick.coords))] = sigs
        elif kind == 6:
            per_coset = types.MappingProxyType(per_coset)
        elif kind == 7:
            per_coset = {c: sorted(v) for c, v in per_coset.items()}
        sig = SpinBoundarySignatures(per_coset)
        want = outcome(coset_lookup_embedding_classes, h, sig)
        got = outcome(embedding_classes, h, sig)
        if isinstance(want, tuple):
            assert got == want, per_coset
            results["offsets " + want[0].__name__] += 1
        else:
            assert mapping_state(got.offsets_mod_24) == mapping_state(want.offsets_mod_24)
            results["offsets ok"] += 1
    assert min(results.values()) >= 100 and set(results) == {
        "coords ok", "coords ParseError", "parse ok", "parse merged", "parse ParseError",
        "parse ParityViolation", "gamma2 ok", "gamma2 ValueError", "gamma2 TypeError",
        "offsets ok", "offsets CosetUncovered", "offsets ParityViolation"}, results


# ----------------------------------------------------------------------
# One table set for the Wu map, against an independent computation, and
# Mod2Solution.index against a frozen loop
# ----------------------------------------------------------------------

WU_TABLE_SIZES = (0, 1, 4, 5, 16, 17, 199)


def alpha_matrix(rng: random.Random, n: int, alpha: int) -> list[list[int]]:
    """A diagonal with alpha even nonzero entries, odd entries (0 too, now
    and then) elsewhere, moved by elementary congruences: H1 has alpha
    even torsion factors."""
    odd = (1, -1, 3, -3) if rng.random() < 0.5 else (1, -1, 3, 0)
    diag = [rng.choice((2, -2, 4, 6, -4, 8)) for _ in range(alpha)]
    diag += [rng.choice(odd) for _ in range(n - alpha)]
    rng.shuffle(diag)
    q = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(min(2 * n, 120) if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1, 2))
        for row in q:
            row[i] += c * row[j]
        q[i] = [a + c * b for a, b in zip(q[i], q[j])]
    return q


def stacked_reference(p: SurgeryPresentation, x: int) -> int:
    """(Gamma2 coordinates of x) | (q x mod 2) << alpha, computed apart from
    any table: row i of q x mod 2 is the parity of the entries of row i of
    q at the set bits of x, coordinate i the parity of x & g_i."""
    bits = [(x >> j) & 1 for j in range(p.n)]
    qx = sum((sum(itertools.compress(row, bits)) & 1) << i for i, row in enumerate(p.q.entries))
    gens = p.gamma2_generators
    coords = sum(((x & g).bit_count() & 1) << i for i, g in enumerate(gens))
    return coords | qx << len(gens)


def test_wu_tables_match_independent_stacked_map():
    """One walk of a mask over ``SurgeryPresentation._wu_tables`` gives the
    Gamma2 coordinates below bit alpha and q x mod 2 above it, on both H1
    routes, at n = 0, 1, 4, 5, 16, 17 and 199 with alpha from 0 to 12:
    for 0, every single bit, all ones, spin structures and random masks.
    A spin structure's upper part is diag q mod 2."""
    rng = random.Random("wu-tables")
    alphas, routes = Counter(), Counter()
    walks = 0
    for n in WU_TABLE_SIZES:
        for alpha in ((0, 1, 2, 12) if n == 199 else range(min(n, 12) + 1)):
            for _ in range(1 if n == 199 else 3):
                p = SurgeryPresentation("d", IntSymMatrix(alpha_matrix(rng, n, alpha)))
                h = homology_profile(p)
                got_alpha, tables = p._wu_tables
                assert got_alpha == h.alpha == alpha, p.q
                spins = spin_structures(p)
                diagonal = _mask(p.q.diagonal())
                probes = [0, (1 << n) - 1] + [1 << j for j in range(min(n, 24))]
                probes += [rng.getrandbits(n) if n else 0 for _ in range(10)]
                for x in probes + [any_spin(rng, p, spins)._mask for _ in range(10)]:
                    y = _xor_lookup(tables, x, _CHUNK)
                    assert y == stacked_reference(p, x), (p.q, x)
                    walks += 1
                for _ in range(10):
                    assert _xor_lookup(tables, any_spin(rng, p, spins)._mask,
                                       _CHUNK) >> alpha == diagonal, p.q
                alphas[alpha] += 1
                routes["smith" if h.alpha >= 2 or h.betti1 else "mod det"] += 1
    assert set(alphas) == set(range(13)) and min(routes.values()) >= 15, (alphas, routes)
    assert walks >= 4000


INDEX_SYSTEMS = 1500


def test_index_matches_brute_force_map():
    """``Mod2Solution.index`` against a map from ``mask(k)`` to k, wherever
    there are at most 64 solutions, on 1,500 seeded systems with kernels
    of dimension 0, 1 and up to 70: symmetric q c = diag q and rectangular
    systems.  Probes are 0, solutions read back, and masks with pivot bits
    set at random, which are no solution; x is a solution exactly when
    ``mask(index(x)) == x``."""
    rng = random.Random("index-digits")
    dims, results = Counter(), Counter()
    for k in range(INDEX_SYSTEMS):
        if k % 3:
            n = 70 if k % 50 == 1 else rng.randint(0, 20)
            # a full rank (no kernel), one short of it, or any rank; n = 70
            # keeps at least 60 free columns
            rank = (rng.randint(0, 10) if n == 70 else n if k % 7 == 0 else
                    max(n - 1, 0) if k % 7 == 1 else rng.randint(0, n))
            sol = IntSymMatrix(low_rank_mod2(rng, n, rank))._over_z2[2]
        else:
            n = rng.randint(0, 20)
            m = [[rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(0, 20))]
            x = [rng.randint(0, 1) for _ in range(n)]
            sol = solve_mod2(m, [sum(map(mul, row, x)) for row in m])
        listed = {sol.mask(i): i for i in range(sol.count)} if sol.count <= 64 else None
        solutions = [rng.randrange(sol.count) for _ in range(8)]
        probes = [0, (1 << n) - 1] + [sol.mask(i) for i in solutions]
        probes += [rng.getrandbits(n) if n else 0 for _ in range(8)]
        for x in probes:
            got = sol.index(x)
            member = sol.mask(got) == x
            if listed is not None:
                assert member == (x in listed) and listed.get(x, got) == got, (sol, x)
            results["member" if member else "other"] += 1
        assert [sol.index(sol.mask(i)) for i in solutions] == solutions
        dims[min(len(sol.kernel), 8)] += 1
        dims["60+"] += len(sol.kernel) >= 60
    assert set(dims) == {*range(9), "60+"}, dims
    assert min(dims[0], dims[1], dims[8]) >= 100 and dims["60+"] >= 20, dims
    assert min(results.values()) >= 5000, results
