"""Brute-force oracles and built-in reproductions.

Two layers live here, on top of the record types and validators of
``imm5.invariants``:

* independent oracles (determinantal divisors for the Smith form,
  Descartes sign counting on the characteristic polynomial for the
  signature, parity of even nonsingular forms) run as seeded random
  sweeps;
* the built-in checks behind ``imm5 verify --corollaries``: the
  sphere-embedding 24Z sweep and the two 3-torus computations.

Each battery draws every trial from one ``random.Random`` seeded with its
seed.  Every draw is a ``randint``: ``_randint`` and ``_randints`` run
CPython's ``randint`` inline on a ``random.Random`` (``getrandbits`` of the
width's bit length, redrawn until it falls below the width), so a seed
gives the values and the final generator state that ``randint`` gives.
Any other generator, a subclass included, is asked for its own
``randint``.

No oracle runs the kernel it checks.  The determinantal-divisor oracle
takes its minors with ``det_int`` (cofactor expansion up to 4 x 4,
Bareiss elimination beyond) and shares no code with ``_smith_reduce`` or
``_factors_mod_det``.  The characteristic polynomial is Berkowitz's
division-free recurrence and shares no code with ``_signature_det``.
The parity battery checks alpha, as ``homology_profile`` reads it,
against the size of the form alone.
"""

from __future__ import annotations

import itertools
import random
from math import gcd
from operator import itemgetter, mul, ne

from .embeddings import SpinBoundarySignatures, embedding_classes, is_embedding_class
from .errors import _Value
from .fixtures import manifold_json, presentation
from .intlinalg import (
    IntSymMatrix, _factors_mod_det, det_int, signature, smith_normal_form,
)
from .invariants import (
    ClosedMapRecordR5,
    ClosedMapRecordR6,
    ImmersionDoubleData,
    RegHomotopyClass,
    SeifertFillingR5,
    SeifertFillingR6,
    check_closed_r5,
    check_closed_r6,
    check_cusp_residue,
    i_a,
    i_b,
    smale_via_seifert_r5,
    solve_for_summand,
)
from .surgery import (
    Gamma2Element, HomologyProfile, SurgeryPresentation, homology_profile,
)


# ----------------------------------------------------------------------
# Independent oracles
# ----------------------------------------------------------------------

def invariant_factors_via_minors(rows) -> tuple[int, ...]:
    """Invariant factors from determinantal divisors.

    d_k = gcd(all k-minors) / gcd(all (k-1)-minors), with zeros once
    some gcd vanishes.  Shares no code with the elimination-based Smith
    routine, which it cross-checks.  The k-minors are taken rows first,
    each set of k rows against every set of k columns in turn, and the
    search stops at the first gcd of 1.
    """
    mat = [list(map(int, row)) for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    r = min(m, n)
    factors: list[int] = []
    prev = 1
    for k in range(1, r + 1):
        g = 0
        for rows_k in itertools.combinations(mat, k):
            for cols_k in itertools.combinations(range(n), k):
                # itemgetter of one column returns the entry, of k >= 2 a tuple
                sub = list(map(itemgetter(*cols_k), rows_k))
                g = gcd(g, det_int(sub if k > 1 else [sub]))
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

    Berkowitz's division-free recurrence (Berkowitz 1984).  Let A_r be
    the leading r x r block, R and C the first r entries of row r and of
    column r, and a = A[r][r].  The characteristic polynomial of A_{r+1}
    is the convolution of that of A_r with 1, -a, -R C, -R A_r C, ...,
    -R A_r^(r-1) C.  Entries go through ``int()``; a matrix that is not
    square raises ValueError.
    """
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if set(map(len, a)) - {n}:
        raise ValueError("charpoly_int needs a square matrix")
    poly = [1]
    for r in range(n):
        arow = a[r]
        block = a[:r]
        v = [row[r] for row in block]
        t = [1, -arow[r]]
        for k in range(r):
            if k:
                v = [sum(map(mul, row, v)) for row in block]
            t.append(-sum(map(mul, arow, v)))
        poly = [sum(map(mul, poly, t[i::-1])) for i in range(r + 2)]
    return poly


def _sign_changes(seq: list[int]) -> int:
    signs = [x > 0 for x in seq if x]
    return sum(map(ne, signs, signs[1:]))


def signature_via_charpoly(rows) -> int:
    """Root-sign count on the characteristic polynomial.

    All eigenvalues of a symmetric matrix are real, so Descartes' rule
    is exact: positive eigenvalues are the sign changes of p(x),
    negative ones those of p(-x), whose coefficients are those of p(x)
    with every other sign flipped.
    """
    coeffs = charpoly_int(rows)
    return (_sign_changes(coeffs)
            - _sign_changes(list(map(mul, coeffs, itertools.cycle((1, -1))))))


# ----------------------------------------------------------------------
# Random instance generators (desk scale)
# ----------------------------------------------------------------------

def _randint(rng: random.Random, a: int, b: int) -> int:
    """``rng.randint(a, b)``, the same value and the same draws.

    For a ``random.Random`` itself this is CPython's ``randint`` inlined:
    k = (b - a + 1).bit_length() bits are drawn until they fall below
    b - a + 1.  Any other generator, a subclass included, which may
    override ``random`` or ``getrandbits``, goes through its own
    ``randint``."""
    if type(rng) is not random.Random:
        return rng.randint(a, b)
    width = b - a + 1
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return a + r


def _randints(rng: random.Random, a: int, b: int, count: int) -> list[int]:
    """count calls of ``_randint(rng, a, b)``, in one loop."""
    if type(rng) is not random.Random:
        return [rng.randint(a, b) for _ in range(count)]
    width = b - a + 1
    k = width.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= width:
            r = bits(k)
        out.append(a + r)
    return out


def random_symmetric(rng: random.Random, n: int) -> IntSymMatrix:
    """Random symmetric matrix, entries uniform in [-5, 5].

    Entry (i, j) with j <= i is drawn in row-major order."""
    draws = _randints(rng, -5, 5, n * (n + 1) // 2)
    rows = [[0] * n for _ in range(n)]
    k = 0
    for i, row in enumerate(rows):
        for j in range(i + 1):
            row[j] = rows[j][i] = draws[k]
            k += 1
    return IntSymMatrix(rows)


def random_even_symmetric_nonsingular(rng: random.Random, n: int) -> IntSymMatrix:
    """Random symmetric matrix, even diagonal, nonzero determinant.

    Entries are uniform in [-5, 5] with the diagonal forced even;
    singular draws are rejected.  Row i draws its entries left of the
    diagonal, then the diagonal.
    """
    while True:
        rows = [[0] * n for _ in range(n)]
        for i, row in enumerate(rows):
            for j, x in enumerate(_randints(rng, -5, 5, i)):
                row[j] = rows[j][i] = x
            row[i] = 2 * _randint(rng, -2, 2)
        if det_int(rows) != 0:
            return IntSymMatrix(rows)


def random_int_matrix(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """Random m x n integer matrix, entries uniform in [-5, 5], drawn row by
    row."""
    draws = _randints(rng, -5, 5, m * n)
    return [draws[i * n:(i + 1) * n] for i in range(m)]


def random_consistent_seifert_data(
    rng: random.Random,
) -> tuple[SeifertFillingR5, SeifertFillingR6, ImmersionDoubleData, HomologyProfile]:
    """A parity-valid tuple with cusps = 3t - 3l + L on a shared filling."""
    sigma = _randint(rng, -8, 8)
    alpha = _randint(rng, 0, 3)
    if (sigma - alpha) % 2:
        alpha += 1
    h = HomologyProfile(_randint(rng, 0, 2), (2,) * alpha)
    t = _randint(rng, -4, 4)
    l = _randint(rng, -4, 4)
    big_l = 2 * _randint(rng, -5, 5) + ((t - l) % 2)
    cusps = 3 * t - 3 * l + big_l
    return (SeifertFillingR5(sigma, cusps),
            SeifertFillingR6(sigma, t, l),
            ImmersionDoubleData(big_l),
            h)


def random_r5_pair(rng: random.Random) -> tuple[SeifertFillingR5, SeifertFillingR5]:
    """Two cusp-route fillings of one immersion (equal 3*sigma + cusps)."""
    omega = _randint(rng, -20, 20)
    s1, s2 = _randint(rng, -8, 8), _randint(rng, -8, 8)
    return (SeifertFillingR5(s1, 2 * omega - 3 * s1),
            SeifertFillingR5(s2, 2 * omega - 3 * s2))


def random_r6_pair(rng: random.Random) -> tuple[SeifertFillingR6, SeifertFillingR6]:
    """Two triple-point-route fillings of one immersion (equal sigma + t - l)."""
    level = _randint(rng, -8, 8)
    s1, t1 = _randint(rng, -8, 8), _randint(rng, -4, 4)
    s2, t2 = _randint(rng, -8, 8), _randint(rng, -4, 4)
    return (SeifertFillingR6(s1, t1, s1 + t1 - level),
            SeifertFillingR6(s2, t2, s2 + t2 - level))


# ----------------------------------------------------------------------
# Oracle sweeps
# ----------------------------------------------------------------------

class OracleReport(_Value):
    name: str
    trials: int
    failures: tuple[str, ...]

    def __init__(self, name, trials, failures) -> None:
        self._set(name, trials, failures)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        mark = "✓" if self.passed else "✗"
        return (f"{self.name}: {self.trials - len(self.failures)}/{self.trials} "
                f"{mark}")


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
        n = _randint(rng, 1, max_dim)
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
        m = _randint(rng, 0, max_dim)
        n = _randint(rng, 0, max_dim)
        a = random_int_matrix(rng, m, n)
        dec = smith_normal_form(a)
        a_cols = list(zip(*a))
        v_cols = list(zip(*dec.v))
        ua = [[sum(map(mul, row, col)) for col in a_cols] for row in dec.u]
        if tuple(tuple(sum(map(mul, row, col)) for col in v_cols) for row in ua) != dec.s:
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
        q = random_symmetric(rng, _randint(rng, 0, max_dim))
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


def run_oracles(seed: int = 0, trials: int = 500) -> list[OracleReport]:
    """The full oracle battery with one base seed."""
    return [
        oracle_parity_lemma(trials, 6, seed),
        oracle_snf(trials, 6, seed + 1),
        oracle_signature(trials, 6, seed + 2),
        oracle_invariant_coincidence(2 * trials, seed + 3),
        oracle_gluing(trials, seed + 4),
    ]


# ----------------------------------------------------------------------
# Built-in reproductions (imm5 verify --corollaries)
# ----------------------------------------------------------------------

class CheckReport(_Value):
    name: str
    passed: bool
    lines: tuple[str, ...]

    def __init__(self, name, passed, lines) -> None:
        self._set(name, passed, lines)


def _sweep_report(name: str, headline: str, bad: list[str]) -> CheckReport:
    """A sweep's report: the headline marked by whether any case went bad,
    then one line per bad case."""
    mark = "✓" if not bad else "✗"
    return CheckReport(name, not bad, (f"{headline} {mark}", *bad))


def hughes_melvin_sweep() -> CheckReport:
    """Sphere embeddings land exactly on 24Z.

    For cusp-free data, Omega = 3*sigma/2 is a multiple of 24 iff sigma
    is a multiple of 16; signatures in 16Z + 8 land on 24Z + 12.  The
    sweep runs over every multiple of 8 in [-160, 160].
    """
    lo, hi = -160, 160
    bad = []
    for sigma in range(lo, hi + 1, 8):
        omega = smale_via_seifert_r5(SeifertFillingR5(sigma, 0)).omega
        if (omega % 24 == 0) != (sigma % 16 == 0):
            bad.append(f"sigma = {sigma}: Omega = {omega}")
    return _sweep_report(
        "hughes-melvin sweep",
        f"sphere embedding sweep: Ω = 3σ/2 ∈ 24ℤ exactly for "
        f"σ ∈ 16ℤ over [{lo}, {hi}]",
        bad)


def torus_summand_obstruction() -> CheckReport:
    """The sphere summand between the two 3-torus embeddings is never an
    embedding.

    F0 and F8 denote torus embeddings bounding Seifert surfaces of
    signatures 0 and 8.  The unique summand h with F0 # h ~ F8 has
    Omega(h) = 12, which misses the sphere embedding set 24Z.
    """
    h = homology_profile(presentation("t3"))
    wu = Gamma2Element.zero(h.alpha)
    f0 = RegHomotopyClass(wu, i_a(SeifertFillingR5(0, 0), h))
    f8 = RegHomotopyClass(wu, i_a(SeifertFillingR5(8, 0), h))
    summand = solve_for_summand(f0, f8)
    spheres = embedding_classes(homology_profile(presentation("s3")),
                                SpinBoundarySignatures.from_dict({Gamma2Element(()): [0]}))
    embeddable = is_embedding_class(
        RegHomotopyClass(Gamma2Element(()), summand.omega), spheres)
    passed = f0.i == 0 and f8.i == 12 and summand.omega == 12 and not embeddable
    mark = "✓" if passed else "✗"
    chain = ("12 = 3/2·8 = i(F₈) = i(F₀ ♯ h) = "
             "i(F₀) + Ω(h) = 0 + Ω(h), "
             "and Ω(h) = 12 ≠ 24k for every integer k")
    lines = (
        f"torus summand obstruction: {chain} {mark}",
        f"  hence the summand between F₀ and F₈ is never an embedding {mark}",
    )
    return CheckReport("torus summand obstruction", passed, lines)


def torus_absorption_sweep() -> CheckReport:
    """Every torus embedding absorbs the Omega = 12 sphere immersion.

    For an embedding E bounding signature 8k, i(E # h) = 12(k + 1) with
    Omega(h) = 12; an embedding with the same class is F8 # e_n for
    even k (n = k/2) and F0 # e_n for odd k (n = (k+1)/2), where e_n is
    the sphere embedding with Omega = 24n.  The sweep runs over k in
    [-10, 10].
    """
    k_lo, k_hi = -10, 10
    h = homology_profile(presentation("t3"))
    raw = manifold_json("t3")["spin_boundary_signatures"]
    torus_set = embedding_classes(
        h, SpinBoundarySignatures.from_dict({Gamma2Element(()): raw["0"]}))
    wu = Gamma2Element.zero(h.alpha)
    f0_i = i_a(SeifertFillingR5(0, 0), h)
    f8_i = i_a(SeifertFillingR5(8, 0), h)
    bad = []
    for k in range(k_lo, k_hi + 1):
        i_e = i_a(SeifertFillingR5(8 * k, 0), h)
        i_total = i_e + 12
        if i_total != 12 * (k + 1):
            bad.append(f"k = {k}: i(E # h) = {i_total} != 12(k+1)")
            continue
        if k % 2 == 0:
            n = k // 2
            i_match = f8_i + 24 * n
            base = "F8"
        else:
            n = (k + 1) // 2
            i_match = f0_i + 24 * n
            base = "F0"
        if i_match != i_total:
            bad.append(f"k = {k}: {base} # e_{n} gives {i_match} != {i_total}")
            continue
        if not is_embedding_class(RegHomotopyClass(wu, i_total), torus_set):
            bad.append(f"k = {k}: class {i_total} not an embedding class")
    return _sweep_report(
        "torus absorption sweep",
        f"torus absorption sweep: i(E ♯ h) = 12(k+1) matched by an "
        f"embedding class for all k in [{k_lo}, {k_hi}]",
        bad)


def run_reproductions() -> list[CheckReport]:
    return [
        hughes_melvin_sweep(),
        torus_summand_obstruction(),
        torus_absorption_sweep(),
    ]
