"""Brute-force oracles and built-in reproductions.

Two layers live here, on top of the record types and validators of
``imm5.invariants``:

* independent oracles (determinantal divisors for the Smith form,
  Descartes sign counting on the characteristic polynomial for the
  signature, parity of even nonsingular forms) run as seeded random
  sweeps;
* the built-in checks behind ``imm5 verify --corollaries``: the
  sphere-embedding 24Z sweep and the two 3-torus computations.
"""

from __future__ import annotations

import itertools
import random
from math import gcd
from operator import mul

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


# ----------------------------------------------------------------------
# Random instance generators (desk scale)
# ----------------------------------------------------------------------

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
