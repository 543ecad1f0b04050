"""Acceptance suite: one test per criterion, one printed line each.

Every criterion is exact integer arithmetic with a wall-clock budget;
run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import itertools
import time
from collections import Counter

from imm5.cli import main
from imm5.embeddings import (
    SpinBoundarySignatures,
    embedding_classes,
    is_embedding_class,
)
from imm5.fixtures import presentation
from imm5.intlinalg import IntSymMatrix
from imm5.invariants import (
    RegHomotopyClass,
    SeifertFillingR5,
    smale_via_seifert_r5,
    solve_for_summand,
)
from imm5.spin import spin_structures, wu_coset_of_difference
from imm5.surgery import (
    Gamma2Element,
    HomologyProfile,
    SurgeryPresentation,
    homology_profile,
)
from imm5.verify import (
    oracle_gluing,
    oracle_invariant_coincidence,
    oracle_parity_lemma,
    oracle_signature,
    oracle_snf,
    torus_absorption_sweep,
    torus_summand_obstruction,
)

WU0 = Gamma2Element(())


def criterion(number, budget_s, description):
    """Run the check against its wall-clock budget and print one line."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} FAIL: {description}")
                raise
            elapsed = time.perf_counter() - started
            assert elapsed < budget_s, (
                f"criterion {number} exceeded its {budget_s}s budget "
                f"({elapsed:.2f}s)")
            print(f"criterion {number} PASS ({elapsed:.2f}s): {description}")
        return wrapper
    return deco


@criterion(1, 1.0, "T3 census: alpha = 0, |Gamma2| = 1, 8 spin structures")
def test_torus_census(capsys):
    code = main(["analyze", "t3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "α = 0" in out
    assert "|Γ₂| = 1" in out
    assert "spin structures: 8" in out
    # classes form a single copy of Z
    assert "≅ ℤ" in out
    h = homology_profile(presentation("t3"))
    assert h.alpha == 0 and h.gamma2_order == 1
    assert len(spin_structures(presentation("t3"))) == 8


@criterion(2, 1.0, "cusp-free sweep hits 24Z exactly on signatures in 16Z")
def test_sphere_embedding_sweep():
    for sigma in range(-160, 161, 8):
        omega = smale_via_seifert_r5(SeifertFillingR5(sigma, 0)).omega
        assert omega == 3 * sigma // 2
        if sigma % 16 == 0:
            assert omega % 24 == 0
        else:
            assert omega % 24 == 12


@criterion(3, 1.0, "torus summand has Omega = 12 and is never an embedding")
def test_torus_summand_obstruction(capsys):
    summand = solve_for_summand(RegHomotopyClass(WU0, 0),
                                RegHomotopyClass(WU0, 12))
    assert summand.omega == 12
    sphere_set = embedding_classes(
        HomologyProfile(0, ()),
        SpinBoundarySignatures.from_dict({WU0: [0]}))
    assert not is_embedding_class(RegHomotopyClass(WU0, 12), sphere_set)
    report = torus_summand_obstruction()
    assert report.passed
    code = main(["verify", "--corollaries"])
    out = capsys.readouterr().out
    assert code == 0
    assert "12 = 3/2·8 = i(F₈)" in out
    assert "≠ 24k" in out


@criterion(4, 1.0, "every torus embedding absorbs the Omega = 12 immersion")
def test_torus_absorption():
    h = homology_profile(presentation("t3"))
    torus_set = embedding_classes(
        h, SpinBoundarySignatures.from_dict({WU0: [0, 8]}))
    assert torus_set.offsets_mod_24[WU0] == frozenset({0, 12})
    f0_i, f8_i = 0, 12
    for k in range(-10, 11):
        i_total = 3 * (8 * k) // 2 + 12
        assert i_total == 12 * (k + 1)
        assert is_embedding_class(RegHomotopyClass(WU0, i_total), torus_set)
        if k % 2 == 0:
            assert f8_i + 24 * (k // 2) == i_total
        else:
            assert f0_i + 24 * ((k + 1) // 2) == i_total
    assert torus_absorption_sweep().passed


@criterion(5, 10.0, "500 even nonsingular forms all satisfy size = alpha mod 2")
def test_parity_lemma_suite():
    report = oracle_parity_lemma(trials=500, max_dim=6, seed=1105)
    assert report.trials == 500
    assert report.failures == ()


@criterion(6, 5.0, "1000 consistent tuples give i_a = i_b plus the mod-3 residue")
def test_invariant_coincidence():
    report = oracle_invariant_coincidence(trials=1000, seed=1106)
    assert report.trials == 1000
    assert report.failures == ()


@criterion(7, 5.0, "500 filling pairs satisfy both closed-manifold identities")
def test_gluing_coherence():
    report = oracle_gluing(trials=500, seed=1107)
    assert report.trials == 500
    assert report.failures == ()


@criterion(8, 30.0, "500-trial Smith-form and signature oracle cross-checks")
def test_linear_algebra_oracles():
    snf = oracle_snf(trials=500, max_dim=6, seed=1108)
    sig = oracle_signature(trials=500, max_dim=6, seed=1109)
    assert snf.failures == ()
    assert sig.failures == ()


@criterion(9, 5.0, "spin-difference map onto Gamma2 with fibres of size 2^b1")
def test_spin_wu_surjectivity():
    cases = [
        presentation("t3"),                                          # alpha 0
        presentation("s1xs2"),                                       # alpha 0
        presentation("rp3"),                                         # alpha 1
        SurgeryPresentation("L4", IntSymMatrix([[4]])),              # alpha 1
        SurgeryPresentation("hyperbolic-even",
                            IntSymMatrix([[0, 2], [2, 0]])),         # alpha 2
        SurgeryPresentation("2+4", IntSymMatrix([[2, 0], [0, 4]])),  # alpha 2
    ]
    seen_alphas = set()
    for p in cases:
        h = homology_profile(p)
        seen_alphas.add(h.alpha)
        sols = spin_structures(p)
        base = sols[0]
        hits = Counter(
            wu_coset_of_difference(p, s, base).value.coords for s in sols)
        assert set(hits) == set(itertools.product((0, 1), repeat=h.alpha))
        assert all(count == 2 ** h.betti1 for count in hits.values())
    assert seen_alphas == {0, 1, 2}
