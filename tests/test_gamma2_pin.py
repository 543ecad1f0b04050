"""Gamma2 coordinates pinned for alpha >= 2.

With two or more even torsion factors, the Gamma2 generators come from
the Smith route, and which generators it picks depends on its pivot
choices.  They are what ``wu_coset_of_difference`` returns, and what a
library user keys ``spin_boundary_signatures`` by, yet no other test
pins them: the differential references drive the same
``_smith_reduce``.  ``data/gamma2_alpha_ge2.json`` holds 300 seeded
presentations with alpha >= 2, singular ones included: for each, q, its
``gamma2_generators``, a basis of ker(q mod 2) as bitmasks, and the Wu
coordinates of the difference each basis vector makes between two spin
structures.

The file was written by running this module as a script:

    PYTHONPATH=src python tests/test_gamma2_pin.py > tests/data/gamma2_alpha_ge2.json

Regenerate it only with a recorded decision to change the convention.
"""

import json
import random
import sys
from functools import cache
from pathlib import Path

import pytest

from imm5.intlinalg import IntSymMatrix, det_int
from imm5.spin import SpinStructure, spin_structures, wu_coset_of_difference
from imm5.surgery import SurgeryPresentation, homology_profile

PIN = Path(__file__).resolve().parent / "data" / "gamma2_alpha_ge2.json"
BLOCKS = (0, 1, -1, 2, -2, 3, -3, 4, -4, 6, -6, 8, -8)
COUNT = 300


def _conjugated(rng: random.Random, diag: list[int]) -> list[list[int]]:
    """g^T diag g for g a product of 2n random elementary moves."""
    n = len(diag)
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in g:
            row[i] += c * row[j]
    return [[sum(g[k][i] * diag[k] * g[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def presentations():
    """COUNT seeded block sums with alpha >= 2, n <= 12."""
    rng = random.Random("gamma2-alpha-ge2")
    found = 0
    while found < COUNT:
        diag = [rng.choice(BLOCKS) for _ in range(rng.randint(2, 12))]
        p = SurgeryPresentation("q", IntSymMatrix(_conjugated(rng, diag)))
        if homology_profile(p).alpha >= 2:
            found += 1
            yield p


def _bits(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> j) & 1 for j in range(n))


def wu_coords(p: SurgeryPresentation, kernel: list[int]) -> list[str]:
    """The Wu coordinates of s0 + k against s0, per kernel bitmask k."""
    s0 = next(iter(spin_structures(p)))
    return ["".join(map(str, wu_coset_of_difference(
        p, SpinStructure(tuple(x ^ y for x, y in zip(s0.c, _bits(k, p.n)))), s0
    ).value.coords)) for k in kernel]


def record(p: SurgeryPresentation) -> dict:
    kernel = [sum(x << j for j, x in enumerate(k)) for k in p.q._over_z2[2].kernel]
    return {"q": [list(r) for r in p.q.entries],
            "gamma2_generators": list(p.gamma2_generators),
            "kernel": kernel,
            "wu": wu_coords(p, kernel)}


@cache
def pinned() -> list[dict]:
    return json.loads(PIN.read_text(encoding="utf-8"))


def test_pin_covers_alpha_ge2_and_singular():
    cases = pinned()
    assert len(cases) == COUNT
    alphas = [homology_profile(SurgeryPresentation("q", IntSymMatrix(c["q"]))).alpha
              for c in cases]
    assert min(alphas) >= 2
    assert any(det_int(c["q"]) == 0 for c in cases)
    assert max(len(c["q"]) for c in cases) <= 12


@pytest.mark.parametrize("start", range(0, COUNT, 50))
def test_gamma2_generators_and_wu_coordinates_are_pinned(start):
    for case in pinned()[start:start + 50]:
        p = SurgeryPresentation("q", IntSymMatrix(case["q"]))
        assert list(p.gamma2_generators) == case["gamma2_generators"], case["q"]
        assert wu_coords(p, case["kernel"]) == case["wu"], case["q"]


if __name__ == "__main__":
    sys.stdout.write("[\n" + ",\n".join(
        json.dumps(record(p), separators=(",", ":")) for p in presentations()) + "\n]\n")
