"""The oracle batteries' draws pinned, and the kernels under them checked
against computations that share no code with them.

``data/oracle_draws.expected.json`` holds what the batteries and their
generators drew when each still matched, draw for draw, its version from
before the batteries drew through ``verify._randint``: each battery's
``OracleReport`` and a SHA-256 of its generator's final ``getstate()``,
at seeds 0 to 99 with 50 trials and at seeds 0 to 3 with its default
trials; the same for ``random_symmetric`` at the benchmark's census sizes
and seeds, redrawn as the census setup redraws; a SHA-256 of each
generator's values and states, on ``random.Random`` and on a subclass
whose ``randint`` calls are counted, and those counts; and a SHA-256 of
what ``_smith_reduce`` leaves on 600 matrices (the diagonal, the reduced
matrix, u and v^T, and u^{-1} mod 2), whose pivot choices fix the Gamma2
generators for alpha >= 2.

``det_int`` is checked against the constant term of Berkowitz's
``charpoly_int`` on 10,000 square matrices up to 8 x 8, with entries up
to 2**70, bools, floats and numeric strings, and ``charpoly_int`` against
``det_int(t I - A)`` at n + 1 integer points on 800 matrices.
``_randint`` and ``_randints`` are checked against ``randint``, and entry
coercion against ``int()``.

The module needs the standard library alone.  The expected file was
written by running it as a script; ``--check`` runs every test instead:

    PYTHONPATH=src python tests/test_oracle_reference.py > tests/data/oracle_draws.expected.json
    PYTHONPATH=src python tests/test_oracle_reference.py --check
"""

import hashlib
import itertools
import json
import random
import sys
from functools import cache, partial
from operator import ne
from pathlib import Path

from imm5 import intlinalg, verify
from imm5.intlinalg import IntSymMatrix, _Mod2InverseCols

PIN = Path(__file__).resolve().parent / "data" / "oracle_draws.expected.json"
BATTERIES = {
    "parity": verify.oracle_parity_lemma,
    "snf": verify.oracle_snf,
    "signature": verify.oracle_signature,
    "coincidence": verify.oracle_invariant_coincidence,
    "gluing": verify.oracle_gluing,
}
GENERATORS = {
    "random_symmetric": (verify.random_symmetric, (5,)),
    "random_even_symmetric_nonsingular": (verify.random_even_symmetric_nonsingular, (4,)),
    "random_int_matrix": (verify.random_int_matrix, (3, 5)),
    "random_consistent_seifert_data": (verify.random_consistent_seifert_data, ()),
    "random_r5_pair": (verify.random_r5_pair, ()),
    "random_r6_pair": (verify.random_r6_pair, ()),
}
NOT_SQUARE = [
    [[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]], [[1], [2, 3]],
    [[]], [[1, 2]], [[1], [2]], [[1, 2, 3], [4, 5, 6], [7, 8]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], [[1, 0, 0, 0, 0]] * 4 + [[1, 2]],
    [[0] * 6] * 5 + [[0] * 7],
]
PARAMS = {"name": sorted(BATTERIES), "rows": NOT_SQUARE}


def pytest_generate_tests(metafunc):
    for arg in metafunc.fixturenames:
        if arg in PARAMS:
            metafunc.parametrize(arg, PARAMS[arg])


def digest(*values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def plain(x):
    """x with each matrix as its entries and each value type as its class
    name and fields, so that a digest does not read any repr."""
    if isinstance(x, (list, tuple)):
        return [plain(y) for y in x]
    if isinstance(x, IntSymMatrix):
        return plain(x.entries)
    if hasattr(x, "_fields"):
        return [type(x).__name__, *(plain(getattr(x, f)) for f in x._fields)]
    return x


def battery_draws(name: str, **kwargs) -> list:
    """[the report's name, trials and failures, the digest of the final
    state of the one generator the battery seeds].  ``Random.__init__``
    seeds through ``seed``, which is wrapped here to catch the generator;
    it stays exactly ``random.Random``."""
    made, seed = [], random.Random.seed

    def recording(self, *args, **kwargs):
        made.append(self)
        return seed(self, *args, **kwargs)

    random.Random.seed = recording
    try:
        report = BATTERIES[name](**kwargs)
    finally:
        random.Random.seed = seed
    assert len(made) == 1
    return [report.name, report.trials, list(report.failures), digest(made[0].getstate())]


def batteries_at_50_trials(name: str) -> list:
    return [battery_draws(name, trials=50, seed=seed) for seed in range(100)]


def batteries_at_default_trials(name: str) -> list:
    return [battery_draws(name, seed=seed) for seed in range(4)]


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


def census_draws() -> list:
    """[seed, n, draws, digest of the entries drawn, digest of the final
    state] for each census input.  The benchmark's prime is 2**61 - 1; a
    smaller one keeps the entries small here, and the first draw is
    accepted at every seed and size below."""
    out = []
    for seed in range(30):
        for n in (20, 40, 60):
            rng = random.Random(seed * 1000 + n)
            drawn = [verify.random_symmetric(rng, n).entries]
            while not full_rank_mod_p(drawn[-1]):
                drawn.append(verify.random_symmetric(rng, n).entries)
            out.append([seed, n, len(drawn), digest(drawn), digest(rng.getstate())])
    return out


class Counting(random.Random):
    calls = 0

    def randint(self, a, b):
        Counting.calls += 1
        return super().randint(a, b)


def generator_draws() -> dict:
    """Per generator: the digest of each value and final state at seeds 0 to
    19, on ``random.Random`` and on ``Counting``, and the counts of the
    ``randint`` calls made on ``Counting``, which a subclass must get."""
    out = {}
    for name, (generator, args) in GENERATORS.items():
        out[name] = entry = {"calls": []}
        for kind in (random.Random, Counting):
            entry[kind.__name__] = digests = []
            for seed in range(20):
                rng = kind(seed)
                Counting.calls = 0
                digests.append(digest(plain(generator(rng, *args)), rng.getstate()))
                if kind is Counting:
                    entry["calls"].append(Counting.calls)
    return out


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
        return [list(r) for r in verify.random_symmetric(rng, n).entries]
    n = rng.randint(1, 8)  # diagonal-heavy, so the fold-in step runs
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice((2, 4, 6, 9, 12, 0, -4))
    if n > 1:
        rows[0][1] = rng.choice((0, 2, 3))
    return rows


def smith_replays() -> list:
    """The digest of each case's diagonal, reduced matrix, u and v^T with
    both transforms replayed, and diagonal and u^{-1} mod 2 with no v."""
    rng = random.Random(41)
    out = []
    for _ in range(600):
        rows = smith_case(rng)
        m = len(rows)
        a = [list(r) for r in rows]
        u, vt = intlinalg._IntRows(m), intlinalg._IntRows(len(rows[0]) if m else 0)
        diagonal = intlinalg._smith_reduce(a, u, vt)
        inverse = _Mod2InverseCols(m)
        mod2 = intlinalg._smith_reduce([list(r) for r in rows], inverse, None)
        out.append(digest(diagonal, a, u.rows, vt.rows, mod2, inverse.cols))
    return out


def record() -> dict:
    return {
        "batteries at 50 trials": {n: batteries_at_50_trials(n) for n in sorted(BATTERIES)},
        "batteries at default trials": {n: batteries_at_default_trials(n)
                                        for n in sorted(BATTERIES)},
        "census": census_draws(),
        "generators": generator_draws(),
        "smith": smith_replays(),
    }


@cache
def pinned() -> dict:
    return json.loads(PIN.read_text(encoding="utf-8"))


def test_batteries_match_former_batteries_at_50_trials(name):
    want = pinned()["batteries at 50 trials"][name]
    assert batteries_at_50_trials(name) == want
    assert all(trials == 50 and not failures for _, trials, failures, _ in want)


def test_batteries_match_former_batteries_at_default_trials(name):
    want = pinned()["batteries at default trials"][name]
    assert batteries_at_default_trials(name) == want
    assert not any(failures for _, _, failures, _ in want)


def test_random_symmetric_draws_the_census_inputs():
    assert census_draws() == pinned()["census"]


def test_generators_draw_like_randint():
    """A subclass goes through its own ``randint``, call for call."""
    want = pinned()["generators"]
    assert generator_draws() == want
    for entry in want.values():
        assert entry["Random"] == entry["Counting"] and min(entry["calls"]) > 0


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


def test_det_int_matches_charpoly_constant_term():
    """det A = (-1)**n p(0) for p(x) = det(x I - A), Berkowitz's
    coefficients; entries go through ``int()`` in both."""
    rng = random.Random(27)
    pool = entry_pool(rng)
    sizes = [0] * 9
    for _ in range(10_000):
        n = rng.randrange(9)
        sizes[n] += 1
        rows = square_matrix(rng, pool, n)
        copied = [list(row) for row in rows]
        assert intlinalg.det_int(rows) == (-1) ** n * verify.charpoly_int(copied)[-1], rows
        assert [list(row) for row in rows] == copied  # the input is not changed
    assert min(sizes) >= 1000
    for n in range(7):
        q = IntSymMatrix(verify.random_symmetric(rng, n).entries)
        assert intlinalg.det_int(q) == (-1) ** n * verify.charpoly_int(q.entries)[-1]


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


def test_det_int_coerces_entries_as_former_det_int():
    """A square matrix with an entry ``int()`` refuses raises what ``int()``
    raises on it, as the former ``det_int``, which coerced every entry
    first, did."""
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randrange(1, 8)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        bad = rng.choice(("x", None, "1.5", float("nan"), float("inf"), [1], "2" * 5000))
        rows[rng.randrange(n)][rng.randrange(n)] = bad
        want = outcome(int, bad)
        assert isinstance(want, tuple)
        assert outcome(intlinalg.det_int, rows) == want


def sign_changes(seq) -> int:
    signs = [x > 0 for x in seq if x]
    return sum(map(ne, signs, signs[1:]))


def test_charpoly_matches_det_at_integer_points():
    """p(t) = det(t I - A) at t = 0, ..., n fixes the n + 1 coefficients of
    p; ``signature_via_charpoly`` is the Descartes count on p(x) and p(-x),
    and the signature on symmetric matrices."""
    rng = random.Random(8)
    for _ in range(800):
        n = rng.randrange(9)
        bound = rng.choice((1, 5, 1000, 1 << 40))
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        symmetric = rng.random() < 0.5
        if symmetric:
            rows = [[rows[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
        coeffs = verify.charpoly_int(rows)
        assert len(coeffs) == n + 1 and coeffs[0] == 1, rows
        for t in range(n + 1):
            shifted = [[t * (i == j) - x for j, x in enumerate(row)]
                       for i, row in enumerate(rows)]
            assert sum(c * t ** (n - k) for k, c in enumerate(coeffs)) == \
                intlinalg.det_int(shifted), (rows, t)
        want = (sign_changes(coeffs)
                - sign_changes([(-1) ** (n - k) * c for k, c in enumerate(coeffs)]))
        assert verify.signature_via_charpoly(rows) == want
        assert not symmetric or want == intlinalg.signature(rows), rows
    assert outcome(verify.charpoly_int, [[1, 2, 3], [4, 5, 6]]) == (
        ValueError, "charpoly_int needs a square matrix")


def test_det_int_refuses_matrices_that_are_not_square(rows):
    assert outcome(intlinalg.det_int, rows) == (ValueError, "det_int needs a square matrix")


def test_smith_reduce_matches_former_pivot_loop():
    """The replay pinned when the pivot loop still matched its former
    version operation for operation."""
    assert smith_replays() == pinned()["smith"]


def checks():
    """Every test of the module, by name, with its arguments bound."""
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            args = test.__code__.co_varnames[:test.__code__.co_argcount]
            for values in itertools.product(*map(PARAMS.get, args)):
                yield f"{name}{list(values) if values else ''}", partial(test, *values)


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        failed = []
        for name, check in checks():
            try:
                check()
            except AssertionError:
                failed.append(name)
                print(f"fails: {name}", file=sys.stderr)
        total = len(list(checks()))
        print(f"{total - len(failed)}/{total} oracle draw and kernel checks pass")
        sys.exit(1 if failed else 0)
    sys.stdout.write(json.dumps(record(), indent=1, sort_keys=True) + "\n")
