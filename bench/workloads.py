"""The benchmark's workloads: seeded inputs, the op each input is fed to, and
the check that op's output must pass.

An op is one CLI invocation (`cli`) or one presentation classified in-process
(`census-large`, `spin-wide`).  Checks use identities
that do not reuse the code path under test, and run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import subprocess
from collections import Counter
from dataclasses import dataclass, field
from math import prod
from pathlib import Path
from typing import Any, Callable

import imm5.cli
import imm5.embeddings
import imm5.intlinalg
import imm5.spin
import imm5.verify

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
RECORDS = DATA_DIR / "records.json"
EXPECTED = DATA_DIR / "expected.json"

# Bound before any tracer patches the package, so checks and input generation
# never show up as spans.
_det_int = imm5.intlinalg.det_int
_congruence = imm5.intlinalg.congruence
_random_symmetric = imm5.verify.random_symmetric
_IntSymMatrix = imm5.intlinalg.IntSymMatrix

# Wu calls per presentation on census-large, and the cap on spin-wide.
CENSUS_WU_CALLS = 2
SPIN_WIDE_WU_CAP = 4096
ORACLE_SEEDS_PER_PASS = 2
_PRIME = 2 ** 61 - 1


@dataclass
class Op:
    """One unit of work: `run(in_process)` gives an output, `check` returns a
    list of mismatches (empty when the output is right)."""

    label: str
    run: Callable[[bool], Any]
    check: Callable[[Any], list[str]]
    props: dict = field(default_factory=dict)


@dataclass
class Context:
    root: Path
    workdir: Path
    python: str
    env: dict
    expected_path: Path = EXPECTED


# ----------------------------------------------------------------------
# CLI ops
# ----------------------------------------------------------------------

def run_cli(ctx: Context, argv: list[str], in_process: bool) -> tuple[int, str]:
    """Run `imm5 <argv>`: as a fresh interpreter, or through `cli.main` with
    stdout captured (the form the traced run uses)."""
    if in_process:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = imm5.cli.main(argv)
        return rc, out.getvalue()
    proc = subprocess.run([ctx.python, "-m", "imm5.cli", *argv], cwd=ctx.root,
                          env=ctx.env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout.decode("utf-8")


FIXTURE_COMMANDS = (
    [["analyze", f] for f in ("s3", "s1xs2", "rp3", "l4", "t3")]
    + [["act", "s3", "--wu", "0", "--i", "24", "--omega", "12"],
       ["act", "s1xs2", "--wu", "0", "--i", "3", "--omega", "24"],
       ["act", "rp3", "--wu", "1", "--i", "5", "--omega", "-12"],
       ["act", "l4", "--wu", "1", "--i", "0", "--omega", "36"],
       ["act", "t3", "--wu", "0", "--i", "0", "--omega", "12"]]
    + [["embeddings", f] for f in ("s3", "t3")]
    + [["invariant", "RECORDS"], ["verify", "RECORDS"], ["verify", "--corollaries"]]
)


def command_key(cmd: list[str]) -> str:
    return " ".join(cmd)


def fixture_argv(cmd: list[str]) -> list[str]:
    return [str(RECORDS) if a == "RECORDS" else a for a in cmd] + ["--json"]


def _fixture_ops(ctx: Context) -> list[Op]:
    expected = json.loads(ctx.expected_path.read_text(encoding="utf-8"))
    ops = []
    for cmd in FIXTURE_COMMANDS:
        key = command_key(cmd)
        want = expected[key]

        def check(out, want=want):
            rc, stdout = out
            errs = []
            if rc != want["exit"]:
                errs.append(f"exit {rc}, expected {want['exit']}")
            if stdout != want["stdout"]:
                errs.append("stdout differs from the expected copy")
            return errs

        argv = fixture_argv(cmd)
        ops.append(Op(key, lambda ip, argv=argv: run_cli(ctx, argv, ip), check,
                      {"command": key}))
    return ops


def _oracle_ops(seed: int, ctx: Context) -> list[Op]:
    ops = []
    for s in range(seed, seed + ORACLE_SEEDS_PER_PASS):
        argv = ["verify", "--oracles", "--seed", str(s), "--json"]

        def check(out, s=s):
            rc, stdout = out
            if rc != 0:
                return [f"exit {rc}"]
            rep = json.loads(stdout)
            sec = rep["sections"][0]
            errs = []
            if rep["passed"] is not True:
                errs.append("verdict is not passed")
            if sec["mode"] != "oracles" or sec["seed"] != s:
                errs.append(f"report is for mode {sec['mode']} seed {sec['seed']}")
            if len(sec["reports"]) != 5 or not all(r["passed"] for r in sec["reports"]):
                errs.append("an oracle battery failed or is missing")
            return errs

        ops.append(Op(f"oracles seed {s}", lambda ip, argv=argv: run_cli(ctx, argv, ip),
                      check, {"command": " ".join(argv[:-1]), "trials": 500,
                              "max_dim": 6}))
    return ops


def setup_cli(seed: int, ctx: Context) -> list[Op]:
    """The fixture commands, checked against their expected copies, and
    `verify --oracles` on consecutive seeds from the workload seed.  The seed
    also sets the order."""
    ops = _fixture_ops(ctx) + _oracle_ops(seed, ctx)
    random.Random(seed).shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# In-process classification
# ----------------------------------------------------------------------

@dataclass
class Classified:
    profile: Any
    signature: int
    spins: list
    wu: list
    offsets: dict


def classify(path: Path, wu_targets: list[int]) -> Classified:
    """The library pipeline for one presentation, called through module
    attributes so a tracer's patches apply."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    m = imm5.cli.parse_manifold(data)
    p = m.presentation
    sig = imm5.intlinalg.signature(p.q)
    spins = imm5.spin.spin_structures(p)
    s0 = spins[0]
    wu = [imm5.spin.wu_coset_of_difference(p, spins[k], s0) for k in wu_targets]
    classes = imm5.embeddings.embedding_classes(m.profile, m.signatures)
    return Classified(m.profile, sig, spins, wu, classes.offsets_mod_24)


def _rank_mod_p(rows: list[list[int]], p: int = _PRIME) -> int:
    a = [[x % p for x in row] for row in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    rank = 0
    for c in range(m):
        piv = next((i for i in range(rank, n) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        prow = [x * inv % p for x in a[rank]]
        a[rank] = prow
        for i in range(n):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], prow)]
        rank += 1
    return rank


def _rank_gf2(rows: list[list[int]]) -> int:
    pivots: dict[int, int] = {}  # leading bit -> reduced row
    for row in rows:
        v = _mask(row)
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def _mask(bits) -> int:
    """A 0/1 vector mod 2 as an int, entry j at bit j."""
    return sum(1 << j for j, x in enumerate(bits) if x & 1)


def _all_distinct(masks, n: int) -> bool:
    """No mask repeats.  Up to n = 16 (every spin-wide presentation) the record
    is a byte per possible mask, so checking 65,536 spin vectors adds 64 KiB to
    peak RSS, not the megabytes a set of ints takes."""
    if n > 16:
        masks = list(masks)
        return len(set(masks)) == len(masks)
    seen = bytearray(1 << n)
    for c in masks:
        if seen[c]:
            return False
        seen[c] = 1
    return True


def _coset_keys(alpha: int) -> list[str]:
    return ["".join(map(str, bits)) or "0"
            for bits in itertools.product((0, 1), repeat=alpha)]


def _write_manifold(ctx, name, rows, alpha, rng) -> tuple[Path, dict]:
    """Write a manifold file whose base signatures have the parity of alpha;
    return its path and the embedding offsets mod 24 it must produce."""
    sigs = {k: sorted({alpha + 2 * rng.randint(-8, 8) for _ in range(2)})
            for k in _coset_keys(alpha)}
    offsets = {k: sorted({(3 * (s - alpha) // 2) % 24 for s in v})
               for k, v in sigs.items()}
    path = ctx.workdir / f"{name}.json"
    path.write_text(json.dumps({"name": name, "linking_matrix": rows,
                                "spin_boundary_signatures": sigs}),
                    encoding="utf-8")
    return path, offsets


def _classify_op(label, path, rows, exp, wu_targets) -> Op:
    n = len(rows)
    props = {"label": label, "n": n, "betti1": exp["betti1"], "alpha": exp["alpha"],
             "max_abs_entry": max((abs(x) for r in rows for x in r), default=0),
             "spins": 2 ** (exp["betti1"] + exp["alpha"]), "wu_calls": len(wu_targets)}
    # Q mod 2 as row bitmasks: c is characteristic when c . row_i = q_ii mod 2.
    row_masks = [(_mask(r), r[i] & 1) for i, r in enumerate(rows)]

    def characteristic(c: int) -> bool:
        return all((c & r).bit_count() & 1 == d for r, d in row_masks)

    def check(out: Classified) -> list[str]:
        errs = []
        h = out.profile
        b1, alpha = exp["betti1"], exp["alpha"]
        if (h.betti1, h.alpha) != (b1, alpha):
            errs.append(f"(betti1, alpha) = {(h.betti1, h.alpha)}, expected {(b1, alpha)}")
        if exp.get("torsion") is not None and h.torsion_factors != exp["torsion"]:
            errs.append(f"torsion {h.torsion_factors}, expected {exp['torsion']}")
        if b1 == 0:
            if "abs_det" not in exp:
                exp["abs_det"] = abs(_det_int(rows))
            if prod(h.torsion_factors) != exp["abs_det"]:
                errs.append("product of invariant factors differs from |det|")
        rank = n - b1
        if exp.get("signature") is not None:
            if out.signature != exp["signature"]:
                errs.append(f"signature {out.signature}, expected {exp['signature']}")
        elif abs(out.signature) > rank or (out.signature - rank) % 2:
            errs.append(f"signature {out.signature} impossible at rank {rank}")
        count = 2 ** (b1 + alpha)
        if len(out.spins) != count:
            errs.append(f"{len(out.spins)} spin structures, expected {count}")
        elif not all(len(s.c) == n and characteristic(_mask(s.c)) for s in out.spins):
            errs.append("a spin vector is not characteristic")
        elif not _all_distinct((_mask(s.c) for s in out.spins), n):
            errs.append("spin structures repeat")
        if any(len(w.value.coords) != alpha for w in out.wu):
            errs.append("a Wu coset has the wrong rank")
        if any(k == 0 and any(w.value.coords) for k, w in zip(wu_targets, out.wu)):
            errs.append("Wu coset of s - s is not zero")
        if exp.get("full_wu"):
            fibres = Counter(w.value.coords for w in out.wu)
            if len(fibres) != 2 ** alpha or set(fibres.values()) != {2 ** b1}:
                errs.append("Wu map is not onto Gamma2 with fibres of size 2^betti1")
        got = {str(k): sorted(v) for k, v in out.offsets.items()}
        if got != exp["offsets"]:
            errs.append("embedding offsets differ from the base signatures")
        return errs

    return Op(label, lambda _ip: classify(path, wu_targets), check, props)


def _plumbing_chain(n: int) -> list[list[int]]:
    return [[-2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n)]
            for i in range(n)]


CENSUS_RANDOM_SIZES = (20, 40, 60)
CENSUS_CHAIN_SIZES = (50, 199)


def setup_census_large(seed: int, ctx: Context) -> list[Op]:
    """Random symmetric matrices (entries in [-5, 5], nonsingular) and
    negative-definite plumbing chains.  Expected homology comes from ranks
    over a large prime field and GF(2), not from the Smith form."""
    ops = []
    for n in CENSUS_RANDOM_SIZES:
        rng = random.Random(seed * 1000 + n)
        while True:
            rows = [list(r) for r in _random_symmetric(rng, n).entries]
            if _rank_mod_p(rows) == n:
                break
        alpha = n - _rank_gf2(rows)
        path, offsets = _write_manifold(ctx, f"random{n}", rows, alpha, rng)
        exp = {"betti1": 0, "alpha": alpha, "offsets": offsets}
        count = 2 ** alpha
        ops.append(_classify_op(f"random n={n}", path, rows, exp,
                                [k % count for k in range(1, CENSUS_WU_CALLS + 1)]))
    for n in CENSUS_CHAIN_SIZES:
        # the A_n chain: H1 = Z/(n+1), signature -n
        rng = random.Random(seed * 1000 + n)
        rows = _plumbing_chain(n)
        alpha = 1 if (n + 1) % 2 == 0 else 0
        path, offsets = _write_manifold(ctx, f"chain{n}", rows, alpha, rng)
        exp = {"betti1": 0, "alpha": alpha, "torsion": (n + 1,), "abs_det": n + 1,
               "signature": -n, "offsets": offsets}
        count = 2 ** alpha
        ops.append(_classify_op(f"chain n={n}", path, rows, exp,
                                [k % count for k in range(1, CENSUS_WU_CALLS + 1)]))
    return ops


# (zero blocks, torsion blocks): #^k S1xS2, sums of RP3 / L(4,1), mixtures.
SPIN_WIDE_SHAPES = ((16, 0), (0, 10), (4, 6), (5, 6))


def _random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in g:
            row[i] += c * row[j]
    return g


def setup_spin_wide(seed: int, ctx: Context) -> list[Op]:
    """Small presentations with many spin structures, conjugated by a seeded
    unimodular matrix.  Homology and signature are known from the blocks."""
    ops = []
    for zeros, tors in SPIN_WIDE_SHAPES:
        rng = random.Random(seed * 1000 + 100 * zeros + tors)
        blocks = [0] * zeros + [rng.choice((2, 4)) * rng.choice((-1, 1))
                                for _ in range(tors)]
        rng.shuffle(blocks)
        n = len(blocks)
        diag = [[blocks[i] if i == j else 0 for j in range(n)] for i in range(n)]
        q = _congruence(_IntSymMatrix(diag), _random_unimodular(rng, n))
        rows = [list(r) for r in q.entries]
        label = f"zeros={zeros} torsion={tors}"
        path, offsets = _write_manifold(ctx, f"spin{zeros}_{tors}", rows, tors, rng)
        count = 2 ** (zeros + tors)
        exp = {"betti1": zeros, "alpha": tors, "offsets": offsets,
               "torsion": tuple(sorted(abs(d) for d in blocks if d)),
               "signature": sum((d > 0) - (d < 0) for d in blocks),
               "full_wu": count <= SPIN_WIDE_WU_CAP}
        ops.append(_classify_op(label, path, rows, exp,
                                list(range(min(count, SPIN_WIDE_WU_CAP)))))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Context], list[Op]]
    in_process: bool  # False: the work runs in child interpreters
    tail_pct: int  # fixed so that a run of run_seconds gives >= 10 ops beyond it


# Why each workload exists is in BENCHMARK.json and bench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("cli", setup_cli, False, 80),
    Workload("census-large", setup_census_large, True, 50),
    Workload("spin-wide", setup_spin_wide, True, 50),
)}
