"""Faults the suite must catch, and a runner that plants each one again.

Each row of MUTANTS names a fault that an earlier change planted by hand
to show a check bites: the file, the exact text it replaces (found there
exactly once), the new text, and the tests that must fail.  One control
row only adds a comment, and must survive.

The runner copies ``src/``, ``tests/``, ``bench/`` and ``pyproject.toml``
into a temporary directory and plants one row at a time there, running
the row's tests in one child pytest.  A row is caught when each of its
tests is reported FAILED and the child exits 1; an exit of 2, 4 or 5 (a
collection error, say) is no catch.  The runner exits 1 when a row's
outcome is not the one the table expects, or, planting nothing, when
``problems`` finds the table out of step with the tree, which
``test_mutation_table.py`` checks on every run:

    PYTHONPATH=src python tests/mutants.py
"""

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from functools import cache
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    caught: bool = True


def ids(module: str, *names: str) -> tuple[str, ...]:
    return tuple(f"tests/{module}.py::{name}" for name in names)


def batteries(*names: str) -> tuple[str, ...]:
    return ids("test_oracle_reference", *(
        f"test_batteries_match_former_batteries_at_{trials}_trials[{name}]"
        for trials in ("50", "default") for name in names))


REPORTS = ids("test_oracle_report_pin", "test_oracle_reports_are_pinned")
ORACLES = ids("test_oracle_reference", "test_random_symmetric_draws_the_census_inputs",
              "test_generators_draw_like_randint")
SMITH = ids("test_oracle_reference", "test_smith_reduce_matches_former_pivot_loop")
DET, CHARPOLY = ids("test_oracle_reference", "test_det_int_matches_charpoly_constant_term",
                    "test_charpoly_matches_det_at_integer_points")
SPIN4 = ids("test_kernel_differential",
            "test_spin_predicate_and_wu_match_tuple_reference",
            "test_table_lookups_match_loop_reference",
            "test_carried_masks_and_memo_match_uncached_reference",
            "test_straight_line_spin_and_wu_match_lookup_call_reference")
CARRIED, STRAIGHT = SPIN4[2:]
WU_ROUTES = ids("test_kernel_differential", "test_homology_routes_match_smith_route",
                "test_wu_map_matches_per_call_route")
MEMBERSHIP = ids("test_spin", "TestMembership::test_matches_list")
UNWRITTEN = ids("test_spin", "TestCarriedMask::test_reads_write_nothing_into_their_arguments")
HOMOMORPHISM = ids("test_spin", "TestWuCoset::test_difference_map_is_homomorphism")
STACKED = ids("test_kernel_differential", "test_wu_tables_match_independent_stacked_map")
ELEMENTS = ids("test_spin", "TestEnumeration::test_every_solution_is_characteristic",
               "TestWuCoset::test_surjective_with_uniform_fibres[rows10]")

LINTRA, VERIFY, SPIN = "src/imm5/intlinalg.py", "src/imm5/verify.py", "src/imm5/spin.py"
BOTH_CHECKS = """\
    if y1 >> alpha != diagonal:
        raise _not_characteristic(p, s1)
    x = s2._mask if type(s2) is SpinStructure and len(s2.c) == n else None
    if x is None:
        x = _argument_mask(p, s2)
    y2 = 0
    for table in tables:
        y2 ^= table[x & _CHUNK_LOW]
        x >>= _CHUNK
    if y2 >> alpha != diagonal:"""
MEMO = """\
    coset = memo.get(coords)
    if coset is None:
        coset = WuCoset(Gamma2Element(_bits(coords, alpha)))
        if len(memo) < _WU_COSET_CAP:
            memo[coords] = coset"""

MUTANTS = (
    # faults the oracle reports show
    Mutant("signature sign rule misread on the last pivot", LINTRA,
           "if (p > 0) == (prev > 0):", "if (p > 0) == (prev > 0) or t == n - 1:",
           REPORTS + batteries("signature")),
    Mutant("Smith fold-in step skipped", LINTRA,
           "        if off is not None:", "        if False:",
           REPORTS + batteries("snf") + SMITH),
    Mutant("pivot inverse of _factors_mod_det replaced by 1", LINTRA,
           "inv = pow(prow[c], -1, m)", "inv = 1",
           REPORTS + batteries("snf")),
    Mutant("det_int 3 x 3 closed form with a sign error", LINTRA,
           "+ a2 * (b0 * c1 - b1 * c0))", "- a2 * (b0 * c1 - b1 * c0))",
           REPORTS + batteries("snf", "parity") + (DET,)),
    # mutations of the draws, det_int, charpoly_int and the Smith loop
    Mutant("_randint drawing again once, not until in range", VERIFY,
           "    while r >= width:\n        r = rng.getrandbits(k)",
           "    if r >= width:\n        r = rng.getrandbits(k)",
           ids("test_oracle_reference", "test_randint_reproduces_the_interpreter_randint")
           + ORACLES[1:]),
    Mutant("_randints without its type check", VERIFY,
           "if type(rng) is not random.Random:\n        return [rng",
           "if False:\n        return [rng",
           ORACLES[1:]),
    Mutant("det_int 4 x 4 closed form with its last term negated", LINTRA,
           "+ (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))",
           "- (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))",
           REPORTS + batteries("snf", "parity") + (DET,)),
    Mutant("Smith fold-in replayed on u with the wrong sign", LINTRA,
           "u_add(t, off, 1)", "u_add(t, off, -1)", REPORTS + batteries("snf") + SMITH),
    Mutant("a Berkowitz coefficient with the wrong sign", VERIFY,
           "t.append(-sum(map(mul, arow, v)))", "t.append(sum(map(mul, arow, v)))",
           REPORTS + batteries("signature") + (CHARPOLY,)),
    Mutant("even generator drawing its diagonal first", VERIFY,
           "            for j, x in enumerate(_randints(rng, -5, 5, i)):\n"
           "                row[j] = rows[j][i] = x\n"
           "            row[i] = 2 * _randint(rng, -2, 2)\n",
           "            row[i] = 2 * _randint(rng, -2, 2)\n"
           "            for j, x in enumerate(_randints(rng, -5, 5, i)):\n"
           "                row[j] = rows[j][i] = x\n",
           batteries("parity") + ORACLES[1:]),
    Mutant("random_symmetric making one draw too many", VERIFY,
           "n * (n + 1) // 2)", "n * (n + 1) // 2 + 1)",
           batteries("signature") + ORACLES),
    Mutant("a minor taken with a repeated column", VERIFY,
           "itemgetter(*cols_k)", "itemgetter(*cols_k[:-1], cols_k[0])",
           REPORTS + batteries("snf")),
    Mutant("det_int without its square check beyond 4 x 4", LINTRA,
           "    if any(len(row) != n for row in m):", "    if False:",
           ids("test_oracle_reference", "test_det_int_refuses_matrices_that_are_not_square[rows9]",
               "test_det_int_refuses_matrices_that_are_not_square[rows10]")),
    Mutant("Mod2Solution.index skipping the first free column", LINTRA,
           "for f in self._free_columns:", "for f in self._free_columns[1:]:",
           ids("test_kernel_differential", "test_index_matches_brute_force_map")),
    # mutations of spin reads and the Wu map
    Mutant("_position without its read-back check", SPIN,
           "return k if sol.mask(k) == x else None", "return k",
           (STRAIGHT,) + MEMBERSHIP),
    Mutant("Wu memo read at the wrong coset", SPIN,
           "coset = memo.get(coords)", "coset = memo.get(coords ^ 1)",
           SPIN4 + WU_ROUTES),
    Mutant("Wu memo storing past its cap", SPIN,
           "if len(memo) < _WU_COSET_CAP:", "if len(memo) <= _WU_COSET_CAP:", (STRAIGHT,)),
    Mutant("Wu memo keyed by coords & 3", SPIN, MEMO,
           MEMO.replace("(coords)", "(coords & 3)").replace("[coords]", "[coords & 3]"),
           SPIN4 + WU_ROUTES[1:]),
    Mutant("wrong carried mask from spins[k]", SPIN,
           '        d["_mask"] = x\n        return s\n\n    def _member_mask',
           '        d["_mask"] = x ^ 1\n        return s\n\n    def _member_mask',
           SPIN4 + WU_ROUTES + STACKED + UNWRITTEN + HOMOMORPHISM + ELEMENTS),
    Mutant("spins[k] without its mask", SPIN,
           '        d["_mask"] = x\n        return s\n\n    def _member_mask',
           '        return s\n\n    def _member_mask',
           (CARRIED, STRAIGHT) + STACKED),
    Mutant("wrong mask from _unpack (iteration)", SPIN,
           '        d["_mask"] = x\n        return s\n\n    def __len__',
           '        d["_mask"] = x ^ 1\n        return s\n\n    def __len__',
           (STRAIGHT,) + WU_ROUTES[1:]),
    Mutant("a mask stored for a list c", SPIN,
           "\n    return x\n",
           '\n    if type(c) is list:\n        s.__dict__["_mask"] = x\n    return x\n',
           (SPIN4[1], CARRIED)),
    Mutant("a mask written into a user-built argument with a tuple c", SPIN,
           "\n    return x\n",
           '\n    if type(c) is tuple:\n        s.__dict__["_mask"] = x\n    return x\n',
           SPIN4[:2] + UNWRITTEN + HOMOMORPHISM),
    Mutant("s1's characteristic check skipped", SPIN,
           "if y1 >> alpha != diagonal:", "if False:", SPIN4),
    Mutant("s2's characteristic check skipped", SPIN,
           "if y2 >> alpha != diagonal:", "if False:", SPIN4),
    Mutant("the check skipped for an argument that carries a mask", SPIN, BOTH_CHECKS,
           BOTH_CHECKS.replace("diagonal:", "diagonal and s1._mask is None:", 1)
           .replace("y2 >> alpha != diagonal:", "y2 >> alpha != diagonal and s2._mask is None:"),
           (CARRIED, STRAIGHT)),
    Mutant("membership coercing entries with int()", SPIN,
           "for j, entry in enumerate(s.c):", "for j, entry in enumerate(map(int, s.c)):",
           (STRAIGHT,)),
    Mutant("membership without the 0/1 entry check", SPIN,
           "elif not entry == 0:", "elif False:", (STRAIGHT,)),
    Mutant("_position returning a wrong k for odd masks", SPIN,
           "k = sol.index(x)", "k = sol.index(x) ^ (x & 1)", (STRAIGHT,)),
    Mutant("Gamma2Element bit check removed", "src/imm5/surgery.py",
           'raise ValueError("coordinates must be bits")', "pass",
           ids("test_kernel_differential",
               "test_coset_parsing_and_offsets_match_string_pass_reference")),
    Mutant("control: a comment only", SPIN,
           "    # both upper parts are the diagonal, so they cancel",
           "    # both upper parts are the diagonal, so they cancel out",
           (STRAIGHT,), caught=False),
)


@cache
def _module_body(path: str) -> list:
    file = ROOT / path
    return ast.parse(file.read_text(encoding="utf-8")).body if file.is_file() else []


def _resolves(node_id: str) -> bool:
    """Whether node_id names a test function, read with ``ast``."""
    path, *names = node_id.split("[")[0].split("::")
    body, found = _module_body(path), None
    for name in names:
        found = next((node for node in body if getattr(node, "name", None) == name
                      and isinstance(node, (ast.ClassDef, ast.FunctionDef))), None)
        if found is None:
            return False
        body = found.body
    return isinstance(found, ast.FunctionDef)


def problems() -> list[tuple[str, str]]:
    """(row name, what is wrong) wherever the table does not match the
    tree: an old text that does not occur exactly once in its file, or a
    node id that names no test."""
    out = []
    for row in MUTANTS:
        count = (ROOT / row.path).read_text(encoding="utf-8").count(row.old)
        if count != 1:
            out.append((row.name, f"the old text occurs {count} times in {row.path}"))
        out += [(row.name, f"no test {node}") for node in row.tests if not _resolves(node)]
    return out


def caught(row: Mutant, work: Path) -> bool:
    """Whether every test of row fails, and the child pytest exits 1, with
    the row planted in the copy at work."""
    path = work / row.path
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(row.old, row.new), encoding="utf-8")
    path_entries = [str(work / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_entries), PYTHONDONTWRITEBYTECODE="1")
    try:
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *row.tests],
            cwd=work, env=env, capture_output=True, text=True)
    finally:
        path.write_text(text, encoding="utf-8")
    failed = set(re.findall(r"^FAILED (\S+)", child.stdout, re.M))
    return child.returncode == 1 and failed >= set(row.tests)


def main() -> int:
    bad = problems()
    for name, line in bad:
        print(f"table: {name}: {line}")
    if bad:
        return 1
    start = time.perf_counter()
    expected = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, work / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
            else:
                shutil.copy2(ROOT / name, work / name)
        for row in MUTANTS:
            t = time.perf_counter()
            got = caught(row, work)
            expected += got == row.caught
            note = "" if got == row.caught else "  (expected otherwise)"
            print(f"{'caught' if got else 'survived':8} {time.perf_counter() - t:5.1f} s  "
                  f"{row.name}{note}", flush=True)
    print(f"{expected}/{len(MUTANTS)} rows as expected in {time.perf_counter() - start:.0f} s")
    return 0 if expected == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
