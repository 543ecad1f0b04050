"""The package's public names, listed in order, the oldest Python whose
syntax its modules keep to, and the names the benchmark's tracer patches.

``imm5.__all__`` is derived from the package's table of public names and
the submodules defining them, so a name added or dropped there changes the
public surface; this list makes that change visible.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import imm5

# pyproject.toml: requires-python = ">=3.10"
SYNTAX_FLOOR = (3, 10)

PUBLIC = [
    "AsymmetricMatrix",
    "CosetUncovered",
    "EmbeddingClassSet",
    "Gamma2Element",
    "HomologyProfile",
    "HypothesisViolated",
    "Imm5Error",
    "ImmersionDoubleData",
    "IntSymMatrix",
    "InvalidSpinStructure",
    "MissingData",
    "Mod2Solution",
    "NoSolution",
    "ParityError",
    "ParityViolation",
    "ParseError",
    "RegHomotopyClass",
    "SeifertFillingR5",
    "SeifertFillingR6",
    "SmaleClass",
    "SmithDecomposition",
    "SpinBoundarySignatures",
    "SpinStructure",
    "SurgeryPresentation",
    "WuCoset",
    "WuMismatch",
    "congruence",
    "connected_sum_act",
    "det_int",
    "embedding_classes",
    "gamma2_elements",
    "homology_profile",
    "i_a",
    "i_b",
    "is_embedding_class",
    "rohlin_compatible",
    "seifert_signature_criterion",
    "signature",
    "smale_via_seifert_r5",
    "smale_via_seifert_r6",
    "smith_normal_form",
    "solve_for_summand",
    "solve_mod2",
    "spin_structures",
    "track_correction",
    "wu_coset_of_difference",
]


def test_public_names_in_order():
    assert imm5.__all__ == PUBLIC


def test_every_public_name_resolves():
    assert all(hasattr(imm5, name) for name in imm5.__all__)


def test_lazy_exports_resolve_on_first_use():
    """``import imm5`` binds each public name on first use.  In a fresh
    interpreter, where no submodule is loaded yet, ``from imm5 import *``
    binds all of them, ``dir(imm5)`` lists them, and ``from imm5 import
    <submodule>`` still imports the submodule.  Each name is the object its
    defining module binds under that name."""
    script = (
        "import json, sys\n"
        "import imm5\n"
        "names = dir(imm5)\n"
        "from imm5 import intlinalg, surgery\n"
        "star = {}\n"
        "exec('from imm5 import *', star)\n"
        "print(json.dumps([names, sorted(set(star) - {'__builtins__'}),\n"
        "                  [intlinalg.__name__, surgery.__name__]]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(imm5.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True)
    names, star, submodules = json.loads(proc.stdout)
    assert set(PUBLIC) <= set(names)
    assert star == PUBLIC
    assert submodules == ["imm5.intlinalg", "imm5.surgery"]
    for name in PUBLIC:
        obj = getattr(imm5, name)
        assert obj.__module__.startswith("imm5."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    with pytest.raises(AttributeError, match="module 'imm5' has no attribute 'nosuch'"):
        imm5.nosuch


def test_modules_parse_at_the_syntax_floor():
    """Every module parses with the grammar of the oldest supported Python.
    ``feature_version`` is best effort: it rejects newer syntax such as
    ``except*`` and PEP 695 type parameters, not newer library calls."""
    modules = sorted(Path(imm5.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=SYNTAX_FLOOR)


def test_traced_names_resolve():
    """Every (module, name) in ``TRACED`` of ``bench/tracer.py`` names a
    callable of the package, so that renaming a traced routine fails here
    and not only in a traced benchmark run.  The list is read from the
    file's syntax tree; nothing under ``bench/`` is imported."""
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"), filename=str(tracer))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    assert len(traced) >= 10
    for module, name, _span in traced:
        assert module.startswith("imm5."), module
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def test_readme_quick_start_runs():
    """README's ``Quick start (library)`` block runs as written, and each
    expression marked ``# -> value`` evaluates to that value."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start (library)\n", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        _, arrow, expected = lines[stmt.end_lineno - 1].partition("# ->")
        if arrow:
            assert isinstance(stmt, ast.Expr)
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert got == ast.literal_eval(expected.split(";")[0].strip())
            checked.append(got)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == [(8, (1, 1, 1)), 12, (2, 12)]
