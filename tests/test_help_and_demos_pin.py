"""The four demos' output and the CLI's ``--help`` pinned byte for byte.

Each demo runs in process, as ``python demos/<name>.py`` would run it, and
``--help`` runs for the top parser and each of the five subcommands.
Exit code, stdout and stderr must all match
``data/help_and_demos.expected.json``.

argparse wraps help text to the width in ``COLUMNS``, so both the test
and the script set it to 80.  The help layout also belongs to the
interpreter's argparse, not to this package, so the help cases are
compared only on the Python minor version the file was written with.

The file was written by running this module as a script:

    PYTHONPATH=src python tests/test_help_and_demos_pin.py > tests/data/help_and_demos.expected.json
"""

import contextlib
import io
import json
import os
import runpy
import sys
from functools import cache
from pathlib import Path

import pytest

from imm5.cli import main

ROOT = Path(__file__).resolve().parents[1]
PIN = Path(__file__).resolve().parent / "data" / "help_and_demos.expected.json"
DEMOS = ("homology_census", "identity_checks", "smale_from_seifert_data",
         "torus_embedding_trick")
SUBCOMMANDS = ("analyze", "invariant", "act", "embeddings", "verify")
COLUMNS = "80"
PYTHON = "{}.{}".format(*sys.version_info)


def _captured(run) -> dict:
    """Exit code, stdout and stderr of run(), which may raise SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            run()
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_demo(name: str) -> dict:
    path = ROOT / "demos" / f"{name}.py"
    return _captured(lambda: runpy.run_path(str(path), run_name="__main__"))


def run_help(argv: list[str]) -> dict:
    return _captured(lambda: main(argv + ["--help"]))


def cases() -> dict:
    """Every pinned case, keyed by the command line it stands for."""
    out = {f"demos/{name}.py": (run_demo, name) for name in DEMOS}
    for argv in ([], *([sub] for sub in SUBCOMMANDS)):
        out[" ".join(["imm5", *argv, "--help"])] = (run_help, argv)
    return out


@cache
def pinned() -> dict:
    return json.loads(PIN.read_text(encoding="utf-8"))


def test_pin_covers_every_case():
    assert set(pinned()["cases"]) == set(cases())
    assert len(pinned()["cases"]) == len(DEMOS) + 1 + len(SUBCOMMANDS)


@pytest.mark.parametrize("key", sorted(cases()))
def test_output_is_pinned(monkeypatch, key):
    if key.endswith("--help") and PYTHON != pinned()["python"]:
        pytest.skip(f"help layout pinned on Python {pinned()['python']}")
    monkeypatch.setenv("COLUMNS", COLUMNS)
    run, arg = cases()[key]
    assert run(arg) == pinned()["cases"][key]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    results = {key: run(arg) for key, (run, arg) in cases().items()}
    sys.stdout.write(json.dumps({"python": PYTHON, "cases": results},
                                indent=1, sort_keys=True) + "\n")
