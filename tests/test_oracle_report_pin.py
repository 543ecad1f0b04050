"""``imm5 verify --oracles`` pinned byte for byte on seeds 0 to 3.

Each case runs the CLI in process, as text and with ``--json``, and its
exit code, stdout and stderr must match
``data/oracle_reports.expected.json``: the battery names, trial counts,
failure lines, verdict and exit code.  The random draws behind them are
pinned by ``test_oracle_reference.py``, which compares each battery's
final generator state with ``data/oracle_draws.expected.json``.

The module needs the standard library alone, so that interpreters
without pytest run it too.  The expected file was written by running it
as a script, and ``--check`` compares against that file instead:

    PYTHONPATH=src python tests/test_oracle_report_pin.py > tests/data/oracle_reports.expected.json
    PYTHONPATH=src python tests/test_oracle_report_pin.py --check
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from imm5.cli import main

PIN = Path(__file__).resolve().parent / "data" / "oracle_reports.expected.json"
SEEDS = range(4)


def cases() -> dict:
    """Every pinned command line, keyed by itself, with its argv."""
    out = {}
    for seed in SEEDS:
        for extra in ([], ["--json"]):
            argv = ["verify", "--oracles", "--seed", str(seed), *extra]
            out[" ".join(["imm5", *argv])] = argv
    return out


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def mismatches() -> list[str]:
    """The command lines whose output differs from the pinned one."""
    pinned = json.loads(PIN.read_text(encoding="utf-8"))
    assert set(pinned) == set(cases())
    return [key for key, argv in cases().items() if run(argv) != pinned[key]]


def test_oracle_reports_are_pinned():
    assert mismatches() == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        bad = mismatches()
        for key in bad:
            print(f"differs: {key}", file=sys.stderr)
        print(f"{len(cases()) - len(bad)}/{len(cases())} oracle reports match")
        sys.exit(1 if bad else 0)
    results = {key: run(argv) for key, argv in cases().items()}
    sys.stdout.write(json.dumps(results, indent=1, sort_keys=True,
                                ensure_ascii=False) + "\n")
