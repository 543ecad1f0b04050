"""CLI output pinned byte for byte: the fixture commands of the benchmark and
a record file that exercises every optional field and default.

Both expected copies were captured from the CLI before the record reader
became table-driven; any difference in exit code, stdout or stderr fails.
"""

import json
from pathlib import Path

import pytest

from imm5.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCH_DATA = ROOT / "bench" / "data"
TEST_DATA = Path(__file__).resolve().parent / "data"

FIXTURES = json.loads((BENCH_DATA / "expected.json").read_text(encoding="utf-8"))
ALL_FIELDS = json.loads(
    (TEST_DATA / "all_fields.expected.json").read_text(encoding="utf-8"))


def run(capsys, key, records):
    argv = [str(records) if a == "RECORDS" else a for a in key.split()]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("key", sorted(FIXTURES))
def test_bench_fixture_commands(capsys, key):
    code, out, _ = run(capsys, key + " --json", BENCH_DATA / "records.json")
    assert (code, out) == (FIXTURES[key]["exit"], FIXTURES[key]["stdout"])


@pytest.mark.parametrize("key", sorted(ALL_FIELDS))
def test_all_fields_record_file(capsys, key):
    code, out, err = run(capsys, key, TEST_DATA / "all_fields.json")
    want = ALL_FIELDS[key]
    assert (code, out, err) == (want["exit"], want["stdout"], want["stderr"])
