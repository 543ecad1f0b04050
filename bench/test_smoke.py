"""Smoke test of the benchmark itself: tiny runs, not measurements.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = run.load_spec()


def last_line(result, capsys) -> dict:
    run.print_run(result, SPEC)
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_every_end_to_end_metric_is_emitted_with_its_unit(capsys):
    result = run.measure("cli", seed=1, seconds=0, trace=False)
    line = last_line(result, capsys)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_every_per_layer_metric_is_emitted_with_its_unit(capsys):
    result = run.measure("cli", seed=1, seconds=0, trace=True)
    line = last_line(result, capsys)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert line["metrics"]["surgery.homology_calls"]["value"] > 0


def test_corrupted_expected_output_counts_as_a_failed_op():
    expected = json.loads(run.load_program().EXPECTED.read_text(encoding="utf-8"))
    key = next(iter(expected))
    expected[key]["stdout"] = expected[key]["stdout"].replace("0", "1", 1)
    run.WORKDIR.mkdir(parents=True, exist_ok=True)
    corrupt = run.WORKDIR / "corrupt-expected.json"
    corrupt.write_text(json.dumps(expected), encoding="utf-8")
    result = run.measure("cli", seed=1, seconds=0, trace=False,
                         expected_path=corrupt)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["detail"]["failures"][0].startswith(key + ":")


def test_without_the_program_it_fails_and_prints_no_result():
    bare = run.WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.SPEC, bare / "BENCHMARK.json")
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "bench" / f.name)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_marks_wide_spread_unresolved(tmp_path, capsys):
    def results(values):
        runs = [{"metrics": {m["name"]: {"value": v, "unit": m["unit"]}
                             for m in SPEC["end_to_end"]}} for v in values]
        for r in runs:
            r["metrics"]["failed_frac"] = {"value": 0.0, "unit": "ratio"}
        return {"workloads": {"w": {"runs": runs}}}

    base, steady, noisy = (tmp_path / n for n in ("b.json", "s.json", "n.json"))
    base.write_text(json.dumps(results([1.0, 1.01, 0.99, 1.0])))
    steady.write_text(json.dumps(results([2.0, 2.01, 1.99, 2.0])))
    noisy.write_text(json.dumps(results([1.0, 3.0, 0.5, 2.0])))
    run.compare(base, steady, SPEC)
    rows = capsys.readouterr().out.splitlines()
    assert any(" wall_s " in r and "2.000" in r and r.endswith("worse") for r in rows)
    run.compare(base, noisy, SPEC)
    rows = capsys.readouterr().out.splitlines()
    assert any(" wall_s " in r and r.endswith("unresolved") for r in rows)
