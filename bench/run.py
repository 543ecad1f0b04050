"""Benchmark for imm5: seeded workloads, end-to-end metrics, traced layers.

One run (the form a harness calls):

    python3 bench/run.py --workload census-large --seed 3 --seconds 40 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) by name with their units, then, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

All workloads, several seeds each, in fresh processes, written to a result file:

    python3 bench/run.py --all [--repeats 3] [--seconds S] [--out FILE]

Two result files side by side, one row per workload and metric:

    python3 bench/run.py --compare BASE.json NEW.json

The package is imported from ``src/`` of the checkout this file sits in; it is
never edited.  Generated inputs and span dumps go to ``bench/work/``, result
files to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = BENCH_DIR / "work"
OUTDIR = BENCH_DIR / "out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 7
PROBE_REPEATS = 5
HARD_LIMIT_S = 150.0  # a run stops starting passes after this, whatever its goals
IMPORT_PROBE = ("import time; t = time.perf_counter(); import imm5.cli; "
                "print(time.perf_counter() - t)")
CPUS = sorted(os.sched_getaffinity(0))  # before pin_to_one_cpu narrows them
# The same import in a fresh interpreter allowed on every CPU the benchmark
# was given, so numpy starts its default OpenBLAS thread pool.
IMPORT_CPU_PROBE = f"import os; os.sched_setaffinity(0, {CPUS}); import imm5.cli"


class SetupError(Exception):
    """The checkout does not hold the program the benchmark measures."""


def load_program():
    """Import the workloads (and through them imm5) from this checkout."""
    if not (SRC / "imm5" / "__init__.py").is_file():
        raise SetupError(f"no imm5 package under {SRC}; run from a full checkout")
    pin_to_one_cpu()  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import imm5
    if Path(imm5.__file__).resolve().parent != (SRC / "imm5").resolve():
        raise SetupError(f"imm5 was imported from {imm5.__file__}, not {SRC}")
    import workloads
    return workloads


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on one CPU.

    The workloads are single-threaded, and on a host with two vCPUs their
    times otherwise depended on whether the second one was free.  The
    program's threading is left at its default: numpy sees one CPU and
    starts no OpenBLAS pool, as it would on a one-CPU machine.  What the pool
    costs elsewhere is the traced run's `cli.import_cpu_s`."""
    os.sched_setaffinity(0, {CPUS[-1]})


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "IMM5_SEED"}
    env.update(PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    return env


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def children_cpu_seconds() -> float:
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return c.ru_utime + c.ru_stime


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def probe(code: str) -> tuple[float, float, str]:
    """Wall time, CPU time and stdout of a fresh interpreter running `code`."""
    t0, c0 = time.perf_counter(), children_cpu_seconds()
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return time.perf_counter() - t0, children_cpu_seconds() - c0, proc.stdout


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------

# The bounded times are given in seconds of a host on which the reference
# kernel takes REFERENCE_S: each measured time is multiplied by REFERENCE_S
# over the reference time measured just before and just after it.  On a
# shared host the speed of a vCPU changed by 1.25x between sets of runs 20
# minutes apart; the reference kernel slows with it, the ratio does not.
REFERENCE_S = 0.05


def reference_kernel() -> int:
    """Fixed pure-Python work of the kinds imm5 does: big-integer products and
    remainders, Fraction sums, and list and dict traffic.  It does not touch
    imm5, so no change to the program moves it."""
    x = 1
    for i in range(1, 8000):
        x = x * (i | 1) % (1 << 4000) + i
    f = Fraction(0)
    for i in range(1, 1200):
        f += Fraction(1, i)
    counts: dict[int, int] = {}
    for i in range(150000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    rows = [[(i * j) % 7 - 3 for j in range(100)] for i in range(100)]
    cols = [list(c) for c in zip(*rows)]
    return x ^ f.numerator ^ len(counts) ^ sum(map(sum, cols))


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def scale(ref_before: float, ref_after: float) -> float:
    """Factor that turns a time measured between two reference runs into
    calibrated seconds."""
    return 2 * REFERENCE_S / (ref_before + ref_after)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    interp = statistics.median(probe("pass")[0] for _ in range(PROBE_REPEATS))
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "cpu_model": model, "pinned_cpu": CPUS[-1],
            "interp_start_s": interp}


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile, interpolated as statistics.median does at 50."""
    if pct >= 100:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def needed_ops(pct: int) -> int:
    """Fewest samples that leave >= 10 beyond the pct-th percentile."""
    return -(-1000 // (100 - pct))


def time_is_up(start: float, passes: int, seconds: float) -> bool:
    """True when one more pass of typical length would overrun `seconds`."""
    elapsed = time.perf_counter() - start
    return elapsed > HARD_LIMIT_S or elapsed * (1 + 1 / passes) > seconds


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, op, in_process: bool) -> tuple[float, float]:
        """Run and check one op; return its wall and CPU seconds."""
        self.attempted += 1
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            out = op.run(in_process)
        except Exception as exc:  # an op that raises is a failed op
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
            self._fail(op, [f"{type(exc).__name__}: {exc}"])
            return wall, cpu
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        try:
            errs = op.check(out)
        except Exception as exc:  # a malformed output fails its check
            errs = [f"check raised {type(exc).__name__}: {exc}"]
        if errs:
            self._fail(op, errs)
        return wall, cpu

    def _fail(self, op, errs: list[str]) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(f"{op.label}: {'; '.join(errs)}")


def run_pass(ops, tally: Tally, in_process: bool, tracer=None, calibrate=False):
    """Op wall and CPU times, and (with `calibrate`) the reference times
    before the first op and after each op."""
    walls, cpus, refs = [], [], []
    if calibrate:
        refs.append(time_reference())
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        w, c = tally.run(op, in_process)
        walls.append(w)
        cpus.append(c)
        if calibrate:
            refs.append(time_reference())
    return walls, cpus, refs


def measure(name: str, seed: int, seconds: float, trace: bool,
            expected_path=None) -> dict:
    """One run of one workload.  Returns the result object (the last line of
    the output) plus a `detail` entry with the inputs, environment and the
    figures that carry no bound."""
    wl = load_program()
    w = wl.WORKLOADS[name]
    WORKDIR.mkdir(parents=True, exist_ok=True)
    ctx = wl.Context(ROOT, WORKDIR / name, sys.executable, child_env())
    if expected_path is not None:
        ctx.expected_path = Path(expected_path)
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    env = environment()

    setups = []
    ref = time_reference()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = w.setup(seed, ctx)
        probe(IMPORT_PROBE)  # a fresh interpreter imports imm5.cli: bytecode is warm
        took = time.perf_counter() - t0
        after = time_reference()
        setups.append(took * scale(ref, after))
        ref = after
    tally = Tally()
    start = time.perf_counter()
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": env, "inputs": [dict(op.props) for op in ops]}
    unbounded = {}  # printed and kept in result files, but carry no bound

    if not trace:
        samples = []  # per pass: [op walls, op CPU times, reference times]
        while True:
            samples.append(run_pass(ops, tally, in_process=False, calibrate=True))
            if time_is_up(start, len(samples), seconds):
                break
        # calibrated[i][k]: op i of pass k, wall and CPU in calibrated seconds
        calibrated = [[(p[0][i] * scale(p[2][i], p[2][i + 1]),
                        p[1][i] * scale(p[2][i], p[2][i + 1])) for p in samples]
                      for i in range(len(ops))]
        op_walls = [statistics.median(wall for wall, _ in reps) for reps in calibrated]
        op_cpus = [statistics.median(cpu for _, cpu in reps) for reps in calibrated]
        every_wall = [wall for reps in calibrated for wall, _ in reps]
        pct = w.tail_pct if len(every_wall) >= needed_ops(w.tail_pct) else 100
        metrics = {
            "wall_s": sum(op_walls),
            "cpu_s": sum(op_cpus),
            "op_p50_s": statistics.median(op_walls),
            "peak_rss_mb": peak_rss_mb(w.in_process),
            "setup_s": statistics.median(setups),
        }
        unbounded["op_tail_s"] = {"value": percentile(every_wall, pct), "unit": "s",
                                  "note": f"p{pct} of {len(every_wall)} op samples"}
        unbounded["raw_wall_s"] = {
            "value": sum(statistics.median(p[0][i] for p in samples)
                         for i in range(len(ops))),
            "unit": "s", "note": "wall_s before calibration"}
        unbounded["reference_s"] = {
            "value": statistics.median(r for p in samples for r in p[2]),
            "unit": "s", "note": f"reference kernel; {REFERENCE_S} s on the calibration host"}
        detail.update(passes=len(samples), samples=samples)
    else:
        from tracer import Tracer, median_metrics
        tracer = Tracer()
        plain, traced, layers = [], [], []
        ref = time_reference()
        while True:
            walls, _, _ = run_pass(ops, tally, in_process=True)
            mid = time_reference()
            plain.append(sum(walls) * scale(ref, mid))
            with tracer.installed():
                walls, _, _ = run_pass(ops, tally, in_process=True, tracer=tracer)
            ref = time_reference()
            traced.append(sum(walls) * scale(mid, ref))
            layers.append(tracer.pass_metrics())
            for i, bits in tracer.op_bits.items():
                detail["inputs"][i]["smith_max_bits"] = bits
            if time_is_up(start, len(plain), seconds):
                break
            tracer.reset()
        tracer.write_spans(ctx.workdir / "spans.tsv")
        metrics = median_metrics(layers)
        metrics["cli.interp_s"] = env["interp_start_s"]
        metrics["cli.import_s"] = statistics.median(
            float(probe(IMPORT_PROBE)[2]) for _ in range(PROBE_REPEATS))
        metrics["cli.import_cpu_s"] = statistics.median(
            probe(IMPORT_CPU_PROBE)[1] for _ in range(PROBE_REPEATS))
        metrics["trace.overhead_frac"] = (statistics.median(traced)
                                          / statistics.median(plain) - 1)
        detail.update(passes=len(traced))

    unbounded["failed_frac"] = {"value": tally.failed / tally.attempted, "unit": "ratio",
                                "note": f"{tally.failed}/{tally.attempted} ops"}
    detail.update(unbounded=unbounded, failures=tally.messages)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics, "detail": detail}


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def units(spec: dict, trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_run(result: dict, spec: dict, with_detail: bool = False) -> None:
    d = result["detail"]
    trace = bool(d["trace"])
    print(f"workload {d['workload']}  seed {d['seed']}  seconds {d['seconds']}  "
          f"trace {d['trace']}")
    print("env " + json.dumps(d["env"]))
    for props in d["inputs"]:
        print("input " + json.dumps(props))
    for msg in d["failures"]:
        print("FAILED " + msg)
    u = units(spec, trace)
    for k, unit in u.items():
        print(f"{k:34s} {result['metrics'][k]:.6g} {unit}")
    for k, v in d["unbounded"].items():
        print(f"{k:34s} {v['value']:.6g} {v['unit']}  ({v['note']}; not bounded)")
    if with_detail:
        print(json.dumps(d))
    line = {k: result[k] for k in ("correct", "attempted", "failed")}
    line["metrics"] = {k: {"value": result["metrics"][k], "unit": unit}
                       for k, unit in u.items()}
    print(json.dumps(line))


# ----------------------------------------------------------------------
# --all and --compare
# ----------------------------------------------------------------------

def run_all(repeats: int, seconds: int, seed: int, out: Path, spec: dict) -> None:
    """Every workload, `repeats` untraced runs and one traced run, each in a
    fresh interpreter so peak RSS is its own."""
    results = {"env": None, "run_seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        entry = {"why": w["why"], "runs": [], "trace": None}
        for k in range(repeats + 1):
            trace = k == repeats
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(seed + k), "--seconds", str(seconds),
                   "--trace", str(int(trace)), "--detail"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"{name}: run failed\n{proc.stderr}")
            lines = proc.stdout.splitlines()
            detail = json.loads(lines[-2])
            run = json.loads(lines[-1])
            run["detail"] = detail
            results["env"] = results["env"] or detail["env"]
            if trace:
                entry["trace"] = run
            else:
                run["metrics"].update(detail["unbounded"])
                entry["runs"].append(run)
            print(f"{name} seed {seed + k} trace {int(trace)}: "
                  f"{run['failed']}/{run['attempted']} failed", file=sys.stderr)
        results["workloads"][name] = entry
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")

    print(f"env {json.dumps(results['env'])}")
    for name, entry in results["workloads"].items():
        print(f"\n{name}: {entry['why']}")
        for metric in entry["runs"][0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in entry["runs"]]
            unit = entry["runs"][0]["metrics"][metric]["unit"]
            print(f"  {metric:14s} {statistics.median(vals):.6g} {unit}  "
                  f"(runs: {', '.join(f'{v:.4g}' for v in vals)})")
        layers = entry["trace"]["metrics"]
        print("  traced: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in layers.items()))
    print(f"\nwrote {out}")


def spread(vals: list[float]) -> float | None:
    """Interquartile range over the median, or None with fewer than 3 runs."""
    if len(vals) < 3:
        return None
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else None


def compare(base_path: Path, new_path: Path, spec: dict) -> None:
    base = json.loads(base_path.read_text(encoding="utf-8"))
    new = json.loads(new_path.read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':14s} {'metric':12s} {'unit':6s} {'base':>11s} {'new':>11s} "
          f"{'new/base':>9s}  verdict")
    for name, b in base["workloads"].items():
        if name not in new["workloads"]:
            print(f"{name:14s} missing from {new_path}")
            continue
        n = new["workloads"][name]
        for metric in b["runs"][0]["metrics"]:
            bv = [r["metrics"][metric]["value"] for r in b["runs"]]
            nv = [r["metrics"][metric]["value"] for r in n["runs"]]
            unit = b["runs"][0]["metrics"][metric]["unit"]
            bm, nm = statistics.median(bv), statistics.median(nv)
            if metric == "failed_frac":
                verdict = "worse" if nm > bm else "same"
                ratio = "-"
            elif metric not in bounds:
                ratio = f"{nm / bm:.3f}"
                verdict = "not bounded"
            else:
                bound = bounds[metric]["bound"]
                spreads = [spread(bv), spread(nv)]
                r = nm / bm
                ratio = f"{r:.3f}"
                if any(s is None or s > bound for s in spreads):
                    verdict = "unresolved"
                elif r > 1 + bound:
                    verdict = "worse"
                elif r < 1 - bound:
                    verdict = "better"
                else:
                    verdict = "within bound"
            print(f"{name:14s} {metric:12s} {unit:6s} {bm:11.5g} {nm:11.5g} "
                  f"{ratio:>9s}  {verdict}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--detail", action="store_true",
                    help="print the run's detail object as the next-to-last line")
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", type=Path, default=OUTDIR / "results.json")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            compare(*args.compare, spec)
            return 0
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.all:
            load_program()
            run_all(args.repeats, seconds, args.seed, args.out, spec)
            return 0
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            ap.error(f"--workload must be one of the workloads in {SPEC.name}")
        result = measure(args.workload, args.seed, seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_run(result, spec, args.detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
