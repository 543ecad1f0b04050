"""Write bench/data/expected.json: exit code and stdout of every fixture
command of the cli workload, run through the CLI of this checkout.

    python3 bench/make_expected.py

Run it only at a commit whose CLI output is the reference; the cli workload
counts any later difference as a failed op.
"""

import json
import sys

from run import ROOT, child_env, load_program

wl = load_program()
ctx = wl.Context(ROOT, ROOT, sys.executable, child_env())
expected = {}
for cmd in wl.FIXTURE_COMMANDS:
    rc, stdout = wl.run_cli(ctx, wl.fixture_argv(cmd), in_process=False)
    if rc != 0:
        sys.exit(f"{wl.command_key(cmd)!r} exited {rc}")
    expected[wl.command_key(cmd)] = {"exit": rc, "stdout": stdout}
wl.EXPECTED.write_text(json.dumps(expected, indent=1, ensure_ascii=False) + "\n",
                       encoding="utf-8")
print(f"wrote {len(expected)} outputs to {wl.EXPECTED}")
