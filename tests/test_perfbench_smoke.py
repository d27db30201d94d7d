"""The benchmark harness still runs: every workload at tiny N, with all its checks.

``perfbench/run.py --smoke`` also fails when a workload no longer reaches a
function its layer trace requires, so a refactor cannot silently break the
benchmark's call graph.  No timing is asserted.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert lines and lines[-1] == '{"smoke": "ok"}', proc.stderr[-2000:]
