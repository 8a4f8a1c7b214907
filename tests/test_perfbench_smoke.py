"""The benchmark's smoke run: every workload at tiny size, outputs checked
against its reference, every tracing hook present."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("casework", "study-quick", "study-full")


def test_smoke_run_passes_on_every_workload():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    for workload in WORKLOADS:
        line = re.search(rf"^smoke {workload}: .*$", proc.stdout, re.M)
        assert line is not None, proc.stdout[-2000:]
        assert ", 0 failed, 0 absent hooks," in line.group(0), line.group(0)
