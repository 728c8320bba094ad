"""Guard for the benchmark harness: a tiny translate-bound run must finish
and report outputs that match the recorded digests."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from conftest import requires_gcc

ROOT = Path(__file__).resolve().parents[1]


@requires_gcc
def test_translate_bound_smoke_run_is_correct():
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", "translate-bound", "--seed", "3",
            "--seconds", "1", "--trace", "0", "--smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
