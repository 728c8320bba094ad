"""Guard for the benchmark harness: tiny runs must finish and report outputs
that match the recorded digests. translate-bound runs one thread over a large
table; judge-bound is the only workload that judges on two threads, with
annotator variants that back-translate to the same program, so it checks the
verdict memo under threads against the benchmark's program labels. The
traced resume run replaces ``ibtforge.ibt`` module functions by name and
reads snapshots back, so it fails if the runner stops calling them."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from conftest import requires_gcc

ROOT = Path(__file__).resolve().parents[1]


def _smoke_run(workload: str, trace: int = 0) -> dict:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@requires_gcc
def test_translate_bound_smoke_run_is_correct():
    assert _smoke_run("translate-bound")["correct"] is True


@requires_gcc
def test_judge_bound_smoke_run_is_correct():
    result = _smoke_run("judge-bound")
    assert result["correct"] is True
    assert result["failed"] == 0


@requires_gcc
def test_traced_resume_smoke_run_is_correct():
    result = _smoke_run("resume", trace=1)
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["ibt.snapshot.bytes_written"]["value"] > 0
    assert metrics["corpus.load_s"]["value"] > 0
