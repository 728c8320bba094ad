"""Guard for the benchmark harness: tiny runs must finish and report outputs
that match the recorded digests. Every workload judges on a pool of up to
cpu-count threads. translate-bound and resume translate one sample at a time,
so their judging overlaps the next sample's translation; judge-bound
translates two at a time, with annotator variants that back-translate to the
same program, so it checks the verdict memo under threads against the
benchmark's program labels. The traced resume run replaces ``ibtforge.ibt``
module functions by name and reads snapshots back, so it fails if the runner
stops calling them. One full-size resume run checks the reports, corpora and
tables it writes against the digests recorded in ``perfbench/digests.json``,
which the smoke runs do not."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from conftest import requires_gcc

ROOT = Path(__file__).resolve().parents[1]


def _bench_run(workload: str, seed: int = 3, trace: int = 0, smoke: bool = True) -> dict:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), *["--smoke"] * smoke,
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
    assert _bench_run("translate-bound")["correct"] is True


@requires_gcc
def test_judge_bound_smoke_run_is_correct():
    result = _bench_run("judge-bound")
    assert result["correct"] is True
    assert result["failed"] == 0


@requires_gcc
def test_resume_smoke_run_is_correct():
    result = _bench_run("resume")
    assert result["correct"] is True
    assert result["failed"] == 0


@requires_gcc
def test_traced_resume_smoke_run_is_correct():
    result = _bench_run("resume", trace=1)
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["ibt.snapshot.bytes_written"]["value"] > 0
    assert metrics["corpus.load_s"]["value"] > 0


@requires_gcc
def test_resume_run_matches_the_recorded_digests():
    result = _bench_run("resume", 4, smoke=False)
    assert result["correct"] is True
    assert result["failed"] == 0
