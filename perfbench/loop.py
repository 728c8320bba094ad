"""Runs the IBT loop over generated corpora in a process of its own, so that
its peak resident memory is the loop's alone.

Usage: ``python3 perfbench/loop.py JOB.json``. The job names the corpora, the
workload, the run length and whether to trace; the result is written as JSON
to the job's ``result`` path.

Untraced mode repeats set-up, run and recovery until the run length is spent.
Traced mode runs a few untraced repetitions for reference, then one run with
spans that steps ``IbtRunner.run(stop_after=...)`` one phase at a time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import gen
import spans as tracing
from ibtforge.corpus import load_mono, load_parallel
from ibtforge.ibt import PHASES, IbtRunner
from ibtforge.judge import JudgeConfig
from ibtforge.lexer import tokenize_line
from ibtforge.translator import BACKWARD, FORWARD, TemplateBackend


def digest(snapshot_dir: Path, reports) -> str:
    """Reports without wall times, every corpus snapshot and both tables."""
    h = hashlib.sha256()
    records = [{k: v for k, v in r.to_record().items() if k != "wall_time_s"} for r in reports]
    h.update(json.dumps(records, sort_keys=True).encode())
    files = sorted(snapshot_dir.glob("corpus.[DY].*.jsonl"))
    files += [snapshot_dir / "forward.table.jsonl", snapshot_dir / "backward.table.jsonl"]
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def observed_passes(runner: IbtRunner) -> dict[str, int]:
    """Monolingual sample id -> iteration at which it moved into D."""
    passed: dict[str, int] = {}
    for sample in runner.parallel:
        if sample.origin == "ibt-augmented":
            passed.setdefault(sample.id.rsplit("#w", 1)[0], sample.iteration)
    return passed


# set-up and recovery are short: each repetition times them at least
# MIN_SAMPLES times and for at least MIN_SAMPLE_S, and keeps the median
MIN_SAMPLES = 3
MIN_SAMPLE_S = 0.2


def cpu_seconds() -> float:
    """User and system time of this process's threads and of its finished
    children (gcc and the judged programs)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def sampled(first: float, measure) -> float:
    times = [first]
    while len(times) < MIN_SAMPLES or sum(times) < MIN_SAMPLE_S:
        times.append(measure())
    return statistics.median(times)


class Loop:
    def __init__(self, job: dict) -> None:
        self.job = job
        self.wl = gen.workload(job["workload"], job["smoke"])
        self.cfg = self.wl.ibt_config()
        self.work = Path(job["work"])
        self.judge_cfg = JudgeConfig(language="c", work_dir=str(self.work / "judge"))

    def _runner(self, parallel, mono, snap, forward=None, backward=None, judge_fn=None) -> IbtRunner:
        return IbtRunner(
            parallel,
            mono,
            forward or TemplateBackend(),
            backward or TemplateBackend(),
            self.cfg,
            judge_cfg=self.judge_cfg,
            judge_fn=judge_fn,
            snapshot_dir=snap,
            max_workers=self.wl.max_workers,
        )

    def _set_up(self, snap: Path) -> tuple[IbtRunner, float, tuple]:
        started = time.perf_counter()
        parallel = load_parallel(self.job["parallel"])
        mono = load_mono(self.job["mono"])
        runner = self._runner(parallel, mono, snap)
        return runner, time.perf_counter() - started, (parallel, mono)

    def repetition(self, index: int) -> dict:
        """Set-up, the run (stopped at ``stop_after`` on the resume
        workload), then a fresh runner over the snapshot directory run to
        completion."""
        snap = self.work / f"rep{index}"
        scratch = self.work / f"rep{index}-scratch"
        runner, setup_s, inputs = self._set_up(snap)

        def set_up_again() -> float:
            seconds = self._set_up(scratch)[1]
            shutil.rmtree(scratch)
            return seconds

        setup_median = sampled(setup_s, set_up_again)
        cpu_started = cpu_seconds()
        started = time.perf_counter()
        runner.run(stop_after=self.wl.stop_after)
        run_s = time.perf_counter() - started
        run_cpu_s = cpu_seconds() - cpu_started
        # a stopped run's recovery writes into its directory, so later
        # samples recover copies of the directory as the run left it
        pristine = self.work / f"rep{index}-pristine"
        if self.wl.stop_after:
            shutil.copytree(snap, pristine)
        cpu_started = cpu_seconds()
        recovered, first_s = self._recover(inputs, snap)
        recovery_cpu_s = cpu_seconds() - cpu_started

        def recover_again() -> float:
            if not self.wl.stop_after:
                return self._recover(inputs, snap)[1]
            shutil.copytree(pristine, scratch)
            seconds = self._recover(inputs, scratch)[1]
            shutil.rmtree(scratch)
            return seconds

        recovery_s = sampled(first_s, recover_again)
        reports = recovered.reports
        tested = sum(r.tested_count for r in reports)
        loop_s = run_s + (recovery_s if self.wl.stop_after else 0.0)
        loop_cpu_s = run_cpu_s + (recovery_cpu_s if self.wl.stop_after else 0.0)
        result = {
            "setup_s": setup_median,
            "run_s": run_s,
            "recovery_s": recovery_s,
            "wall_s": setup_s + run_s + first_s,
            "programs_per_s": tested / loop_s,
            "cpu_s_per_program": loop_cpu_s / tested,
            "tested": tested,
            "quarantined": sum(r.quarantined_count for r in reports),
            "cumulative_success_pct": reports[-1].cumulative_success_rate_pct,
            "digest": digest(snap, reports),
            "passes": observed_passes(recovered),
        }
        shutil.rmtree(snap)
        shutil.rmtree(pristine, ignore_errors=True)
        return result

    def _recover(self, inputs: tuple, snap: Path) -> tuple[IbtRunner, float]:
        started = time.perf_counter()
        runner = self._runner(*inputs, snap)
        runner.run()
        return runner, time.perf_counter() - started

    def repeat(self, seconds: float, minimum: int) -> list[dict]:
        """Repeat until the next repetition would end past ``seconds``."""
        reps: list[dict] = []
        durations: list[float] = []
        started = time.perf_counter()
        while True:
            rep_started = time.perf_counter()
            reps.append(self.repetition(len(reps)))
            gc.collect()
            durations.append(time.perf_counter() - rep_started)
            elapsed = time.perf_counter() - started
            if len(reps) >= minimum and elapsed + statistics.median(durations) > seconds:
                return reps

    # -- traced run -------------------------------------------------------

    def _steps(self, runner: IbtRunner, tracer, start, stop) -> None:
        """Run phase by phase from after ``start`` up to and including
        ``stop`` (None: to the end)."""
        boundaries = [(i, p) for i in range(self.cfg.iterations) for p in PHASES]
        first = boundaries.index(start) + 1 if start else 0
        for boundary in boundaries[first:]:
            with tracer.phase_scope(*boundary):
                runner.run(stop_after=boundary)
            if boundary == stop:
                return
        runner.run()  # marks the run finished

    def traced(self) -> dict:
        tracer = tracing.Tracer()
        snap = self.work / "traced"
        judge = tracing.traced_judge(self.judge_cfg, tracer)

        def backends():
            return (
                tracing.TracedBackend(TemplateBackend(), tracer),
                tracing.TracedBackend(TemplateBackend(), tracer),
            )

        with tracing.installed(tracer, self.cfg.budget):
            started = time.perf_counter()
            with tracer.span("ibt.setup"):
                with tracer.span("corpus.load_parallel", bytes=Path(self.job["parallel"]).stat().st_size):
                    parallel = load_parallel(self.job["parallel"])
                with tracer.span("corpus.load_mono", bytes=Path(self.job["mono"]).stat().st_size):
                    mono = load_mono(self.job["mono"])
                forward, backward = backends()
                runner = self._runner(parallel, mono, snap, forward, backward, judge)
            self._steps(runner, tracer, None, self.wl.stop_after)
            with tracer.span("ibt.recovery") as recovery:
                with tracer.span("ibt.resume"):
                    forward2, backward2 = backends()
                    recovered = self._runner(parallel, mono, snap, forward2, backward2, judge)
                if self.wl.stop_after:
                    self._steps(recovered, tracer, self.wl.stop_after, None)
                reports = recovered.run()
            wall = time.perf_counter() - started
        result = {
            "wall_s": wall,
            "digest": digest(snap, reports),
            "passes": observed_passes(recovered),
            "tested": sum(r.tested_count for r in reports),
            "quarantined": sum(r.quarantined_count for r in reports),
            "iterations": [r.iteration for r in reports],
            "table_size": {
                FORWARD: forward2.table_size(FORWARD),
                BACKWARD: backward2.table_size(BACKWARD),
            },
            "recovery_span": recovery["id"],
            "corpus_bytes": sum(Path(self.job[k]).stat().st_size for k in ("parallel", "mono")),
            "lexer_lines_per_s": lexer_rate(tracer.lexed_lines),
            "spans": tracer.spans,
        }
        shutil.rmtree(snap)
        return result


def lexer_rate(lines: list[str], min_seconds: float = 0.3) -> float:
    """``tokenize_line`` replayed over the exact lines the traced run sent to
    translate and assemble."""
    count = 0
    started = time.perf_counter()
    while True:
        for line in lines:
            tokenize_line(line)
        count += len(lines)
        elapsed = time.perf_counter() - started
        if elapsed >= min_seconds or not lines:
            return count / elapsed if elapsed else 0.0


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    loop = Loop(job)
    seconds = job["seconds"]
    result: dict = {}
    if job["trace"]:
        # about half the run for untraced reference repetitions
        result["reps"] = loop.repeat(seconds / 2, minimum=1)
        result["traced"] = loop.traced()
    else:
        result["reps"] = loop.repeat(seconds, minimum=3)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
