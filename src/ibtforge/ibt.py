"""Iteration driver: fine-tune both translation directions on the parallel
corpus, expand every monolingual program through worker-prefixed forward
translation, back-translate with beams, assemble and judge against test
cases, then move passing programs (with their generated pseudocode) into the
parallel corpus and repeat.

Every phase boundary is snapshotted so a killed run resumes to the same
final state as an uninterrupted one (given deterministic backends).
"""

from __future__ import annotations

import json
import logging
import os
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import (
    MonoSample,
    ParallelSample,
    load_mono,
    load_parallel,
    move_to_parallel,
    save_mono,
    save_parallel,
    validate_disjoint,
    write_manifest,
)
from .judge import JudgeConfig, JudgeFailureError, JudgeFn, judge_program, memoize_verdicts
from .preprocess import Prefix, apply_prefix, preprocess_sample
from .translator import (
    BACKWARD,
    Backend,
    BackendUnavailable,
    FORWARD,
    TranslationRequest,
    expand_workers,
)
from .assembler import assemble

log = logging.getLogger(__name__)

PHASES = ("finetune-forward", "finetune-backward", "evaluate", "augment", "report")

SCHEMA_VERSION = 1


class IbtError(Exception):
    pass


@dataclass(frozen=True)
class IbtConfig:
    iterations: int = 2
    beam: int = 10
    budget: int = 10
    workers_top_k: int = 10
    pl_prefix_from_iteration: int = 1

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.beam < 1 or self.budget < 1 or self.workers_top_k < 1:
            raise ValueError("beam, budget and workers_top_k must be >= 1")
        if not 0 <= self.pl_prefix_from_iteration <= self.iterations:
            raise ValueError("pl_prefix_from_iteration must lie within the iteration range")

    def to_record(self) -> dict:
        return {
            "iterations": self.iterations,
            "beam": self.beam,
            "budget": self.budget,
            "workers_top_k": self.workers_top_k,
            "pl_prefix_from_iteration": self.pl_prefix_from_iteration,
        }


@dataclass
class IterationReport:
    iteration: int
    tested_count: int
    passed_count: int
    success_rate_pct: float
    cumulative_success_rate_pct: float
    augmented_pairs_count: int
    quarantined_count: int = 0
    wall_time_s: float = 0.0
    snapshots: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "iteration": self.iteration,
            "tested_count": self.tested_count,
            "passed_count": self.passed_count,
            "success_rate_pct": round(self.success_rate_pct, 4),
            "cumulative_success_rate_pct": round(self.cumulative_success_rate_pct, 4),
            "augmented_pairs_count": self.augmented_pairs_count,
            "quarantined_count": self.quarantined_count,
            "wall_time_s": self.wall_time_s,
            "snapshots": dict(self.snapshots),
        }

    @classmethod
    def from_record(cls, rec: dict) -> "IterationReport":
        return cls(
            iteration=rec["iteration"],
            tested_count=rec["tested_count"],
            passed_count=rec["passed_count"],
            success_rate_pct=rec["success_rate_pct"],
            cumulative_success_rate_pct=rec["cumulative_success_rate_pct"],
            augmented_pairs_count=rec["augmented_pairs_count"],
            quarantined_count=rec.get("quarantined_count", 0),
            wall_time_s=rec.get("wall_time_s", 0.0),
            snapshots=rec.get("snapshots", {}),
        )


def select_top_workers(dataset: Sequence[ParallelSample], k: int) -> list[int]:
    """The k workers with the most annotated lines; ties go to the smaller
    id, and fewer than k distinct workers returns all of them."""
    if not dataset:
        raise ValueError("select_top_workers on an empty corpus")
    counts: Counter[int] = Counter()
    for sample in dataset:
        counts[sample.worker] += len(sample.code_lines)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [worker for worker, _ in ranked[:k]]


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _dump_json(path: Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


class IbtRunner:
    """Stateful driver for one back-translation run.

    With a snapshot directory the runner is resumable: it records the last
    completed phase in ``state.json`` and re-enters the loop there, reloading
    corpora and backend tables from the snapshot files.
    """

    def __init__(
        self,
        parallel: list[ParallelSample],
        mono: list[MonoSample],
        forward: Backend,
        backward: Backend,
        cfg: IbtConfig,
        judge_cfg: JudgeConfig | None = None,
        judge_fn: JudgeFn | None = None,
        snapshot_dir: str | Path | None = None,
        max_workers: int = 1,
        fine_tune_config: dict | None = None,
    ) -> None:
        if not parallel:
            raise ValueError("parallel corpus must be non-empty")
        if not mono:
            raise ValueError("monolingual corpus must be non-empty")
        if judge_fn is None and judge_cfg is None:
            raise ValueError("either judge_cfg or judge_fn is required")
        self.forward = forward
        self.backward = backward
        self.cfg = cfg
        # one verdict per distinct (source, tests) for the runner's lifetime:
        # annotator variants that back-translate alike, and programs judged
        # again in a later iteration, skip the compiler
        self.judge_fn: JudgeFn = memoize_verdicts(
            judge_fn or (lambda source, tests: judge_program(source, tests, judge_cfg))
        )
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir is not None else None
        self.max_workers = max(1, max_workers)
        self.fine_tune_config = dict(fine_tune_config or {})

        resuming = self.snapshot_dir is not None and (self.snapshot_dir / "state.json").exists()
        # a resumed run replaces both corpora with the snapshot's, so the
        # input is only checked, not preprocessed
        self.parallel = list(parallel) if resuming else [preprocess_sample(s) for s in parallel]
        self.mono = list(mono)
        validate_disjoint(self.parallel, self.mono)
        self.reports: list[IterationReport] = []
        self.quarantined: list[tuple[str, str]] = []
        self.initial_mono_count = len(self.mono)
        self.iteration = 0
        self.completed_phase: str | None = None
        self.finished = False
        self._outcomes: dict | None = None
        self._iter_started = time.monotonic()

        if resuming:
            self._resume()
        elif self.snapshot_dir is not None:
            self.snapshot_dir.mkdir(parents=True, exist_ok=True)
            self._snapshot_corpora(0)
            self._save_state()

    # -- snapshot plumbing ---------------------------------------------------

    def _corpus_paths(self, iteration: int) -> tuple[Path, Path]:
        assert self.snapshot_dir is not None
        return (
            self.snapshot_dir / f"corpus.D.{iteration}.jsonl",
            self.snapshot_dir / f"corpus.Y.{iteration}.jsonl",
        )

    def _snapshot_corpora(self, iteration: int) -> None:
        if self.snapshot_dir is None:
            return
        d_path, y_path = self._corpus_paths(iteration)
        save_parallel(self.parallel, d_path)
        save_mono(self.mono, y_path)
        write_manifest(
            self.snapshot_dir,
            sorted(self.snapshot_dir.glob("corpus.*.jsonl")),
        )

    def _save_backend(self, direction: str) -> None:
        """Write the table of the backend that trained in ``direction``; a
        backend shared by both directions is written under both names."""
        if self.snapshot_dir is None:
            return
        for name, backend in (("forward", self.forward), ("backward", self.backward)):
            if name != direction and self.forward is not self.backward:
                continue
            save = getattr(backend, "save_state", None)
            if callable(save):
                save(self.snapshot_dir / f"{name}.table.jsonl")

    def _load_backends(self) -> None:
        assert self.snapshot_dir is not None
        for name, backend in (("forward", self.forward), ("backward", self.backward)):
            load = getattr(backend, "load_state", None)
            path = self.snapshot_dir / f"{name}.table.jsonl"
            if callable(load) and path.exists():
                load(path)

    def _save_state(self) -> None:
        if self.snapshot_dir is None:
            return
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": self.cfg.to_record(),
            "initial_mono_count": self.initial_mono_count,
            "iteration": self.iteration,
            "completed_phase": self.completed_phase,
            "finished": self.finished,
            "reports": [r.to_record() for r in self.reports],
            "quarantined": [list(q) for q in self.quarantined],
        }
        _dump_json(self.snapshot_dir / "state.json", payload)

    def _resume(self) -> None:
        assert self.snapshot_dir is not None
        state = json.loads((self.snapshot_dir / "state.json").read_text(encoding="utf-8"))
        if state.get("config") != self.cfg.to_record():
            raise IbtError("snapshot was produced under a different configuration")
        self.initial_mono_count = state["initial_mono_count"]
        self.iteration = state["iteration"]
        self.completed_phase = state["completed_phase"]
        self.finished = state["finished"]
        self.reports = [IterationReport.from_record(r) for r in state["reports"]]
        self.quarantined = [tuple(q) for q in state["quarantined"]]
        phase_idx = PHASES.index(self.completed_phase) if self.completed_phase else -1
        corpus_iter = self.iteration
        if self.completed_phase and phase_idx >= PHASES.index("augment"):
            corpus_iter = self.iteration + 1
        d_path, y_path = self._corpus_paths(corpus_iter)
        self.parallel = load_parallel(d_path)
        self.mono = load_mono(y_path)
        self._load_backends()
        outcome_path = self.snapshot_dir / f"evaluation.{self.iteration}.json"
        if (
            self.completed_phase
            and phase_idx >= PHASES.index("evaluate")
            and outcome_path.exists()
        ):
            self._outcomes = json.loads(outcome_path.read_text(encoding="utf-8"))
        log.info(
            "resumed at iteration %d after phase %r", self.iteration, self.completed_phase
        )

    def _phase_completed(self, phase: str) -> None:
        self.completed_phase = phase
        self._save_state()

    def _phase_pending(self, phase: str) -> bool:
        if self.completed_phase is None:
            return True
        return PHASES.index(phase) > PHASES.index(self.completed_phase)

    # -- phases ----------------------------------------------------------------

    def _pl_on(self) -> bool:
        return self.iteration >= self.cfg.pl_prefix_from_iteration

    def _phase_finetune(self, direction: str) -> None:
        config = dict(self.fine_tune_config)
        config["worker_prefix"] = direction == FORWARD
        config["pl_prefix"] = self._pl_on()
        backend = self.forward if direction == FORWARD else self.backward
        handle = backend.fine_tune(self.parallel, direction, config)
        handle.wait()
        self._save_backend(direction)

    def _evaluate_sample(self, sample: MonoSample, workers: list[int]) -> tuple[str, object]:
        language_tag = sample.language if self._pl_on() else None
        try:
            variants = expand_workers(sample, workers, self.forward, language_tag)
            if not variants:
                return ("quarantine", "all forward variants failed")
            passing: list[tuple[int, list[str]]] = []
            for worker, pseudo_lines in variants:
                prefix = Prefix(language=language_tag)
                lines = tuple(
                    apply_prefix(prefix, p) if (prefix and p) else p for p in pseudo_lines
                )
                beams = self.backward.translate(
                    TranslationRequest(direction=BACKWARD, lines=lines, beam_size=self.cfg.beam)
                )
                result = assemble(beams, sample.tests, self.cfg.budget, self.judge_fn)
                if result.success:
                    passing.append((worker, pseudo_lines))
            return ("pass", passing) if passing else ("fail", [])
        except JudgeFailureError as exc:
            return ("quarantine", str(exc))

    def _phase_evaluate(self) -> None:
        workers = select_top_workers(self.parallel, self.cfg.workers_top_k)
        if self.max_workers > 1 and len(self.mono) > 1:
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                results = list(pool.map(lambda y: self._evaluate_sample(y, workers), self.mono))
        else:
            results = [self._evaluate_sample(y, workers) for y in self.mono]
        passes: list[list] = []
        quarantined: list[list] = []
        for sample, (status, payload) in zip(self.mono, results):
            if status == "pass":
                passes.append([sample.id, [[w, list(p)] for w, p in payload]])
            elif status == "quarantine":
                quarantined.append([sample.id, str(payload)])
        self._outcomes = {
            "schema_version": SCHEMA_VERSION,
            "iteration": self.iteration,
            "passes": passes,
            "quarantined": quarantined,
        }
        if self.snapshot_dir is not None:
            _dump_json(self.snapshot_dir / f"evaluation.{self.iteration}.json", self._outcomes)

    def _phase_augment(self) -> int:
        assert self._outcomes is not None
        passes = {entry[0]: entry[1] for entry in self._outcomes["passes"]}
        quarantined_ids = {entry[0] for entry in self._outcomes["quarantined"]}
        augmented = 0
        remaining: list[MonoSample] = []
        for sample in self.mono:
            if sample.id in passes:
                for worker, pseudo_lines in passes[sample.id]:
                    self.parallel.append(
                        move_to_parallel(sample, worker, list(pseudo_lines), self.iteration)
                    )
                    augmented += 1
            elif sample.id in quarantined_ids:
                continue
            else:
                remaining.append(sample)
        self.mono = remaining
        for entry in self._outcomes["quarantined"]:
            self.quarantined.append((entry[0], entry[1]))
        validate_disjoint(self.parallel, self.mono)
        self._snapshot_corpora(self.iteration + 1)
        return augmented

    def _phase_report(self, tested_count: int, augmented: int) -> IterationReport:
        assert self._outcomes is not None
        passed = len(self._outcomes["passes"])
        quarantined = len(self._outcomes["quarantined"])
        total_passed = sum(r.passed_count for r in self.reports) + passed
        d_name, y_name = (
            f"corpus.D.{self.iteration + 1}.jsonl",
            f"corpus.Y.{self.iteration + 1}.jsonl",
        )
        report = IterationReport(
            iteration=self.iteration,
            tested_count=tested_count,
            passed_count=passed,
            success_rate_pct=100.0 * passed / tested_count if tested_count else 0.0,
            cumulative_success_rate_pct=100.0 * total_passed / self.initial_mono_count,
            augmented_pairs_count=augmented,
            quarantined_count=quarantined,
            wall_time_s=round(time.monotonic() - self._iter_started, 3),
            snapshots={"D": d_name, "Y": y_name} if self.snapshot_dir is not None else {},
        )
        self.reports.append(report)
        if self.snapshot_dir is not None:
            _dump_json(
                self.snapshot_dir / "reports.json",
                {
                    "schema_version": SCHEMA_VERSION,
                    "initial_mono_count": self.initial_mono_count,
                    "reports": [r.to_record() for r in self.reports],
                },
            )
        return report

    # -- main loop ---------------------------------------------------------------

    def run(self, stop_after: tuple[int, str] | None = None) -> list[IterationReport]:
        """Run to completion, or to ``stop_after=(iteration, phase)`` for
        cooperative kill-and-resume testing."""
        if self.finished:
            return self.reports

        def should_stop(phase: str) -> bool:
            return stop_after is not None and stop_after == (self.iteration, phase)

        try:
            while self.iteration < self.cfg.iterations:
                self._iter_started = time.monotonic()
                if self._phase_pending("finetune-forward"):
                    self._phase_finetune(FORWARD)
                    self._phase_completed("finetune-forward")
                    if should_stop("finetune-forward"):
                        return self.reports
                if self._phase_pending("finetune-backward"):
                    self._phase_finetune(BACKWARD)
                    self._phase_completed("finetune-backward")
                    if should_stop("finetune-backward"):
                        return self.reports
                if self._phase_pending("evaluate"):
                    self._phase_evaluate()
                    self._phase_completed("evaluate")
                    if should_stop("evaluate"):
                        return self.reports
                augmented = 0
                if self._phase_pending("augment"):
                    augmented = self._phase_augment()
                    self._phase_completed("augment")
                    if should_stop("augment"):
                        return self.reports
                else:
                    assert self._outcomes is not None
                    augmented = sum(len(entry[1]) for entry in self._outcomes["passes"])
                # size of Y at iteration start: the in-memory corpus no
                # longer reflects it after augmentation removed the passes
                assert self._outcomes is not None
                tested_count = (
                    len(self.mono)
                    + len(self._outcomes["passes"])
                    + len(self._outcomes["quarantined"])
                )
                self._phase_report(tested_count, augmented)
                stop_here = should_stop("report")
                empty_pool = not self.mono
                self.iteration += 1
                self.completed_phase = None
                self._outcomes = None
                if empty_pool:
                    self.finished = True
                self._save_state()
                if stop_here:
                    return self.reports
                if empty_pool:
                    break
            self.finished = True
            self._save_state()
            return self.reports
        except BackendUnavailable:
            # state was persisted at the last phase boundary; the run can be
            # resumed once the backend is reachable again
            self._save_state()
            raise


def run_ibt(
    parallel: list[ParallelSample],
    mono: list[MonoSample],
    forward: Backend,
    backward: Backend,
    cfg: IbtConfig,
    judge_cfg: JudgeConfig | None = None,
    judge_fn: JudgeFn | None = None,
    snapshot_dir: str | Path | None = None,
    max_workers: int = 1,
    fine_tune_config: dict | None = None,
    stop_after: tuple[int, str] | None = None,
) -> list[IterationReport]:
    """Drive the full back-translation loop and return one report per
    executed iteration."""
    runner = IbtRunner(
        parallel,
        mono,
        forward,
        backward,
        cfg,
        judge_cfg=judge_cfg,
        judge_fn=judge_fn,
        snapshot_dir=snapshot_dir,
        max_workers=max_workers,
        fine_tune_config=fine_tune_config,
    )
    return runner.run(stop_after=stop_after)
