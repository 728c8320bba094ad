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
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import (
    MonoSample,
    ParallelSample,
    atomic_open,
    load_mono,
    load_parallel,
    move_to_parallel,
    save_mono,
    save_parallel,
    validate_disjoint,
    write_manifest,
)
from .judge import JudgeConfig, JudgeFailureError, JudgeFn, judge_program, memoize_verdicts
from .metrics import cumulative_success
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
        return asdict(self)


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
        """The fields as a dict, with both rates rounded to 4 places;
        ``IterationReport(**record)`` reads it back."""
        rec = asdict(self)
        rec["success_rate_pct"] = round(self.success_rate_pct, 4)
        rec["cumulative_success_rate_pct"] = round(self.cumulative_success_rate_pct, 4)
        return rec


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


def _dump_json(path: Path, payload: dict) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


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

    def _done(self) -> int:
        """How many of the current iteration's phases have completed."""
        return PHASES.index(self.completed_phase) + 1 if self.completed_phase else 0

    @staticmethod
    def _required(path: Path) -> Path:
        if not path.exists():
            raise IbtError(f"cannot resume: snapshot file {path.name} is missing")
        return path

    def _resume(self) -> None:
        """Restore the state, corpora, tables and evaluation that the last
        completed phase left; refuse, naming the file, when one is missing."""
        assert self.snapshot_dir is not None
        state = json.loads((self.snapshot_dir / "state.json").read_text(encoding="utf-8"))
        if state.get("config") != self.cfg.to_record():
            raise IbtError("snapshot was produced under a different configuration")
        self.initial_mono_count = state["initial_mono_count"]
        self.iteration = state["iteration"]
        self.completed_phase = state["completed_phase"]
        self.finished = state["finished"]
        self.reports = [IterationReport(**r) for r in state["reports"]]
        self.quarantined = [tuple(q) for q in state["quarantined"]]
        done = self._done()
        d_path, y_path = self._corpus_paths(self.iteration + (done > PHASES.index("augment")))
        self.parallel = load_parallel(self._required(d_path))
        self.mono = load_mono(self._required(y_path))
        for name, backend in (("forward", self.forward), ("backward", self.backward)):
            load = getattr(backend, "load_state", None)
            trained = self.iteration > 0 or done > PHASES.index(f"finetune-{name}")
            if callable(load) and trained:
                load(self._required(self.snapshot_dir / f"{name}.table.jsonl"))
        if done > PHASES.index("evaluate"):
            outcome_path = self._required(self.snapshot_dir / f"evaluation.{self.iteration}.json")
            self._outcomes = json.loads(outcome_path.read_text(encoding="utf-8"))
        log.info(
            "resumed at iteration %d after phase %r", self.iteration, self.completed_phase
        )

    # -- phases ----------------------------------------------------------------

    def _pl_on(self) -> bool:
        return self.iteration >= self.cfg.pl_prefix_from_iteration

    def _phase_finetune(self, direction: str) -> None:
        config = {"worker_prefix": direction == FORWARD, "pl_prefix": self._pl_on()}
        backend = self.forward if direction == FORWARD else self.backward
        backend.fine_tune(self.parallel, direction, config).wait()
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

    def _phase_augment(self) -> None:
        assert self._outcomes is not None
        passes = {entry[0]: entry[1] for entry in self._outcomes["passes"]}
        quarantined_ids = {entry[0] for entry in self._outcomes["quarantined"]}
        remaining: list[MonoSample] = []
        for sample in self.mono:
            if sample.id in passes:
                for worker, pseudo_lines in passes[sample.id]:
                    self.parallel.append(
                        move_to_parallel(sample, worker, list(pseudo_lines), self.iteration)
                    )
            elif sample.id not in quarantined_ids:
                remaining.append(sample)
        self.mono = remaining
        for entry in self._outcomes["quarantined"]:
            self.quarantined.append((entry[0], entry[1]))
        validate_disjoint(self.parallel, self.mono)
        self._snapshot_corpora(self.iteration + 1)

    def _phase_report(self) -> None:
        """Report the iteration, then move on to the next one."""
        assert self._outcomes is not None
        passes = self._outcomes["passes"]
        passed = len(passes)
        quarantined = len(self._outcomes["quarantined"])
        # size of Y at iteration start: augmentation has removed the passed
        # and the quarantined samples from the in-memory pool
        tested_count = len(self.mono) + passed + quarantined
        report = IterationReport(
            iteration=self.iteration,
            tested_count=tested_count,
            passed_count=passed,
            success_rate_pct=100.0 * passed / tested_count if tested_count else 0.0,
            cumulative_success_rate_pct=0.0,
            augmented_pairs_count=sum(len(entry[1]) for entry in passes),
            quarantined_count=quarantined,
            wall_time_s=round(time.monotonic() - self._iter_started, 3),
        )
        # also checks that each iteration tested what the previous one left
        report.cumulative_success_rate_pct = cumulative_success(
            [*self.reports, report], self.initial_mono_count
        )
        self.reports.append(report)
        if self.snapshot_dir is not None:
            d_path, y_path = self._corpus_paths(self.iteration + 1)
            report.snapshots = {"D": d_path.name, "Y": y_path.name}
            _dump_json(
                self.snapshot_dir / "reports.json",
                {
                    "schema_version": SCHEMA_VERSION,
                    "initial_mono_count": self.initial_mono_count,
                    "reports": [r.to_record() for r in self.reports],
                },
            )
        self.iteration += 1
        self._outcomes = None
        self.finished = not self.mono or self.iteration == self.cfg.iterations

    # -- main loop ---------------------------------------------------------------

    def run(self, stop_after: tuple[int, str] | None = None) -> list[IterationReport]:
        """Run to completion, or to ``stop_after=(iteration, phase)`` for
        cooperative kill-and-resume testing. State is saved after every
        phase, so a resumed runner starts at the first phase not completed."""
        steps = (
            lambda: self._phase_finetune(FORWARD),
            lambda: self._phase_finetune(BACKWARD),
            self._phase_evaluate,
            self._phase_augment,
            self._phase_report,
        )
        try:
            while not self.finished and self.iteration < self.cfg.iterations:
                self._iter_started = time.monotonic()
                done = self._done()
                for phase, step in zip(PHASES[done:], steps[done:]):
                    boundary = (self.iteration, phase)
                    step()
                    # the report step has already moved on to the next iteration
                    self.completed_phase = phase if phase != PHASES[-1] else None
                    self._save_state()
                    if boundary == stop_after:
                        return self.reports
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
    )
    return runner.run(stop_after=stop_after)
