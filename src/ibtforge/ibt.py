"""Iteration driver: fine-tune both translation directions on the parallel
corpus, expand every monolingual program through worker-prefixed forward
translation, back-translate with beams, assemble and judge against test
cases, move passing programs (with their generated pseudocode) into the
parallel corpus, report and repeat.

Every phase boundary is snapshotted so a killed run resumes to the same
final state as an uninterrupted one (given deterministic backends). A
boundary is ``state.json`` (the last completed phase and the reports so far)
plus the corpora it names: the evaluate phase ends by writing the next
iteration's corpora, so its outcome lives in them and in its report.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Sequence

from .corpus import (
    MonoSample,
    ParallelSample,
    atomic_open,
    load_mono,
    load_parallel,
    move_to_parallel,
    read_manifest,
    save_mono,
    save_parallel,
    validate_disjoint,
    write_manifest,
)
from .judge import (
    JUDGE_THREADS,
    JudgeConfig,
    JudgeFn,
    judge_program,
    memoize_verdicts,
)
from .metrics import cumulative_success
from .preprocess import Prefix, apply_prefix, preprocess_sample
from .translator import (
    BACKWARD,
    Backend,
    FORWARD,
    TranslationRequest,
    expand_workers,
)
from .assembler import assemble

log = logging.getLogger(__name__)

PHASES = ("finetune-forward", "finetune-backward", "evaluate", "report")

SCHEMA_VERSION = 4


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
    # always 0, as a judge fault stops the run; the benchmark sums it and digests reports
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
    the corpora from the snapshot files and replaying each completed
    fine-tune on them; the table files it writes are never read back.
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
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
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
        self.max_workers = max_workers

        resuming = self.snapshot_dir is not None and (self.snapshot_dir / "state.json").exists()
        # a resumed run replaces both corpora with the snapshot's, so the
        # input is only checked, not preprocessed
        self.parallel = list(parallel) if resuming else [preprocess_sample(s) for s in parallel]
        self.mono = list(mono)
        validate_disjoint(self.parallel, self.mono)
        self.reports: list[IterationReport] = []
        self.initial_parallel_count = len(self.parallel)
        self.initial_mono_count = len(self.mono)
        self.iteration = 0
        self.completed_phase: str | None = None
        self.finished = False
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

    def _snapshot_corpora(self, iteration: int, appended_from: int | None = None) -> None:
        """Write D and Y as ``iteration``'s snapshot and set their entries in
        the manifest from the bytes written. With ``appended_from``, D is
        only appended to since the snapshot of the current iteration: the new
        D begins with that file's bytes, and only the samples from
        ``appended_from`` on are encoded."""
        if self.snapshot_dir is None:
            return
        d_path, y_path = self._corpus_paths(iteration)
        entries = read_manifest(self.snapshot_dir)
        if appended_from is None:
            entries[d_path.name] = save_parallel(self.parallel, d_path)
        else:
            previous = self._corpus_paths(self.iteration)[0]
            entries[d_path.name] = save_parallel(self.parallel[appended_from:], d_path, previous)
        entries[y_path.name] = save_mono(self.mono, y_path)
        write_manifest(self.snapshot_dir, entries)

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
            "initial_parallel_count": self.initial_parallel_count,
            "initial_mono_count": self.initial_mono_count,
            "iteration": self.iteration,
            "completed_phase": self.completed_phase,
            "finished": self.finished,
            "reports": [r.to_record() for r in self.reports],
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
        """Restore the state and corpora that the last completed phase left;
        refuse, naming the file, when one is missing, unreadable or holds
        other than the samples the reports leave in D or the programs they
        leave untested in Y. When a phase still to run fine-tunes or
        translates, every completed fine-tune is replayed, in run order, on
        its iteration's D."""
        assert self.snapshot_dir is not None
        path = self._required(self.snapshot_dir / "state.json")
        try:
            state = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise IbtError(f"cannot resume: snapshot file state.json is not JSON: {exc}") from None
        if not isinstance(state, dict) or state.get("schema_version") != SCHEMA_VERSION:
            raise IbtError(f"cannot resume: snapshot file state.json is not schema {SCHEMA_VERSION}")
        try:
            if state["config"] != self.cfg.to_record():
                raise IbtError("snapshot was produced under a different configuration")
            self.initial_parallel_count = state["initial_parallel_count"]
            self.initial_mono_count = state["initial_mono_count"]
            self.iteration = state["iteration"]
            self.completed_phase = state["completed_phase"]
            self.finished = state["finished"]
            self.reports = [IterationReport(**r) for r in state["reports"]]
            # only a finished run reaches the iteration after the last
            if self.completed_phase not in (None, *PHASES[:-1]) or not (
                0 <= self.iteration <= self.cfg.iterations - bool(self.completed_phase)
            ):
                raise IbtError(
                    "cannot resume: state.json is malformed: no phase "
                    f"{self.completed_phase!r} of iteration {self.iteration!r} in this run"
                )
            # the evaluate phase appends its iteration's report
            done = self._done()
            evaluated = done > PHASES.index("evaluate")
            if len(self.reports) != self.iteration + evaluated:
                raise IbtError(
                    "cannot resume: state.json is malformed: "
                    f"{len(self.reports)} reports after phase {self.completed_phase!r} "
                    f"of iteration {self.iteration}"
                )
            # the samples that D must hold in each iteration's snapshot, and
            # the programs that Y must hold
            d_counts = list(
                accumulate(
                    (r.augmented_pairs_count for r in self.reports),
                    initial=self.initial_parallel_count,
                )
            )
            if self.reports:
                cumulative_success(self.reports, self.initial_mono_count)
                untested = self.reports[-1].tested_count - self.reports[-1].passed_count
            else:
                untested = self.initial_mono_count
        except (KeyError, TypeError) as exc:
            raise IbtError(f"cannot resume: state.json is malformed: {exc!r}") from None

        def load_d(k: int) -> list[ParallelSample]:
            path = self._required(self._corpus_paths(k)[0])
            dataset = load_parallel(path)
            if len(dataset) != d_counts[k]:
                raise IbtError(
                    f"cannot resume: snapshot file {path.name} holds {len(dataset)} "
                    f"samples, but state.json leaves {d_counts[k]} in D"
                )
            return dataset

        self.parallel = load_d(self.iteration + evaluated)
        y_path = self._required(self._corpus_paths(self.iteration + evaluated)[1])
        self.mono = load_mono(y_path)
        if len(self.mono) != untested:
            raise IbtError(
                f"cannot resume: snapshot file {y_path.name} holds {len(self.mono)} "
                f"programs, but state.json leaves {untested} untested"
            )
        # a run finishes in the report of its last iteration, or of one that
        # left no program untested
        if self.finished != (
            not done and self.iteration > 0 and (not self.mono or self.iteration == self.cfg.iterations)
        ):
            raise IbtError(
                f"cannot resume: state.json is malformed: finished is {self.finished!r} "
                f"after phase {self.completed_phase!r} of iteration {self.iteration} "
                f"with {len(self.mono)} programs untested"
            )
        # replay unless the run is finished or past its last evaluation; the
        # fine-tunes are each iteration's first two phases, in PHASES order
        if not self.finished and (not evaluated or self.iteration + 1 < self.cfg.iterations):
            for i in range(self.iteration + bool(done)):
                dataset = load_d(i)
                for direction in (FORWARD, BACKWARD)[: 2 if i < self.iteration else done]:
                    self._fine_tune(direction, i, dataset)
        log.info(
            "resumed at iteration %d after phase %r", self.iteration, self.completed_phase
        )

    # -- phases ----------------------------------------------------------------

    def _pl_on(self, iteration: int) -> bool:
        return iteration >= self.cfg.pl_prefix_from_iteration

    def _fine_tune(self, direction: str, iteration: int, dataset: list[ParallelSample]) -> None:
        config = {"worker_prefix": direction == FORWARD, "pl_prefix": self._pl_on(iteration)}
        backend = self.forward if direction == FORWARD else self.backward
        backend.fine_tune(dataset, direction, config)

    def _phase_finetune(self, direction: str) -> None:
        self._fine_tune(direction, self.iteration, self.parallel)
        self._save_backend(direction)

    def _evaluate_sample(
        self, sample: MonoSample, workers: list[int], translating: threading.Semaphore
    ) -> list[tuple[int, list[str]]]:
        """Translate the variants holding ``translating``, then assemble and
        judge them without it; return the passing (worker, pseudocode) ones."""
        language_tag = sample.language if self._pl_on(self.iteration) else None
        prefix = Prefix(language=language_tag)
        translated: list[tuple[int, list[str], list]] = []
        with translating:
            for worker, pseudo_lines in expand_workers(sample, workers, self.forward, language_tag):
                lines = tuple(
                    apply_prefix(prefix, p) if (prefix and p) else p for p in pseudo_lines
                )
                beams = self.backward.translate(
                    TranslationRequest(direction=BACKWARD, lines=lines, beam_size=self.cfg.beam)
                )
                translated.append((worker, pseudo_lines, beams))
        return [
            (worker, pseudo_lines)
            for worker, pseudo_lines, beams in translated
            if assemble(beams, sample.tests, self.cfg.budget, self.judge_fn).success
        ]

    def _phase_evaluate(self) -> None:
        """Evaluate the samples on a pool sized for the judge. At most
        ``max_workers`` of them translate at once, so one sample's compiles
        overlap the next one's translation; results keep the sample order.
        Then report the iteration, move every passing variant into D and
        snapshot the corpora the next iteration starts from."""
        workers = select_top_workers(self.parallel, self.cfg.workers_top_k)
        translating = threading.BoundedSemaphore(self.max_workers)
        with ThreadPoolExecutor(max_workers=max(self.max_workers, JUDGE_THREADS)) as pool:
            results = list(
                pool.map(lambda y: self._evaluate_sample(y, workers, translating), self.mono)
            )
        tested_count = len(self.mono)
        passed = sum(1 for passing in results if passing)
        report = IterationReport(
            iteration=self.iteration,
            tested_count=tested_count,
            passed_count=passed,
            success_rate_pct=100.0 * passed / tested_count if tested_count else 0.0,
            cumulative_success_rate_pct=0.0,
            augmented_pairs_count=sum(len(passing) for passing in results),
        )
        # also checks that each iteration tested what the previous one left
        report.cumulative_success_rate_pct = cumulative_success(
            [*self.reports, report], self.initial_mono_count
        )
        appended_from = len(self.parallel)
        for sample, passing in zip(self.mono, results):
            self.parallel.extend(
                move_to_parallel(sample, worker, pseudo_lines, self.iteration)
                for worker, pseudo_lines in passing
            )
        self.mono = [sample for sample, passing in zip(self.mono, results) if not passing]
        validate_disjoint(self.parallel, self.mono)
        self._snapshot_corpora(self.iteration + 1, appended_from)
        if self.snapshot_dir is not None:
            d_path, y_path = self._corpus_paths(self.iteration + 1)
            report.snapshots = {"D": d_path.name, "Y": y_path.name}
        report.wall_time_s = round(time.monotonic() - self._iter_started, 3)
        self.reports.append(report)

    def _phase_report(self) -> None:
        """Write the reports so far, then move on to the next iteration."""
        if self.snapshot_dir is not None:
            _dump_json(
                self.snapshot_dir / "reports.json",
                {
                    "schema_version": SCHEMA_VERSION,
                    "initial_mono_count": self.initial_mono_count,
                    "reports": [r.to_record() for r in self.reports],
                },
            )
        self.iteration += 1
        self.finished = not self.mono or self.iteration == self.cfg.iterations

    # -- main loop ---------------------------------------------------------------

    def run(self, stop_after: tuple[int, str] | None = None) -> list[IterationReport]:
        """Run to completion, or to ``stop_after=(iteration, phase)`` for
        cooperative kill-and-resume testing. State is saved after every
        phase, so a resumed runner starts at the first phase not completed.
        A phase that raises, as on a backend's ``TranslatorError`` or the
        judge's ``JudgeFailureError``, leaves ``state.json`` at the last
        completed phase. A ``stop_after`` naming no phase of an iteration of
        the run is a ``ValueError``; one the run finishes before reaching is
        not."""
        if stop_after is not None:
            iteration, phase = stop_after
            if phase not in PHASES or iteration not in range(self.cfg.iterations):
                raise ValueError(f"stop_after {stop_after!r} is no phase boundary of this run")
            stop_after = (iteration, phase)
        steps = (
            lambda: self._phase_finetune(FORWARD),
            lambda: self._phase_finetune(BACKWARD),
            self._phase_evaluate,
            self._phase_report,
        )
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
