from __future__ import annotations

import builtins
import gc
import hashlib
import io
import json
import os
import re
import threading
import time
from collections import Counter

import pytest

import ibtforge.ibt as ibt_module
import ibtforge.translator as translator_module
from conftest import build_mono_corpus, build_seed_parallel, requires_gcc
from ibtforge.assembler import assemble
from ibtforge.corpus import CorpusError, MonoSample, ParallelSample, TestCase
from ibtforge.ibt import (
    IbtConfig,
    IbtError,
    IbtRunner,
    IterationReport,
    select_top_workers,
)
from ibtforge.judge import JudgeConfig, JudgeFailureError, JudgeVerdict, VerdictKind
from ibtforge.metrics import ConservationViolated, cumulative_success
from ibtforge.preprocess import preprocess_sample
from ibtforge.translator import (
    BackendProtocolError,
    BackendUnavailable,
    TemplateBackend,
)

CFG = IbtConfig(iterations=2, beam=4, budget=10, workers_top_k=2, pl_prefix_from_iteration=1)


def passing_judge(source, tests):
    return JudgeVerdict(kind=VerdictKind.ALL_PASSED, per_test=(True,) * len(tests))


def c_only_judge(source, tests):
    """Cheap stand-in for a C compiler: streams-style output fails."""
    if "cout" in source:
        lines = source.splitlines()
        bad = next(i for i, line in enumerate(lines) if "cout" in line)
        return JudgeVerdict(
            kind=VerdictKind.COMPILE_ERROR,
            diagnostics=f"main.src:{bad + 1}:1: error: 'cout' undeclared\n",
        )
    return JudgeVerdict(kind=VerdictKind.ALL_PASSED, per_test=(True,) * len(tests))


class TestSelectTopWorkers:
    def _corpus(self, counts):
        return [
            ParallelSample(
                id=f"p:{worker}:{worker}",
                language="cpp",
                worker=worker,
                code_lines=["x = 1 ;"] * lines,
                pseudo_lines=["set"] * lines,
            )
            for worker, lines in counts.items()
        ]

    def test_counting(self):
        corpus = self._corpus({1: 100, 2: 50, 3: 200})
        assert select_top_workers(corpus, 2) == [3, 1]

    def test_fewer_workers_than_k(self):
        corpus = self._corpus({1: 10, 2: 20, 3: 30})
        assert select_top_workers(corpus, 10) == [3, 2, 1]

    def test_tie_breaks_by_smaller_id(self):
        corpus = self._corpus({2: 100, 1: 100})
        assert select_top_workers(corpus, 1) == [1]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            select_top_workers([], 3)


class TestConfig:
    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            IbtConfig(iterations=0)

    def test_defaults_follow_reported_setup(self):
        cfg = IbtConfig()
        assert (cfg.iterations, cfg.beam, cfg.budget, cfg.workers_top_k) == (2, 10, 10, 10)
        assert cfg.pl_prefix_from_iteration == 1

    def test_pl_prefix_bounds(self):
        with pytest.raises(ValueError):
            IbtConfig(iterations=1, pl_prefix_from_iteration=5)


class TestReportArithmetic:
    def test_reported_two_iteration_replay(self):
        # counts derived from the published iteration table: 25666 tested,
        # 60.84% pass -> 15615; remainder 10051; 59.42% of 10051 -> 5972
        first = IterationReport(
            iteration=0,
            tested_count=25666,
            passed_count=15615,
            success_rate_pct=100.0 * 15615 / 25666,
            cumulative_success_rate_pct=100.0 * 15615 / 25666,
            augmented_pairs_count=15615,
        )
        assert 25666 - first.passed_count == 10051
        second = IterationReport(
            iteration=1,
            tested_count=10051,
            passed_count=5972,
            success_rate_pct=100.0 * 5972 / 10051,
            cumulative_success_rate_pct=100.0 * (15615 + 5972) / 25666,
            augmented_pairs_count=5972,
        )
        assert first.success_rate_pct == pytest.approx(60.84, abs=0.005)
        assert second.success_rate_pct == pytest.approx(59.42, abs=0.005)
        assert cumulative_success([first, second], 25666) == pytest.approx(84.11, abs=0.02)


@pytest.fixture(scope="module")
def reports_and_runner(tmp_path_factory):
    judge_cfg = JudgeConfig(language="c", work_dir=str(tmp_path_factory.mktemp("scratch")))
    runner = IbtRunner(
        build_seed_parallel(),
        build_mono_corpus(),
        TemplateBackend(),
        TemplateBackend(),
        CFG,
        judge_cfg=judge_cfg,
    )
    return runner.run(), runner


@requires_gcc
class TestEndToEnd:

    def test_cumulative_rate_strictly_increases(self, reports_and_runner):
        reports, _ = reports_and_runner
        assert len(reports) == 2
        assert (
            reports[1].cumulative_success_rate_pct > reports[0].cumulative_success_rate_pct
        )

    def test_iteration_zero_passes_only_the_overlap_program(self, reports_and_runner):
        reports, _ = reports_and_runner
        assert reports[0].tested_count == 2
        assert reports[0].passed_count == 1
        assert reports[0].success_rate_pct == pytest.approx(50.0)

    def test_iteration_one_passes_the_adapted_program(self, reports_and_runner):
        reports, _ = reports_and_runner
        assert reports[1].tested_count == 1
        assert reports[1].passed_count == 1
        assert reports[1].cumulative_success_rate_pct == pytest.approx(100.0)

    def test_conservation_exact(self, reports_and_runner):
        reports, runner = reports_and_runner
        total_passed = sum(r.passed_count for r in reports)
        assert runner.initial_mono_count == len(runner.mono) + total_passed
        assert cumulative_success(reports, runner.initial_mono_count) == pytest.approx(
            reports[-1].cumulative_success_rate_pct
        )

    def test_augmented_provenance_and_growth(self, reports_and_runner):
        _, runner = reports_and_runner
        augmented = [s for s in runner.parallel if s.origin == "ibt-augmented"]
        assert len(augmented) == 4  # two workers x two programs
        assert {s.iteration for s in augmented} == {0, 1}
        assert all(s.language == "c" and s.preprocessed for s in augmented)

    def test_iteration_one_used_learned_templates_not_echo(self, reports_and_runner):
        # the adapted program's generated pseudocode must differ from its
        # code for lines covered by iteration-0 augmentation: an echo chain
        # would have produced identical text
        _, runner = reports_and_runner
        later = [s for s in runner.parallel if s.iteration == 1]
        assert later
        for sample in later:
            pairs = dict(zip(sample.code_lines, sample.pseudo_lines))
            assert pairs["int b ;"] != "int b ;"
            assert "b" in pairs["int b ;"]


class TestEarlyExitAndBookkeeping:
    def _easy_only(self):
        return [build_mono_corpus()[0]]

    def test_empty_pool_breaks_loop(self, seed_parallel):
        reports = IbtRunner(
            seed_parallel,
            self._easy_only(),
            TemplateBackend(),
            TemplateBackend(),
            CFG,
            judge_fn=passing_judge,
        ).run()
        assert len(reports) == 1
        assert reports[0].passed_count == 1

    def test_parallel_evaluation_matches_serial(self, seed_parallel, mono_corpus):
        serial = IbtRunner(
            seed_parallel, mono_corpus, TemplateBackend(), TemplateBackend(),
            CFG, judge_fn=c_only_judge, max_workers=1,
        ).run()
        threaded = IbtRunner(
            seed_parallel, mono_corpus, TemplateBackend(), TemplateBackend(),
            CFG, judge_fn=c_only_judge, max_workers=4,
        ).run()
        strip = lambda rs: [
            {k: v for k, v in r.to_record().items() if k != "wall_time_s"} for r in rs
        ]
        assert strip(serial) == strip(threaded)

    def test_disjointness_violation_rejected(self, seed_parallel):
        clash = MonoSample(
            id=seed_parallel[0].id,
            code_lines=["int main ( ) {"],
            tests=[TestCase(b"", b"")],
        )
        with pytest.raises(Exception):
            IbtRunner(
                seed_parallel, [clash], TemplateBackend(), TemplateBackend(),
                CFG, judge_fn=passing_judge,
            )


class TestVerdictMemo:
    def _run(self, seed_parallel, mono_corpus, monkeypatch, max_workers):
        """Run with a counting pure judge; returns the reports, the judge's
        calls per (source, tests) and the executions ``assemble`` counted."""
        calls: Counter = Counter()
        lock = threading.Lock()

        def counting_judge(source, tests):
            with lock:
                calls[(source, tuple(tests))] += 1
            return c_only_judge(source, tests)

        executions = []

        def counting_assemble(*args, **kwargs):
            result = assemble(*args, **kwargs)
            executions.append(result.executions_used)
            return result

        monkeypatch.setattr(ibt_module, "assemble", counting_assemble)
        reports = IbtRunner(
            seed_parallel, mono_corpus, TemplateBackend(), TemplateBackend(),
            CFG, judge_fn=counting_judge, max_workers=max_workers,
        ).run()
        return reports, calls, sum(executions)

    def test_collapsing_variants_judged_once_per_distinct_program(
        self, seed_parallel, mono_corpus, monkeypatch
    ):
        reports, calls, executions = self._run(seed_parallel, mono_corpus, monkeypatch, 1)
        assert set(calls.values()) == {1}
        # both annotators' variants back-translate to the same C text
        assert executions > len(calls)
        assert [r.passed_count for r in reports] == [1, 1]

    def test_threaded_run_judges_the_same_programs(self, seed_parallel, mono_corpus, monkeypatch):
        serial, serial_calls, serial_executions = self._run(
            seed_parallel, mono_corpus, monkeypatch, 1
        )
        threaded, threaded_calls, threaded_executions = self._run(
            seed_parallel, mono_corpus, monkeypatch, 4
        )
        strip = lambda rs: [
            {k: v for k, v in r.to_record().items() if k != "wall_time_s"} for r in rs
        ]
        assert strip(threaded) == strip(serial)
        assert set(threaded_calls) == set(serial_calls)
        assert threaded_executions == serial_executions


def numbered_programs(count: int) -> list[MonoSample]:
    """``count`` copies of the easy program, told apart by their id and
    their expected output, so no two share a verdict memo key."""
    easy = build_mono_corpus()[0]
    return [
        MonoSample(
            id=f"cZ{i}:main",
            code_lines=list(easy.code_lines),
            tests=[TestCase(input=b"", expected_output=str(i).encode())],
            problem=f"cZ{i}",
        )
        for i in range(count)
    ]


class TestEvaluationPool:
    """The evaluate phase translates at most ``max_workers`` samples at once
    and judges on a pool of ``max(max_workers, JUDGE_THREADS)`` threads."""

    ONE_ITERATION = IbtConfig(iterations=1, beam=4, budget=10, workers_top_k=2)

    def test_judging_overlaps_the_next_translation(self, monkeypatch):
        """With one translation slot and a pool of two, the second sample's
        judge call starts while the first one's is still running."""
        monkeypatch.setattr(ibt_module, "JUDGE_THREADS", 2)
        barrier = threading.Barrier(2, timeout=30)
        calls = []

        def meeting_judge(source, tests):
            calls.append(source)
            if len(calls) <= 2:
                barrier.wait()  # BrokenBarrierError if the calls never overlap
            return c_only_judge(source, tests)

        reports = IbtRunner(
            build_seed_parallel(), build_mono_corpus(), TemplateBackend(), TemplateBackend(),
            self.ONE_ITERATION, judge_fn=meeting_judge, max_workers=1,
        ).run()
        assert reports[0].tested_count == 2
        assert reports[0].passed_count == 1

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_backend_calls_bounded_by_max_workers(self, monkeypatch, max_workers):
        monkeypatch.setattr(ibt_module, "JUDGE_THREADS", 4)
        lock = threading.Lock()
        in_flight = [0]
        peak = [0]

        class CountingBackend(TemplateBackend):
            def translate(self, req):
                with lock:
                    in_flight[0] += 1
                    peak[0] = max(peak[0], in_flight[0])
                try:
                    time.sleep(0.005)
                    return super().translate(req)
                finally:
                    with lock:
                        in_flight[0] -= 1

        reports = IbtRunner(
            build_seed_parallel(), numbered_programs(8), CountingBackend(), CountingBackend(),
            self.ONE_ITERATION, judge_fn=passing_judge, max_workers=max_workers,
        ).run()
        assert reports[0].passed_count == 8
        assert 1 <= peak[0] <= max_workers

    @pytest.mark.parametrize("pool", [1, 2])
    @pytest.mark.parametrize("faulty", [0, 2, 4], ids=["first", "middle", "last"])
    def test_judge_failure_stops_the_run_resumably(self, tmp_path, monkeypatch, faulty, pool):
        """A judge fault on one of five samples stops the run after the last
        completed phase, whether the samples are judged one or two at a
        time, and a rerun with a healthy judge reproduces the uninterrupted
        run's reports and corpora."""
        monkeypatch.setattr(ibt_module, "JUDGE_THREADS", pool)

        def healthy_judge(source, tests):
            if int(tests[0].expected_output) % 2:
                return JudgeVerdict(kind=VerdictKind.WRONG_ANSWER, failed_test=0)
            return passing_judge(source, tests)

        def faulty_judge(source, tests):
            if tests[0].expected_output == str(faulty).encode():
                raise JudgeFailureError("compiler exploded")
            return healthy_judge(source, tests)

        def run(snap, judge):
            reports = IbtRunner(
                build_seed_parallel(), numbered_programs(5), TemplateBackend(), TemplateBackend(),
                self.ONE_ITERATION, judge_fn=judge, snapshot_dir=snap,
            ).run()
            return [{k: v for k, v in r.to_record().items() if k != "wall_time_s"} for r in reports]

        def outputs(snap):
            return {p.name: p.read_bytes() for p in snap.glob("corpus.*.jsonl")}

        clean = run(tmp_path / "clean", healthy_judge)
        assert clean[0]["passed_count"] == 3
        snap = tmp_path / "s"
        with pytest.raises(JudgeFailureError, match="compiler exploded"):
            run(snap, faulty_judge)
        state = json.loads((snap / "state.json").read_text())
        assert (state["iteration"], state["completed_phase"]) == (0, "finetune-backward")
        assert not (snap / "corpus.D.1.jsonl").exists()
        assert run(snap, healthy_judge) == clean
        assert outputs(snap) == outputs(tmp_path / "clean")


BOUNDARIES = [(i, phase) for i in range(CFG.iterations) for phase in ibt_module.PHASES]


class RecordingBackend:
    """A template table behind a backend with neither ``load_state`` nor
    ``save_state``, as ``RemoteBackend`` is; records each ``fine_tune`` as
    (direction, config, dataset ids) in ``calls``."""

    def __init__(self, calls: list) -> None:
        self._inner = TemplateBackend()
        self.calls = calls

    def fine_tune(self, dataset, direction, config=None):
        self.calls.append((direction, config, [s.id for s in dataset]))
        self._inner.fine_tune(dataset, direction, config)

    def translate(self, req):
        return self._inner.translate(req)


class TestResumability:
    def _runner(self, snapshot_dir, forward=None, backward=None):
        return IbtRunner(
            build_seed_parallel(),
            build_mono_corpus(),
            forward or TemplateBackend(),
            backward or TemplateBackend(),
            CFG,
            judge_fn=c_only_judge,
            snapshot_dir=snapshot_dir,
        )

    def _run(self, snapshot_dir, stop_after=None, forward=None, backward=None):
        return self._runner(snapshot_dir, forward, backward).run(stop_after=stop_after)

    @staticmethod
    def _normalized(reports):
        return [
            {k: v for k, v in r.to_record().items() if k != "wall_time_s"} for r in reports
        ]

    @staticmethod
    def _corpora_and_tables(snap):
        return {
            p.name: p.read_bytes()
            for pattern in ("corpus.*.jsonl", "*.table.jsonl")
            for p in snap.glob(pattern)
        }

    @staticmethod
    def _manifest_is_fresh(snap):
        """``manifest.json`` is, byte for byte, every corpus file's record
        count and sha256 recomputed from disk; returns its text."""
        fresh = {}
        for path in sorted(snap.glob("corpus.*.jsonl")):
            data = path.read_bytes()
            fresh[path.name] = {
                "count": sum(1 for line in data.splitlines() if line.strip()),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        text = (snap / "manifest.json").read_text()
        payload = {"schema_version": 1, "files": fresh}
        assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        return text

    def test_stop_and_resume_at_every_phase_boundary(self, tmp_path):
        baseline = self._normalized(self._run(tmp_path / "clean"))
        files = self._corpora_and_tables(tmp_path / "clean")
        assert len(files) == 2 * (CFG.iterations + 1) + 2
        manifest = self._manifest_is_fresh(tmp_path / "clean")
        for n, boundary in enumerate(BOUNDARIES):
            snap = tmp_path / f"snap{n}"
            partial = self._run(snap, stop_after=boundary)
            assert len(partial) <= len(baseline)
            self._manifest_is_fresh(snap)
            resumed = self._run(snap)
            assert self._normalized(resumed) == baseline
            assert self._corpora_and_tables(snap) == files, boundary
            assert self._manifest_is_fresh(snap) == manifest, boundary

    @pytest.mark.parametrize("iteration", range(CFG.iterations))
    def test_kill_during_the_corpus_writes_rebuilds_d_from_the_previous_snapshot(
        self, tmp_path, monkeypatch, iteration
    ):
        """A kill between the two corpus writes that end the evaluate phase
        leaves ``state.json`` before it, so the resume judges the iteration
        again and writes both files anew."""
        clean = tmp_path / "clean"
        self._run(clean)
        snap = tmp_path / "s"
        self._run(snap, stop_after=(iteration, "finetune-backward"))
        d_next = snap / f"corpus.D.{iteration + 1}.jsonl"

        def killed(samples, path):
            raise KeyboardInterrupt

        monkeypatch.setattr(ibt_module, "save_mono", killed)
        with pytest.raises(KeyboardInterrupt):
            self._run(snap)
        monkeypatch.undo()
        assert d_next.read_bytes() == (clean / d_next.name).read_bytes()
        # the rebuilt file must come from corpus.D.<iteration>, and its entry
        # must replace whatever the manifest holds for it
        d_next.write_bytes(b"torn\n")
        manifest = json.loads((snap / "manifest.json").read_text())
        manifest["files"][d_next.name] = {"count": 1, "sha256": "0" * 64}
        (snap / "manifest.json").write_text(json.dumps(manifest))
        self._run(snap)
        assert d_next.read_bytes() == (clean / d_next.name).read_bytes()
        assert self._manifest_is_fresh(snap) == (clean / "manifest.json").read_text()

    def test_recovering_a_finished_run_reads_only_state_and_corpora(self, tmp_path, monkeypatch):
        """So does recovering a run stopped after its last evaluation: the
        corpora are those the evaluation wrote, and nothing is replayed."""
        reports = self._run(tmp_path / "finished")
        last = len(reports)
        self._run(tmp_path / "evaluated", stop_after=(last - 1, "evaluate"))
        opened = []
        real_open = io.open

        def recording_open(file, *args, **kwargs):
            opened.append(os.path.basename(os.fspath(file)))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", recording_open)
        monkeypatch.setattr(builtins, "open", recording_open)
        self._run(tmp_path / "finished")
        finished, opened[:] = list(opened), []
        self._runner(tmp_path / "evaluated")
        monkeypatch.undo()
        expected = sorted(["state.json", f"corpus.D.{last}.jsonl", f"corpus.Y.{last}.jsonl"])
        assert sorted(finished) == expected
        assert sorted(opened) == expected

    def test_state_file_round_trip(self, tmp_path):
        self._run(tmp_path / "s", stop_after=(0, "evaluate"))
        state = json.loads((tmp_path / "s" / "state.json").read_text())
        assert state["iteration"] == 0
        assert state["completed_phase"] == "evaluate"
        assert not state["finished"]
        resumed = self._run(tmp_path / "s")
        final = json.loads((tmp_path / "s" / "state.json").read_text())
        assert final["finished"]
        assert len(resumed) == 2

    @pytest.mark.parametrize("boundary", [(0, "finetune-forward"), (0, "evaluate"), (1, "evaluate")])
    def test_resume_does_not_preprocess_the_input(self, tmp_path, monkeypatch, boundary):
        baseline = self._normalized(self._run(tmp_path / "clean"))
        preprocessed = []

        def counting_preprocess(sample):
            preprocessed.append(sample.id)
            return preprocess_sample(sample)

        monkeypatch.setattr(ibt_module, "preprocess_sample", counting_preprocess)
        snap = tmp_path / "s"
        self._run(snap, stop_after=boundary)
        assert len(preprocessed) == len(build_seed_parallel())
        preprocessed.clear()
        assert self._normalized(self._run(snap)) == baseline
        assert preprocessed == []

    def test_snapshot_files_written(self, tmp_path):
        self._run(tmp_path / "s")
        names = {p.name for p in (tmp_path / "s").iterdir()}
        assert names == {
            *(f"corpus.{kind}.{i}.jsonl" for kind in "DY" for i in range(CFG.iterations + 1)),
            "state.json",
            "reports.json",
            "manifest.json",
            "forward.table.jsonl",
            "backward.table.jsonl",
        }

    def test_clean_run_leaves_no_tmp_files(self, tmp_path):
        self._run(tmp_path / "s")
        assert list((tmp_path / "s").glob("*.tmp")) == []

    @pytest.mark.parametrize(
        "boundary, missing",
        [
            # read only to replay iteration 0's fine-tunes
            ((0, "report"), "corpus.D.0.jsonl"),
            ((1, "finetune-backward"), "corpus.D.0.jsonl"),
            # the evaluation's outcome is the next iteration's corpora
            ((0, "evaluate"), "corpus.D.1.jsonl"),
            ((0, "evaluate"), "corpus.Y.1.jsonl"),
        ],
    )
    def test_resume_refuses_a_missing_file(self, tmp_path, boundary, missing):
        snap = tmp_path / "s"
        self._run(snap, stop_after=boundary)
        (snap / missing).unlink()
        with pytest.raises(IbtError, match=re.escape(missing)):
            self._run(snap)

    def test_resume_before_backward_fine_tune_needs_no_backward_table(self, tmp_path):
        baseline = self._normalized(self._run(tmp_path / "clean"))
        snap = tmp_path / "s"
        self._run(snap, stop_after=(0, "finetune-forward"))
        assert not (snap / "backward.table.jsonl").exists()
        assert self._normalized(self._run(snap)) == baseline

    def test_resume_checks_report_conservation(self, tmp_path):
        snap = tmp_path / "s"
        self._run(snap, stop_after=(1, "evaluate"))
        state = json.loads((snap / "state.json").read_text())
        state["reports"][0]["passed_count"] += 1
        (snap / "state.json").write_text(json.dumps(state))
        with pytest.raises(ConservationViolated):
            self._run(snap)

    def test_fine_tune_writes_only_the_trained_table(self, tmp_path):
        snap = tmp_path / "s"
        self._run(snap, stop_after=(0, "finetune-forward"))
        assert (snap / "forward.table.jsonl").exists()
        assert not (snap / "backward.table.jsonl").exists()
        self._run(snap, stop_after=(0, "finetune-backward"))
        backward = (snap / "backward.table.jsonl").read_bytes()
        forward = (snap / "forward.table.jsonl").read_bytes()
        self._run(snap, stop_after=(1, "finetune-forward"))
        assert (snap / "backward.table.jsonl").read_bytes() == backward
        assert (snap / "forward.table.jsonl").read_bytes() != forward

    def test_shared_backend_writes_both_tables(self, tmp_path):
        snap = tmp_path / "s"
        shared = TemplateBackend()
        IbtRunner(
            build_seed_parallel(),
            build_mono_corpus(),
            shared,
            shared,
            CFG,
            judge_fn=c_only_judge,
            snapshot_dir=snap,
        ).run(stop_after=(0, "finetune-forward"))
        forward = (snap / "forward.table.jsonl").read_bytes()
        assert forward and (snap / "backward.table.jsonl").read_bytes() == forward

    def test_backend_outage_aborts_resumably(self, tmp_path):
        class FlakyBackend(TemplateBackend):
            def __init__(self):
                super().__init__()
                self.raised = False

            def fine_tune(self, dataset, direction, config=None):
                if not self.raised:
                    self.raised = True
                    raise BackendUnavailable("model server down")
                return super().fine_tune(dataset, direction, config)

        snap = tmp_path / "s"
        flaky = FlakyBackend()
        with pytest.raises(BackendUnavailable):
            self._run(snap, forward=flaky)
        resumed = self._run(snap, forward=flaky)
        clean = self._run(tmp_path / "clean")
        assert self._normalized(resumed) == self._normalized(clean)

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("error", [BackendUnavailable, BackendProtocolError])
    def test_backend_outage_mid_evaluate_aborts_resumably(self, tmp_path, error, direction):
        """A translator error of either backend stops the run after the last
        completed phase, rather than failing the program it was translating."""

        class FlakyBackend(TemplateBackend):
            def __init__(self):
                super().__init__()
                self.raised = False

            def translate(self, req):
                if not self.raised:
                    self.raised = True
                    raise error("model server misbehaved")
                return super().translate(req)

        snap = tmp_path / "s"
        flaky = {direction: FlakyBackend()}
        with pytest.raises(error):
            self._run(snap, **flaky)
        state = json.loads((snap / "state.json").read_text())
        assert (state["iteration"], state["completed_phase"]) == (0, "finetune-backward")
        assert not (snap / "corpus.D.1.jsonl").exists()
        resumed = self._run(snap, **flaky)
        clean = self._run(tmp_path / "clean")
        assert self._normalized(resumed) == self._normalized(clean)

    @pytest.mark.parametrize("shared", [False, True], ids=["two", "shared"])
    @pytest.mark.parametrize("boundary", [None, *BOUNDARIES])
    def test_resume_replays_the_fine_tunes_of_the_uninterrupted_run(
        self, tmp_path, boundary, shared
    ):
        """A resumed run on fresh backends makes the uninterrupted run's
        fine-tune calls, in its order, unless no phase left needs a model."""

        def backends():
            calls = []
            forward = RecordingBackend(calls)
            return calls, forward, forward if shared else RecordingBackend(calls)

        calls, forward, backward = backends()
        baseline = self._normalized(self._run(tmp_path / "clean", None, forward, backward))
        assert [call[:2] for call in calls] == [
            (direction, {"worker_prefix": direction == "forward", "pl_prefix": i >= 1})
            for i in range(CFG.iterations)
            for direction in ("forward", "backward")
        ]
        snap = tmp_path / "s"
        self._run(snap, boundary, *backends()[1:])
        replayed, forward, backward = backends()
        assert self._normalized(self._run(snap, None, forward, backward)) == baseline
        # after the last evaluation only its report is left
        last_evaluation = BOUNDARIES.index((CFG.iterations - 1, "evaluate"))
        assert replayed == (calls if boundary in BOUNDARIES[:last_evaluation] else [])

    @staticmethod
    def _damage(path, how):
        data = path.read_bytes()
        if how == "delete":
            path.unlink()
        elif how == "halve":
            lines = data.splitlines(keepends=True)
            path.write_bytes(b"".join(lines[: len(lines) // 2]))
        else:
            middle = len(data) // 2
            path.write_bytes(data[:middle] + bytes([data[middle] ^ 0x20]) + data[middle + 1 :])

    @pytest.mark.parametrize("how", ["delete", "halve", "flip"])
    @pytest.mark.parametrize("n", range(len(BOUNDARIES)), ids=lambda n: "%d-%s" % BOUNDARIES[n])
    def test_damaged_tables_do_not_change_a_resumed_run(self, tmp_path, n, how):
        """The tables are outputs: a resume reads neither, and a table that a
        later fine-tune rewrites comes out as in the uninterrupted run."""
        baseline = self._normalized(self._run(tmp_path / "clean"))
        files = self._corpora_and_tables(tmp_path / "clean")
        snap = tmp_path / "s"
        self._run(snap, stop_after=BOUNDARIES[n])
        damaged = {}
        for table in snap.glob("*.table.jsonl"):
            before = table.read_bytes()
            self._damage(table, how)
            damaged[table.name] = table.read_bytes() if table.exists() else None
            assert damaged[table.name] != before
        assert damaged
        assert self._normalized(self._run(snap)) == baseline
        after = self._corpora_and_tables(snap)
        assert {k: v for k, v in after.items() if k.startswith("corpus.")} == {
            k: v for k, v in files.items() if k.startswith("corpus.")
        }
        for direction in ("forward", "backward"):
            name = f"{direction}.table.jsonl"
            rewritten = any(phase == f"finetune-{direction}" for _, phase in BOUNDARIES[n + 1 :])
            assert after.get(name) == (files[name] if rewritten else damaged.get(name)), name

    @pytest.mark.parametrize(
        "field", ["initial_parallel_count", "initial_mono_count", "reports", "config"]
    )
    def test_resume_refuses_a_state_file_without_a_field(self, tmp_path, field):
        snap = tmp_path / "s"
        self._run(snap, stop_after=(0, "evaluate"))
        state = json.loads((snap / "state.json").read_text())
        del state[field]
        (snap / "state.json").write_text(json.dumps(state))
        message = f"cannot resume: state.json is malformed: KeyError('{field}')"
        with pytest.raises(IbtError, match=re.escape(message)):
            self._runner(snap)

    @pytest.mark.parametrize("field, value", [
        ("completed_phase", "bogus"),
        ("completed_phase", "report"),
        ("iteration", -1),
        ("iteration", CFG.iterations),
        ("iteration", CFG.iterations + 1),
        ("iteration", "1"),
    ])
    def test_resume_refuses_a_state_file_naming_no_phase_of_the_run(
        self, tmp_path, field, value
    ):
        snap = tmp_path / "s"
        self._run(snap, stop_after=(0, "evaluate"))
        state = json.loads((snap / "state.json").read_text())
        state[field] = value
        (snap / "state.json").write_text(json.dumps(state))
        with pytest.raises(IbtError, match=re.escape("cannot resume: state.json is malformed: ")):
            self._runner(snap)

    @pytest.mark.parametrize("boundary", [(0, "evaluate"), (0, "report"), (1, "evaluate")])
    def test_resume_refuses_a_state_file_finished_before_the_end(self, tmp_path, boundary):
        snap = tmp_path / "s"
        self._run(snap, stop_after=boundary)
        state = json.loads((snap / "state.json").read_text())
        state["finished"] = True
        (snap / "state.json").write_text(json.dumps(state))
        message = "cannot resume: state.json is malformed: finished is True after phase "
        with pytest.raises(IbtError, match=re.escape(message)):
            self._runner(snap)

    def test_resume_refuses_a_finished_run_marked_unfinished(self, tmp_path):
        snap = tmp_path / "s"
        self._run(snap)
        state = json.loads((snap / "state.json").read_text())
        assert state["finished"] and state["iteration"] == CFG.iterations
        state["finished"] = False
        (snap / "state.json").write_text(json.dumps(state))
        message = "cannot resume: state.json is malformed: finished is False after phase None"
        with pytest.raises(IbtError, match=re.escape(message)):
            self._runner(snap)

    @pytest.mark.parametrize("boundary", [(1, "evaluate"), (1, "report")])
    def test_resume_refuses_a_state_file_missing_a_report(self, tmp_path, boundary):
        snap = tmp_path / "s"
        self._run(snap, stop_after=boundary)
        state = json.loads((snap / "state.json").read_text())
        del state["reports"][0]
        (snap / "state.json").write_text(json.dumps(state))
        message = (
            f"malformed: {len(state['reports'])} reports after phase "
            f"{state['completed_phase']!r} of iteration {state['iteration']}"
        )
        with pytest.raises(IbtError, match=re.escape(message)):
            self._runner(snap)

    @pytest.mark.parametrize("version", [None, 0, 1, 2, 3, 99, "4"])
    def test_resume_refuses_a_foreign_schema_version(self, tmp_path, version):
        snap = tmp_path / "s"
        self._run(snap, stop_after=(0, "evaluate"))
        state = json.loads((snap / "state.json").read_text())
        state["schema_version"] = version
        (snap / "state.json").write_text(json.dumps(state))
        with pytest.raises(IbtError, match="snapshot file state.json is not schema 4"):
            self._runner(snap)

    def test_resume_refuses_a_snapshot_file_that_is_not_json(self, tmp_path):
        snap = tmp_path / "s"
        self._run(snap, stop_after=(0, "evaluate"))
        path = snap / "state.json"
        path.write_text(path.read_text()[:-5])
        with pytest.raises(IbtError, match=re.escape("snapshot file state.json is not JSON: ")):
            self._runner(snap)

    @pytest.mark.parametrize(
        "boundary, halved",
        [
            ((0, "finetune-backward"), "corpus.Y.0.jsonl"),
            ((0, "evaluate"), "corpus.Y.1.jsonl"),
            ((0, "report"), "corpus.Y.1.jsonl"),
            ((1, "finetune-backward"), "corpus.Y.1.jsonl"),
        ],
    )
    def test_resume_refuses_a_y_that_the_reports_do_not_leave(self, tmp_path, boundary, halved):
        """Y at the boundary holds the initial programs before any report,
        and then those the last report left untested."""
        snap = tmp_path / "s"
        self._run(snap, stop_after=boundary)
        self._damage(snap / halved, "halve")
        message = f"cannot resume: snapshot file {halved} holds "
        with pytest.raises(IbtError, match=re.escape(message)):
            self._runner(snap)

    @pytest.mark.parametrize(
        "boundary, halved",
        [
            ((0, "finetune-backward"), "corpus.D.0.jsonl"),
            ((0, "evaluate"), "corpus.D.1.jsonl"),
            ((1, "finetune-forward"), "corpus.D.1.jsonl"),
            # only replayed: the resume loads corpus.D.1.jsonl as D
            ((1, "finetune-forward"), "corpus.D.0.jsonl"),
        ],
    )
    def test_resume_refuses_a_d_that_the_reports_do_not_leave(self, tmp_path, boundary, halved):
        """D in iteration k's snapshot holds the initial samples and the
        pairs augmented by the reports before k, whether it is loaded as D
        or replayed."""
        snap = tmp_path / "s"
        self._run(snap, stop_after=boundary)
        self._damage(snap / halved, "halve")
        message = f"cannot resume: snapshot file {halved} holds "
        with pytest.raises(IbtError, match=re.escape(message)):
            self._runner(snap)

    @pytest.mark.parametrize(
        "stop_after",
        [(0, "augment"), (0, "bogus"), (-1, "evaluate"), (CFG.iterations, "evaluate"), ("0", "evaluate")],
    )
    def test_stop_after_names_a_phase_boundary_of_the_run(self, tmp_path, stop_after):
        runner = self._runner(tmp_path / "s")
        with pytest.raises(ValueError, match="is no phase boundary of this run"):
            runner.run(stop_after=stop_after)
        state = json.loads((tmp_path / "s" / "state.json").read_text())
        assert (state["iteration"], state["completed_phase"]) == (0, None)

    def test_stop_after_a_boundary_the_run_finishes_before_is_valid(self, tmp_path):
        """A run whose first iteration passes every program ends there."""
        reports = IbtRunner(
            build_seed_parallel(), build_mono_corpus(), TemplateBackend(), TemplateBackend(),
            CFG, judge_fn=passing_judge, snapshot_dir=tmp_path / "s",
        ).run(stop_after=(CFG.iterations - 1, "evaluate"))
        assert [(r.tested_count, r.passed_count) for r in reports] == [(2, 2)]
        assert json.loads((tmp_path / "s" / "state.json").read_text())["finished"]

    @pytest.mark.parametrize("bad_byte", [False, True], ids=["cut", "0xff"])
    def test_resume_refuses_a_torn_corpus_naming_its_line(self, tmp_path, bad_byte):
        """The last line cut short, or with one byte that is not UTF-8."""
        snap = tmp_path / "s"
        self._run(snap, stop_after=(1, "finetune-forward"))
        torn = snap / "corpus.D.0.jsonl"
        data = torn.read_bytes()
        torn.write_bytes(data[:-30] + (b"\xff" + data[-29:] if bad_byte else b""))
        lines = data.count(b"\n")
        with pytest.raises(CorpusError, match=re.escape(f"{torn}:{lines}: malformed record")):
            self._runner(snap)

    def test_config_mismatch_on_resume_rejected(self, tmp_path):
        snap = tmp_path / "s"
        self._run(snap, stop_after=(0, "evaluate"))
        with pytest.raises(Exception):
            IbtRunner(
                build_seed_parallel(),
                build_mono_corpus(),
                TemplateBackend(),
                TemplateBackend(),
                IbtConfig(iterations=3, beam=4, budget=10, workers_top_k=2),
                judge_fn=c_only_judge,
                snapshot_dir=snap,
            ).run()


class TestSharedAbstraction:
    def test_each_pair_abstracted_once_per_run(self, monkeypatch):
        """Both directions of a run share one abstraction per distinct pair;
        a run built after the first is gone abstracts afresh."""
        # a memo that no backend of another test holds
        monkeypatch.setattr(translator_module, "_live_memo", None)
        calls = Counter()
        abstract = translator_module._abstract_pair

        def counting(code_line, pseudo_line):
            calls[(code_line, pseudo_line)] += 1
            return abstract(code_line, pseudo_line)

        monkeypatch.setattr(translator_module, "_abstract_pair", counting)

        def run() -> set:
            runner = IbtRunner(
                build_seed_parallel(),
                build_mono_corpus(),
                TemplateBackend(),
                TemplateBackend(),
                CFG,
                judge_fn=c_only_judge,
            )
            runner.run()
            # the pairs of the last iteration's augmentation are never trained on
            return {
                pair
                for s in runner.parallel
                if s.origin != "ibt-augmented" or s.iteration + 1 < CFG.iterations
                for pair in zip(s.code_lines, s.pseudo_lines)
            }

        trained = run()
        assert set(calls) == trained and set(calls.values()) == {1}
        gc.collect()
        assert translator_module._live_memo() is None
        calls.clear()
        assert run() == trained
        assert set(calls) == trained and set(calls.values()) == {1}

    def test_tables_hold_one_object_per_element(self):
        """A run re-inserts every template each iteration, shadows ``print x``
        and adds ``<pl:…>`` tags in iteration 1; both backends' tables still
        hold one object per distinct element value."""
        forward, backward = TemplateBackend(), TemplateBackend()
        IbtRunner(
            build_seed_parallel(), build_mono_corpus(), forward, backward, CFG, judge_fn=c_only_judge
        ).run()
        elems = [
            e
            for backend in (forward, backward)
            for table in backend._tables.values()
            for template in table.items()
            for side in template
            for e in side
        ]
        assert ("lit", "<pl:cpp>") in elems and ("lit", "<w:1>") in elems
        assert len({id(e) for e in elems}) == len(set(elems)) < len(elems) / 2
