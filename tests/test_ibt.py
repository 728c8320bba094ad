from __future__ import annotations

import gc
import json
import re
import threading
from collections import Counter

import pytest

import ibtforge.ibt as ibt_module
import ibtforge.translator as translator_module
from conftest import build_mono_corpus, build_seed_parallel, requires_gcc
from ibtforge.assembler import assemble
from ibtforge.corpus import MonoSample, ParallelSample, TestCase
from ibtforge.ibt import (
    IbtConfig,
    IbtError,
    IbtRunner,
    IterationReport,
    run_ibt,
    select_top_workers,
)
from ibtforge.judge import JudgeConfig, JudgeFailureError, JudgeVerdict, VerdictKind
from ibtforge.metrics import ConservationViolated, cumulative_success
from ibtforge.preprocess import preprocess_sample
from ibtforge.translator import BackendUnavailable, TemplateBackend, TranslatorError

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
        assert runner.initial_mono_count == (
            len(runner.mono) + total_passed + len(runner.quarantined)
        )
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
        reports = run_ibt(
            seed_parallel,
            self._easy_only(),
            TemplateBackend(),
            TemplateBackend(),
            CFG,
            judge_fn=passing_judge,
        )
        assert len(reports) == 1
        assert reports[0].passed_count == 1

    def test_quarantine_on_judge_failure(self, seed_parallel, mono_corpus):
        def flaky_judge(source, tests):
            if "putchar" in source:
                raise JudgeFailureError("compiler exploded")
            return c_only_judge(source, tests)

        runner = IbtRunner(
            seed_parallel,
            mono_corpus,
            TemplateBackend(),
            TemplateBackend(),
            IbtConfig(iterations=1, beam=4, budget=10, workers_top_k=2),
            judge_fn=flaky_judge,
        )
        reports = runner.run()
        assert reports[0].quarantined_count == 1
        assert reports[0].passed_count == 0  # hard program fails, easy quarantined
        assert runner.initial_mono_count == (
            len(runner.mono) + sum(r.passed_count for r in reports) + len(runner.quarantined)
        )
        assert [q[0] for q in runner.quarantined] == ["cY1:main"]

    def test_parallel_evaluation_matches_serial(self, seed_parallel, mono_corpus):
        serial = run_ibt(
            seed_parallel, mono_corpus, TemplateBackend(), TemplateBackend(),
            CFG, judge_fn=c_only_judge, max_workers=1,
        )
        threaded = run_ibt(
            seed_parallel, mono_corpus, TemplateBackend(), TemplateBackend(),
            CFG, judge_fn=c_only_judge, max_workers=4,
        )
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
        reports = run_ibt(
            seed_parallel, mono_corpus, TemplateBackend(), TemplateBackend(),
            CFG, judge_fn=counting_judge, max_workers=max_workers,
        )
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


class TestResumability:
    def _run(self, snapshot_dir, stop_after=None, forward=None):
        return run_ibt(
            build_seed_parallel(),
            build_mono_corpus(),
            forward or TemplateBackend(),
            TemplateBackend(),
            CFG,
            judge_fn=c_only_judge,
            snapshot_dir=snapshot_dir,
            stop_after=stop_after,
        )

    @staticmethod
    def _normalized(reports):
        return [
            {k: v for k, v in r.to_record().items() if k != "wall_time_s"} for r in reports
        ]

    def test_stop_and_resume_at_every_phase_boundary(self, tmp_path):
        baseline = self._normalized(self._run(tmp_path / "clean"))
        boundaries = [
            (i, phase)
            for i in range(CFG.iterations)
            for phase in ("finetune-forward", "finetune-backward", "evaluate", "augment", "report")
        ]
        for n, boundary in enumerate(boundaries):
            snap = tmp_path / f"snap{n}"
            partial = self._run(snap, stop_after=boundary)
            assert len(partial) <= len(baseline)
            resumed = self._run(snap)
            assert self._normalized(resumed) == baseline

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

    @pytest.mark.parametrize("boundary", [(0, "finetune-forward"), (0, "augment"), (1, "evaluate")])
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
        assert {"corpus.D.0.jsonl", "corpus.Y.0.jsonl", "corpus.D.2.jsonl"} <= names
        assert {"state.json", "reports.json", "manifest.json"} <= names
        assert {"forward.table.jsonl", "backward.table.jsonl"} <= names

    def test_clean_run_leaves_no_tmp_files(self, tmp_path):
        self._run(tmp_path / "s")
        assert list((tmp_path / "s").glob("*.tmp")) == []

    @pytest.mark.parametrize(
        "boundary, missing",
        [
            ((0, "finetune-backward"), "forward.table.jsonl"),
            ((0, "finetune-backward"), "backward.table.jsonl"),
            ((0, "evaluate"), "evaluation.0.json"),
            ((0, "augment"), "evaluation.0.json"),
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
        run_ibt(
            build_seed_parallel(),
            build_mono_corpus(),
            shared,
            shared,
            CFG,
            judge_fn=c_only_judge,
            snapshot_dir=snap,
            stop_after=(0, "finetune-forward"),
        )
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

    @pytest.mark.parametrize(
        "boundary, parsed", [(None, 0), ((1, "evaluate"), 0), ((0, "evaluate"), 2)]
    )
    def test_resume_parses_only_the_tables_it_uses(self, tmp_path, monkeypatch, boundary, parsed):
        """A finished run, or one stopped after its last evaluation, is
        recovered without parsing a table; one stopped earlier parses both
        when it fine-tunes."""
        baseline = self._normalized(self._run(tmp_path / "clean"))
        snap = tmp_path / "s"
        self._run(snap, stop_after=boundary)
        names = []
        parse = translator_module._parse_table

        def counting(name, text):
            names.append(name)
            return parse(name, text)

        monkeypatch.setattr(translator_module, "_parse_table", counting)
        assert self._normalized(self._run(snap)) == baseline
        assert len(names) == parsed

    def test_malformed_forward_table_stops_the_evaluation(self, tmp_path):
        """The forward table is first parsed inside worker expansion, which
        drops a variant whose translation fails; a malformed table must stop
        the run instead of failing every program."""
        snap = tmp_path / "s"
        self._run(snap, stop_after=(0, "finetune-backward"))
        table = snap / "forward.table.jsonl"
        table.write_text(table.read_text()[:-2] + "\n")
        with pytest.raises(TranslatorError, match=re.escape(f"{table}: malformed table record")):
            self._run(snap)
        assert not (snap / "evaluation.0.json").exists()

    def test_config_mismatch_on_resume_rejected(self, tmp_path):
        snap = tmp_path / "s"
        self._run(snap, stop_after=(0, "evaluate"))
        with pytest.raises(Exception):
            run_ibt(
                build_seed_parallel(),
                build_mono_corpus(),
                TemplateBackend(),
                TemplateBackend(),
                IbtConfig(iterations=3, beam=4, budget=10, workers_top_k=2),
                judge_fn=c_only_judge,
                snapshot_dir=snap,
            )


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
