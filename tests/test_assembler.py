from __future__ import annotations

import itertools
import random
import re
import subprocess
from collections import Counter

import pytest

import ibtforge.assembler as assembler_module
from conftest import requires_gcc
from ibtforge.assembler import (
    BEST_FIRST,
    GREEDY_REPAIR,
    AssemblyResult,
    assemble,
    error_lines,
    first_error_line,
)
from ibtforge.corpus import TestCase
from ibtforge.judge import JudgeVerdict, VerdictKind
from ibtforge.lexer import unpad_literals
from ibtforge.translator import Candidate, LineBeam

TESTS = [TestCase(b"", b"")]


def make_beams(width_per_line):
    """One beam per line; candidate texts encode (line, candidate) indices."""
    beams = []
    for line, width in enumerate(width_per_line):
        beams.append(
            LineBeam(
                source=f"line{line}",
                candidates=tuple(
                    Candidate(text=f"L{line}C{c}", score=float(-c)) for c in range(width)
                ),
            )
        )
    return beams


def parse_choice(program):
    return [int(line.rsplit("C", 1)[1]) for line in program.splitlines()]


class CompileStubJudge:
    """Program compiles iff every chosen candidate is in its line's good set;
    diagnostics implicate every bad line. All failures are compile errors."""

    def __init__(self, good_sets):
        self.good_sets = good_sets
        self.calls = 0
        self.judged_choices = []

    def __call__(self, source, tests):
        self.calls += 1
        choice = parse_choice(source)
        self.judged_choices.append(choice)
        bad = [i for i, c in enumerate(choice) if c not in self.good_sets[i]]
        if bad:
            diagnostics = "".join(f"prog.c:{i + 1}:1: error: bad line\n" for i in bad)
            return JudgeVerdict(kind=VerdictKind.COMPILE_ERROR, diagnostics=diagnostics)
        return JudgeVerdict(kind=VerdictKind.ALL_PASSED, per_test=(True,))


def exhaustive_success(good_sets, widths):
    return any(
        all(c in good_sets[i] for i, c in enumerate(combo))
        for combo in itertools.product(*(range(w) for w in widths))
    )


class TestGreedyRepair:
    def test_happy_path_single_execution(self):
        judge = CompileStubJudge([{0}, {0}])
        result = assemble(make_beams([2, 2]), TESTS, budget=10, judge=judge)
        assert result.success
        assert result.executions_used == 1
        assert result.chosen_indices == (0, 0)

    def test_single_repair(self):
        judge = CompileStubJudge([{0}, {1}])
        result = assemble(make_beams([2, 2]), TESTS, budget=10, judge=judge)
        assert result.success
        assert result.chosen_indices == (0, 1)
        assert result.executions_used == 2

    def test_budget_one_compile_error_fails(self):
        judge = CompileStubJudge([{1}])
        result = assemble(make_beams([2]), TESTS, budget=1, judge=judge)
        assert not result.success
        assert result.executions_used == 1

    def test_test_failure_stops_search(self):
        def judge(source, tests):
            return JudgeVerdict(kind=VerdictKind.WRONG_ANSWER, failed_test=0, per_test=(False,))

        result = assemble(make_beams([3, 3]), TESTS, budget=10, judge=judge)
        assert not result.success
        assert result.executions_used == 1

    def test_unparseable_diagnostics_stop_repair(self):
        def judge(source, tests):
            return JudgeVerdict(kind=VerdictKind.COMPILE_ERROR, diagnostics="ld: link went bad")

        result = assemble(make_beams([3]), TESTS, budget=10, judge=judge)
        assert not result.success
        assert result.executions_used == 1

    def test_exhausted_line_falls_through_to_next_error_line(self):
        # line 0 has no good candidate at all; line 1 repairs on index 1
        judge = CompileStubJudge([set(), {1}])
        result = assemble(make_beams([1, 2]), TESTS, budget=10, judge=judge)
        assert not result.success
        # it still advanced line 1 before giving up
        assert result.chosen_indices == (0, 1)

    def test_monotone_single_step_advance(self):
        judge = CompileStubJudge([{2}, {1}, {0}])
        assemble(make_beams([3, 3, 3]), TESTS, budget=27, judge=judge)
        prev = None
        for choice in judge.judged_choices:
            if prev is not None:
                deltas = [c - p for c, p in zip(choice, prev)]
                assert all(d >= 0 for d in deltas)
                assert sum(deltas) == 1
            prev = choice

    def test_program_is_canonical_join(self):
        judge = CompileStubJudge([{0}, {0}])
        result = assemble(make_beams([1, 1]), TESTS, budget=2, judge=judge)
        assert result.program == "L0C0\nL1C0"


class TestOracleEquivalence:
    def test_randomized_instances_match_exhaustive_enumeration(self):
        rng = random.Random(20240817)
        checked = 0
        for _ in range(250):
            n_lines = rng.randint(1, 4)
            widths = [rng.randint(1, 3) for _ in range(n_lines)]
            p_good = rng.choice([0.3, 0.6, 0.9])
            good_sets = [
                {c for c in range(w) if rng.random() < p_good} for w in widths
            ]
            budget = 1
            for w in widths:
                budget *= w
            budget = max(budget, 1)
            judge = CompileStubJudge(good_sets)
            result = assemble(make_beams(widths), TESTS, budget=budget, judge=judge)
            assert result.executions_used <= budget
            assert result.success == exhaustive_success(good_sets, widths)
            checked += 1
        assert checked == 250

    def test_budget_soundness_when_starved(self):
        rng = random.Random(7)
        for _ in range(200):
            n_lines = rng.randint(1, 4)
            widths = [rng.randint(1, 3) for _ in range(n_lines)]
            good_sets = [{c for c in range(w) if rng.random() < 0.4} for w in widths]
            budget = rng.randint(1, 3)
            judge = CompileStubJudge(good_sets)
            result = assemble(make_beams(widths), TESTS, budget=budget, judge=judge)
            assert result.executions_used <= budget
            assert judge.calls == result.executions_used
            if result.success:
                assert result.verdict.kind is VerdictKind.ALL_PASSED

    def test_determinism(self):
        good_sets = [{1}, {0, 2}, {2}]
        first = assemble(make_beams([3, 3, 3]), TESTS, 27, CompileStubJudge(good_sets))
        second = assemble(make_beams([3, 3, 3]), TESTS, 27, CompileStubJudge(good_sets))
        assert first == second


class TestBestFirst:
    def test_explores_past_test_failures(self):
        def judge(source, tests):
            choice = parse_choice(source)
            if choice == [1, 1]:
                return JudgeVerdict(kind=VerdictKind.ALL_PASSED, per_test=(True,))
            return JudgeVerdict(kind=VerdictKind.WRONG_ANSWER, failed_test=0)

        result = assemble(make_beams([2, 2]), TESTS, budget=10, judge=judge, strategy=BEST_FIRST)
        assert result.success
        assert result.chosen_indices == (1, 1)

    def test_visits_in_score_order(self):
        seen = []

        def judge(source, tests):
            seen.append(tuple(parse_choice(source)))
            return JudgeVerdict(kind=VerdictKind.WRONG_ANSWER, failed_test=0)

        assemble(make_beams([2, 2]), TESTS, budget=4, judge=judge, strategy=BEST_FIRST)
        scores = [-(a + b) for a, b in seen]
        assert scores == sorted(scores, reverse=True)
        assert len(seen) == len(set(seen)) == 4

    def test_budget_soundness(self):
        def judge(source, tests):
            return JudgeVerdict(kind=VerdictKind.WRONG_ANSWER, failed_test=0)

        result = assemble(make_beams([3, 3, 3]), TESTS, budget=5, judge=judge, strategy=BEST_FIRST)
        assert result.executions_used == 5
        assert not result.success


def make_literal_beams(widths):
    """Beams whose candidates print a padded string literal, so unpadding
    changes every line; the literal encodes (line, candidate)."""
    return [
        LineBeam(
            source=f"line{line}",
            candidates=tuple(
                Candidate(text=f'printf ( " L{line}C{c} " ) ;', score=float(-c)) for c in range(width)
            ),
        )
        for line, width in enumerate(widths)
    ]


class RecordingJudge(CompileStubJudge):
    """``CompileStubJudge`` over unpadded literal lines, keeping every source."""

    def __init__(self, good_sets):
        super().__init__(good_sets)
        self.sources = []

    def __call__(self, source, tests):
        self.sources.append(source)
        choices = re.findall(r'^printf \( "L\d+C(\d+)" \) ;$', source, re.MULTILINE)
        assert len(choices) == len(source.splitlines())
        return super().__call__("\n".join(f"C{c}" for c in choices), tests)


def _unpad_every_call(beams, choice, unpadded):
    """Program text with every chosen line unpadded afresh on every call."""
    return "\n".join(unpad_literals(beams[i].candidates[c].text) for i, c in enumerate(choice))


class TestCompileSource:
    @pytest.mark.parametrize("strategy", [GREEDY_REPAIR, BEST_FIRST])
    def test_each_candidate_unpadded_once_with_the_same_sources(self, strategy, monkeypatch):
        rng = random.Random(31)
        for _ in range(120):
            widths = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
            good_sets = [{c for c in range(w) if rng.random() < 0.5} for w in widths]
            budget = rng.randint(1, 8)
            beams = make_literal_beams(widths)
            with monkeypatch.context() as m:
                m.setattr(assembler_module, "_compile_source", _unpad_every_call)
                reference = RecordingJudge(good_sets)
                expected = assemble(beams, TESTS, budget, reference, strategy)
            unpadded = Counter()

            def counting_unpad(line):
                unpadded[line] += 1
                return unpad_literals(line)

            with monkeypatch.context() as m:
                m.setattr(assembler_module, "unpad_literals", counting_unpad)
                judge = RecordingJudge(good_sets)
                result = assemble(beams, TESTS, budget, judge, strategy)
            assert judge.sources == reference.sources
            assert result == expected
            assert result.executions_used == len(judge.sources)
            judged_lines = {
                (i, c) for choice in judge.judged_choices for i, c in enumerate(choice)
            }
            assert sum(unpadded.values()) == len(judged_lines)
            assert set(unpadded.values()) == {1}


class TestErrorLineParsing:
    def test_with_column(self):
        assert first_error_line("prog.c:3:5: error: expected ';'", 10) == 2

    def test_without_column(self):
        assert first_error_line("prog.c:4: error: something", 10) == 3

    def test_fatal_error(self):
        assert first_error_line("main.src:1:10: fatal error: x.h: No such file", 5) == 0

    def test_warnings_ignored(self):
        diag = "prog.c:2:1: warning: unused variable 'x' [-Wunused]\n"
        assert first_error_line(diag, 10) is None

    def test_reference_beyond_program_clamped(self):
        diag = "/usr/include/broken.h:123:4: error: nope\n"
        assert first_error_line(diag, 5) is None

    def test_multiple_errors_min_wins(self):
        diag = "p.c:7:1: error: a\np.c:3:2: error: b\np.c:9:9: error: c\n"
        assert error_lines(diag, 10) == [2, 6, 8]
        assert first_error_line(diag, 10) == 2

    @requires_gcc
    def test_against_real_compiler_diagnostics(self, tmp_path):
        src = tmp_path / "broken.src"
        src.write_text("int main ( ) {\nint x ;\nx = ;\nreturn 0 ;\n}\n", encoding="utf-8")
        proc = subprocess.run(
            ["gcc", "-x", "c", "-fdiagnostics-color=never", str(src), "-o", str(tmp_path / "b")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode != 0
        assert first_error_line(proc.stderr, 5) == 2


class TestPreconditions:
    def test_empty_beams(self):
        with pytest.raises(ValueError):
            assemble([], TESTS, 1, lambda s, t: None)

    def test_zero_budget(self):
        with pytest.raises(ValueError):
            assemble(make_beams([1]), TESTS, 0, lambda s, t: None)

    def test_no_tests(self):
        with pytest.raises(ValueError):
            assemble(make_beams([1]), [], 1, lambda s, t: None)

    def test_result_is_assembly_result(self):
        judge = CompileStubJudge([{0}])
        assert isinstance(assemble(make_beams([1]), TESTS, 1, judge), AssemblyResult)
