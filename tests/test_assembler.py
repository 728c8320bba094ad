from __future__ import annotations

import itertools
import random
import re
from collections import Counter

import pytest

import ibtforge.assembler as assembler_module
from conftest import requires_gcc
from ibtforge.assembler import (
    AssemblyResult,
    assemble,
    error_lines,
)
from ibtforge.corpus import TestCase
from ibtforge.judge import JudgeConfig, JudgeVerdict, VerdictKind, judge_program
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
            diagnostics = "".join(f"main.src:{i + 1}:1: error: bad line\n" for i in bad)
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
    def test_each_candidate_unpadded_once_with_the_same_sources(self, monkeypatch):
        rng = random.Random(31)
        for _ in range(120):
            widths = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
            good_sets = [{c for c in range(w) if rng.random() < 0.5} for w in widths]
            budget = rng.randint(1, 8)
            beams = make_literal_beams(widths)
            with monkeypatch.context() as m:
                m.setattr(assembler_module, "_compile_source", _unpad_every_call)
                reference = RecordingJudge(good_sets)
                expected = assemble(beams, TESTS, budget, reference)
            unpadded = Counter()

            def counting_unpad(line):
                unpadded[line] += 1
                return unpad_literals(line)

            with monkeypatch.context() as m:
                m.setattr(assembler_module, "unpad_literals", counting_unpad)
                judge = RecordingJudge(good_sets)
                result = assemble(beams, TESTS, budget, judge)
            assert judge.sources == reference.sources
            assert result == expected
            assert result.executions_used == len(judge.sources)
            judged_lines = {
                (i, c) for choice in judge.judged_choices for i, c in enumerate(choice)
            }
            assert sum(unpadded.values()) == len(judged_lines)
            assert set(unpadded.values()) == {1}


# Declares FILE before stdio.h does, so gcc reports the conflict inside a
# header (bits/types/FILE.h:7 with gcc 12 and glibc 2.36) and only notes
# line 1; no line of this program is at fault on its own.
C_ERROR_IN_A_HEADER = [
    "typedef int FILE ;",
    "#include <stdio.h>",
    "int a ;",
    "int b ;",
    "int c ;",
    "int e ;",
    "int d ;",
    "int main ( ) {",
    "int x = 1 ;",
    'printf ( "%d\\n" , x ) ;',
    "x = x + 1 ;",
    "return 0 ;",
    "}",
]


class TestErrorLineParsing:
    def test_with_column(self):
        assert error_lines("main.src:3:5: error: expected ';'", 10) == [2]

    def test_without_column(self):
        assert error_lines("main.src:4: error: something", 10) == [3]

    def test_fatal_error(self):
        assert error_lines("main.src:1:10: fatal error: x.h: No such file", 5) == [0]

    def test_warnings_ignored(self):
        diag = "main.src:2:1: warning: unused variable 'x' [-Wunused]\n"
        assert error_lines(diag, 10) == []

    def test_reference_beyond_program_clamped(self):
        diag = "main.src:123:4: error: nope\n"
        assert error_lines(diag, 5) == []

    def test_errors_in_other_files_are_dropped(self):
        diag = (
            "/usr/include/x86_64-linux-gnu/bits/types/FILE.h:7:25: error: conflicting types\n"
            "prog.c:3:5: error: expected ';'\n"
            "/tmp/judge-1/main.src:2:1: error: absolute\n"
            "In file included from main.src:4:\n"
            "main.src:1:13: note: previous declaration of 'FILE'\n"
        )
        assert error_lines(diag, 13) == []

    def test_multiple_errors_min_wins(self):
        diag = "main.src:7:1: error: a\nmain.src:3:2: error: b\nmain.src:9:9: error: c\n"
        assert error_lines(diag, 10) == [2, 6, 8]

    @requires_gcc
    def test_against_real_compiler_diagnostics(self, tmp_path):
        source = "int main ( ) {\nint x ;\nx = ;\nreturn 0 ;\n}\n"
        verdict = judge_program(source, TESTS, JudgeConfig(work_dir=str(tmp_path)))
        assert verdict.kind is VerdictKind.COMPILE_ERROR
        assert error_lines(verdict.diagnostics, 5) == [2]

    @requires_gcc
    def test_an_error_inside_a_header_names_no_program_line(self, tmp_path):
        source = "\n".join(C_ERROR_IN_A_HEADER)
        verdict = judge_program(source, TESTS, JudgeConfig(work_dir=str(tmp_path)))
        assert verdict.kind is VerdictKind.COMPILE_ERROR
        assert ": error: " in verdict.diagnostics
        assert error_lines(verdict.diagnostics, len(C_ERROR_IN_A_HEADER)) == []
        # so greedy repair advances no unrelated line and stops
        beams = [
            LineBeam(source=line, candidates=(Candidate(line, 0.0), Candidate(line, -1.0)))
            for line in C_ERROR_IN_A_HEADER
        ]
        result = assemble(
            beams, TESTS, 3, lambda s, t: judge_program(s, t, JudgeConfig(work_dir=str(tmp_path)))
        )
        assert result.executions_used == 1
        assert result.chosen_indices == (0,) * len(C_ERROR_IN_A_HEADER)


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
