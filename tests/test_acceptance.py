"""Acceptance suite: one test per ship criterion, each printing a PASS/FAIL
line and enforcing both its tolerance and its runtime budget."""

from __future__ import annotations

import functools
import itertools
import json
import random
import time

import pytest

from conftest import build_mono_corpus, build_seed_parallel, requires_gcc, requires_gxx
from ibtforge.assembler import assemble
from ibtforge.corpus import TestCase
from ibtforge.ibt import PHASES, IbtConfig, IbtRunner, IterationReport
from ibtforge.judge import JudgeConfig, JudgeVerdict, VerdictKind, judge_program
from ibtforge.lexer import canonicalize
from ibtforge.metrics import corpus_bleu, cumulative_success, exact_match
from ibtforge.preprocess import preprocess_pair
from ibtforge.translator import Candidate, LineBeam, TemplateBackend
from test_metrics import FIXTURE_GOLDEN, FIXTURE_HYPS, FIXTURE_REFS, oracle_bleu

IBT_CFG = IbtConfig(iterations=2, beam=4, budget=10, workers_top_k=2)


def criterion(number: int, description: str, limit_s: float):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL  {description}")
                raise
            elapsed = time.monotonic() - started
            print(f"ACCEPTANCE {number} PASS  {description} ({elapsed:.2f}s)")
            assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s"

        return wrapper

    return decorate


@criterion(1, "tokenizer canonicalizes both spellings identically", 1.0)
def test_criterion_1_tokenizer_golden():
    expected = "else if ( ans == int ( ans ) )"
    assert canonicalize("else if(  ans== int( ans))") == expected
    assert canonicalize("else if (ans == int(ans))") == expected


@criterion(2, "newline-keyword rewrite matches the documented example", 1.0)
def test_criterion_2_preprocess_golden():
    out = preprocess_pair("cout << - 1 << endl ;", "print -1")
    assert out == "print - 1 print new line"


@criterion(3, "two-iteration count replay reproduces the published rates", 1.0)
def test_criterion_3_iteration_arithmetic_replay():
    tested0, passed0 = 25666, 15615
    tested1 = tested0 - passed0
    assert tested1 == 10051
    passed1 = 5972  # round(10051 * 0.5942)
    reports = [
        IterationReport(
            iteration=0,
            tested_count=tested0,
            passed_count=passed0,
            success_rate_pct=100.0 * passed0 / tested0,
            cumulative_success_rate_pct=100.0 * passed0 / tested0,
            augmented_pairs_count=passed0,
        ),
        IterationReport(
            iteration=1,
            tested_count=tested1,
            passed_count=passed1,
            success_rate_pct=100.0 * passed1 / tested1,
            cumulative_success_rate_pct=100.0 * (passed0 + passed1) / tested0,
            augmented_pairs_count=passed1,
        ),
    ]
    assert cumulative_success(reports, tested0) == pytest.approx(84.11, abs=0.02)


class _CompileStub:
    """Failures are always compile errors naming every bad line."""

    def __init__(self, good_sets):
        self.good_sets = good_sets

    def __call__(self, source, tests):
        choice = [int(line.rsplit("C", 1)[1]) for line in source.splitlines()]
        bad = [i for i, c in enumerate(choice) if c not in self.good_sets[i]]
        if bad:
            diags = "".join(f"main.src:{i + 1}:1: error: bad\n" for i in bad)
            return JudgeVerdict(kind=VerdictKind.COMPILE_ERROR, diagnostics=diags)
        return JudgeVerdict(kind=VerdictKind.ALL_PASSED, per_test=(True,))


@criterion(4, "assembler matches exhaustive enumeration and respects budgets", 30.0)
def test_criterion_4_assembler_oracle_equivalence():
    rng = random.Random(1729)
    tests = [TestCase(b"", b"")]

    def beams_of(widths):
        return [
            LineBeam(
                source=f"l{i}",
                candidates=tuple(Candidate(f"L{i}C{c}", float(-c)) for c in range(w)),
            )
            for i, w in enumerate(widths)
        ]

    agreements = 0
    for _ in range(220):
        widths = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        p_good = rng.choice([0.25, 0.5, 0.8])
        good_sets = [{c for c in range(w) if rng.random() < p_good} for w in widths]
        budget = 1
        for w in widths:
            budget *= w
        result = assemble(beams_of(widths), tests, budget, _CompileStub(good_sets))
        expected = any(
            all(c in good_sets[i] for i, c in enumerate(combo))
            for combo in itertools.product(*(range(w) for w in widths))
        )
        assert result.executions_used <= budget
        assert result.success == expected
        agreements += 1
    assert agreements >= 200
    # budget-starved instances: soundness must hold even when search is cut
    for _ in range(100):
        widths = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        good_sets = [{c for c in range(w) if rng.random() < 0.4} for w in widths]
        budget = rng.randint(1, 2)
        result = assemble(beams_of(widths), tests, budget, _CompileStub(good_sets))
        assert result.executions_used <= budget


_JUDGE_FIXTURES = [
    # (language, source, test, expected verdict kind)
    ("c", '#include <stdio.h>\nint main(){printf("%d\\n",1+1);return 0;}\n', (b"", b"2\n"), VerdictKind.ALL_PASSED),
    ("c", '#include <stdio.h>\nint main(){printf("%d\\n",1+1);return 0;}\n', (b"", b"3\n"), VerdictKind.WRONG_ANSWER),
    ("c", "int main( {\n", (b"", b""), VerdictKind.COMPILE_ERROR),
    ("c", "int main(){return 5;}\n", (b"", b""), VerdictKind.RUNTIME_FAIL),
    ("c", "int main(){for(;;);return 0;}\n", (b"", b""), VerdictKind.TIME_LIMIT),
    ("c", '#include <stdio.h>\nint main(){int x;scanf("%d",&x);printf("%d",x+x);return 0;}\n', (b"4", b"8"), VerdictKind.ALL_PASSED),
    ("cpp", '#include <iostream>\nint main(){std::cout<<"ok\\n";return 0;}\n', (b"", b"ok\n"), VerdictKind.ALL_PASSED),
    ("cpp", "#include <iostream>\nint main(){std::cout<<1\nreturn 0;}\n", (b"", b""), VerdictKind.COMPILE_ERROR),
    ("cpp", "int main(){throw 42;}\n", (b"", b""), VerdictKind.RUNTIME_FAIL),
    ("cpp", '#include <iostream>\nint main(){std::cout<<"x";return 0;}\n', (b"", b"y"), VerdictKind.WRONG_ANSWER),
    ("cpp", "int main(){for(;;);}\n", (b"", b""), VerdictKind.TIME_LIMIT),
]


@requires_gcc
@requires_gxx
@criterion(5, "judge verdicts are correct and stable across repeated runs", 60.0)
def test_criterion_5_judge_verdicts(tmp_path):
    assert len(_JUDGE_FIXTURES) >= 10
    for run in range(3):
        for language, source, (stdin, expected), kind in _JUDGE_FIXTURES:
            cfg = JudgeConfig(
                language=language,
                run_timeout_s=0.4 if kind is VerdictKind.TIME_LIMIT else 5.0,
                work_dir=str(tmp_path),
            )
            verdict = judge_program(source, [TestCase(stdin, expected)], cfg)
            assert verdict.kind is kind, (run, language, source, verdict)


@requires_gcc
@criterion(6, "desk-scale adaptation strictly improves cumulative success", 120.0)
def test_criterion_6_end_to_end_improvement(tmp_path):
    runner = IbtRunner(
        build_seed_parallel(),
        build_mono_corpus(),
        TemplateBackend(),
        TemplateBackend(),
        IBT_CFG,
        judge_cfg=JudgeConfig(language="c", work_dir=str(tmp_path / "scratch")),
    )
    reports = runner.run()
    assert len(reports) == 2
    assert reports[1].cumulative_success_rate_pct > reports[0].cumulative_success_rate_pct
    total_passed = sum(r.passed_count for r in reports)
    assert runner.initial_mono_count == len(runner.mono) + total_passed


@criterion(7, "metric endpoints behave at their boundary values", 5.0)
def test_criterion_7_metrics_sanity():
    same = [["print", "x"], ["set", "y", "to", "1"]]
    assert corpus_bleu(same, same) == pytest.approx(100.0)
    assert exact_match(["print x", "set y to 1"], ["print x", "set y to 1"]) == 100.0
    hyps = [["alpha", "beta", "gamma", "delta"]]
    refs = [["one", "two", "three", "four"]]
    assert exact_match(["alpha beta"], ["one two"]) == 0.0
    assert corpus_bleu(hyps, refs) < 1.0
    golden = corpus_bleu(FIXTURE_HYPS, FIXTURE_REFS)
    assert golden == pytest.approx(oracle_bleu(FIXTURE_HYPS, FIXTURE_REFS), abs=0.01)
    assert golden == pytest.approx(FIXTURE_GOLDEN, abs=0.01)


def _normalized_reports(snapshot_dir):
    payload = json.loads((snapshot_dir / "reports.json").read_text(encoding="utf-8"))
    for report in payload["reports"]:
        report["wall_time_s"] = 0.0
    return json.dumps(payload, sort_keys=True).encode()


@requires_gcc
@criterion(8, "kill-and-resume reproduces the uninterrupted final report", 180.0)
def test_criterion_8_resumability(tmp_path):
    def run(snapshot_dir, stop_after=None):
        return IbtRunner(
            build_seed_parallel(),
            build_mono_corpus(),
            TemplateBackend(),
            TemplateBackend(),
            IBT_CFG,
            judge_cfg=JudgeConfig(language="c", work_dir=str(tmp_path / "scratch")),
            snapshot_dir=snapshot_dir,
        ).run(stop_after=stop_after)

    clean_dir = tmp_path / "uninterrupted"
    run(clean_dir)
    golden = _normalized_reports(clean_dir)
    boundaries = [(i, p) for i in range(IBT_CFG.iterations) for p in PHASES]
    for n, boundary in enumerate(boundaries):
        snap = tmp_path / f"killed-{n}"
        run(snap, stop_after=boundary)
        run(snap)
        assert _normalized_reports(snap) == golden, f"divergence after {boundary}"
