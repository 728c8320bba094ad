from __future__ import annotations

import os
import random
import signal
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import requires_gcc, requires_gxx
from ibtforge import judge as judge_module
from ibtforge.assembler import assemble
from ibtforge.corpus import TestCase
from ibtforge.judge import (
    JudgeConfig,
    JudgeFailureError,
    JudgeVerdict,
    VerdictKind,
    judge_program,
    memoize_verdicts,
    normalize_output,
)
from ibtforge.translator import Candidate, LineBeam

C_OK = '#include <stdio.h>\nint main(){printf("%d\\n",1+1);return 0;}\n'
C_READS = '#include <stdio.h>\nint main(){int x;scanf("%d",&x);printf("%d\\n",x*2);return 0;}\n'
C_BAD_SYNTAX = "int main( {\n"
C_EXIT_7 = "int main(){return 7;}\n"
C_POSES_AS_PRLIMIT = (
    '#include <stdio.h>\n'
    'int main(void){fprintf(stderr,"prlimit: failed to execute x\\n");return 1;}\n'
)
C_LOOP = "int main(){for(;;);return 0;}\n"
C_WRITES_128K = (
    '#include <stdio.h>\n'
    'int main(void){FILE*f=fopen("out","w");if(!f)return 9;\n'
    'for(int i=0;i<(128<<10);i++)fputc(1,f);fclose(f);puts("done");return 0;}\n'
)
C_BIG_ALLOC = (
    "#include <stdlib.h>\n#include <string.h>\n"
    "int main(){char*p=malloc(400u<<20);if(!p)return 9;memset(p,1,400u<<20);return 0;}\n"
)

CPP_OK = '#include <iostream>\nint main(){std::cout<<"hi\\n";return 0;}\n'
CPP_BAD = "#include <iostream>\nint main(){std::cout<<1\nreturn 0;}\n"
CPP_THROW = "int main(){throw 1;}\n"


@requires_gcc
class TestVerdictsC:
    def test_all_passed(self, judge_cfg):
        verdict = judge_program(C_OK, [TestCase(b"", b"2\n")], judge_cfg)
        assert verdict.kind is VerdictKind.ALL_PASSED
        assert verdict.per_test == (True,)
        assert len(verdict.wall_time_ms) == 1

    def test_wrong_answer(self, judge_cfg):
        verdict = judge_program(C_OK, [TestCase(b"", b"3\n")], judge_cfg)
        assert verdict.kind is VerdictKind.WRONG_ANSWER
        assert verdict.failed_test == 0

    def test_compile_error(self, judge_cfg):
        verdict = judge_program(C_BAD_SYNTAX, [TestCase(b"", b"")], judge_cfg)
        assert verdict.kind is VerdictKind.COMPILE_ERROR
        assert verdict.diagnostics

    def test_runtime_fail(self, judge_cfg):
        verdict = judge_program(C_EXIT_7, [TestCase(b"", b"")], judge_cfg)
        assert verdict.kind is VerdictKind.RUNTIME_FAIL
        assert "exit status 7" in verdict.detail

    def test_program_writing_the_wrappers_error_fails(self, judge_cfg):
        # the probe finds the wrapper working, so the failure is the program's
        verdict = judge_program(C_POSES_AS_PRLIMIT, [TestCase(b"", b"")], judge_cfg)
        assert verdict.kind is VerdictKind.RUNTIME_FAIL
        assert "prlimit: failed to execute x" in verdict.detail

    def test_file_size_limit_enforced(self, judge_cfg, monkeypatch):
        tests = [TestCase(b"", b"done\n")]
        assert judge_program(C_WRITES_128K, tests, judge_cfg).kind is VerdictKind.ALL_PASSED
        probes = []
        monkeypatch.setattr(judge_module, "_probe_wrapper", lambda *args: probes.append(args))
        monkeypatch.setattr(judge_module, "FILE_SIZE_LIMIT_BYTES", 64 * 1024)
        verdict = judge_program(C_WRITES_128K, tests, judge_cfg)
        assert verdict.kind is VerdictKind.RUNTIME_FAIL
        assert verdict.failed_test == 0
        assert probes == []

    def test_time_limit(self, tmp_path):
        cfg = JudgeConfig(language="c", run_timeout_s=0.4, work_dir=str(tmp_path))
        verdict = judge_program(C_LOOP, [TestCase(b"", b"")], cfg)
        assert verdict.kind is VerdictKind.TIME_LIMIT
        assert verdict.failed_test == 0

    def test_stdin_fed_to_program(self, judge_cfg):
        verdict = judge_program(C_READS, [TestCase(b"21\n", b"42\n")], judge_cfg)
        assert verdict.kind is VerdictKind.ALL_PASSED

    def test_first_failing_test_short_circuits(self, judge_cfg):
        tests = [TestCase(b"1\n", b"2\n"), TestCase(b"2\n", b"5\n"), TestCase(b"3\n", b"6\n")]
        verdict = judge_program(C_READS, tests, judge_cfg)
        assert verdict.kind is VerdictKind.WRONG_ANSWER
        assert verdict.failed_test == 1
        assert verdict.per_test == (True, False)

    def test_memory_limit_enforced(self, tmp_path):
        cfg = JudgeConfig(language="c", memory_limit_mb=64, work_dir=str(tmp_path))
        verdict = judge_program(C_BIG_ALLOC, [TestCase(b"", b"")], cfg)
        assert verdict.kind is VerdictKind.RUNTIME_FAIL


@requires_gxx
class TestVerdictsCpp:
    def test_all_passed(self, tmp_path):
        cfg = JudgeConfig(language="cpp", work_dir=str(tmp_path))
        verdict = judge_program(CPP_OK, [TestCase(b"", b"hi\n")], cfg)
        assert verdict.kind is VerdictKind.ALL_PASSED

    def test_compile_error(self, tmp_path):
        cfg = JudgeConfig(language="cpp", work_dir=str(tmp_path))
        verdict = judge_program(CPP_BAD, [TestCase(b"", b"")], cfg)
        assert verdict.kind is VerdictKind.COMPILE_ERROR

    def test_runtime_fail(self, tmp_path):
        cfg = JudgeConfig(language="cpp", work_dir=str(tmp_path))
        verdict = judge_program(CPP_THROW, [TestCase(b"", b"")], cfg)
        assert verdict.kind is VerdictKind.RUNTIME_FAIL


class TestNormalization:
    def test_trailing_whitespace_equal(self):
        assert normalize_output(b"a 1  \nb\t\n\n\n") == normalize_output(b"a 1\nb")

    def test_meaningful_difference_detected(self):
        assert normalize_output(b"a b") != normalize_output(b"ab")

    def test_interior_blank_lines_preserved(self):
        assert normalize_output(b"a\n\nb") != normalize_output(b"a\nb")

    def test_exact_mode(self):
        assert normalize_output(b"a \n", "exact") == b"a \n"

    @requires_gcc
    def test_applies_to_comparison(self, judge_cfg):
        verdict = judge_program(C_OK, [TestCase(b"", b"2")], judge_cfg)
        assert verdict.kind is VerdictKind.ALL_PASSED

    @requires_gcc
    def test_equal_bytes_are_not_normalized(self, judge_cfg, monkeypatch):
        def refuse(data, rule="strip-trailing"):
            raise AssertionError(f"normalized {data!r}")

        monkeypatch.setattr(judge_module, "normalize_output", refuse)
        verdict = judge_program(C_OK, [TestCase(b"", b"2\n")], judge_cfg)
        assert verdict.kind is VerdictKind.ALL_PASSED


class TestConfig:
    @pytest.mark.parametrize("limit", [-1, 1, 2, 15])
    def test_memory_limit_below_the_loader_floor_rejected(self, limit):
        with pytest.raises(ValueError, match="memory_limit_mb"):
            JudgeConfig(memory_limit_mb=limit)

    @pytest.mark.parametrize("limit", [0, 16, 256])
    def test_memory_limit_zero_or_workable_accepted(self, limit):
        assert JudgeConfig(memory_limit_mb=limit).memory_limit_mb == limit


def _running(pid):
    """Whether ``pid`` is a process that has not exited; an exited one may
    stay a zombie until its new parent reaps it."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


@requires_gcc
class TestInfrastructure:
    def test_missing_compiler_raises(self, tmp_path):
        cfg = JudgeConfig(
            language="c",
            compiler_command=("definitely-not-a-compiler", "{src}", "-o", "{bin}"),
            work_dir=str(tmp_path),
        )
        with pytest.raises(JudgeFailureError):
            judge_program("int main(){}", [TestCase(b"", b"")], cfg)

    def test_compile_timeout_kills_the_whole_compiler(self, tmp_path):
        # a compiler driver that waits on a child, as gcc waits on cc1
        pids = tmp_path / "pids"
        fake = tmp_path / "cc"
        fake.write_text(f"#!/bin/sh\nsleep 30 &\necho $$ $! > {pids}\nwait\n")
        fake.chmod(0o755)
        cfg = JudgeConfig(
            compiler_command=(str(fake), "{src}", "-o", "{bin}"),
            compile_timeout_s=1.0,
            work_dir=str(tmp_path / "w"),
        )
        try:
            verdict = judge_program(C_OK, [TestCase(b"", b"2\n")], cfg)
            assert verdict.kind is VerdictKind.COMPILE_ERROR
            assert verdict.diagnostics == "compilation exceeded 1.0s"
            driver, child = map(int, pids.read_text().split())
            assert not _running(driver)
            assert not _running(child)
        finally:
            try:  # leave no sleep behind if the judge did
                os.kill(int(pids.read_text().split()[1]), signal.SIGKILL)
            except (OSError, ValueError, IndexError):
                pass

    def test_empty_tests_rejected(self, judge_cfg):
        with pytest.raises(ValueError):
            judge_program(C_OK, [], judge_cfg)

    def test_scratch_cleanup(self, tmp_path):
        cfg = JudgeConfig(language="c", work_dir=str(tmp_path / "w"))
        judge_program(C_OK, [TestCase(b"", b"2\n")], cfg)
        assert list((tmp_path / "w").iterdir()) == []

    def test_relative_work_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = JudgeConfig(language="c", work_dir="rel-scratch")
        verdict = judge_program(C_OK, [TestCase(b"", b"2\n")], cfg)
        assert verdict.kind is VerdictKind.ALL_PASSED

    def test_isolation_under_concurrency(self, judge_cfg):
        # every program writes the same relative file name in its own scratch
        def program(n):
            return (
                '#include <stdio.h>\nint main(){FILE*f=fopen("shared.txt","w");'
                f'fprintf(f,"%d",{n});fclose(f);'
                'f=fopen("shared.txt","r");int v;fscanf(f,"%d",&v);printf("%d\\n",v);return 0;}\n'
            )

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(
                    judge_program,
                    program(n),
                    [TestCase(b"", str(n).encode() + b"\n")],
                    judge_cfg,
                )
                for n in range(8)
            ]
            verdicts = [f.result() for f in futures]
        assert all(v.kind is VerdictKind.ALL_PASSED for v in verdicts)

    def test_missing_run_wrapper_raises(self, judge_cfg, monkeypatch):
        monkeypatch.setattr(judge_module, "_RUN_WRAPPER", "definitely-not-prlimit")
        with pytest.raises(JudgeFailureError):
            judge_program(C_OK, [TestCase(b"", b"2\n")], judge_cfg)

    def test_run_wrapper_failure_raises(self, judge_cfg, tmp_path, monkeypatch):
        # prlimit reports its own failures on stderr under its name
        fake = tmp_path / "prlimit"
        fake.write_text(
            "#!/bin/sh\necho 'prlimit: failed to set the AS resource limit' >&2\nexit 1\n"
        )
        fake.chmod(0o755)
        monkeypatch.setattr(judge_module, "_RUN_WRAPPER", str(fake))
        with pytest.raises(JudgeFailureError, match="failed to set the AS resource limit"):
            judge_program(C_OK, [TestCase(b"", b"2\n")], judge_cfg)

    def test_wrapper_probe_without_true_raises(self, judge_cfg, monkeypatch):
        monkeypatch.setattr(judge_module.shutil, "which", lambda name: None)
        with pytest.raises(JudgeFailureError, match="true not found"):
            judge_program(C_POSES_AS_PRLIMIT, [TestCase(b"", b"")], judge_cfg)


TESTS = (TestCase(b"", b""),)


class CountingJudge:
    """Pure stand-in judge: the verdict kind is fixed per instance and the
    program text comes back as ``detail``, so a verdict names its source."""

    def __init__(self, kind=VerdictKind.WRONG_ANSWER):
        self.kind = kind
        self.calls: Counter = Counter()
        self._lock = threading.Lock()

    def __call__(self, source, tests):
        with self._lock:
            self.calls[(source, tuple(tests))] += 1
        return JudgeVerdict(kind=self.kind, detail=source)


class TestVerdictMemo:
    @pytest.mark.parametrize("kind", list(VerdictKind))
    def test_every_verdict_kind_judged_once(self, kind):
        judge = CountingJudge(kind)
        memo = memoize_verdicts(judge)
        first = memo("p", TESTS)
        assert memo("p", list(TESTS)) is first
        assert first.kind is kind
        assert sum(judge.calls.values()) == 1

    def test_key_is_source_and_test_values(self):
        judge = CountingJudge()
        memo = memoize_verdicts(judge)
        memo("p", [TestCase(b"1", b"2")])
        memo("p", (TestCase(b"1", b"2"),))  # equal tests, other objects
        memo("p", [TestCase(b"1", b"3")])
        memo("p", [TestCase(b"1", b"2"), TestCase(b"1", b"2")])
        memo("q", [TestCase(b"1", b"2")])
        assert len(judge.calls) == 4
        assert set(judge.calls.values()) == {1}

    def test_judge_failure_is_not_cached(self):
        calls = []

        def flaky(source, tests):
            calls.append(source)
            if len(calls) == 1:
                raise JudgeFailureError("compiler exploded")
            return JudgeVerdict(kind=VerdictKind.ALL_PASSED)

        memo = memoize_verdicts(flaky)
        with pytest.raises(JudgeFailureError):
            memo("p", TESTS)
        assert memo("p", TESTS).kind is VerdictKind.ALL_PASSED
        assert memo("p", TESTS).kind is VerdictKind.ALL_PASSED
        assert calls == ["p", "p"]

    def _single_flight(self, monkeypatch, judge):
        """Start eight threads that call ``memo("p")`` and return once seven
        of them wait for the eighth's verdict. Returns the memo, the list
        that collects what each call returned or raised, and the threads."""
        waiting = []
        lock = threading.Lock()

        class CountedFuture(judge_module.Future):
            def result(self, timeout=None):
                with lock:
                    waiting.append(threading.get_ident())
                return super().result(timeout)

        monkeypatch.setattr(judge_module, "Future", CountedFuture)
        memo = memoize_verdicts(judge)
        outcomes = []

        def call():
            try:
                outcomes.append(memo("p", TESTS))
            except JudgeFailureError as exc:
                outcomes.append(exc)

        threads = [threading.Thread(target=call) for _ in range(8)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30
        while len(waiting) < 7 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert len(waiting) == 7
        return memo, outcomes, threads

    @staticmethod
    def _join(threads):
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()

    def test_concurrent_callers_of_one_key_judge_once(self, monkeypatch):
        release = threading.Event()
        calls = []

        def judge(source, tests):
            calls.append(source)
            assert release.wait(timeout=30)
            return JudgeVerdict(kind=VerdictKind.ALL_PASSED)

        memo, outcomes, threads = self._single_flight(monkeypatch, judge)
        release.set()
        self._join(threads)
        assert calls == ["p"]
        assert len(outcomes) == 8 and all(o is outcomes[0] for o in outcomes)
        assert memo("p", TESTS) is outcomes[0]
        assert calls == ["p"]

    def test_failure_reaches_the_waiters_and_is_dropped(self, monkeypatch):
        release = threading.Event()
        calls = []

        def judge(source, tests):
            calls.append(source)
            if len(calls) == 1:
                assert release.wait(timeout=30)
                raise JudgeFailureError("compiler exploded")
            return JudgeVerdict(kind=VerdictKind.ALL_PASSED)

        memo, outcomes, threads = self._single_flight(monkeypatch, judge)
        release.set()
        self._join(threads)
        assert calls == ["p"]
        assert len(outcomes) == 8
        assert all(isinstance(o, JudgeFailureError) for o in outcomes)
        assert memo("p", TESTS).kind is VerdictKind.ALL_PASSED
        assert calls == ["p", "p"]

    def test_assemble_budget_accounting_unchanged(self):
        # compiles iff every line picks one of its good candidates; the
        # diagnostics name every bad line
        def judge(source, tests):
            choice = [int(line.rsplit("C", 1)[1]) for line in source.splitlines()]
            bad = [i for i, c in enumerate(choice) if c not in good[i]]
            if bad:
                diagnostics = "".join(f"main.src:{i + 1}:1: error: bad\n" for i in bad)
                return JudgeVerdict(kind=VerdictKind.COMPILE_ERROR, diagnostics=diagnostics)
            return JudgeVerdict(kind=VerdictKind.ALL_PASSED, per_test=(True,))

        rng = random.Random(7)
        for _ in range(40):
            widths = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
            good = [set(rng.sample(range(w), rng.randint(0, w))) for w in widths]
            beams = [
                LineBeam(
                    source=f"line{i}",
                    candidates=tuple(Candidate(f"L{i}C{c}", float(-c)) for c in range(w)),
                )
                for i, w in enumerate(widths)
            ]
            budget = rng.randint(1, 8)
            raw = assemble(beams, TESTS, budget, judge)
            memo = memoize_verdicts(judge)
            for _ in range(2):  # a cold memo, then one holding every verdict
                cached = assemble(beams, TESTS, budget, memo)
                assert cached.executions_used == raw.executions_used
                assert cached.chosen_indices == raw.chosen_indices
                assert cached.success == raw.success

    def test_threads_get_the_verdict_of_their_own_key(self):
        judge = CountingJudge()
        memo = memoize_verdicts(judge)
        sources = [f"p{i % 7}" for i in range(700)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda s: memo(s, TESTS).detail, sources, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == sources
        assert len(judge.calls) == 7
        assert set(judge.calls.values()) == {1}  # no key judged twice
        for i in range(7):  # every key was stored
            memo(f"p{i}", TESTS)
        assert set(judge.calls.values()) == {1}
