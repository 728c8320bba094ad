"""Sandboxed compile-and-execute oracle.

Each call compiles one program in a private scratch directory, runs the
binary on every test case under wall-clock and memory limits, and returns a
verdict. Infrastructure faults (missing compiler or ``prlimit``, unwritable
scratch) raise ``JudgeFailureError``, which stops the runner like a backend
fault; a program whose stderr only reads like a ``prlimit`` error fails.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import tempfile
import threading
import time
import uuid
from concurrent.futures import Future
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

from .corpus import TestCase


class VerdictKind(str, Enum):
    ALL_PASSED = "AllPassed"
    COMPILE_ERROR = "CompileError"
    RUNTIME_FAIL = "RuntimeFail"
    WRONG_ANSWER = "WrongAnswer"
    TIME_LIMIT = "TimeLimit"


class JudgeFailureError(Exception):
    """The judging infrastructure itself failed; not a program verdict."""


@dataclass(frozen=True)
class JudgeVerdict:
    kind: VerdictKind
    diagnostics: str = ""  # compiler output when kind is COMPILE_ERROR
    failed_test: int | None = None  # first failing test index
    detail: str = ""
    per_test: tuple[bool, ...] = ()
    wall_time_ms: tuple[float, ...] = ()


JudgeFn = Callable[[str, Sequence[TestCase]], JudgeVerdict]


def memoize_verdicts(judge: JudgeFn) -> JudgeFn:
    """Wrap ``judge`` so that each distinct (source, tests) reaches it once
    over the wrapper's lifetime; repeat calls return the stored verdict.

    Every verdict is stored, ``TimeLimit`` included. The judge's
    configuration is fixed for one wrapper, so it is not part of the key.
    A key already being judged on another thread is waited for, not judged
    again. An exception (``JudgeFailureError``) reaches the caller and the
    callers waiting at that moment, and is not stored, so a later call
    reaches the judge again. The caller counts each call as one execution
    either way.
    """
    verdicts: dict[tuple[str, tuple[TestCase, ...]], Future] = {}
    lock = threading.Lock()

    def memoized(source: str, tests: Sequence[TestCase]) -> JudgeVerdict:
        key = (source, tuple(tests))
        with lock:
            future = verdicts.get(key)
            owner = future is None
            if owner:
                future = verdicts[key] = Future()
        if not owner:
            return future.result()
        try:
            verdict = judge(source, tests)
        except BaseException as exc:
            with lock:
                del verdicts[key]
            future.set_exception(exc)
            raise
        future.set_result(verdict)
        return verdict

    return memoized


_DEFAULT_COMPILERS = {
    "c": ("gcc", "-x", "c", "-std=c11", "-O0", "-fdiagnostics-color=never", "{src}", "-o", "{bin}"),
    "cpp": ("g++", "-x", "c++", "-std=c++17", "-O0", "-fdiagnostics-color=never", "{src}", "-o", "{bin}"),
}


@dataclass(frozen=True)
class JudgeConfig:
    language: str = "c"
    compiler_command: tuple[str, ...] | None = None  # template; {src}/{bin} substituted
    compile_timeout_s: float = 30.0
    run_timeout_s: float = 5.0
    memory_limit_mb: int = 256
    output_normalization: str = "strip-trailing"  # or "exact"
    work_dir: str | None = None

    def __post_init__(self) -> None:
        if self.compile_timeout_s <= 0 or self.run_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.language not in _DEFAULT_COMPILERS:
            raise ValueError(f"unknown language {self.language!r}")
        if self.output_normalization not in ("strip-trailing", "exact"):
            raise ValueError(f"unknown normalization {self.output_normalization!r}")
        if self.memory_limit_mb < 0 or 0 < self.memory_limit_mb < 16:
            # the dynamic loader cannot map libc into a few MB of address
            # space, so every test run would fail before the program starts;
            # a negative limit would pass no limit at all
            raise ValueError("memory_limit_mb must be 0 (no limit) or at least 16")

    def resolved_command(self, src: Path, bin_path: Path) -> list[str]:
        template = self.compiler_command or _DEFAULT_COMPILERS[self.language]
        return [arg.format(src=src, bin=bin_path) for arg in template]


# Bound on concurrently running compiler processes; the runner's evaluation
# pool has at least this many threads.
JUDGE_THREADS = os.cpu_count() or 1
_compile_semaphore = threading.BoundedSemaphore(JUDGE_THREADS)


def normalize_output(data: bytes, rule: str = "strip-trailing") -> bytes:
    """Default comparison rule: strip trailing whitespace per line and
    trailing blank lines, then compare bytes exactly."""
    if rule == "exact":
        return data
    lines = [line.rstrip(b" \t\r") for line in data.split(b"\n")]
    while lines and not lines[-1]:
        lines.pop()
    return b"\n".join(lines)


# util-linux ``prlimit`` sets the limits and execs the binary, so the test
# run keeps its pid, exit status and session. Setting them from Python code
# run in the child between fork and exec is unsafe while other threads run.
_RUN_WRAPPER = "prlimit"

# Largest file a test run may write, in bytes: a program that writes past it
# is killed by SIGXFSZ and fails, so a writing loop cannot fill the disk
FILE_SIZE_LIMIT_BYTES = 64 * 1024 * 1024


def _run_command(bin_path: Path, memory_limit_mb: int) -> list[str]:
    command = [_RUN_WRAPPER, "--core=0", f"--fsize={FILE_SIZE_LIMIT_BYTES}"]
    if memory_limit_mb > 0:
        command.append(f"--as={memory_limit_mb * 1024 * 1024}")
    return command + ["--", str(bin_path)]


def judge_program(source: str, tests: Sequence[TestCase], cfg: JudgeConfig) -> JudgeVerdict:
    """Compile ``source`` and run it on every test; the first failing test
    short-circuits with its failure kind."""
    if not tests:
        raise ValueError("judge_program requires at least one test case")
    root = Path(cfg.work_dir) if cfg.work_dir else Path(tempfile.gettempdir())
    # compile/run below use scratch as cwd, so all paths must be absolute
    scratch = root.resolve() / f"judge-{uuid.uuid4().hex}"
    try:
        scratch.mkdir(parents=True)
    except OSError as exc:
        raise JudgeFailureError(f"cannot create scratch directory {scratch}: {exc}") from exc
    try:
        return _judge_in_scratch(source, tests, cfg, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _judge_in_scratch(
    source: str, tests: Sequence[TestCase], cfg: JudgeConfig, scratch: Path
) -> JudgeVerdict:
    src = scratch / "main.src"
    bin_path = scratch / "bin"
    src.write_text(source if source.endswith("\n") else source + "\n", encoding="utf-8")
    command = cfg.resolved_command(src, bin_path)
    with _compile_semaphore:
        try:
            compile_proc = subprocess.run(
                command,
                capture_output=True,
                timeout=cfg.compile_timeout_s,
                cwd=scratch,
            )
        except FileNotFoundError as exc:
            raise JudgeFailureError(f"compiler not found: {command[0]}") from exc
        except subprocess.TimeoutExpired:
            # treated as the program's fault, like an online judge would
            return JudgeVerdict(
                kind=VerdictKind.COMPILE_ERROR,
                diagnostics=f"compilation exceeded {cfg.compile_timeout_s}s",
            )
    if compile_proc.returncode != 0:
        return JudgeVerdict(
            kind=VerdictKind.COMPILE_ERROR,
            diagnostics=compile_proc.stderr.decode("utf-8", "backslashreplace"),
        )
    if not bin_path.exists():
        raise JudgeFailureError(f"compiler produced no binary: {' '.join(command)}")

    run_command = _run_command(bin_path, cfg.memory_limit_mb)
    per_test: list[bool] = []
    wall_times: list[float] = []
    for index, test in enumerate(tests):
        started = time.monotonic()
        try:
            proc = subprocess.Popen(
                run_command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                cwd=scratch,
                start_new_session=True,
            )
        except FileNotFoundError as exc:
            raise JudgeFailureError(f"run-limit wrapper not found: {_RUN_WRAPPER}") from exc
        try:
            stdout, stderr = proc.communicate(test.input, timeout=cfg.run_timeout_s)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            stdout, _ = proc.communicate()
            per_test.append(False)
            wall_times.append((time.monotonic() - started) * 1000.0)
            return JudgeVerdict(
                kind=VerdictKind.TIME_LIMIT,
                failed_test=index,
                detail=f"test {index} exceeded {cfg.run_timeout_s}s",
                per_test=tuple(per_test),
                wall_time_ms=tuple(wall_times),
            )
        wall_times.append((time.monotonic() - started) * 1000.0)
        if proc.returncode != 0:
            if stderr.startswith(b"prlimit: "):
                # the wrapper's own error text, or a program that writes it
                _probe_wrapper(cfg, scratch)
            per_test.append(False)
            return JudgeVerdict(
                kind=VerdictKind.RUNTIME_FAIL,
                failed_test=index,
                detail=(
                    f"exit status {proc.returncode}: "
                    + stderr.decode("utf-8", "backslashreplace")[:500]
                ),
                per_test=tuple(per_test),
                wall_time_ms=tuple(wall_times),
            )
        want = normalize_output(test.expected_output, cfg.output_normalization)
        got = normalize_output(stdout, cfg.output_normalization)
        if want != got:
            per_test.append(False)
            return JudgeVerdict(
                kind=VerdictKind.WRONG_ANSWER,
                failed_test=index,
                per_test=tuple(per_test),
                wall_time_ms=tuple(wall_times),
            )
        per_test.append(True)
    return JudgeVerdict(
        kind=VerdictKind.ALL_PASSED,
        per_test=tuple(per_test),
        wall_time_ms=tuple(wall_times),
    )


def _probe_wrapper(cfg: JudgeConfig, scratch: Path) -> None:
    """Raise ``JudgeFailureError`` unless the wrapper runs a copy of ``true``
    in ``scratch``, so a scratch the kernel will not exec from still fails."""
    true = shutil.which("true")
    if true is None:
        raise JudgeFailureError("cannot probe the run-limit wrapper: true not found")
    probe = scratch / "probe"
    shutil.copy(true, probe)
    ran = subprocess.run(_run_command(probe, cfg.memory_limit_mb), capture_output=True, cwd=scratch)
    if ran.returncode != 0:
        raise JudgeFailureError(ran.stderr.decode("utf-8", "backslashreplace")[:500])


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        proc.kill()
