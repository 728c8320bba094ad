from __future__ import annotations

import importlib.util
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from ibtforge.corpus import MonoSample, ParallelSample, TestCase
from ibtforge.judge import JudgeConfig
from ibtforge.lexer import canonicalize


def _parallel(sample_id, worker, pairs, language="cpp"):
    code, pseudo = zip(*pairs)
    return ParallelSample(
        id=sample_id,
        language=language,
        worker=worker,
        code_lines=[canonicalize(c) for c in code],
        pseudo_lines=list(pseudo),
        problem=sample_id.split(":")[0],
    )


def build_seed_parallel() -> list[ParallelSample]:
    """Seed corpus in the high-resource language, annotated by two workers.

    Both workers annotated the printf-with-newline shape *and*, later in the
    corpus, a cout line with the very same pseudocode, so the backward table
    maps that pseudocode to cout (invalid in plain C). That is the trap that
    makes the hard program fail at iteration 0.
    """
    shared = [
        ("int main ( ) {", "main begins"),
        ("int x ;", "declare int x"),
        ("x = 1 ;", "set x to 1"),
        ("return 0 ;", "return 0"),
        ("}", "end"),
    ]
    shared_w2 = [
        ("int main ( ) {", "start main"),
        ("int x ;", "make int x"),
        ("x = 1 ;", "assign 1 to x"),
        ("return 0 ;", "give back 0"),
        ("}", "finish"),
    ]
    return [
        _parallel("p1:1:1", 1, shared),
        _parallel("p1:2:1", 1, [('printf ( "%d\\n" , x ) ;', "print x")]),
        _parallel("p1:3:1", 1, [("cout << x ;", "print x")]),
        _parallel("p1:4:1", 1, [("cout << x << endl ;", "print x")]),
        _parallel("p2:1:2", 2, shared_w2),
        _parallel("p2:2:2", 2, [('printf ( "%d\\n" , x ) ;', "output x")]),
        _parallel("p2:3:2", 2, [("cout << x ;", "output x")]),
    ]


def build_mono_corpus() -> list[MonoSample]:
    """Two C programs: an easy one whose lines all round-trip to valid C at
    iteration 0, and a hard one containing the trapped printf shape."""
    easy_lines = [
        "#include <stdio.h>",
        "int main ( ) {",
        "int a ;",
        "a = 48 ;",
        "putchar ( a ) ;",
        "return 0 ;",
        "}",
    ]
    hard_lines = [
        "#include <stdio.h>",
        "int main ( ) {",
        "int b ;",
        "b = 49 ;",
        'printf ( "%d" , b ) ;',
        'printf ( "%d\\n" , b ) ;',
        "return 0 ;",
        "}",
    ]
    return [
        MonoSample(
            id="cY1:main",
            code_lines=[canonicalize(line) for line in easy_lines],
            tests=[TestCase(input=b"", expected_output=b"0")],
            problem="cY1",
        ),
        MonoSample(
            id="cY2:main",
            code_lines=[canonicalize(line) for line in hard_lines],
            tests=[TestCase(input=b"", expected_output=b"4949\n")],
            problem="cY2",
        ),
    ]


@pytest.fixture
def seed_parallel():
    return build_seed_parallel()


@pytest.fixture
def mono_corpus():
    return build_mono_corpus()


@contextmanager
def perfbench_gen():
    """The benchmark's ``perfbench/gen.py``, loaded as ``perfbench_gen``. It
    is in ``sys.modules`` (its dataclasses look their module up) only inside
    the block."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen
    try:
        spec.loader.exec_module(gen)
        yield gen
    finally:
        del sys.modules[spec.name]


requires_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc not installed")
requires_gxx = pytest.mark.skipif(shutil.which("g++") is None, reason="g++ not installed")


@pytest.fixture
def judge_cfg(tmp_path):
    return JudgeConfig(language="c", run_timeout_s=5.0, work_dir=str(tmp_path / "scratch"))
