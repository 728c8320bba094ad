"""Iterative back-translation pipeline for line-level code/pseudocode
translation, with execution-based filtering of generated pairs."""

from .assembler import AssemblyResult, assemble, first_error_line
from .corpus import (
    MonoSample,
    ParallelSample,
    TestCase,
    ingest_mono,
    ingest_parallel,
    load_mono,
    load_parallel,
    move_to_parallel,
    save_mono,
    save_parallel,
)
from .ibt import IbtConfig, IterationReport, run_ibt, select_top_workers
from .judge import JudgeConfig, JudgeVerdict, VerdictKind, judge_program
from .lexer import canonicalize, tokenize_line
from .metrics import corpus_bleu, cumulative_success, exact_match
from .preprocess import Prefix, apply_prefix, rewrite_endl, strip_prefix
from .translator import (
    Candidate,
    LineBeam,
    RemoteBackend,
    TemplateBackend,
    TranslationRequest,
    expand_workers,
)

__version__ = "0.1.0"

__all__ = [
    "AssemblyResult",
    "Candidate",
    "IbtConfig",
    "IterationReport",
    "JudgeConfig",
    "JudgeVerdict",
    "LineBeam",
    "MonoSample",
    "ParallelSample",
    "Prefix",
    "RemoteBackend",
    "TemplateBackend",
    "TestCase",
    "TranslationRequest",
    "VerdictKind",
    "apply_prefix",
    "assemble",
    "canonicalize",
    "corpus_bleu",
    "cumulative_success",
    "exact_match",
    "expand_workers",
    "first_error_line",
    "ingest_mono",
    "ingest_parallel",
    "judge_program",
    "load_mono",
    "load_parallel",
    "move_to_parallel",
    "rewrite_endl",
    "run_ibt",
    "save_mono",
    "save_parallel",
    "select_top_workers",
    "strip_prefix",
    "tokenize_line",
]
