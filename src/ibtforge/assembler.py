"""Assemble per-line translation beams into a complete program under an
execution budget.

The search follows the repair loop used for line-level program synthesis:
judge the all-top-1 program, and while it fails to compile, advance the beam
index of the earliest line implicated by the compiler diagnostics and
re-judge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .corpus import TestCase
from .judge import SOURCE_NAME, JudgeFn, JudgeVerdict, VerdictKind
from .lexer import unpad_literals
from .translator import LineBeam

# Error diagnostics located in the judged source, main.src:line:column: or
# main.src:line:, as the judge names it; a location in a header names its own
# path and does not match
_DIAGNOSTIC_RE = re.compile(
    rf"^{re.escape(SOURCE_NAME)}:(\d+):(?:\d+:)?\s*(?:fatal\s+)?error\s*:", re.MULTILINE
)


@dataclass(frozen=True)
class AssemblyResult:
    success: bool
    program: str  # canonical lines joined by newlines
    verdict: JudgeVerdict
    executions_used: int
    chosen_indices: tuple[int, ...]


def error_lines(diagnostics: str, line_count: int) -> list[int]:
    """All 0-based program line indices implicated by error diagnostics in
    the judged source file, ascending. Errors located in any other file,
    such as a header, and line numbers past the program's end are dropped."""
    hits: set[int] = set()
    for m in _DIAGNOSTIC_RE.finditer(diagnostics):
        idx = int(m.group(1)) - 1
        if 0 <= idx < line_count:
            hits.add(idx)
    return sorted(hits)


def _canonical_program(beams: Sequence[LineBeam], choice: Sequence[int]) -> str:
    return "\n".join(beams[i].candidates[choice[i]].text for i in range(len(beams)))


def _compile_source(
    beams: Sequence[LineBeam], choice: Sequence[int], unpadded: dict[tuple[int, int], str]
) -> str:
    """The program for ``choice`` as the compiler sees it. Literals carry
    boundary padding in canonical form, so each chosen candidate is unpadded,
    once per ``assemble`` call: ``unpadded`` holds the texts by (line,
    candidate index)."""
    parts = []
    for line, index in enumerate(choice):
        text = unpadded.get((line, index))
        if text is None:
            text = unpadded[line, index] = unpad_literals(beams[line].candidates[index].text)
        parts.append(text)
    return "\n".join(parts)


def assemble(
    beams: Sequence[LineBeam],
    tests: Sequence[TestCase],
    budget: int,
    judge: JudgeFn,
) -> AssemblyResult:
    """Search the beam combinations for a program passing all tests within
    ``budget`` compile-and-run attempts.

    One execution is one judge call (a compile plus, if it succeeds, runs
    over all test cases). Test failures end the search, because only
    compiler diagnostics name a line to repair.
    """
    if not beams:
        raise ValueError("assemble needs at least one line beam")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not tests:
        raise ValueError("assemble needs at least one test case")
    choice = [0] * len(beams)
    unpadded: dict[tuple[int, int], str] = {}
    verdict = judge(_compile_source(beams, choice, unpadded), tests)
    executions = 1
    while executions < budget:
        if verdict.kind is not VerdictKind.COMPILE_ERROR:
            # passed, or failed tests with no per-line repair signal
            break
        advanced = False
        for line in error_lines(verdict.diagnostics, len(beams)):
            if choice[line] + 1 < len(beams[line].candidates):
                choice[line] += 1
                advanced = True
                break
        if not advanced:
            break
        verdict = judge(_compile_source(beams, choice, unpadded), tests)
        executions += 1
    return AssemblyResult(
        success=verdict.kind is VerdictKind.ALL_PASSED,
        program=_canonical_program(beams, choice),
        verdict=verdict,
        executions_used=executions,
        chosen_indices=tuple(choice),
    )
