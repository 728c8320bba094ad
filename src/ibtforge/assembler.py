"""Assemble per-line translation beams into a complete program under an
execution budget.

The default strategy follows the repair loop used for line-level program
synthesis: judge the all-top-1 program, and while it fails to compile,
advance the beam index of the earliest line implicated by the compiler
diagnostics and re-judge. A score-ordered best-first search over index
combinations is available behind a flag.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from typing import Sequence

from .corpus import TestCase
from .judge import JudgeFn, JudgeVerdict, VerdictKind
from .lexer import unpad_literals
from .translator import LineBeam

GREEDY_REPAIR = "greedy-repair"
BEST_FIRST = "best-first"

# Recognized compiler diagnostic shapes: file:line:column: and file:line:
_DIAGNOSTIC_PATTERNS = (
    re.compile(r"^[^:\n]+:(\d+):\d+:\s*(?:fatal\s+)?error\s*:", re.MULTILINE),
    re.compile(r"^[^:\n]+:(\d+):\s*(?:fatal\s+)?error\s*:", re.MULTILINE),
)


@dataclass(frozen=True)
class AssemblyResult:
    success: bool
    program: str  # canonical lines joined by newlines
    verdict: JudgeVerdict
    executions_used: int
    chosen_indices: tuple[int, ...]


def error_lines(diagnostics: str, line_count: int) -> list[int]:
    """All 0-based program line indices implicated by error diagnostics,
    ascending; references outside the program (e.g. inside headers) are
    dropped."""
    hits: set[int] = set()
    for pattern in _DIAGNOSTIC_PATTERNS:
        for m in pattern.finditer(diagnostics):
            idx = int(m.group(1)) - 1
            if 0 <= idx < line_count:
                hits.add(idx)
    return sorted(hits)


def first_error_line(diagnostics: str, line_count: int) -> int | None:
    """Smallest implicated line index, or None when the diagnostics carry no
    usable line reference (the caller then stops repairing)."""
    lines = error_lines(diagnostics, line_count)
    return lines[0] if lines else None


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
    strategy: str = GREEDY_REPAIR,
) -> AssemblyResult:
    """Search the beam combinations for a program passing all tests within
    ``budget`` compile-and-run attempts.

    One execution is one judge call (a compile plus, if it succeeds, runs
    over all test cases). Test failures terminate the default greedy search
    because only compiler diagnostics name a line to repair; the best-first
    strategy keeps exploring by summed candidate score instead.
    """
    if not beams:
        raise ValueError("assemble needs at least one line beam")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not tests:
        raise ValueError("assemble needs at least one test case")
    if strategy == GREEDY_REPAIR:
        return _assemble_greedy(beams, tests, budget, judge)
    if strategy == BEST_FIRST:
        return _assemble_best_first(beams, tests, budget, judge)
    raise ValueError(f"unknown assembly strategy {strategy!r}")


def _result(
    beams: Sequence[LineBeam], choice: Sequence[int], verdict: JudgeVerdict, executions: int
) -> AssemblyResult:
    return AssemblyResult(
        success=verdict.kind is VerdictKind.ALL_PASSED,
        program=_canonical_program(beams, choice),
        verdict=verdict,
        executions_used=executions,
        chosen_indices=tuple(choice),
    )


def _assemble_greedy(
    beams: Sequence[LineBeam],
    tests: Sequence[TestCase],
    budget: int,
    judge: JudgeFn,
) -> AssemblyResult:
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
    return _result(beams, choice, verdict, executions)


def _assemble_best_first(
    beams: Sequence[LineBeam],
    tests: Sequence[TestCase],
    budget: int,
    judge: JudgeFn,
) -> AssemblyResult:
    def total_score(choice: tuple[int, ...]) -> float:
        return sum(beams[i].candidates[c].score for i, c in enumerate(choice))

    start = tuple([0] * len(beams))
    frontier = [(-total_score(start), start)]
    seen = {start}
    unpadded: dict[tuple[int, int], str] = {}
    executions = 0
    while frontier and executions < budget:
        _, choice = heapq.heappop(frontier)
        verdict = judge(_compile_source(beams, choice, unpadded), tests)
        executions += 1
        if verdict.kind is VerdictKind.ALL_PASSED:
            break
        for i in range(len(beams)):
            if choice[i] + 1 < len(beams[i].candidates):
                neighbor = choice[:i] + (choice[i] + 1,) + choice[i + 1 :]
                if neighbor not in seen:
                    seen.add(neighbor)
                    heapq.heappush(frontier, (-total_score(neighbor), neighbor))
    return _result(beams, choice, verdict, executions)
