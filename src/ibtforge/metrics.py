"""Evaluation metrics: corpus BLEU, exact match over canonical lines,
success rate at budget, cumulative success over iterations."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .corpus import LengthMismatch
from .lexer import canonicalize


class ConservationViolated(Exception):
    """Iteration counts are inconsistent with earlier passes."""


@dataclass(frozen=True)
class EvalReport:
    bleu: float | None = None
    exact_match_pct: float | None = None
    success_rate_at: dict[int, float] = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "bleu": self.bleu,
            "exact_match_pct": self.exact_match_pct,
            "success_rate_at": {str(k): v for k, v in sorted(self.success_rate_at.items())},
        }


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
    max_n: int = 4,
) -> float:
    """Corpus-level BLEU on [0, 100]: case-sensitive, 4-gram, uniform
    weights, add-one smoothing on the n>1 precisions.

    One reference per hypothesis; both sides are token lists.
    """
    if len(hypotheses) != len(references):
        raise LengthMismatch(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    if not hypotheses:
        raise ValueError("empty corpus")
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        if not ref:
            raise ValueError("empty reference")
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_counts = _ngrams(hyp, n)
            ref_counts = _ngrams(ref, n)
            matches[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
            totals[n - 1] += max(len(hyp) - n + 1, 0)
    if hyp_len == 0:
        return 0.0
    log_precision = 0.0
    for n in range(1, max_n + 1):
        m, t = matches[n - 1], totals[n - 1]
        if n > 1:
            m, t = m + 1, t + 1
        if m == 0 or t == 0:
            return 0.0
        log_precision += math.log(m / t) / max_n
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_precision)


def exact_match(hypotheses: Sequence[str], references: Sequence[str]) -> float:
    """Percentage of pairs whose canonical token renderings are identical;
    whitespace differences never count as mismatches."""
    if len(hypotheses) != len(references):
        raise LengthMismatch(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    if not hypotheses:
        raise ValueError("empty corpus")
    hits = sum(1 for h, r in zip(hypotheses, references) if canonicalize(h) == canonicalize(r))
    return 100.0 * hits / len(hypotheses)


def cumulative_success(reports: Sequence, initial_count: int) -> float:
    """Share of the original monolingual pool passed over all iterations,
    as a percentage. Validates the conservation chain
    tested[i+1] == tested[i] - passed[i]."""
    if not reports:
        raise ValueError("no iteration reports")
    if initial_count <= 0:
        raise ValueError("initial_count must be positive")
    if reports[0].tested_count != initial_count:
        raise ConservationViolated(
            f"first iteration tested {reports[0].tested_count}, expected {initial_count}"
        )
    for prev, cur in zip(reports, reports[1:]):
        expected = prev.tested_count - prev.passed_count
        if cur.tested_count != expected:
            raise ConservationViolated(
                f"iteration tested {cur.tested_count}, expected {expected}"
            )
    total_passed = sum(r.passed_count for r in reports)
    return 100.0 * total_passed / initial_count
