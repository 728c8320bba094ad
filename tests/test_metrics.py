from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from ibtforge.corpus import LengthMismatch
from ibtforge.ibt import IterationReport
from ibtforge.metrics import (
    ConservationViolated,
    corpus_bleu,
    cumulative_success,
    exact_match,
)

# Fixed two-sentence fixture; the golden value was produced by the
# independent oracle below before the library implementation existed.
FIXTURE_HYPS = [["the", "cat", "sat", "on", "the", "mat"], ["print", "x", "now"]]
FIXTURE_REFS = [["the", "cat", "is", "on", "the", "mat"], ["print", "x"]]
FIXTURE_GOLDEN = 44.863027257960795


def oracle_bleu(hyps, refs):
    """Clean-room corpus BLEU-4 (uniform weights, add-one smoothing on n>1),
    structured around explicit per-sentence dict counting."""
    num = {n: 0 for n in (1, 2, 3, 4)}
    den = {n: 0 for n in (1, 2, 3, 4)}
    hyp_total = 0
    ref_total = 0
    for hyp, ref in zip(hyps, refs):
        hyp_total += len(hyp)
        ref_total += len(ref)
        for n in (1, 2, 3, 4):
            hyp_grams = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
            ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
            ref_count: dict = {}
            for gram in ref_grams:
                ref_count[gram] = ref_count.get(gram, 0) + 1
            hyp_count: dict = {}
            for gram in hyp_grams:
                hyp_count[gram] = hyp_count.get(gram, 0) + 1
            num[n] += sum(min(k, ref_count.get(g, 0)) for g, k in hyp_count.items())
            den[n] += len(hyp_grams)
    log_sum = 0.0
    for n in (1, 2, 3, 4):
        m = num[n] + (1 if n > 1 else 0)
        t = den[n] + (1 if n > 1 else 0)
        if m == 0 or t == 0:
            return 0.0
        log_sum += math.log(m / t) / 4
    brevity = 1.0 if hyp_total >= ref_total else math.exp(1 - ref_total / hyp_total)
    return 100 * brevity * math.exp(log_sum)


class TestCorpusBleu:
    def test_identical_corpus_scores_100(self):
        assert corpus_bleu(FIXTURE_REFS, FIXTURE_REFS) == pytest.approx(100.0)

    def test_disjoint_corpus_scores_near_zero(self):
        hyps = [["alpha", "beta", "gamma", "delta"]]
        refs = [["one", "two", "three", "four"]]
        assert corpus_bleu(hyps, refs) < 1.0

    def test_golden_fixture_matches_independent_oracle(self):
        got = corpus_bleu(FIXTURE_HYPS, FIXTURE_REFS)
        assert got == pytest.approx(oracle_bleu(FIXTURE_HYPS, FIXTURE_REFS), abs=0.01)
        assert got == pytest.approx(FIXTURE_GOLDEN, abs=0.01)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            corpus_bleu([["a"]], [])

    def test_brevity_penalty_applies(self):
        short = corpus_bleu([["the", "cat"]], [["the", "cat", "sat", "on", "mat"]])
        full = corpus_bleu(
            [["the", "cat", "sat", "on", "mat"]], [["the", "cat", "sat", "on", "mat"]]
        )
        assert short < full

    @given(
        st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=8),
            min_size=1,
            max_size=5,
        )
    )
    def test_matches_oracle_on_random_corpora(self, refs):
        hyps = [list(reversed(r)) for r in refs]
        assert corpus_bleu(hyps, refs) == pytest.approx(oracle_bleu(hyps, refs), abs=1e-9)

    @given(
        st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=6),
            min_size=1,
            max_size=4,
        ),
        st.permutations(["a", "b", "c", "d"]),
    )
    def test_invariant_under_token_relabeling(self, refs, perm):
        relabel = dict(zip(["a", "b", "c", "d"], perm))
        hyps = [r[::-1] for r in refs]
        mapped_h = [[relabel[t] for t in h] for h in hyps]
        mapped_r = [[relabel[t] for t in r] for r in refs]
        assert corpus_bleu(hyps, refs) == pytest.approx(corpus_bleu(mapped_h, mapped_r))


class TestExactMatch:
    def test_identical(self):
        assert exact_match(["x = 1 ;"], ["x = 1 ;"]) == 100.0

    def test_disjoint(self):
        assert exact_match(["x = 1 ;"], ["y = 2 ;"]) == 0.0

    def test_one_of_four(self):
        hyps = ["a ;", "b ;", "c ;", "d ;"]
        refs = ["a ;", "x ;", "y ;", "z ;"]
        assert exact_match(hyps, refs) == 25.0

    def test_whitespace_never_counts(self):
        assert exact_match(["x=1;"], ["x = 1 ;"]) == 100.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            exact_match(["a"], ["a", "b"])


def _report(iteration, tested, passed):
    return IterationReport(
        iteration=iteration,
        tested_count=tested,
        passed_count=passed,
        success_rate_pct=100.0 * passed / tested,
        cumulative_success_rate_pct=0.0,
        augmented_pairs_count=passed,
    )


class TestCumulativeSuccess:
    def test_reported_two_iteration_replay(self):
        reports = [_report(0, 25666, 15615), _report(1, 10051, 5972)]
        value = cumulative_success(reports, 25666)
        assert 84.10 <= value <= 84.12
        assert value == pytest.approx(84.11, abs=0.02)

    def test_single_iteration_equals_its_rate(self):
        reports = [_report(0, 200, 50)]
        assert cumulative_success(reports, 200) == pytest.approx(25.0)

    def test_zero_passes(self):
        reports = [_report(0, 10, 0), _report(1, 10, 0)]
        assert cumulative_success(reports, 10) == 0.0

    def test_conservation_violation_detected(self):
        reports = [_report(0, 100, 40), _report(1, 70, 10)]
        with pytest.raises(ConservationViolated):
            cumulative_success(reports, 100)

    def test_initial_count_mismatch_detected(self):
        with pytest.raises(ConservationViolated):
            cumulative_success([_report(0, 90, 40)], 100)

    def test_monotone_nondecreasing(self):
        reports = [_report(0, 100, 30), _report(1, 70, 0), _report(2, 70, 21)]
        values = [
            cumulative_success(reports[: i + 1], 100) for i in range(len(reports))
        ]
        assert values == sorted(values)
