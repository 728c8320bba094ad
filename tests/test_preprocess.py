from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import ibtforge.preprocess as preprocess_module
from ibtforge.corpus import ParallelSample
from ibtforge.preprocess import (
    Prefix,
    apply_prefix,
    count_newline_keywords,
    preprocess_pair,
    preprocess_sample,
    rewrite_endl,
    strip_prefix,
)


class TestRewriteEndl:
    def test_paper_example_with_number_normalization(self):
        assert preprocess_pair("cout << - 1 << endl ;", "print -1") == "print - 1 print new line"

    def test_no_endl_keeps_pseudo(self):
        assert rewrite_endl("x = 1 ;", "set x to 1") == "set x to 1"

    def test_two_endls_append_twice(self):
        out = rewrite_endl("cout << a << endl << b << endl ;", "print a and b")
        assert out == "print a and b print new line print new line"

    def test_endl_inside_literal_ignored(self):
        assert count_newline_keywords('cout << " endl " ;') == 0
        assert rewrite_endl('cout << " endl " ;', "print endl text") == "print endl text"

    @pytest.mark.parametrize("code", ["x = 1 ;", "c = 'x", 'cout << "end l" ;', "endL ;", ""])
    def test_a_line_without_endl_is_not_lexed(self, code, monkeypatch):
        def refuse(line):
            raise AssertionError(f"lexed {line!r}")

        monkeypatch.setattr(preprocess_module, "tokenize_line", refuse)
        assert count_newline_keywords(code) == 0
        assert rewrite_endl(code, "print x") == "print x"

    def test_token_count_identity(self):
        code = "cout << a << endl << b << endl ;"
        pseudo = "print a and b"
        out = rewrite_endl(code, pseudo)
        assert len(out.split()) == len(pseudo.split()) + 3 * count_newline_keywords(code)

    def test_second_application_appends_again(self):
        once = rewrite_endl("cout << endl ;", "print")
        twice = rewrite_endl("cout << endl ;", once)
        assert twice == once + " print new line"

    def test_sample_flag_prevents_double_application(self):
        sample = ParallelSample(
            id="s:1:1",
            language="cpp",
            worker=1,
            code_lines=["cout << endl ;"],
            pseudo_lines=["print"],
        )
        processed = preprocess_sample(sample)
        assert processed.preprocessed
        assert processed.pseudo_lines == ["print print new line"]
        assert preprocess_sample(processed).pseudo_lines == ["print print new line"]


class TestPrefixes:
    def test_worker_prefix(self):
        assert apply_prefix(Prefix(worker=7), "cout << x ;") == "<w:7> cout << x ;"

    def test_empty_prefix_identity(self):
        assert apply_prefix(Prefix(), "print x") == "print x"

    def test_language_then_worker_order(self):
        line = 'printf ( " %d " , x ) ;'
        assert apply_prefix(Prefix(worker=3, language="c"), line) == f"<pl:c> <w:3> {line}"

    @pytest.mark.parametrize(
        "prefix",
        [Prefix(), Prefix(worker=7), Prefix(language="cpp"), Prefix(worker=3, language="c")],
    )
    def test_round_trip(self, prefix):
        line = "cout << x ;"
        assert strip_prefix(apply_prefix(prefix, line)) == (prefix, line)

    def test_malformed_worker_tag_not_recognized(self):
        assert strip_prefix("<w:notanumber> x") == (Prefix(), "<w:notanumber> x")

    def test_plain_line_untouched(self):
        assert strip_prefix("print x") == (Prefix(), "print x")

    def test_bad_language_rejected(self):
        with pytest.raises(ValueError):
            Prefix(language="java")

    def test_empty_line_rejected(self):
        with pytest.raises(ValueError):
            apply_prefix(Prefix(worker=1), "")

    @given(
        st.one_of(st.none(), st.integers(min_value=0, max_value=99)),
        st.one_of(st.none(), st.sampled_from(["cpp", "c"])),
        st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=20
        ),
    )
    def test_round_trip_property(self, worker, language, line):
        prefix = Prefix(worker=worker, language=language)
        recovered, rest = strip_prefix(apply_prefix(prefix, line))
        assert (recovered, rest) == (prefix, line)
