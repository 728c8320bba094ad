from __future__ import annotations

import logging
import re

import pytest
from hypothesis import given, settings, strategies as st

from ibtforge.lexer import (
    KEYWORDS,
    Token,
    TokenizedLine,
    TokenKind,
    _pad_interior,
    _scan_literal,
    canonicalize,
    strip_comments,
    tokenize_line,
    unpad_literals,
)


class TestGoldenLines:
    def test_spacing_invariant_pair(self):
        expected = "else if ( ans == int ( ans ) )"
        assert canonicalize("else if(  ans== int( ans))") == expected
        assert canonicalize("else if (ans == int(ans))") == expected

    def test_empty_line(self):
        tokenized = tokenize_line("")
        assert tokenized.tokens == ()
        assert tokenized.canonical == ""

    def test_already_canonical_printf_is_fixed_point(self):
        line = 'printf ( " %d %d %d\\n " , a , c , b ) ;'
        assert canonicalize(line) == line

    def test_simple_assignment(self):
        assert canonicalize("x=1;") == "x = 1 ;"

    def test_whitespace_collapse(self):
        assert canonicalize("a  ==  b") == "a == b"

    def test_literal_interior_spacing_preserved(self):
        assert canonicalize('s = "a  b";') == 's = " a  b " ;'
        tokens = tokenize_line('s = "a  b";').tokens
        assert [t.kind for t in tokens] == [
            TokenKind.IDENTIFIER,
            TokenKind.PUNCTUATOR,
            TokenKind.STRING,
            TokenKind.PUNCTUATOR,
        ]


class TestOperators:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("a>>=b", "a >>= b"),
            ("a<<=b", "a <<= b"),
            ("a>>b", "a >> b"),
            ("i++;", "i ++ ;"),
            ("a->b", "a -> b"),
            ("std::cout", "std :: cout"),
            ("a&&b||c", "a && b || c"),
            ("f(a,...)", "f ( a , ... )"),
            ("x%=3", "x %= 3"),
            ("vector<vector<int>> v", "vector < vector < int >> v"),
        ],
    )
    def test_longest_match(self, raw, expected):
        assert canonicalize(raw) == expected

    def test_shift_assign_never_splits(self):
        tokens = [t.text for t in tokenize_line("x>>=1").tokens]
        assert tokens == ["x", ">>=", "1"]


class TestNumbersAndLiterals:
    @pytest.mark.parametrize(
        "raw,token",
        [
            ("0x1F", "0x1F"),
            ("10ULL", "10ULL"),
            ("1.5e-3f", "1.5e-3f"),
            (".5", ".5"),
            ("1e9", "1e9"),
        ],
    )
    def test_numeric_literals_single_token(self, raw, token):
        tokens = tokenize_line(raw).tokens
        assert len(tokens) == 1
        assert tokens[0].text == token
        assert tokens[0].kind is TokenKind.NUMBER

    def test_char_literal_padded(self):
        assert canonicalize("putchar('\\n');") == "putchar ( ' \\n ' ) ;"

    def test_string_escapes_respected(self):
        tokens = tokenize_line('printf("a\\"b");').tokens
        assert tokens[2].text == '" a\\"b "'
        assert tokens[2].kind is TokenKind.STRING

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("x = \u00b2", [("x", "identifier"), ("=", "punctuator"), ("\u00b2", "punctuator")]),
            ("y = .\u0663", [("y", "identifier"), ("=", "punctuator"), (".", "punctuator"), ("\u0663", "punctuator")]),
            ("\u0661\u0662 1", [("\u0661", "punctuator"), ("\u0662", "punctuator"), ("1", "number-literal")]),
        ],
    )
    def test_non_ascii_digit_is_a_punctuator(self, raw, expected):
        # str.isdigit() accepts these, but no C number starts with one
        assert [(t.text, t.kind.value) for t in tokenize_line(raw).tokens] == expected

    def test_unterminated_literal_logs_a_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="ibtforge.lexer"):
            tokenize_line("c = 'x")
        assert "unterminated literal at column 5" in caplog.text

    def test_unterminated_literal_reported_not_fatal(self):
        tokenized = tokenize_line('x = "abc')
        assert tokenized.diagnostics
        assert tokenized.tokens[-1].text == '"abc'
        assert tokenized.tokens[-1].kind is TokenKind.STRING
        # fallback result still round-trips
        assert canonicalize(tokenized.canonical) == tokenized.canonical


class TestPreprocessorLines:
    def test_include_header_stays_compilable(self):
        assert canonicalize("#include <stdio.h>") == "#include <stdio.h>"
        assert canonicalize("#include < stdio . h >") == "#include <stdio.h>"

    def test_include_quoted_form(self):
        tokens = tokenize_line('#include "mylib.h"').tokens
        assert [t.text for t in tokens] == ["#include", '"mylib.h"']

    def test_define_line(self):
        assert canonicalize("#define MAX 100") == "#define MAX 100"

    def test_hash_kind(self):
        tokens = tokenize_line("#include <vector>").tokens
        assert tokens[0].kind is TokenKind.PREPROCESSOR
        assert tokens[1].kind is TokenKind.PREPROCESSOR


class TestComments:
    def test_line_comment_stripped(self):
        assert canonicalize("x = 1; // set x") == "x = 1 ;"

    def test_block_comment_within_line(self):
        assert canonicalize("x = /* init */ 1;") == "x = 1 ;"

    def test_strip_comments_multiline(self):
        text = "int a; /* spans\nlines */ int b; // tail\nint c;\n"
        stripped = strip_comments(text)
        assert "spans" not in stripped and "tail" not in stripped
        assert "int b" in stripped and "int c" in stripped

    def test_strip_comments_literal_aware(self):
        text = 's = "no // comment";\n'
        assert strip_comments(text) == text


class TestUnpad:
    def test_unpad_inverts_padding(self):
        raw = 'printf ( "%d" , a ) ;'
        assert unpad_literals(canonicalize(raw)) == raw

    def test_unpad_char_literal(self):
        assert unpad_literals("putchar ( ' \\n ' ) ;") == "putchar ( '\\n' ) ;"

    def test_unpad_no_op_without_padding(self):
        assert unpad_literals("x = 1 ;") == "x = 1 ;"


_token_strategy = st.sampled_from(
    ["x", "if", "else", "int", "ans", "1", "0x2F", "==", "<<=", "(", ")", ";", ",", "++", "endl"]
)


class TestProperties:
    @given(st.lists(_token_strategy, max_size=12), st.randoms())
    def test_whitespace_invariance_and_idempotence(self, tokens, rng):
        spaced = ""
        for tok in tokens:
            spaced += tok + rng.choice([" ", "  ", "\t", " \t "])
        reference = canonicalize(" ".join(tokens))
        assert canonicalize(spaced) == reference
        assert canonicalize(reference) == reference

    @given(st.lists(_token_strategy, min_size=1, max_size=12))
    def test_no_token_loss(self, tokens):
        raw = " ".join(tokens)
        joined = "".join(t.text for t in tokenize_line(raw).tokens)
        assert joined == raw.replace(" ", "").replace("\t", "")

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40))
    def test_canonicalize_idempotent_on_arbitrary_ascii(self, raw):
        once = canonicalize(raw)
        assert canonicalize(once) == once


# ---------------------------------------------------------------------------
# The one-regex lexer against the character-probing lexer it replaced


_REF_OPS3 = ("<<=", ">>=", "...", "->*")
_REF_OPS2 = (
    "==", "<<", ">>", "<=", ">=", "!=", "&&", "||", "::", "->",
    "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "##",
)
_REF_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REF_NUMBER_RE = re.compile(
    r"""
    (?: 0[xX][0-9a-fA-F]+(?:\.[0-9a-fA-F]*)?(?:[pP][+-]?[0-9]+)?
      | (?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?
    )
    [uUlLfF]*
    """,
    re.VERBOSE,
)
_REF_WS = " \t\f\v"


def reference_tokenize_line(raw):
    """``tokenize_line`` as a per-character branch chain that probes the
    operator tables with ``startswith``: the reference for ASCII digits (it
    asserts on a non-ASCII one)."""
    tokens = []
    diagnostics = []
    i = 0
    n = len(raw)
    expect_header = False
    while i < n:
        c = raw[i]
        if c in _REF_WS:
            i += 1
            continue
        if c == "/" and raw.startswith("//", i):
            break
        if c == "/" and raw.startswith("/*", i):
            end = raw.find("*/", i + 2)
            if end == -1:
                break
            i = end + 2
            continue
        if expect_header and c == "<":
            close = raw.find(">", i + 1)
            if close != -1:
                name = "".join(raw[i + 1 : close].split())
                tokens.append(Token("<" + name + ">", TokenKind.PREPROCESSOR))
                i = close + 1
                expect_header = False
                continue
        if c == '"' or c == "'":
            interior, i, closed = _scan_literal(raw, i)
            kind = TokenKind.STRING if c == '"' else TokenKind.CHAR
            if not closed:
                diagnostics.append(f"unterminated literal at column {i - len(interior)}")
                tokens.append(Token(c + interior, kind))
            elif expect_header and c == '"':
                tokens.append(Token(c + interior + c, kind))
            else:
                tokens.append(Token(c + _pad_interior(interior) + c, kind))
            expect_header = False
            continue
        expect_header = False
        if c == "#" and not tokens:
            j = i + 1
            while j < n and raw[j] in _REF_WS:
                j += 1
            m = _REF_IDENT_RE.match(raw, j)
            directive = m.group(0) if m else ""
            tokens.append(Token("#" + directive, TokenKind.PREPROCESSOR))
            i = m.end() if m else j
            if directive in ("include", "include_next"):
                expect_header = True
            continue
        if c.isdigit() or (c == "." and i + 1 < n and raw[i + 1].isdigit()):
            m = _REF_NUMBER_RE.match(raw, i)
            assert m is not None
            tokens.append(Token(m.group(0), TokenKind.NUMBER))
            i = m.end()
            continue
        m = _REF_IDENT_RE.match(raw, i)
        if m:
            text = m.group(0)
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
            tokens.append(Token(text, kind))
            i = m.end()
            continue
        op = next((o for o in _REF_OPS3 if raw.startswith(o, i)), None)
        if op is None:
            op = next((o for o in _REF_OPS2 if raw.startswith(o, i)), None)
        if op is None:
            op = c
        tokens.append(Token(op, TokenKind.PUNCTUATOR))
        i += len(op)
    return TokenizedLine(
        tokens=tuple(tokens),
        canonical=" ".join(t.text for t in tokens),
        diagnostics=tuple(diagnostics),
    )


# Fragments that steer the lexers into every branch and state: directives at
# line start and later, header names with and without a closing '>', comments
# with no closing '*/', escapes and a trailing backslash, number edges, every
# multi-character operator, and characters that are neither blank nor ASCII.
_FRAGMENTS = [
    "#", "##", "#include", "# include", "#include_next", "#define", "include",
    "<a b>", "<stdio.h>", '"h.h"', "<", ">", "a b",
    "//", "/*", "*/", "/", "*", "/* c */",
    '"', "'", "\\", '\\"', "\\'", '"a\\"b"', "'\\n'", '" x "',
    ".5", ".", "..", "...", "0x1.8p3", "0x1Fp-2f", "0x", "0X1F", "1e9", "1.5e-3f", "10ULL", "1.",
    "x", "_y1", "int", "endl", "1", "42",
    " ", "  ", "\t", "\f", "\v", "\r", "\n", "\u00a0", "\u3000", "é", "中", "@", "$", "`", "\x00",
    "<<=", "->*", "->", ">>=", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "::",
    "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "=", "+", "-", "&", "|", ":", "%", "^", "!", "~", "?", "(", ")", ";", ",", "{", "}", "[", "]",
]

_lines = st.builds(
    lambda lead, parts, trail: lead + "".join(parts) + trail,
    st.sampled_from(["", " ", "\t "]),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=14),
    st.sampled_from(["", " ", "  \t", "\r", "\\"]),
)


class TestAgainstReference:
    @settings(max_examples=1500, deadline=None)
    @given(_lines)
    def test_fragment_lines_lex_as_the_reference(self, raw):
        assert tokenize_line(raw) == reference_tokenize_line(raw)

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="#<>\"'/\\*. \t\r\n0123456789xXeEpPaAfFuUlL_+-=!&|:%^~(),;", max_size=30))
    def test_dense_punctuation_lexes_as_the_reference(self, raw):
        assert tokenize_line(raw) == reference_tokenize_line(raw)

    @pytest.mark.parametrize(
        "raw",
        [
            "##x",
            "  ## define",
            "#include <a b>",
            "#include < a b",
            '#include /* c */ "h.h" x',
            "#include // <x>",
            "x /* open",
            's = "a\\"b',
            "c = '\\\\' ;\\",
            "x = 1 ;   \t",
            "y = .5 + 0x1.8p3 ;\r",
            "a <<= b ->* c ... d",
        ],
    )
    def test_edge_lines(self, raw):
        assert tokenize_line(raw) == reference_tokenize_line(raw)
