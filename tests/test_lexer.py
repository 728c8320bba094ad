from __future__ import annotations

import logging
import re
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from ibtforge import lexer
from ibtforge.lexer import (
    CACHED_CHUNK_LEN,
    CHUNK_CACHE_SIZE,
    KEYWORDS,
    TokenKind,
    _CHUNKS,
    _pad_interior,
    _scan_literal,
    _scan_tokens,
    canonicalize,
    strip_comments,
    tokenize_line,
    unpad_literals,
)
from ibtforge.preprocess import Prefix, apply_prefix, count_newline_keywords, strip_prefix
from ibtforge.translator import _lex


class TestGoldenLines:
    def test_spacing_invariant_pair(self):
        expected = "else if ( ans == int ( ans ) )"
        assert canonicalize("else if(  ans== int( ans))") == expected
        assert canonicalize("else if (ans == int(ans))") == expected

    def test_empty_line(self):
        assert tokenize_line("") == ([], [])
        assert canonicalize("") == ""

    def test_already_canonical_printf_is_fixed_point(self):
        line = 'printf ( " %d %d %d\\n " , a , c , b ) ;'
        assert canonicalize(line) == line

    def test_simple_assignment(self):
        assert canonicalize("x=1;") == "x = 1 ;"

    def test_whitespace_collapse(self):
        assert canonicalize("a  ==  b") == "a == b"

    def test_literal_interior_spacing_preserved(self):
        assert canonicalize('s = "a  b";') == 's = " a  b " ;'
        tokens = tokenize_line('s = "a  b";')[0]
        assert [kind for _, kind in tokens] == [
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
        tokens = [text for text, _ in tokenize_line("x>>=1")[0]]
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
        assert tokenize_line(raw) == ([(token, TokenKind.NUMBER)], [])

    def test_char_literal_padded(self):
        assert canonicalize("putchar('\\n');") == "putchar ( ' \\n ' ) ;"

    def test_string_escapes_respected(self):
        tokens = tokenize_line('printf("a\\"b");')[0]
        assert tokens[2] == ('" a\\"b "', TokenKind.STRING)

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
        assert [(text, kind.value) for text, kind in tokenize_line(raw)[0]] == expected

    def test_unterminated_literal_logs_a_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="ibtforge.lexer"):
            tokenize_line("c = 'x")
        assert "unterminated literal at column 5" in caplog.text

    def test_unterminated_literal_reported_not_fatal(self):
        tokens, diagnostics = tokenize_line('x = "abc')
        assert diagnostics
        assert tokens[-1] == ('"abc', TokenKind.STRING)
        # fallback result still round-trips
        canonical = canonicalize('x = "abc')
        assert canonical == " ".join(text for text, _ in tokens)
        assert canonicalize(canonical) == canonical


class TestPreprocessorLines:
    def test_include_header_stays_compilable(self):
        assert canonicalize("#include <stdio.h>") == "#include <stdio.h>"
        assert canonicalize("#include < stdio . h >") == "#include <stdio.h>"

    def test_include_quoted_form(self):
        tokens = tokenize_line('#include "mylib.h"')[0]
        assert [text for text, _ in tokens] == ["#include", '"mylib.h"']

    def test_define_line(self):
        assert canonicalize("#define MAX 100") == "#define MAX 100"

    def test_hash_kind(self):
        tokens = tokenize_line("#include <vector>")[0]
        assert [kind for _, kind in tokens] == [TokenKind.PREPROCESSOR] * 2


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
        joined = "".join(text for text, _ in tokenize_line(raw)[0])
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
                tokens.append(("<" + name + ">", TokenKind.PREPROCESSOR))
                i = close + 1
                expect_header = False
                continue
        if c == '"' or c == "'":
            interior, i, closed = _scan_literal(raw, i)
            kind = TokenKind.STRING if c == '"' else TokenKind.CHAR
            if not closed:
                diagnostics.append(f"unterminated literal at column {i - len(interior)}")
                tokens.append((c + interior, kind))
            elif expect_header and c == '"':
                tokens.append((c + interior + c, kind))
            else:
                tokens.append((c + _pad_interior(interior) + c, kind))
            expect_header = False
            continue
        expect_header = False
        if c == "#" and not tokens:
            j = i + 1
            while j < n and raw[j] in _REF_WS:
                j += 1
            m = _REF_IDENT_RE.match(raw, j)
            directive = m.group(0) if m else ""
            tokens.append(("#" + directive, TokenKind.PREPROCESSOR))
            i = m.end() if m else j
            if directive in ("include", "include_next"):
                expect_header = True
            continue
        if c.isdigit() or (c == "." and i + 1 < n and raw[i + 1].isdigit()):
            m = _REF_NUMBER_RE.match(raw, i)
            assert m is not None
            tokens.append((m.group(0), TokenKind.NUMBER))
            i = m.end()
            continue
        m = _REF_IDENT_RE.match(raw, i)
        if m:
            text = m.group(0)
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
            tokens.append((text, kind))
            i = m.end()
            continue
        op = next((o for o in _REF_OPS3 if raw.startswith(o, i)), None)
        if op is None:
            op = next((o for o in _REF_OPS2 if raw.startswith(o, i)), None)
        if op is None:
            op = c
        tokens.append((op, TokenKind.PUNCTUATOR))
        i += len(op)
    return tokens, diagnostics


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


def reference_callers(raw):
    """What ``canonicalize``, ``unpad_literals``, ``count_newline_keywords``
    and the translator's ``_lex`` return for ``raw``, derived from
    ``reference_tokenize_line``."""
    tokens = reference_tokenize_line(raw)[0]
    literals = (TokenKind.STRING, TokenKind.CHAR)
    unpadded = []
    for text, kind in tokens:
        if kind in literals and len(text) >= 2 and text[-1] == text[0]:
            interior = text[1:-1]
            if len(interior) >= 2 and interior[0] == " " and interior[-1] == " ":
                text = text[0] + interior[1:-1] + text[0]
        unpadded.append(text)
    endl = sum(1 for text, kind in tokens if text == "endl" and kind not in literals)
    canonical = " ".join(text for text, _ in tokens)
    return canonical, " ".join(unpadded), endl, reference_lex(raw)


def reference_lex(line):
    prefix, rest = strip_prefix(line)
    slot = {TokenKind.IDENTIFIER: "ID", TokenKind.NUMBER: "NUM"}
    tags = [(t, None) for t in prefix.render().split()]
    return tags + [(text, slot.get(kind)) for text, kind in reference_tokenize_line(rest)[0]]


def callers(raw):
    return canonicalize(raw), unpad_literals(raw), count_newline_keywords(raw), _lex(raw)


_prefixes = st.builds(
    Prefix, worker=st.none() | st.integers(0, 20), language=st.none() | st.sampled_from(["cpp", "c"])
)
_dense = st.text(alphabet="#<>\"'/\\*. \t\r\n0123456789xXeEpPaAfFuUlL_+-=!&|:%^~(),;", max_size=30)


class TestAgainstReference:
    @settings(max_examples=1500, deadline=None)
    @given(_lines)
    def test_fragment_lines_lex_as_the_reference(self, raw):
        assert tokenize_line(raw) == reference_tokenize_line(raw)

    @settings(max_examples=500, deadline=None)
    @given(_dense)
    def test_dense_punctuation_lexes_as_the_reference(self, raw):
        assert tokenize_line(raw) == reference_tokenize_line(raw)

    @settings(max_examples=800, deadline=None)
    @given(st.one_of(_lines, _dense), _prefixes)
    def test_callers_read_as_the_reference(self, raw, prefix):
        assert callers(raw) == reference_callers(raw)
        if raw:
            tagged = apply_prefix(prefix, raw)
            assert _lex(tagged) == reference_lex(tagged)

    @pytest.mark.parametrize(
        "call, raw",
        [
            (tokenize_line, "c = 'x"),
            (canonicalize, "c = 'x"),
            (unpad_literals, "c = 'x"),
            (count_newline_keywords, "c = 'x"),
            (_lex, "c = 'x"),
            (_lex, "<pl:c> <w:3> c = 'x"),
        ],
    )
    def test_each_caller_logs_an_unterminated_literal_once(self, call, raw, caplog):
        with caplog.at_level(logging.WARNING, logger="ibtforge.lexer"):
            call(raw)
        assert [r.getMessage() for r in caplog.records] == [
            "tokenize_line: unterminated literal at column 5 in \"c = 'x\""
        ]

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
            "a\u00a0b",
            "x =\r1",
            "\v\fi ++ ;\t",
            "a / b * c",
            "a */ b",
            # split at spaces: leading, trailing and doubled ones, none, or
            # only one, and characters that str.split() alone would split at
            "  x = 1 ;",
            "x = 1 ;  ",
            "a  ==   b",
            "",
            " ",
            "a\rb = c ;",
            "x =\u00a0y ;",
            "\u3000i ++\u3000;",
            # split at runs of every blank
            "a \tb",
            "a\f = b ;",
            " \vx = 1 ;",
            "a \t\f\v b  c",
        ],
    )
    def test_edge_lines(self, raw):
        assert tokenize_line(raw) == reference_tokenize_line(raw)


# ---------------------------------------------------------------------------
# Lines with no quote, '#', '//' or '/*' are lexed chunk by chunk from a cache


def _is_clean(line):
    return not any(s in line for s in ('"', "'", "#", "//", "/*"))


# Whitespace that str.split() splits at but the lexer does not skip, and
# digits that str.isdigit() accepts but no C number starts with
_NOT_BLANK = ["\r", "\n", "\u00a0", "\u2009", "\u3000", "\x85", "\u2028", "\x1c"]
_NON_ASCII_DIGITS = ["\u0663", "\u00b2", "\u0661\u0662", "\uff15", "x\u0663", ".\u0663", "1\u0663"]
_CLEAN_FRAGMENTS = [f for f in _FRAGMENTS if _is_clean(f)] + _NOT_BLANK + _NON_ASCII_DIGITS


def _clean_lines_of(blanks):
    """Clean lines whose blanks are drawn from ``blanks`` alone."""

    def fits(text):
        return all(c in blanks or c not in _REF_WS for c in text)

    runs = st.text(alphabet=blanks, max_size=3)
    return st.builds(
        lambda lead, parts, trail: lead + "".join(parts) + trail,
        runs,
        st.lists(
            st.tuples(st.sampled_from(list(filter(fits, _CLEAN_FRAGMENTS))), runs).map("".join),
            max_size=14,
        ),
        runs | st.sampled_from(list(filter(fits, ["\r", "\t\r", "\v\f"]))),
    )


# Lines whose only blank is the space, and lines that mix in the other blanks,
# which tokenize_line leaves inside the chunks it splits at spaces
_clean_lines = st.one_of(_clean_lines_of(" "), _clean_lines_of(_REF_WS)).filter(_is_clean)


def reference_with_any_digits(raw):
    """``reference_tokenize_line`` for a line that may hold non-ASCII
    digits: each lexes as a one-character punctuator, as does U+0001, which
    stands in for it in the reference."""
    digits = iter([c for c in raw if c.isdigit() and not c.isascii()])
    stand_in = "".join("\x01" if c.isdigit() and not c.isascii() else c for c in raw)
    tokens, diagnostics = reference_tokenize_line(stand_in)
    tokens = [(next(digits), kind) if text == "\x01" else (text, kind) for text, kind in tokens]
    return tokens, diagnostics


@pytest.fixture
def empty_chunk_cache():
    """An empty chunk cache for one test; the chunks it held come back
    after the test."""
    saved = dict(_CHUNKS)
    _CHUNKS.clear()
    yield
    _CHUNKS.clear()
    _CHUNKS.update(saved)


def _fill_chunk_cache(count):
    """Scan lines of new one-token chunks until the cache holds ``count``."""
    i = 0
    while len(_CHUNKS) < count:
        tokenize_line(f"fill{i}")
        i += 1


class TestChunkCache:
    @settings(max_examples=1500, deadline=None)
    @given(_clean_lines)
    def test_clean_lines_lex_as_the_reference(self, raw):
        assert tokenize_line(raw) == reference_with_any_digits(raw)

    def test_a_returned_list_is_the_callers_own(self):
        line = "for ( int i = 0 ; i < n ; i ++ )"
        first = tokenize_line(line)
        expected = _scan_tokens(line)
        assert first == expected
        first[0].append(("x", TokenKind.IDENTIFIER))
        first[0][0] = ("while", TokenKind.KEYWORD)
        first[1].append("diagnostic")
        second = tokenize_line(line)
        assert second == expected
        assert second[0] is not first[0] and second[1] is not first[1]

    def test_the_cache_holds_at_most_its_bound(self, empty_chunk_cache):
        lines = [f"v{i} = v{i} + {i} ;" for i in range(CHUNK_CACHE_SIZE + 50)]
        for line in lines:
            tokenize_line(line)
        assert len(_CHUNKS) == CHUNK_CACHE_SIZE
        # a stored chunk and one never stored lex as before
        assert tokenize_line(lines[0]) == _scan_tokens(lines[0])
        assert tokenize_line(lines[-1]) == _scan_tokens(lines[-1])

    def test_a_full_cache_keeps_its_chunks(self, empty_chunk_cache):
        _fill_chunk_cache(CHUNK_CACHE_SIZE)
        stored = dict(_CHUNKS)
        for line in ["late = fill0 + late2 ;", "  late  late\u00a0 ", "a \tlate3"]:
            assert tokenize_line(line) == _scan_tokens(line)
        assert _CHUNKS == stored
        assert all(_CHUNKS[chunk] is tokens for chunk, tokens in stored.items())

    def test_a_line_with_a_long_chunk_stays_out_of_the_cache(self, empty_chunk_cache):
        compact = "for(i=0;i<n;i++){a[i]=b[i]*c+d[i];}"
        assert len(compact) > CACHED_CHUNK_LEN
        for line in [compact, f"x = y ; {compact}", "a" * (CACHED_CHUNK_LEN + 1) + " ;"]:
            assert tokenize_line(line) == _scan_tokens(line)
        assert not _CHUNKS
        line = "a" * CACHED_CHUNK_LEN + " ;"
        assert tokenize_line(line) == _scan_tokens(line)
        assert len(_CHUNKS) == 2

    def test_threads_read_as_one_thread(self, empty_chunk_cache):
        lines = [f"a{i % 40} += b{i % 7} * {i % 13} ;" for i in range(400)]
        expected = [_scan_tokens(line) for line in lines]
        start = threading.Barrier(4)
        results: list[list] = []

        def scan_all():
            start.wait()
            results.append([tokenize_line(line) for line in lines])

        threads = [threading.Thread(target=scan_all) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert results == [expected] * 4

    def test_a_full_cache_takes_no_lock(self, empty_chunk_cache, monkeypatch):
        _fill_chunk_cache(CHUNK_CACHE_SIZE)

        class RefusedLock:
            def __enter__(self):
                raise AssertionError("a full cache took the lock")

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(lexer, "_CHUNKS_LOCK", RefusedLock())
        line = "late = late2 + 1 ;"
        assert tokenize_line(line) == _scan_tokens(line)

    def test_a_line_is_cached_by_its_chunks_between_spaces(self, empty_chunk_cache):
        # a tab, form feed or vertical tab stays inside its chunk
        for line in ["x\t=\f1 ;", " x  = \v1\t;", "x \t ;"]:
            assert tokenize_line(line) == _scan_tokens(line)
        assert set(_CHUNKS) == {"x\t=\f1", ";", "", "x", "=", "\v1\t;", "\t"}

    def test_threads_that_miss_at_once_keep_the_bound(self, empty_chunk_cache, monkeypatch):
        _fill_chunk_cache(CHUNK_CACHE_SIZE - 3)

        class YieldingLen(dict):
            # lets the other threads run between reading the size and storing
            def __len__(self):
                size = super().__len__()
                time.sleep(0.001)
                return size

        chunks = YieldingLen(_CHUNKS)
        monkeypatch.setattr(lexer, "_CHUNKS", chunks)
        start = threading.Barrier(4)
        mismatches: list[str] = []

        def miss(worker):
            start.wait()
            for i in range(8):
                line = f"w{worker}c{i} = {i} ;"
                if tokenize_line(line) != _scan_tokens(line):
                    mismatches.append(line)

        threads = [threading.Thread(target=miss, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not mismatches
        # nothing is evicted, so the size at the end is the largest it was
        assert dict.__len__(chunks) == CHUNK_CACHE_SIZE
