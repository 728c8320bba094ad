"""Whitespace-invariant line tokenizer for the C/C++ subset found in
competitive-programming corpora.

A line is rendered canonically as its tokens joined by single spaces, so any
two spellings of the same token stream compare equal. String and char
literals keep their interior spacing and are padded with one boundary space
on each side (the padding convention used by line-level translation corpora);
:func:`unpad_literals` reverses the padding when a line has to be fed to a
real compiler.
"""

from __future__ import annotations

import logging
import re
import threading
from dataclasses import dataclass
from enum import Enum
from itertools import chain

log = logging.getLogger(__name__)


class TokenKind(str, Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    NUMBER = "number-literal"
    STRING = "string-literal"
    CHAR = "char-literal"
    PUNCTUATOR = "punctuator"
    PREPROCESSOR = "preprocessor"


@dataclass(frozen=True)
class Token:
    text: str
    kind: TokenKind


@dataclass(frozen=True)
class TokenizedLine:
    tokens: tuple[Token, ...]
    canonical: str
    diagnostics: tuple[str, ...] = ()


KEYWORDS = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    bool catch class constexpr delete explicit export false friend mutable
    namespace new noexcept nullptr operator private protected public template
    this throw true try typeid typename using virtual wchar_t
    const_cast dynamic_cast reinterpret_cast static_cast static_assert
    """.split()
)

# Multi-character operators, longest first: the alternation takes the first
# that matches.
_OPERATORS = (
    "<<=", ">>=", "...", "->*",
    "==", "<<", ">>", "<=", ">=", "!=", "&&", "||", "::", "->",
    "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "##",
)

# One token per match: blanks are skipped, then the first branch that matches
# names the token. No branch starts with a blank, so trailing blanks end the
# line rather than lex as a punctuator. The number branch is ASCII-only, so a
# non-ASCII digit is a one-character punctuator like any other non-ASCII
# character.
_TOKEN_RE = re.compile(
    r"""
    [ \t\f\v]*
    (?:
      (?P<number>
        (?: 0[xX][0-9a-fA-F]+(?:\.[0-9a-fA-F]*)?(?:[pP][+-]?[0-9]+)?
          | (?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?
        )
        [uUlLfF]*
      )
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<line_comment>//)
    | (?P<block_comment>/\*)
    | (?P<quote>["'])
    | (?P<punct>"""
    + "|".join(re.escape(op) for op in _OPERATORS)
    + r"""|[^ \t\f\v])
    )
    """,
    re.VERBOSE,
)
_DIRECTIVE_RE = re.compile(r"#[ \t\f\v]*([A-Za-z_][A-Za-z0-9_]*)?")

# The most distinct chunks whose tokens _scan keeps, and the longest chunk it
# keeps. The first chunks seen are kept and never evicted, so a hit is a plain
# dict read, and on a Zipf-shaped vocabulary hits at least as often as an LRU
# cache; but once full, the cache cannot follow lines that drift to another
# vocabulary. A line holding a longer chunk goes through the token loop
# whole, so long chunks, which seldom repeat, stay out of the cache, and a
# full cache takes at most about 9 MB. A run of the benchmark's workloads
# lexes 85-195 distinct chunks, 9 characters at most
CHUNK_CACHE_SIZE = 2048
CACHED_CHUNK_LEN = 32
_CHUNKS: dict[str, tuple[tuple[str, TokenKind], ...]] = {}
# taken only to store a chunk while there is room: the bound holds under threads
_CHUNKS_LOCK = threading.Lock()


def _pad_interior(interior: str) -> str:
    # Idempotent: an interior already carrying boundary spaces is kept as-is.
    if len(interior) >= 2 and interior[0] in " \t" and interior[-1] in " \t":
        return interior
    return " " + interior + " "


def _scan_literal(raw: str, start: int) -> tuple[str, int, bool]:
    """Scan a quoted literal beginning at ``raw[start]``.

    Returns (interior, index past the literal, closed?). Escapes are honored;
    an unterminated literal consumes the rest of the line.
    """
    quote = raw[start]
    i = start + 1
    n = len(raw)
    while i < n:
        c = raw[i]
        if c == "\\":
            i += 2
            continue
        if c == quote:
            return raw[start + 1 : i], i + 1, True
        i += 1
    return raw[start + 1 :], n, False


def _scan(raw: str) -> tuple[list[tuple[str, TokenKind]], list[str]]:
    """The (text, kind) tokens of a single source line (no embedded
    newline), and its diagnostics, in a list of its own.

    Comments are stripped, multi-character operators are matched longest
    first, and literals become single tokens. An unterminated literal is
    reported in the diagnostics, logged, and kept verbatim as one literal
    token so dirty corpus lines never halt the pipeline.

    A line with no quote, ``#``, ``//`` or ``/*`` is lexed chunk by chunk,
    split at single spaces by ``str.split(" ")``: the loop carries state
    from one token to the next only after a ``#``, in a literal or in a
    comment, and no token spans a blank, so the chunks' tokens in turn are
    the line's. Leading, trailing or doubled spaces leave empty chunks,
    which have no tokens; a tab, form feed or vertical tab stays inside its
    chunk, where the token loop skips it as it skips a space. The tokens of
    the first ``CHUNK_CACHE_SIZE`` distinct chunks are kept, and any other
    chunk is lexed each time it occurs; such a line has no diagnostics. A
    line with a chunk longer than ``CACHED_CHUNK_LEN``, and any other line,
    goes through the token loop whole.
    """
    if '"' in raw or "'" in raw or "#" in raw or "//" in raw or "/*" in raw:
        return _scan_tokens(raw)
    chunks = raw.split(" ")
    try:
        return list(chain.from_iterable(map(_CHUNKS.__getitem__, chunks))), []
    except KeyError:
        if max(map(len, chunks)) > CACHED_CHUNK_LEN:
            return _scan_tokens(raw)
    tokens: list[tuple[str, TokenKind]] = []
    for chunk in chunks:
        chunk_tokens = _CHUNKS.get(chunk)
        if chunk_tokens is None:
            chunk_tokens = tuple(_scan_tokens(chunk)[0])
            if len(_CHUNKS) < CHUNK_CACHE_SIZE:
                with _CHUNKS_LOCK:
                    if len(_CHUNKS) < CHUNK_CACHE_SIZE:
                        _CHUNKS[chunk] = chunk_tokens
        tokens += chunk_tokens
    return tokens, []


def _scan_tokens(raw: str) -> tuple[list[tuple[str, TokenKind]], list[str]]:
    """:func:`_scan` token by token, through one regex match each."""
    tokens: list[tuple[str, TokenKind]] = []
    diagnostics: list[str] = []
    i = 0
    expect_header = False
    while m := _TOKEN_RE.match(raw, i):
        group = m.lastgroup
        i = m.end()
        if group == "word":
            text = m[group]
            tokens.append((text, TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER))
        elif group == "number":
            tokens.append((m[group], TokenKind.NUMBER))
        elif group == "punct":
            start = m.start(group)
            c = raw[start]
            if expect_header and c == "<":
                close = raw.find(">", start + 1)
                if close != -1:
                    name = "".join(raw[start + 1 : close].split())
                    tokens.append(("<" + name + ">", TokenKind.PREPROCESSOR))
                    i = close + 1
                    expect_header = False
                    continue
                # no closing '>': an ordinary punctuator
            if c == "#" and not tokens:
                d = _DIRECTIVE_RE.match(raw, start)
                directive = d.group(1) or ""
                tokens.append(("#" + directive, TokenKind.PREPROCESSOR))
                i = d.end()
                expect_header = directive in ("include", "include_next")
                continue
            tokens.append((m[group], TokenKind.PUNCTUATOR))
        elif group == "quote":
            start = m.start(group)
            c = raw[start]
            interior, i, closed = _scan_literal(raw, start)
            kind = TokenKind.STRING if c == '"' else TokenKind.CHAR
            if not closed:
                diagnostics.append(f"unterminated literal at column {i - len(interior)}")
                tokens.append((c + interior, kind))
            elif expect_header and c == '"':
                # quoted header-name: keep verbatim, no boundary padding
                tokens.append((c + interior + c, kind))
            else:
                tokens.append((c + _pad_interior(interior) + c, kind))
        elif group == "line_comment":
            break
        else:  # a block comment, which leaves a pending header name pending
            end = raw.find("*/", i)
            if end == -1:
                break
            i = end + 2
            continue
        expect_header = False
    if diagnostics:
        log.warning("tokenize_line: %s in %r", "; ".join(diagnostics), raw)
    return tokens, diagnostics


def tokenize_line(raw: str) -> TokenizedLine:
    """Tokenize a single source line (no embedded newline) into ``Token``
    objects, its canonical form and its diagnostics (see :func:`_scan`)."""
    tokens, diagnostics = _scan(raw)
    return TokenizedLine(
        tokens=tuple(Token(text, kind) for text, kind in tokens),
        canonical=" ".join([text for text, _ in tokens]),
        diagnostics=tuple(diagnostics),
    )


def canonicalize(raw: str) -> str:
    """Render a line as its tokens joined by single spaces."""
    return " ".join([text for text, _ in _scan(raw)[0]])


def unpad_literals(line: str) -> str:
    """Undo the boundary-space padding inside string/char literals.

    Inverse of the padding applied by :func:`tokenize_line`; used when a
    canonical line is materialized into compilable source text.
    """
    rendered: list[str] = []
    for text, kind in _scan(line)[0]:
        if kind in (TokenKind.STRING, TokenKind.CHAR) and len(text) >= 2 and text[-1] == text[0]:
            interior = text[1:-1]
            if len(interior) >= 2 and interior[0] == " " and interior[-1] == " ":
                text = text[0] + interior[1:-1] + text[0]
        rendered.append(text)
    return " ".join(rendered)


def strip_comments(text: str) -> str:
    """Remove ``//`` and ``/* */`` comments from whole-file text.

    Literal-aware; block comments may span lines and are replaced by a single
    space so adjacent tokens stay separated.
    """
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "/" and text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j == -1 else j
            continue
        if c == "/" and text.startswith("/*", i):
            j = text.find("*/", i + 2)
            out.append(" ")
            i = n if j == -1 else j + 2
            continue
        if c == '"' or c == "'":
            interior, end, closed = _scan_literal(text, i)
            stop = text.find("\n", i)
            if not closed or (stop != -1 and end > stop):
                # never let a literal swallow a newline; treat to end of line
                end = n if stop == -1 else stop
            out.append(text[i:end])
            i = end
            continue
        out.append(c)
        i += 1
    return "".join(out)
