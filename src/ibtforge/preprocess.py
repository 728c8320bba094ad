"""Corpus normalization applied before training and inference: the
newline-keyword pseudocode augmentation and the control-token prefixes
conditioning generation on annotator and programming language."""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .lexer import canonicalize, tokenize_line

LANGUAGES = ("cpp", "c")

_PL_TAG_RE = re.compile(r"<pl:(cpp|c)>")
_WORKER_TAG_RE = re.compile(r"<w:([0-9]+)>")


@dataclass(frozen=True)
class Prefix:
    """Closed-vocabulary control tokens: ``<pl:cpp>``/``<pl:c>`` then
    ``<w:K>``, each rendered with one trailing space."""

    worker: int | None = None
    language: str | None = None

    def __post_init__(self) -> None:
        if self.language is not None and self.language not in LANGUAGES:
            raise ValueError(f"unknown language tag: {self.language!r}")
        if self.worker is not None and self.worker < 0:
            raise ValueError("worker id must be non-negative")

    def render(self) -> str:
        parts = []
        if self.language is not None:
            parts.append(f"<pl:{self.language}>")
        if self.worker is not None:
            parts.append(f"<w:{self.worker}>")
        return " ".join(parts)

    def __bool__(self) -> bool:
        return self.worker is not None or self.language is not None


def apply_prefix(prefix: Prefix, line: str) -> str:
    """Prepend rendered prefix tokens; an empty prefix is the identity."""
    if not line:
        raise ValueError("cannot prefix an empty line")
    rendered = prefix.render()
    return f"{rendered} {line}" if rendered else line


def strip_prefix(line: str) -> tuple[Prefix, str]:
    """Inverse of :func:`apply_prefix` on its image; unrecognized or
    malformed leading tags leave the line untouched."""
    rest = line
    language: str | None = None
    worker: int | None = None
    m = _PL_TAG_RE.match(rest)
    if m and rest[m.end() : m.end() + 1] == " ":
        language = m.group(1)
        rest = rest[m.end() + 1 :]
    m = _WORKER_TAG_RE.match(rest)
    if m and rest[m.end() : m.end() + 1] == " ":
        worker = int(m.group(1))
        rest = rest[m.end() + 1 :]
    return Prefix(worker=worker, language=language), rest


def count_newline_keywords(code_line: str) -> int:
    """Occurrences of the ``endl`` token outside string/char literals (a
    literal token keeps its quotes, so it never reads ``endl``)."""
    return sum(text == "endl" for text, _ in tokenize_line(code_line)[0])


def rewrite_endl(code_line: str, pseudo_line: str) -> str:
    """Append ``print new line`` to the pseudocode once per ``endl`` token
    in the (canonical) code line; literals do not count.

    Not idempotent when endl is present, so corpus records carry a
    ``preprocessed`` flag and this runs exactly once per sample.
    """
    count = count_newline_keywords(code_line)
    if count == 0:
        return pseudo_line
    suffix = " ".join(["print new line"] * count)
    return f"{pseudo_line} {suffix}" if pseudo_line else suffix


def preprocess_pair(code_line: str, pseudo_line: str) -> str:
    """Full pseudocode normalization for one aligned pair: re-spacing with
    the code tokenizer first, so numbers and punctuation sub-tokenize
    consistently across both sides, then the newline-keyword rewrite."""
    return rewrite_endl(code_line, canonicalize(pseudo_line))


def preprocess_sample(sample):
    """Apply :func:`preprocess_pair` to every line of a parallel sample.

    Returns a new sample with ``preprocessed=True``; a sample already marked
    preprocessed is returned unchanged, which is what makes the rewrite
    effectively run exactly once.
    """
    if sample.preprocessed:
        return sample
    pseudo = [preprocess_pair(c, p) for c, p in zip(sample.code_lines, sample.pseudo_lines)]
    return replace(sample, pseudo_lines=pseudo, preprocessed=True)
