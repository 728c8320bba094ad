"""Forward (code-to-pseudocode) and backward (pseudocode-to-code) line
translation.

Two backends implement the same interface: a deterministic template-table
baseline whose fine-tune step abstracts aligned line pairs into slot
templates, and a JSON-over-HTTP client for plugging in a real model server.
The baseline exists so the whole pipeline is exercisable and testable at
desk scale; it is a learning test oracle, not a competitive model.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol, Sequence

import requests

from .corpus import MonoSample, ParallelSample, atomic_open
from .lexer import TokenKind, canonicalize, tokenize_line
from .preprocess import Prefix, apply_prefix, strip_prefix

log = logging.getLogger(__name__)

FORWARD = "forward"
BACKWARD = "backward"
DIRECTIONS = (FORWARD, BACKWARD)

NEG_INF = float("-inf")


class TranslatorError(Exception):
    pass


class BackendUnavailable(TranslatorError):
    """Transport-level failure that persisted through retries."""


class BackendProtocolError(TranslatorError):
    """The remote peer answered with something outside the wire contract."""


class TrainingRejected(TranslatorError):
    pass


class MalformedTable(TranslatorError):
    """A table file that ``load_state`` read does not parse."""


# ---------------------------------------------------------------------------
# Wire/data types


@dataclass(frozen=True)
class Candidate:
    text: str
    score: float


@dataclass(frozen=True)
class LineBeam:
    source: str
    candidates: tuple[Candidate, ...]

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError("a beam must hold at least one candidate")

    @property
    def top(self) -> Candidate:
        return self.candidates[0]


@dataclass(frozen=True)
class TranslationRequest:
    direction: str
    lines: tuple[str, ...]
    beam_size: int

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(f"bad direction {self.direction!r}")
        if not self.lines:
            raise ValueError("no lines to translate")
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        object.__setattr__(self, "lines", tuple(self.lines))


def build_beam(source: str, candidates: Iterable[Candidate], beam_size: int) -> LineBeam:
    """Order candidates (score descending, text ascending on ties), drop
    duplicate texts, truncate to the beam size."""
    ranked = sorted(candidates, key=lambda c: (-c.score, c.text))
    seen: set[str] = set()
    unique = []
    for cand in ranked:
        if cand.text not in seen:
            seen.add(cand.text)
            unique.append(cand)
    return LineBeam(source=source, candidates=tuple(unique[:beam_size]))


class TrainingHandle:
    """Handle on a fine-tuning run; the baseline completes synchronously."""

    def __init__(self, handle_id: str, state: str = "completed"):
        self.id = handle_id
        self._state = state

    def status(self) -> str:
        return self._state

    def wait(self, timeout_s: float | None = None, poll_s: float = 0.2) -> str:
        return self.status()


class Backend(Protocol):
    def translate(self, req: TranslationRequest) -> list[LineBeam]: ...

    def fine_tune(
        self, dataset: Sequence[ParallelSample], direction: str, config: dict
    ) -> TrainingHandle: ...


# ---------------------------------------------------------------------------
# Template baseline backend

# The C encoder of the json module; it writes tuples as arrays.
_encode = json.JSONEncoder(separators=(",", ":")).encode

_TAG_RE = re.compile(r"(<pl:(?:cpp|c)>|<w:[0-9]+>) ")

_SLOT_KINDS = {TokenKind.IDENTIFIER: "ID", TokenKind.NUMBER: "NUM"}


def _split_tags(line: str) -> tuple[list[str], str]:
    tags = []
    rest = line
    while True:
        m = _TAG_RE.match(rest)
        if not m:
            return tags, rest
        tags.append(m.group(1))
        rest = rest[m.end() :]


def _lex(line: str) -> list[tuple[str, str | None]]:
    """Tokenize a (possibly tagged) line into (text, slot-class) pairs where
    slot-class is "ID"/"NUM" for abstractable tokens and None otherwise."""
    tags, rest = _split_tags(line)
    toks: list[tuple[str, str | None]] = [(t, None) for t in tags]
    for tok in tokenize_line(rest).tokens:
        toks.append((tok.text, _SLOT_KINDS.get(tok.kind)))
    return toks


def _run_class(classes: Sequence[str | None]) -> str:
    kinds = set(classes)
    if kinds == {"ID"}:
        return "ID"
    if kinds == {"NUM"}:
        return "NUM"
    return "MIX"


# Template elements: ("lit", text) or ("slot", index, run-class)
Elem = tuple
# A template's (source, target) elements
_Shape = tuple[tuple[Elem, ...], tuple[Elem, ...]]


def _maximal_runs(toks: list[tuple[str, str | None]]) -> list[tuple[int, int]]:
    """(start, end) spans of maximal consecutive abstractable tokens."""
    runs = []
    i = 0
    while i < len(toks):
        if toks[i][1] is None:
            i += 1
            continue
        j = i
        while j < len(toks) and toks[j][1] is not None:
            j += 1
        runs.append((i, j))
        i = j
    return runs


def _find_subseq(haystack: list[str], needle: tuple[str, ...], start: int = 0) -> int:
    n = len(needle)
    for i in range(start, len(haystack) - n + 1):
        if tuple(haystack[i : i + n]) == needle:
            return i
    return -1


@dataclass
class _Template:
    source: Sequence[Elem]
    target: Sequence[Elem]
    seq: int

    @property
    def key(self) -> str:
        return " ".join(
            e[1] if e[0] == "lit" else f"<slot:{e[1]}:{e[2]}>" for e in self.source
        )

    @property
    def literal_count(self) -> int:
        return sum(1 for e in self.source if e[0] == "lit")


def _abstract_pair(code_line: str, pseudo_line: str) -> _Shape:
    """Abstract an aligned pair into the (code, pseudocode) elements of a
    slot template; the backward template is the same pair swapped.

    Slot spans are the maximal identifier/number runs of the code side (its
    punctuation segments them naturally); a run that also occurs on the
    pseudocode side becomes a shared slot. If the occurrence counts of the
    slotted spans disagree between the two sides the pair is kept verbatim.
    """
    code = _lex(code_line)
    pseudo = _lex(pseudo_line)
    code_texts = [t for t, _ in code]
    pseudo_texts = [t for t, _ in pseudo]
    runs = _maximal_runs(code)
    slot_of: dict[tuple[str, ...], int] = {}
    slot_class: dict[int, str] = {}
    for start, end in runs:
        value = tuple(code_texts[start:end])
        if value in slot_of:
            continue
        if _find_subseq(pseudo_texts, value) != -1:
            idx = len(slot_of)
            slot_of[value] = idx
            slot_class[idx] = _run_class([c for _, c in code[start:end]])

    def verbatim() -> _Shape:
        return tuple(("lit", t) for t in code_texts), tuple(("lit", t) for t in pseudo_texts)

    if not slot_of:
        return verbatim()

    code_elems: list[Elem] = []
    code_counts: dict[int, int] = {}
    i = 0
    run_bounds = dict(runs)
    while i < len(code):
        if i in run_bounds:
            value = tuple(code_texts[i : run_bounds[i]])
            if value in slot_of:
                idx = slot_of[value]
                code_elems.append(("slot", idx, slot_class[idx]))
                code_counts[idx] = code_counts.get(idx, 0) + 1
                i = run_bounds[i]
                continue
        code_elems.append(("lit", code_texts[i]))
        i += 1

    # replace left-to-right on the pseudocode side, longest spans first
    by_len = sorted(slot_of, key=lambda v: (-len(v), slot_of[v]))
    pseudo_elems: list[Elem] = []
    pseudo_counts: dict[int, int] = {}
    i = 0
    while i < len(pseudo):
        matched = False
        for value in by_len:
            if tuple(pseudo_texts[i : i + len(value)]) == value:
                idx = slot_of[value]
                pseudo_elems.append(("slot", idx, slot_class[idx]))
                pseudo_counts[idx] = pseudo_counts.get(idx, 0) + 1
                i += len(value)
                matched = True
                break
        if not matched:
            pseudo_elems.append(("lit", pseudo_texts[i]))
            i += 1

    if code_counts != pseudo_counts:
        return verbatim()
    return tuple(code_elems), tuple(pseudo_elems)


class _AbstractionMemo:
    """(code line, pseudocode line) -> the unprefixed (code, pseudocode)
    shape and its (pseudocode, code) twin: the forward and the backward
    (source, target). Pairs that abstract alike share interned shapes."""

    __slots__ = ("pairs", "shapes", "__weakref__")

    def __init__(self) -> None:
        self.pairs: dict[tuple[str, str], tuple[_Shape, _Shape]] = {}
        self.shapes: dict[_Shape, _Shape] = {}


# every TemplateBackend alive holds the one memo this refers to, so both
# directions of a run abstract each pair once; the memo goes with the last
# backend that holds it, and the next run starts cold
_live_memo: weakref.ref[_AbstractionMemo] | None = None
_live_memo_lock = threading.Lock()


def _shared_memo() -> _AbstractionMemo:
    global _live_memo
    with _live_memo_lock:
        memo = _live_memo() if _live_memo is not None else None
        if memo is None:
            memo = _AbstractionMemo()
            _live_memo = weakref.ref(memo)
        return memo


def _parse_table(name: str, text: str) -> tuple[dict[str, dict[str, _Template]], int]:
    """The per-direction tables of a table file's text, and the next seq."""
    tables: dict[str, dict[str, _Template]] = {FORWARD: {}, BACKWARD: {}}
    seq = 0
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            template = _Template(
                source=[tuple(e) for e in rec["source"]],
                target=[tuple(e) for e in rec["target"]],
                seq=seq,
            )
            tables[rec["direction"]][template.key] = template
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            message = f"{name}: malformed table record on line {lineno}: {exc!r}"
            raise MalformedTable(message) from exc
        seq += 1
    return tables, seq


class _Node:
    """A trie node over template source elements. Literal children are keyed
    by text, slot children by (slot index, run class); ``template`` is the
    template whose source ends here, if any."""

    __slots__ = ("lits", "slots", "template")

    def __init__(self) -> None:
        self.lits: dict[str, _Node] = {}
        self.slots: dict[tuple[int, str], _Node] = {}
        self.template: _Template | None = None


def _build_trie(templates: Iterable[_Template]) -> _Node:
    root = _Node()
    for template in templates:
        node = root
        for el in template.source:
            if el[0] == "lit":
                children, key = node.lits, el[1]
            else:
                children, key = node.slots, (el[1], el[2])
            child = children.get(key)
            if child is None:
                child = children[key] = _Node()
            node = child
        node.template = template
    return root


def _trie_matches(
    root: _Node, toks: list[tuple[str, str | None]]
) -> list[tuple[_Template, dict[int, tuple[str, ...]]]]:
    """Every template whose source unifies with ``toks``, with its bindings.

    One depth-first walk serves the whole table. Along any one template's
    path it visits states in the order of a backtracking match of that
    template alone (a literal must equal the next token; a bound slot must
    repeat its earlier value; an unbound slot tries the abstractable spans
    of its run class shortest first), so the bindings kept, the first to
    reach the end of the input, are the ones that search returns.
    """
    texts = [t for t, _ in toks]
    n = len(toks)
    span_cache: dict[int, list[tuple[int, str, tuple[str, ...]]]] = {}

    def spans(pos: int) -> list[tuple[int, str, tuple[str, ...]]]:
        """(end, run class, value) of each abstractable span at ``pos``,
        longest first."""
        out = span_cache.get(pos)
        if out is None:
            end = pos
            while end < n and toks[end][1] is not None:
                end += 1
            out = span_cache[pos] = [
                (e, _run_class([c for _, c in toks[pos:e]]), tuple(texts[pos:e]))
                for e in range(end, pos, -1)
            ]
        return out

    found: dict[_Node, dict[int, tuple[str, ...]]] = {}
    stack: list[tuple[_Node, int, dict[int, tuple[str, ...]]]] = [(root, 0, {})]
    while stack:
        node, pos, bindings = stack.pop()
        if pos == n:
            if node.template is not None and node not in found:
                found[node] = bindings
            continue
        child = node.lits.get(texts[pos])
        if child is not None:
            stack.append((child, pos + 1, bindings))
        for (idx, run_class), child in node.slots.items():
            value = bindings.get(idx)
            if value is not None:
                end = pos + len(value)
                if tuple(texts[pos:end]) == value:
                    stack.append((child, end, bindings))
                continue
            # pushed longest first so the shortest span is explored first
            for end, span_class, value in spans(pos):
                if span_class == run_class:
                    stack.append((child, end, {**bindings, idx: value}))
    return [(node.template, bindings) for node, bindings in found.items()]


def _render(elems: Sequence[Elem], bindings: dict[int, tuple[str, ...]]) -> str:
    parts: list[str] = []
    for el in elems:
        if el[0] == "lit":
            parts.append(el[1])
        else:
            parts.extend(bindings[el[1]])
    return " ".join(parts)


class TemplateBackend:
    """Deterministic template-table translator.

    ``fine_tune`` abstracts every aligned line pair into a slot template and
    stores it keyed by the source-side template, so a later pair with the
    same source shape shadows the earlier mapping (this is what lets
    augmented data override habits learned from the seed corpus).

    ``translate`` matches each line against a trie of the table's source
    sides, built on first use after the table last changed.

    ``load_state`` reads the file's text; it is parsed on the first
    ``translate``, ``fine_tune``, ``save_state`` or ``table_size``.
    """

    def __init__(self) -> None:
        self._tables: dict[str, dict[str, _Template]] = {FORWARD: {}, BACKWARD: {}}
        self._seq = 0
        self._memo = _shared_memo()
        # (path, text) of a table loaded but not yet parsed
        self._unparsed: tuple[str, str] | None = None
        self._tries: dict[str, _Node] = {}
        self._lock = threading.Lock()

    # -- training ----------------------------------------------------------

    def fine_tune(
        self, dataset: Sequence[ParallelSample], direction: str, config: dict | None = None
    ) -> TrainingHandle:
        if not dataset:
            raise ValueError("fine_tune requires a non-empty dataset")
        if direction not in DIRECTIONS:
            raise ValueError(f"bad direction {direction!r}")
        config = dict(config or {})
        worker_prefix = bool(config.get("worker_prefix", False))
        pl_prefix = bool(config.get("pl_prefix", False))
        self._parse()
        self._tries = {}
        if not config.get("warm_start", True):
            self._tables[direction] = {}
        table = self._tables[direction]
        for sample in dataset:
            prefix = Prefix(
                worker=sample.worker if worker_prefix else None,
                language=sample.language if pl_prefix else None,
            )
            # prefix tags lex as class-None tokens, which never join a slot
            # run, so abstracting a prefixed line gives the tag literals
            # followed by the template of the unprefixed line
            tags = tuple(("lit", tag) for tag in prefix.render().split())
            for code_line, pseudo_line in zip(sample.code_lines, sample.pseudo_lines):
                source, target = self._abstract(direction, code_line, pseudo_line)
                if tags and (code_line if direction == FORWARD else pseudo_line):
                    source = tags + source
                template = _Template(source=source, target=target, seq=self._seq)
                self._seq += 1
                table[template.key] = template
        return TrainingHandle(f"baseline-{self._seq}")

    def _abstract(self, direction: str, code_line: str, pseudo_line: str) -> _Shape:
        memo = self._memo
        key = (code_line, pseudo_line)
        shapes = memo.pairs.get(key)
        if shapes is None:
            shape = _abstract_pair(code_line, pseudo_line)
            twin = (shape[1], shape[0])
            intern = memo.shapes.setdefault
            shapes = memo.pairs[key] = (intern(shape, shape), intern(twin, twin))
        return shapes[direction == BACKWARD]

    def _parse(self) -> None:
        """Parse the table ``load_state`` read, once, however many threads
        ask at the same time."""
        if self._unparsed is None:
            return
        with self._lock:
            if self._unparsed is not None:
                self._tables, self._seq = _parse_table(*self._unparsed)
                self._tries = {}
                self._unparsed = None

    # -- inference ---------------------------------------------------------

    def _trie(self, direction: str) -> _Node:
        trie = self._tries.get(direction)
        if trie is None:
            with self._lock:
                trie = self._tries.get(direction)
                if trie is None:
                    trie = self._tries[direction] = _build_trie(self._tables[direction].values())
        return trie

    def translate(self, req: TranslationRequest) -> list[LineBeam]:
        self._parse()
        trie = self._trie(req.direction)
        beams = []
        for line in req.lines:
            scored: list[tuple[int, str]] = []
            for template, bindings in _trie_matches(trie, _lex(line)):
                text = _render(template.target, bindings)
                if req.direction == BACKWARD:
                    text = canonicalize(text)
                scored.append((template.literal_count, text))
            scored.sort(key=lambda s: (-s[0], s[1]))
            matches = [
                Candidate(text=text, score=float(-rank)) for rank, (_, text) in enumerate(scored)
            ]
            if not matches:
                matches = [self._echo(line, req.direction)]
            beams.append(build_beam(line, matches, req.beam_size))
        return beams

    @staticmethod
    def _echo(line: str, direction: str) -> Candidate:
        _, rest = _split_tags(line)
        text = canonicalize(rest) if direction == BACKWARD else rest
        return Candidate(text=text, score=NEG_INF)

    # -- persistence -------------------------------------------------------

    def save_state(self, path: str | Path) -> None:
        """Replace ``path`` whole with one JSON record per template, in
        training order. Each line is built around the encoded element lists,
        with its keys in sorted order, so the bytes are those of
        ``json.dumps(record, sort_keys=True, separators=(",", ":"))``."""
        self._parse()
        with atomic_open(path) as fh:
            for direction in DIRECTIONS:
                head = '{"direction":' + _encode(direction) + ',"source":'
                for template in sorted(self._tables[direction].values(), key=lambda t: t.seq):
                    fh.write(
                        f'{head}{_encode(template.source)},"target":{_encode(template.target)}}}\n'
                    )

    def load_state(self, path: str | Path) -> None:
        """Replace the tables with those of ``path``. The file is read now
        and parsed on first use; a malformed one raises ``MalformedTable``
        naming it then."""
        self._unparsed = (str(path), Path(path).read_text(encoding="utf-8"))

    def table_size(self, direction: str) -> int:
        self._parse()
        return len(self._tables[direction])


# ---------------------------------------------------------------------------
# Remote JSON-over-HTTP backend


class RemoteBackend:
    """Client for a model server speaking the pipeline wire protocol:
    ``POST /translate``, ``POST /finetune``, ``GET /status/<handle>``.

    Transport failures are retried with exponential backoff before raising
    ``BackendUnavailable``; contract violations raise immediately.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 30.0,
        retry_delays: Sequence[float] = (0.5, 1.0, 2.0),
        session: requests.Session | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.retry_delays = tuple(retry_delays)
        self._session = session or requests.Session()

    def _request(self, method: str, path: str, json_body: dict | None = None) -> dict:
        url = f"{self.base_url}{path}"
        last_error: Exception | None = None
        attempts = len(self.retry_delays)
        for attempt in range(attempts):
            try:
                resp = self._session.request(method, url, json=json_body, timeout=self.timeout_s)
            except requests.RequestException as exc:
                last_error = exc
            else:
                if resp.status_code >= 500:
                    last_error = BackendUnavailable(f"{url}: HTTP {resp.status_code}")
                elif resp.status_code >= 400:
                    raise BackendProtocolError(f"{url}: HTTP {resp.status_code}: {resp.text[:200]}")
                else:
                    try:
                        return resp.json()
                    except ValueError as exc:
                        raise BackendProtocolError(f"{url}: non-JSON response") from exc
            if attempt + 1 < attempts:
                time.sleep(self.retry_delays[attempt])
        raise BackendUnavailable(f"{url}: {last_error}")

    def translate(self, req: TranslationRequest) -> list[LineBeam]:
        payload = {
            "direction": req.direction,
            "lines": list(req.lines),
            "beam_size": req.beam_size,
        }
        body = self._request("POST", "/translate", payload)
        raw_beams = body.get("beams")
        if not isinstance(raw_beams, list) or len(raw_beams) != len(req.lines):
            raise BackendProtocolError("translate: beam count does not match line count")
        beams = []
        for line, raw in zip(req.lines, raw_beams):
            candidates = []
            for item in raw.get("candidates", []):
                try:
                    text = str(item["text"])
                    score = float(item["score"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise BackendProtocolError(f"translate: bad candidate {item!r}") from exc
                if req.direction == BACKWARD:
                    text = canonicalize(text)
                candidates.append(Candidate(text=text, score=score))
            if raw.get("error") or not candidates:
                # per-line failure: echo the source so the pipeline continues
                log.warning("translate: line failed remotely: %r", raw.get("error"))
                candidates = [TemplateBackend._echo(line, req.direction)]
            beams.append(build_beam(line, candidates, req.beam_size))
        return beams

    def fine_tune(
        self, dataset: Sequence[ParallelSample], direction: str, config: dict | None = None
    ) -> TrainingHandle:
        if not dataset:
            raise ValueError("fine_tune requires a non-empty dataset")
        payload = {
            "direction": direction,
            "config": dict(config or {}),
            "dataset": [s.to_record() for s in dataset],
        }
        try:
            body = self._request("POST", "/finetune", payload)
        except BackendProtocolError as exc:
            raise TrainingRejected(str(exc)) from exc
        handle = body.get("handle")
        if not isinstance(handle, str):
            raise BackendProtocolError("finetune: response lacks a handle")
        return RemoteTrainingHandle(self, handle)


class RemoteTrainingHandle(TrainingHandle):
    def __init__(self, backend: RemoteBackend, handle_id: str):
        super().__init__(handle_id, state="pending")
        self._backend = backend

    def status(self) -> str:
        body = self._backend._request("GET", f"/status/{self.id}")
        state = body.get("state")
        if state not in ("pending", "running", "completed", "failed"):
            raise BackendProtocolError(f"status: bad state {state!r}")
        self._state = state
        return state

    def wait(self, timeout_s: float | None = None, poll_s: float = 0.2) -> str:
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while True:
            state = self.status()
            if state == "completed":
                return state
            if state == "failed":
                raise TrainingRejected(f"training run {self.id} failed")
            if deadline is not None and time.monotonic() >= deadline:
                raise BackendUnavailable(f"training run {self.id} did not finish in time")
            time.sleep(poll_s)


# ---------------------------------------------------------------------------
# Worker-prefixed forward expansion


def expand_workers(
    sample: MonoSample,
    workers: Sequence[int],
    forward: Backend,
    language_tag: str | None = None,
) -> list[tuple[int, list[str]]]:
    """Generate one top-1 pseudocode variant of a monolingual sample per
    worker id, conditioning the forward model with worker (and optionally
    language) prefixes. A variant that fails outright is dropped."""
    if not workers:
        raise ValueError("expand_workers needs at least one worker id")
    variants: list[tuple[int, list[str]]] = []
    for worker in workers:
        prefix = Prefix(worker=worker, language=language_tag)
        lines = tuple(apply_prefix(prefix, line) for line in sample.code_lines)
        try:
            beams = forward.translate(
                TranslationRequest(direction=FORWARD, lines=lines, beam_size=1)
            )
        except MalformedTable:
            # no variant can succeed; a dropped one would read as a failed program
            raise
        except TranslatorError as exc:
            log.warning("expand_workers: %s variant for worker %s dropped: %s", sample.id, worker, exc)
            continue
        pseudo = [strip_prefix(b.top.text)[1] for b in beams]
        variants.append((worker, pseudo))
    return variants
