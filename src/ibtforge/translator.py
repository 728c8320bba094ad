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
import threading
import time
import weakref
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Protocol, Sequence

import requests

from .corpus import MonoSample, ParallelSample, atomic_open
from .lexer import TokenKind, _scan, canonicalize
from .preprocess import Prefix, apply_prefix, strip_prefix

log = logging.getLogger(__name__)

FORWARD = "forward"
BACKWARD = "backward"
DIRECTIONS = (FORWARD, BACKWARD)

NEG_INF = float("-inf")

# Seconds between the status polls of a remote training run
STATUS_POLL_S = 0.2


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


class Backend(Protocol):
    """Either method raises a ``TranslatorError`` when it cannot do its work;
    ``fine_tune`` returns once the model is trained."""

    def translate(self, req: TranslationRequest) -> list[LineBeam]: ...

    def fine_tune(
        self, dataset: Sequence[ParallelSample], direction: str, config: dict
    ) -> None: ...


# ---------------------------------------------------------------------------
# Template baseline backend

_SLOT_KINDS = {TokenKind.IDENTIFIER: "ID", TokenKind.NUMBER: "NUM"}


def _scan_tagged(line: str) -> tuple[list[str], list[tuple[str, TokenKind]]]:
    """The texts of a line's ``<pl:…>``/``<w:K>`` tags and the (text, kind) tokens of the rest."""
    if line[:1] != "<":
        return [], _scan(line)[0]
    prefix, rest = strip_prefix(line)
    return prefix.render().split(), _scan(rest)[0]


def _lex(line: str) -> list[tuple[str, str | None]]:
    """Tokenize a (possibly tagged) line into (text, slot-class) pairs where
    slot-class is "ID"/"NUM" for abstractable tokens and None otherwise."""
    tags, tokens = _scan_tagged(line)
    toks: list[tuple[str, str | None]] = [(t, None) for t in tags]
    toks += [(text, _SLOT_KINDS.get(kind)) for text, kind in tokens]
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
# source elements -> target elements, in training order: a later template
# with the same source is moved to the end, shadowing the earlier one
_Table = dict[tuple[Elem, ...], tuple[Elem, ...]]


def _abstract_pair(code_line: str, pseudo_line: str) -> _Shape:
    """Abstract an aligned pair into the (code, pseudocode) elements of a
    slot template; the backward template is the same pair swapped.

    Slot spans are the maximal identifier/number runs of the code side (its
    punctuation segments them naturally); a run that also occurs on the
    pseudocode side becomes a shared slot, numbered in order of first
    occurrence. The pseudocode side is then slotted left to right, longest
    slot value first. If the occurrence counts of the slots disagree between
    the two sides the pair is kept verbatim.

    A one-token run is a slot exactly when its token is a pseudocode token;
    when every slot value is one token, each pseudocode token is slotted by
    one lookup. Only a pair with a longer run (``ll n`` or ``string s`` in
    SPoC code; the benchmark has none) builds the index of token positions.
    """
    code = _lex(code_line)
    pseudo, pseudo_tokens = _scan_tagged(pseudo_line)
    pseudo += [t for t, _ in pseudo_tokens]
    vocab = set(pseudo)
    # where each pseudocode token occurs, built at the first longer run: such
    # a run is looked for only at the positions of its first token
    positions: dict[str, list[int]] | None = None

    slot_of: dict[tuple[str, ...], Elem] = {}
    code_elems: list[Elem] = []
    i, n = 0, len(code)
    while i < n:
        text, cls = code[i]
        start = i
        i += 1
        if cls is None:
            code_elems.append(("lit", text))
            continue
        while i < n and code[i][1] is not None:
            i += 1
        if i - start == 1:
            slot = slot_of.get((text,))
            if slot is None and text in vocab:
                slot = slot_of[(text,)] = ("slot", len(slot_of), cls)
            code_elems.append(slot or ("lit", text))
            continue
        if positions is None:
            positions = {}
            for p, t in enumerate(pseudo):
                positions.setdefault(t, []).append(p)
        words = [t for t, _ in code[start:i]]
        value = tuple(words)
        slot = slot_of.get(value)
        if slot is None and any(
            pseudo[p : p + len(words)] == words for p in positions.get(text, ())
        ):
            run_class = _run_class([c for _, c in code[start:i]])
            slot = slot_of[value] = ("slot", len(slot_of), run_class)
        if slot is None:
            code_elems += [("lit", t) for t in words]
        else:
            code_elems.append(slot)

    if slot_of:
        pseudo_elems: list[Elem] = []
        if positions is None or all(len(value) == 1 for value in slot_of):
            single = {value[0]: slot for value, slot in slot_of.items()}
            pseudo_elems = [single.get(t) or ("lit", t) for t in pseudo]
        else:
            # slot values by first token, longest first (two of one length
            # cannot both match at one position)
            by_first: dict[str, list[tuple[tuple[str, ...], Elem]]] = {}
            for value, slot in sorted(slot_of.items(), key=lambda vs: -len(vs[0])):
                by_first.setdefault(value[0], []).append((value, slot))
            i, n = 0, len(pseudo)
            while i < n:
                for value, slot in by_first.get(pseudo[i], ()):
                    if tuple(pseudo[i : i + len(value)]) == value:
                        pseudo_elems.append(slot)
                        i += len(value)
                        break
                else:
                    pseudo_elems.append(("lit", pseudo[i]))
                    i += 1
        slots = sorted([e for e in code_elems if e[0] == "slot"])
        if slots == sorted([e for e in pseudo_elems if e[0] == "slot"]):
            return tuple(code_elems), tuple(pseudo_elems)
    return tuple(("lit", t) for t, _ in code), tuple(("lit", t) for t in pseudo)


class _AbstractionMemo:
    """(code line, pseudocode line) -> the unprefixed (code, pseudocode)
    shape and its (pseudocode, code) twin: the forward and the backward
    (source, target). Pairs that abstract alike share interned shapes, and
    every element of a shape, or of a prefix tag, is the one object that
    ``elements`` holds for its value; ``texts`` holds each element's JSON
    text. Both of those grow with the element vocabulary, not the tables."""

    __slots__ = ("pairs", "shapes", "elements", "texts", "__weakref__")

    def __init__(self) -> None:
        self.pairs: dict[tuple[str, str], tuple[_Shape, _Shape]] = {}
        self.shapes: dict[_Shape, _Shape] = {}
        self.elements: dict[Elem, Elem] = {}
        self.texts: dict[Elem, str] = {}

    def intern(self, elems: Sequence[Elem]) -> tuple[Elem, ...]:
        """``elems`` with each element replaced by the one object held for
        its value."""
        return tuple(map(self.elements.setdefault, elems, elems))


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


def _encode(elems: Sequence[Elem], texts: dict[Elem, str]) -> str:
    """``json.dumps(elems, separators=(",", ":"))``, joined from the JSON
    text of each element, which ``texts`` caches by element value. The
    cache must hold no boolean slot index: ``True`` equals ``1`` as a key."""
    try:
        return "[" + ",".join([texts[e] for e in elems]) + "]"
    except KeyError:
        for e in elems:
            if e not in texts:
                texts[e] = (
                    f'["lit",{encode_basestring_ascii(e[1])}]'
                    if e[0] == "lit"
                    else f'["slot",{e[1]},"{e[2]}"]'
                )
        return _encode(elems, texts)


def _elements(raw: list) -> tuple[Elem, ...]:
    """One side of a table record: each element must be ``["lit", text]`` or
    ``["slot", index, run class]``, the index an integer (not a boolean,
    which ``_encode``'s cache would write as the integer it equals)."""
    elems = tuple(map(tuple, raw))
    for e in elems:
        match e:
            case ("slot", bool(), _):
                pass
            case ("lit", str()) | ("slot", int(), "ID" | "NUM" | "MIX"):
                continue
        raise ValueError(f"bad template element {list(e)!r}")
    return elems


def _parse_table(
    name: str, text: str, memo: _AbstractionMemo
) -> tuple[dict[str, _Table], dict[str, _Node]]:
    """The per-direction tables of a table file's text, their elements
    interned in ``memo``, and their tries."""
    tables: dict[str, _Table] = {FORWARD: {}, BACKWARD: {}}
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            table = tables[rec["direction"]]
            source = memo.intern(_elements(rec["source"]))
            table.pop(source, None)
            table[source] = memo.intern(_elements(rec["target"]))
        except (ValueError, KeyError, TypeError) as exc:
            message = f"{name}: malformed table record on line {lineno}: {exc!r}"
            raise MalformedTable(message) from exc
    # inserted after the parse: inserting between parses cost the GC 15% more
    tries = {direction: _Node() for direction in DIRECTIONS}
    for direction, table in tables.items():
        for source, target in table.items():
            _insert(tries[direction], source, target)
    return tables, tries


class _Node:
    """A trie node over template source elements. Literal children are keyed
    by text, slot children by the slot element itself; ``target`` is that of
    the template whose source ends here, if any, and ``literals`` counts the
    literal elements of its source."""

    __slots__ = ("lits", "slots", "target", "literals")

    def __init__(self) -> None:
        self.lits: dict[str, _Node] = {}
        self.slots: dict[Elem, _Node] = {}
        self.target: tuple[Elem, ...] | None = None
        self.literals = 0


def _insert(root: _Node, source: tuple[Elem, ...], target: tuple[Elem, ...]) -> None:
    """Add a template to a trie; it replaces one with the same source."""
    node, literals = root, 0
    for el in source:
        if el[0] == "lit":
            children, key = node.lits, el[1]
            literals += 1
        else:
            children, key = node.slots, el
        child = children.get(key)
        if child is None:
            child = children[key] = _Node()
        node = child
    node.target = target
    node.literals = literals


def _trie_matches(
    root: _Node, toks: list[tuple[str, str | None]]
) -> list[tuple[_Node, dict[int, tuple[str, ...]]]]:
    """The end node of every template whose source unifies with ``toks``,
    with its bindings.

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
            if node.target is not None and node not in found:
                found[node] = bindings
            continue
        child = node.lits.get(texts[pos])
        if child is not None:
            stack.append((child, pos + 1, bindings))
        for (_, idx, run_class), child in node.slots.items():
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
    return list(found.items())


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
    sides. ``fine_tune`` inserts each template into its direction's table
    and trie together, so one that raises part way leaves the two in step;
    ``load_state`` builds both tries once the file has parsed and swaps them
    in with the tables. ``fine_tune`` changes the trie that ``translate``
    reads, so the two must not overlap on one backend; concurrent
    ``translate`` calls only read it.
    """

    def __init__(self) -> None:
        self._tables: dict[str, _Table] = {FORWARD: {}, BACKWARD: {}}
        self._tries = {FORWARD: _Node(), BACKWARD: _Node()}
        self._memo = _shared_memo()

    # -- training ----------------------------------------------------------

    def fine_tune(
        self, dataset: Sequence[ParallelSample], direction: str, config: dict | None = None
    ) -> None:
        if not dataset:
            raise ValueError("fine_tune requires a non-empty dataset")
        if direction not in DIRECTIONS:
            raise ValueError(f"bad direction {direction!r}")
        config = dict(config or {})
        worker_prefix = bool(config.get("worker_prefix", False))
        pl_prefix = bool(config.get("pl_prefix", False))
        table, trie = self._tables[direction], self._tries[direction]
        for sample in dataset:
            prefix = Prefix(
                worker=sample.worker if worker_prefix else None,
                language=sample.language if pl_prefix else None,
            )
            # prefix tags lex as class-None tokens, which never join a slot
            # run, so abstracting a prefixed line gives the tag literals
            # followed by the template of the unprefixed line
            tags = self._memo.intern([("lit", tag) for tag in prefix.render().split()])
            for code_line, pseudo_line in zip(sample.code_lines, sample.pseudo_lines):
                source, target = self._abstract(direction, code_line, pseudo_line)
                if tags and (code_line if direction == FORWARD else pseudo_line):
                    source = tags + source
                table.pop(source, None)
                table[source] = target
                _insert(trie, source, target)

    def _abstract(self, direction: str, code_line: str, pseudo_line: str) -> _Shape:
        memo = self._memo
        key = (code_line, pseudo_line)
        shapes = memo.pairs.get(key)
        if shapes is None:
            shape = _abstract_pair(code_line, pseudo_line)
            if shape not in memo.shapes:
                shape = (memo.intern(shape[0]), memo.intern(shape[1]))
            twin = (shape[1], shape[0])
            intern = memo.shapes.setdefault
            shapes = memo.pairs[key] = (intern(shape, shape), intern(twin, twin))
        return shapes[direction == BACKWARD]

    # -- inference ---------------------------------------------------------

    def translate(self, req: TranslationRequest) -> list[LineBeam]:
        trie = self._tries[req.direction]
        beams = []
        for line in req.lines:
            scored: list[tuple[int, str]] = []
            for node, bindings in _trie_matches(trie, _lex(line)):
                text = _render(node.target, bindings)
                if req.direction == BACKWARD:
                    text = canonicalize(text)
                scored.append((node.literals, text))
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
        _, rest = strip_prefix(line)
        text = canonicalize(rest) if direction == BACKWARD else rest
        return Candidate(text=text, score=NEG_INF)

    # -- persistence -------------------------------------------------------

    def save_state(self, path: str | Path) -> None:
        """Replace ``path`` whole with one JSON record per template, in
        training order. Each line joins the memo's JSON text of each element
        around its keys in sorted order, so the bytes are those of
        ``json.dumps(record, sort_keys=True, separators=(",", ":"))``; only a
        line with an element the memo holds no text for goes to ``_encode``."""
        texts = self._memo.texts
        text = texts.__getitem__

        def lines(direction: str) -> Iterable[str]:
            head = f'{{"direction":"{direction}","source":'
            for source, target in self._tables[direction].items():
                try:
                    sides = f'[{",".join(map(text, source))}],"target":[{",".join(map(text, target))}]'
                except KeyError:
                    sides = f'{_encode(source, texts)},"target":{_encode(target, texts)}'
                yield f"{head}{sides}}}\n"

        with atomic_open(path) as fh:
            for direction in DIRECTIONS:
                fh.writelines(lines(direction))

    def load_state(self, path: str | Path) -> None:
        """Replace the tables and tries with those of ``path``, once all of
        it has parsed. A malformed file raises ``MalformedTable`` naming it
        and the line, and leaves the tables and tries as they were."""
        text = Path(path).read_text(encoding="utf-8")
        self._tables, self._tries = _parse_table(str(path), text, self._memo)

    def table_size(self, direction: str) -> int:
        return len(self._tables[direction])


# ---------------------------------------------------------------------------
# Remote JSON-over-HTTP backend


class RemoteBackend:
    """Client for a model server speaking the pipeline wire protocol:
    ``POST /translate``, ``POST /finetune``, ``GET /status/<handle>``.

    A transport failure is retried once after each of ``retry_delays``
    before ``BackendUnavailable`` is raised; contract violations, a body or
    beam that is not a JSON object or candidates that are not a list among
    them, raise immediately.
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

    def _request(
        self,
        method: str,
        path: str,
        json_body: dict | None = None,
        rejected: type[TranslatorError] = BackendProtocolError,
    ) -> dict:
        """The JSON object answered; a 4xx status raises ``rejected``."""
        url = f"{self.base_url}{path}"
        delays = iter(self.retry_delays)
        while True:
            try:
                resp = self._session.request(method, url, json=json_body, timeout=self.timeout_s)
            except requests.RequestException as exc:
                last_error: Exception = exc
            else:
                if resp.status_code >= 500:
                    last_error = BackendUnavailable(f"{url}: HTTP {resp.status_code}")
                elif resp.status_code >= 400:
                    raise rejected(f"{url}: HTTP {resp.status_code}: {resp.text[:200]}")
                else:
                    try:
                        body = resp.json()
                    except ValueError as exc:
                        raise BackendProtocolError(f"{url}: non-JSON response") from exc
                    if not isinstance(body, dict):
                        raise BackendProtocolError(f"{url}: response is not a JSON object")
                    return body
            delay = next(delays, None)
            if delay is None:
                raise BackendUnavailable(f"{url}: {last_error}")
            time.sleep(delay)

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
            if not isinstance(raw, dict):
                raise BackendProtocolError(f"translate: beam is not an object: {raw!r}")
            items = raw.get("candidates", [])
            if not isinstance(items, list):
                raise BackendProtocolError(f"translate: candidates are not a list: {items!r}")
            candidates = []
            for item in items:
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
    ) -> None:
        """Start a training run, then poll its status until it completes;
        the wait is unbounded."""
        if not dataset:
            raise ValueError("fine_tune requires a non-empty dataset")
        payload = {
            "direction": direction,
            "config": dict(config or {}),
            "dataset": [s.to_record() for s in dataset],
        }
        body = self._request("POST", "/finetune", payload, rejected=TrainingRejected)
        handle = body.get("handle")
        if not isinstance(handle, str):
            raise BackendProtocolError("finetune: response lacks a handle")
        while True:
            state = self._request("GET", f"/status/{handle}").get("state")
            if state == "completed":
                return
            if state == "failed":
                raise TrainingRejected(f"training run {handle} failed")
            if state not in ("pending", "running"):
                raise BackendProtocolError(f"status: bad state {state!r}")
            time.sleep(STATUS_POLL_S)


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
    language) prefixes. A failed translation raises rather than dropping the
    variant, which would read as a failed program."""
    if not workers:
        raise ValueError("expand_workers needs at least one worker id")
    variants: list[tuple[int, list[str]]] = []
    for worker in workers:
        prefix = Prefix(worker=worker, language=language_tag)
        lines = tuple(apply_prefix(prefix, line) for line in sample.code_lines)
        beams = forward.translate(
            TranslationRequest(direction=FORWARD, lines=lines, beam_size=1)
        )
        pseudo = [strip_prefix(b.top.text)[1] for b in beams]
        variants.append((worker, pseudo))
    return variants
