from __future__ import annotations

import contextlib
import gc
import importlib.util
import json
import re
import sys
import tempfile
import threading
import weakref
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ibtforge.corpus import MonoSample, ParallelSample, TestCase
import ibtforge.translator as translator_module
from ibtforge.lexer import canonicalize
from ibtforge.preprocess import Prefix, apply_prefix, preprocess_sample
from ibtforge.translator import (
    BACKWARD,
    BackendProtocolError,
    BackendUnavailable,
    Candidate,
    FORWARD,
    LineBeam,
    MalformedTable,
    RemoteBackend,
    TemplateBackend,
    TrainingRejected,
    TranslationRequest,
    _abstract_pair,
    _lex,
    _render,
    _run_class,
    build_beam,
    expand_workers,
)

NEG_INF = float("-inf")


def make_pair_sample(sample_id, worker, code_lines, pseudo_lines, language="cpp"):
    return ParallelSample(
        id=sample_id,
        language=language,
        worker=worker,
        code_lines=code_lines,
        pseudo_lines=pseudo_lines,
        preprocessed=True,
    )


@pytest.fixture
def trained_backend():
    backend = TemplateBackend()
    sample = make_pair_sample(
        "s:1:1",
        1,
        ["cout << x ;", "x = 1 ;", "return 0 ;"],
        ["print x", "set x to 1", "return 0"],
    )
    backend.fine_tune([sample], FORWARD, {})
    backend.fine_tune([sample], BACKWARD, {})
    return backend


class TestBeamConstruction:
    def test_ordering_and_dedupe(self):
        beam = build_beam(
            "src",
            [
                Candidate("b", 1.0),
                Candidate("a", 1.0),
                Candidate("a", 0.5),
                Candidate("c", 2.0),
            ],
            beam_size=10,
        )
        assert [c.text for c in beam.candidates] == ["c", "a", "b"]

    def test_truncation(self):
        beam = build_beam("src", [Candidate(str(i), -float(i)) for i in range(5)], beam_size=2)
        assert len(beam.candidates) == 2

    def test_empty_beam_rejected(self):
        with pytest.raises(ValueError):
            LineBeam(source="s", candidates=())


class TestBaselineTranslate:
    def test_template_substitution_forward(self, trained_backend):
        beams = trained_backend.translate(TranslationRequest(FORWARD, ("cout << n ;",), 5))
        assert beams[0].top.text == "print n"

    def test_learned_slot_template(self, trained_backend):
        beams = trained_backend.translate(TranslationRequest(FORWARD, ("y = 2 ;",), 5))
        assert beams[0].top.text == "set y to 2"

    def test_backward_direction(self, trained_backend):
        beams = trained_backend.translate(TranslationRequest(BACKWARD, ("set total to 9",), 5))
        assert beams[0].top.text == "total = 9 ;"

    def test_beam_size_one_caps(self, trained_backend):
        beams = trained_backend.translate(TranslationRequest(FORWARD, ("x = 1 ;",), 1))
        assert len(beams[0].candidates) == 1

    def test_unknown_line_echoes(self, trained_backend):
        beams = trained_backend.translate(TranslationRequest(FORWARD, ("goto fail ;",), 5))
        assert beams[0].candidates == (Candidate("goto fail ;", NEG_INF),)

    def test_slot_type_mismatch_rejected(self, trained_backend):
        # the assignment template pairs an identifier with a number literal
        beams = trained_backend.translate(TranslationRequest(FORWARD, ("y = z ;",), 5))
        assert beams[0].top.score == NEG_INF

    def test_order_and_source_preserved(self, trained_backend):
        lines = ("x = 1 ;", "cout << q ;", "unknown ;")
        beams = trained_backend.translate(TranslationRequest(FORWARD, lines, 3))
        assert [b.source for b in beams] == list(lines)

    def test_determinism_bitwise(self, trained_backend):
        req = TranslationRequest(FORWARD, ("x = 1 ;", "cout << q ;"), 4)
        assert trained_backend.translate(req) == trained_backend.translate(req)

    def test_exact_reproduction_of_training_pairs(self, trained_backend):
        beams = trained_backend.translate(
            TranslationRequest(FORWARD, ("cout << x ;", "x = 1 ;", "return 0 ;"), 3)
        )
        assert [b.top.text for b in beams] == ["print x", "set x to 1", "return 0"]

    def test_no_duplicate_texts(self, trained_backend):
        for beams in (
            trained_backend.translate(TranslationRequest(FORWARD, ("x = 1 ;",), 10)),
            trained_backend.translate(TranslationRequest(BACKWARD, ("print k",), 10)),
        ):
            texts = [c.text for c in beams[0].candidates]
            assert len(texts) == len(set(texts))


class TestBaselineFineTune:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            TemplateBackend().fine_tune([], FORWARD, {})

    def test_duplicate_pairs_idempotent(self):
        backend = TemplateBackend()
        sample = make_pair_sample("s:1:1", 1, ["x = 1 ;"], ["set x to 1"])
        backend.fine_tune([sample], FORWARD, {})
        size = backend.table_size(FORWARD)
        backend.fine_tune([sample], FORWARD, {})
        assert backend.table_size(FORWARD) == size

    def test_later_entry_shadows_same_source_shape(self):
        backend = TemplateBackend()
        first = make_pair_sample("s:1:1", 1, ["cout << x ;"], ["print x"])
        second = make_pair_sample("s:2:1", 1, ['printf ( " %d " , x ) ;'], ["print x"])
        backend.fine_tune([first, second], BACKWARD, {})
        beams = backend.translate(TranslationRequest(BACKWARD, ("print n",), 5))
        assert beams[0].top.text == 'printf ( " %d " , n ) ;'
        assert len(beams[0].candidates) == 1

    def test_worker_prefix_conditions_templates(self):
        backend = TemplateBackend()
        sample = make_pair_sample("s:1:1", 4, ["x = 1 ;"], ["set x to 1"])
        backend.fine_tune([sample], FORWARD, {"worker_prefix": True})
        hit = backend.translate(TranslationRequest(FORWARD, ("<w:4> y = 2 ;",), 1))
        miss = backend.translate(TranslationRequest(FORWARD, ("<w:5> y = 2 ;",), 1))
        assert hit[0].top.text == "set y to 2"
        assert miss[0].top.score == NEG_INF

    def test_shadowing_template_moves_to_the_end(self):
        backend = TemplateBackend()
        a = make_pair_sample("s:1:1", 1, ["cout << x ;"], ["print x"])
        b = make_pair_sample("s:2:1", 1, ["x = 1 ;"], ["set x to 1"])
        a2 = make_pair_sample("s:3:1", 1, ["cout << y ;"], ["show y"])
        for sample in (a, b, a2):
            backend.fine_tune([sample], FORWARD, {})
        records, _ = _saved_records(backend)
        assert [r["target"] for r in records] == [
            [["lit", "set"], ["slot", 0, "ID"], ["lit", "to"], ["slot", 1, "NUM"]],
            [["lit", "show"], ["slot", 0, "ID"]],
        ]

    def test_state_round_trip(self, trained_backend, tmp_path):
        path = tmp_path / "table.jsonl"
        trained_backend.save_state(path)
        restored = TemplateBackend()
        restored.load_state(path)
        req = TranslationRequest(FORWARD, ("x = 1 ;", "cout << y ;"), 5)
        assert restored.translate(req) == trained_backend.translate(req)


prefixes = st.builds(
    Prefix, worker=st.none() | st.integers(0, 20), language=st.none() | st.sampled_from(["cpp", "c"])
)


@settings(max_examples=200, deadline=None)
@given(prefix=prefixes, line=st.text(alphabet=st.sampled_from(list("<>:wplc0123 x=;")), min_size=1))
def test_lex_reads_the_tags_apply_prefix_renders(prefix, line):
    tags = prefix.render().split()
    assert _lex(apply_prefix(prefix, line))[: len(tags)] == [(t, None) for t in tags]


# ---------------------------------------------------------------------------
# Trie matching and memoised abstraction against their linear-scan oracles


def _match(elems, toks, ei=0, pos=0, bindings=None):
    """Backtracking unification of one source template against input tokens:
    the reference semantics of template matching."""
    bindings = bindings if bindings is not None else {}
    if ei == len(elems):
        return bindings if pos == len(toks) else None
    el = elems[ei]
    if el[0] == "lit":
        if pos < len(toks) and toks[pos][0] == el[1]:
            return _match(elems, toks, ei + 1, pos + 1, bindings)
        return None
    idx, run_class = el[1], el[2]
    if idx in bindings:
        value = bindings[idx]
        n = len(value)
        if tuple(t for t, _ in toks[pos : pos + n]) == value:
            return _match(elems, toks, ei + 1, pos + n, bindings)
        return None
    limit = pos
    while limit < len(toks) and toks[limit][1] is not None:
        limit += 1
    for end in range(pos + 1, limit + 1):
        span = toks[pos:end]
        if _run_class([c for _, c in span]) != run_class:
            continue
        trial = dict(bindings)
        trial[idx] = tuple(t for t, _ in span)
        result = _match(elems, toks, ei + 1, end, trial)
        if result is not None:
            return result
    return None


def _saved_records(backend):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.jsonl"
        backend.save_state(path)
        return [json.loads(line) for line in path.read_text().splitlines()], path.read_bytes()


def linear_scan_translate(backend, req):
    """``translate`` as a scan of every template of the saved table."""
    records, _ = _saved_records(backend)
    table = [
        ([tuple(e) for e in r["source"]], [tuple(e) for e in r["target"]])
        for r in records
        if r["direction"] == req.direction
    ]
    beams = []
    for line in req.lines:
        toks = _lex(line)
        scored = []
        for source, target in table:
            bindings = _match(source, toks)
            if bindings is None:
                continue
            text = _render(target, bindings)
            if req.direction == BACKWARD:
                text = canonicalize(text)
            scored.append((sum(1 for e in source if e[0] == "lit"), text))
        scored.sort(key=lambda s: (-s[0], s[1]))
        matches = [Candidate(text, float(-rank)) for rank, (_, text) in enumerate(scored)]
        if not matches:
            matches = [TemplateBackend._echo(line, req.direction)]
        beams.append(build_beam(line, matches, req.beam_size))
    return beams


def _reference_runs(toks):
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


def _reference_find(haystack, needle):
    n = len(needle)
    for i in range(len(haystack) - n + 1):
        if tuple(haystack[i : i + n]) == needle:
            return i
    return -1


def reference_abstract_pair(code_line, pseudo_line):
    """``_abstract_pair`` as a search of the whole pseudocode line for each
    code run, and a longest-first trial of every slot value at each
    pseudocode position: the reference semantics of abstraction."""
    code = _lex(code_line)
    pseudo = _lex(pseudo_line)
    code_texts = [t for t, _ in code]
    pseudo_texts = [t for t, _ in pseudo]
    runs = _reference_runs(code)
    slot_of = {}
    slot_class = {}
    for start, end in runs:
        value = tuple(code_texts[start:end])
        if value in slot_of:
            continue
        if _reference_find(pseudo_texts, value) != -1:
            idx = len(slot_of)
            slot_of[value] = idx
            slot_class[idx] = _run_class([c for _, c in code[start:end]])

    def verbatim():
        return tuple(("lit", t) for t in code_texts), tuple(("lit", t) for t in pseudo_texts)

    if not slot_of:
        return verbatim()

    code_elems = []
    code_counts = {}
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

    by_len = sorted(slot_of, key=lambda v: (-len(v), slot_of[v]))
    pseudo_elems = []
    pseudo_counts = {}
    i = 0
    while i < len(pseudo):
        for value in by_len:
            if tuple(pseudo_texts[i : i + len(value)]) == value:
                idx = slot_of[value]
                pseudo_elems.append(("slot", idx, slot_class[idx]))
                pseudo_counts[idx] = pseudo_counts.get(idx, 0) + 1
                i += len(value)
                break
        else:
            pseudo_elems.append(("lit", pseudo_texts[i]))
            i += 1

    if code_counts != pseudo_counts:
        return verbatim()
    return tuple(code_elems), tuple(pseudo_elems)


class FreshAbstractionBackend(TemplateBackend):
    """``fine_tune`` without the memo's pairs and shapes: every prefixed
    line is abstracted afresh, by the reference, on every call. Its elements
    are interned only so that ``save_state`` has their texts."""

    def fine_tune(self, dataset, direction, config=None):
        config = dict(config or {})
        table = self._tables[direction]
        for sample in dataset:
            prefix = Prefix(
                worker=sample.worker if config.get("worker_prefix") else None,
                language=sample.language if config.get("pl_prefix") else None,
            )
            for code_line, pseudo_line in zip(sample.code_lines, sample.pseudo_lines):
                if direction == FORWARD:
                    if prefix and code_line:
                        code_line = apply_prefix(prefix, code_line)
                    source, target = reference_abstract_pair(code_line, pseudo_line)
                else:
                    if prefix and pseudo_line:
                        pseudo_line = apply_prefix(prefix, pseudo_line)
                    target, source = reference_abstract_pair(code_line, pseudo_line)
                source, target = self._memo.intern(source), self._memo.intern(target)
                table.pop(source, None)
                table[source] = target


IDENTS = ["x", "y", "n", "set", "to", "plus", "print"]
NUMBERS = ["0", "1", "42"]
KEYWORD_PUNCT = ["int", "return", "=", ";", "+", "(", ")", "<<", ","]
TAGS = ["<w:1>", "<w:2>", "<pl:c>", "<pl:cpp>"]
RUNS = {"ID": IDENTS, "NUM": NUMBERS, "MIX": IDENTS + NUMBERS}

literal_elems = st.sampled_from(IDENTS + NUMBERS + KEYWORD_PUNCT).map(lambda t: ("lit", t))
slot_elems = st.tuples(st.just("slot"), st.integers(0, 2), st.sampled_from(sorted(RUNS)))


@st.composite
def template_records(draw, direction):
    tags = draw(st.lists(st.sampled_from(TAGS), max_size=2))
    body = draw(st.lists(st.one_of(literal_elems, slot_elems), max_size=6))
    source = [("lit", t) for t in tags] + body
    slots = sorted({e[1:] for e in source if e[0] == "slot"})
    target_slots = st.sampled_from(slots).map(lambda s: ("slot", *s)) if slots else st.nothing()
    target = draw(st.lists(st.one_of(literal_elems, target_slots), max_size=5))
    return {"direction": direction, "source": source, "target": target}


@st.composite
def tables(draw):
    directions = st.sampled_from([FORWARD, BACKWARD])
    records = draw(st.lists(directions.flatmap(template_records), min_size=1, max_size=12))
    for rec in list(records):
        if draw(st.booleans()):  # a prefix of another template
            source = rec["source"][: draw(st.integers(0, len(rec["source"])))]
            kept = {e[1] for e in source if e[0] == "slot"}
            if all(e[1] in kept for e in rec["target"] if e[0] == "slot"):
                records.append({**rec, "source": source})
        if draw(st.booleans()):  # the same source shape, shadowing the first
            records.append({**rec, "target": list(reversed(rec["target"]))})
    return records


@st.composite
def lines_for(draw, records):
    """Renderings of table templates with random slot fillers, plus noise."""
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            rec = draw(st.sampled_from(records))
            values = {}
            parts = []
            for el in rec["source"]:
                if el[0] == "lit":
                    parts.append(el[1])
                    continue
                if el[1] not in values:
                    values[el[1]] = draw(st.lists(st.sampled_from(RUNS[el[2]]), min_size=1, max_size=3))
                parts.extend(values[el[1]])
            lines.append(" ".join(parts))
        else:
            vocab = TAGS + IDENTS + NUMBERS + KEYWORD_PUNCT
            lines.append(" ".join(draw(st.lists(st.sampled_from(vocab), max_size=7))))
    return lines


def _load(records):
    """A backend holding ``records`` as its saved table."""
    backend = TemplateBackend()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        backend.load_state(path)
    return backend


code_lines = st.lists(st.sampled_from(IDENTS[:3] + NUMBERS + KEYWORD_PUNCT), max_size=6).map(" ".join)
pseudo_lines = st.lists(st.sampled_from(IDENTS + NUMBERS), max_size=6).map(" ".join)


@st.composite
def parallel_samples(draw):
    n = draw(st.integers(1, 4))
    return make_pair_sample(
        f"s:{draw(st.integers(1, 9))}:1",
        draw(st.integers(0, 3)),
        draw(st.lists(code_lines, min_size=n, max_size=n)),
        draw(st.lists(pseudo_lines, min_size=n, max_size=n)),
        language=draw(st.sampled_from(["cpp", "c"])),
    )


fine_tune_calls = st.lists(
    st.tuples(
        st.lists(parallel_samples(), min_size=1, max_size=3),
        st.sampled_from([FORWARD, BACKWARD]),
        st.fixed_dictionaries(
            {"worker_prefix": st.booleans(), "pl_prefix": st.booleans()}
        ),
    ),
    min_size=1,
    max_size=5,
)


def _trie_size(node):
    """The number of nodes in a trie."""
    return 1 + sum(map(_trie_size, [*node.lits.values(), *node.slots.values()]))


class TestTrieMatching:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_tables_match_linear_scan(self, data):
        records = data.draw(tables())
        direction = data.draw(st.sampled_from([FORWARD, BACKWARD]))
        backend = _load(records)
        lines = tuple(data.draw(lines_for(records)))
        req = TranslationRequest(direction, lines, data.draw(st.integers(1, 5)))
        assert backend.translate(req) == linear_scan_translate(backend, req)

    @pytest.mark.parametrize(
        "source, line, expected",
        [
            # adjacent slots: the first takes the shortest span
            ([("slot", 0, "ID"), ("slot", 1, "ID")], "a b c", "a | b c"),
            ([("slot", 0, "MIX"), ("slot", 1, "NUM")], "a 1 2", "a 1 | 2"),
            # a repeated index must equal its first binding
            ([("slot", 0, "ID"), ("slot", 1, "ID"), ("slot", 0, "ID")], "a b c a", "a | b c"),
        ],
    )
    def test_ambiguous_spans_bind_shortest_first(self, source, line, expected):
        target = [("slot", 0, "ID"), ("lit", "|"), ("slot", 1, "ID")]
        backend = _load([{"direction": FORWARD, "source": source, "target": target}])
        req = TranslationRequest(FORWARD, (line,), 1)
        beams = backend.translate(req)
        assert beams == linear_scan_translate(backend, req)
        assert beams[0].top.text == expected

    @settings(max_examples=60, deadline=None)
    @given(calls=fine_tune_calls, data=st.data())
    def test_fine_tuned_tables_match_linear_scan(self, calls, data):
        backend = TemplateBackend()
        lines = []
        for dataset, direction, config in calls:
            backend.fine_tune(dataset, direction, config)
            for sample in dataset:
                source = sample.code_lines if direction == FORWARD else sample.pseudo_lines
                prefix = Prefix(
                    worker=sample.worker if config["worker_prefix"] else None,
                    language=sample.language if config["pl_prefix"] else None,
                )
                lines += [(direction, apply_prefix(prefix, l) if prefix and l else l) for l in source]
            # translate between fine-tunes, so a stale trie would show; a
            # backend that loads the saved table builds its trie in table
            # order, so it shows whether shadowing re-inserts, which leave
            # trie siblings in another order, change a beam
            direction = data.draw(st.sampled_from([FORWARD, BACKWARD]))
            mine = [l for d, l in lines if d == direction] or ["x = 1 ;"]
            req = TranslationRequest(direction, tuple(mine), 3)
            beams = backend.translate(req)
            assert beams == linear_scan_translate(backend, req)
            assert _load(_saved_records(backend)[0]).translate(req) == beams

    @pytest.mark.parametrize("source", ["fine_tune", "load_state"])
    def test_concurrent_translates_build_no_trie(self, trained_backend, tmp_path, monkeypatch, source):
        backend = trained_backend
        if source == "load_state":
            path = tmp_path / "t.jsonl"
            trained_backend.save_state(path)
            backend = TemplateBackend()
            backend.load_state(path)
            assert backend.table_size(FORWARD) == 3  # load_state builds both tries
        tries = dict(backend._tries)
        nodes = {d: _trie_size(t) for d, t in tries.items()}
        insert = translator_module._insert
        inserts = []

        def counting_insert(root, source, target):
            inserts.append(threading.get_ident())
            insert(root, source, target)

        monkeypatch.setattr(translator_module, "_insert", counting_insert)
        req = TranslationRequest(FORWARD, ("x = 7 ;", "cout << y ;", "return 0 ;"), 3)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: results.append(backend.translate(req)))
                for _ in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert inserts == []
        assert all(backend._tries[d] is tries[d] for d in (FORWARD, BACKWARD))
        assert {d: _trie_size(t) for d, t in backend._tries.items()} == nodes
        assert len(results) == 6 and all(r == results[0] for r in results)
        assert results[0] == linear_scan_translate(backend, req)

    def test_fine_tune_raising_part_way_leaves_a_matching_trie(self, trained_backend):
        samples = [
            make_pair_sample("s:2:1", 1, ["y = 2 ;"], ["let y be 2"]),
            make_pair_sample("s:3:1", -1, ["cout << y ;"], ["show y"]),
        ]
        with pytest.raises(ValueError, match="non-negative"):
            trained_backend.fine_tune(samples, FORWARD, {"worker_prefix": True})
        assert trained_backend.table_size(FORWARD) == 4
        req = TranslationRequest(FORWARD, ("<w:1> y = 2 ;", "x = 1 ;", "cout << y ;"), 3)
        assert trained_backend.translate(req) == linear_scan_translate(trained_backend, req)
        assert trained_backend.translate(req)[0].top.text == "let y be 2"

    def test_fine_tune_and_load_state_drop_the_trie(self, trained_backend, tmp_path):
        req = TranslationRequest(FORWARD, ("y = 2 ;",), 3)
        assert trained_backend.translate(req)[0].top.text == "set y to 2"
        trained_backend.fine_tune(
            [make_pair_sample("s:2:1", 1, ["y = 2 ;"], ["let y be 2"])], FORWARD, {}
        )
        assert trained_backend.translate(req)[0].top.text == "let y be 2"
        path = tmp_path / "t.jsonl"
        TemplateBackend().save_state(path)
        trained_backend.load_state(path)
        assert trained_backend.translate(req)[0].top.score == NEG_INF


# A few identifiers and numbers, so runs repeat and overlap on the pseudocode
# side, and counts often disagree between the sides
ABSTRACTION_TOKENS = ["a", "b", "c", "1", "2", "=", "+", ";", "(", ")", "int", "set", "to"]
abstraction_lines = st.lists(st.sampled_from(ABSTRACTION_TOKENS), max_size=9).map(" ".join)


def _workload_pairs():
    """The preprocessed (code, pseudocode) pairs of the benchmark's seed
    corpora, seed 4, each workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen
    try:
        spec.loader.exec_module(gen)
        samples = [
            preprocess_sample(s)
            for name in ("judge-bound", "translate-bound", "resume")
            for s in gen.generate(name, 4).parallel
        ]
    finally:
        del sys.modules[spec.name]
    return dict.fromkeys(p for s in samples for p in zip(s.code_lines, s.pseudo_lines))


class TestAbstraction:
    @settings(max_examples=1500, deadline=None)
    @given(abstraction_lines, abstraction_lines, prefixes, st.sampled_from(["code", "pseudo", "both"]))
    def test_abstracts_as_the_reference(self, code_line, pseudo_line, prefix, tagged):
        assert _abstract_pair(code_line, pseudo_line) == reference_abstract_pair(code_line, pseudo_line)
        if tagged != "pseudo" and code_line:
            code_line = apply_prefix(prefix, code_line)
        if tagged != "code" and pseudo_line:
            pseudo_line = apply_prefix(prefix, pseudo_line)
        assert _abstract_pair(code_line, pseudo_line) == reference_abstract_pair(code_line, pseudo_line)

    @pytest.mark.parametrize(
        "code_line, pseudo_line",
        [
            ("a b = b c ;", "set a b c"),  # runs that overlap in the pseudocode
            ("a = a + 1 ;", "add 1 to a"),  # a count mismatch: kept verbatim
            ("a b = a ;", "a b gets a"),  # the longer value is tried first
            ("x = 1 ;", "print x"),  # a run with no pseudocode occurrence
            # one-token runs beside runs of more than one token
            ("a = a b ;", "a b then a"),  # a one-token slot that begins a longer one
            ("a b = c ;", "set c to a"),  # a longer run that is no slot
            ("x = x + 1 ;", "add 1 to x"),  # a one-token value whose counts disagree
            ("x = 10 ;", "set x to 10"),  # a number slot
            ("<pl:cpp> <w:2> n = 0 ;", "<w:2> set n to 0"),  # tagged lines
            ("n = m ;", "<n> is m"),  # a pseudocode line that starts with '<' but no tag
        ],
    )
    def test_edge_pairs(self, code_line, pseudo_line):
        assert _abstract_pair(code_line, pseudo_line) == reference_abstract_pair(code_line, pseudo_line)

    def test_workload_pairs_abstract_as_the_reference(self):
        pairs = _workload_pairs()
        assert len(pairs) > 2000
        for code_line, pseudo_line in pairs:
            expected = reference_abstract_pair(code_line, pseudo_line)
            assert _abstract_pair(code_line, pseudo_line) == expected, (code_line, pseudo_line)


class TestAbstractionMemo:
    @settings(max_examples=80, deadline=None)
    @given(calls=fine_tune_calls)
    def test_memoised_fine_tune_saves_the_same_bytes(self, calls):
        memoised, fresh = TemplateBackend(), FreshAbstractionBackend()
        for dataset, direction, config in calls:
            memoised.fine_tune(dataset, direction, config)
            fresh.fine_tune(dataset, direction, config)
            assert _saved_records(memoised)[1] == _saved_records(fresh)[1]

    def test_prefix_toggle_sequence(self):
        sample = make_pair_sample(
            "s:1:4", 4, ["x = 1 ;", "", "cout << x ;"], ["set x to 1", "", "print x"], language="c"
        )
        memoised, fresh = TemplateBackend(), FreshAbstractionBackend()
        for config in (
            {},
            {"worker_prefix": True},
            {"worker_prefix": True, "pl_prefix": True},
            {"pl_prefix": True},
            {"worker_prefix": True},
        ):
            for direction in (FORWARD, BACKWARD):
                memoised.fine_tune([sample], direction, config)
                fresh.fine_tune([sample], direction, config)
        assert _saved_records(memoised)[1] == _saved_records(fresh)[1]

    @settings(max_examples=80, deadline=None)
    @given(calls=fine_tune_calls, warm_up=fine_tune_calls)
    def test_separate_shared_and_warm_backends_save_the_same_bytes(self, calls, warm_up):
        """Two backends, one per direction; one backend for both; and two
        backends whose memo other pairs, these pairs and the other direction
        have warmed: all save what abstraction afresh saves."""
        fresh = FreshAbstractionBackend()
        for dataset, direction, config in calls:
            fresh.fine_tune(dataset, direction, config)
        expected = _saved_records(fresh)[1]

        def separate():
            pair = {FORWARD: TemplateBackend(), BACKWARD: TemplateBackend()}
            for dataset, direction, config in calls:
                pair[direction].fine_tune(dataset, direction, config)
            return _saved_records(pair[FORWARD])[1] + _saved_records(pair[BACKWARD])[1]

        assert separate() == expected
        shared = TemplateBackend()
        for dataset, direction, config in calls:
            shared.fine_tune(dataset, direction, config)
        assert _saved_records(shared)[1] == expected
        warmer = TemplateBackend()
        for dataset, direction, config in warm_up + calls:
            other = BACKWARD if direction == FORWARD else FORWARD
            warmer.fine_tune(dataset, other, config)
        assert warmer._memo is shared._memo and warmer._memo.pairs
        assert separate() == expected


class TestElementInterning:
    @settings(max_examples=80, deadline=None)
    @given(calls=fine_tune_calls)
    def test_tables_hold_one_object_per_element(self, calls):
        """However the fine-tunes interleave, prefix and shadow, the tables
        of both backends hold one object per distinct element value."""
        pair = {FORWARD: TemplateBackend(), BACKWARD: TemplateBackend()}
        for dataset, direction, config in calls:
            pair[direction].fine_tune(dataset, direction, config)
            pair[direction].fine_tune(dataset, direction, config)
        elems = [
            e
            for backend in pair.values()
            for table in backend._tables.values()
            for template in table.items()
            for side in template
            for e in side
        ]
        assert len({id(e) for e in elems}) == len(set(elems))

    @settings(max_examples=60, deadline=None)
    @given(calls=fine_tune_calls, records=tables())
    def test_loaded_tables_hold_one_object_per_element(self, calls, records):
        """A table saved and loaded into a fresh backend, beside one loaded
        from records and the fine-tuned ones, holds one object per value."""
        pair = {FORWARD: TemplateBackend(), BACKWARD: TemplateBackend()}
        for dataset, direction, config in calls:
            pair[direction].fine_tune(dataset, direction, config)
        with tempfile.TemporaryDirectory() as tmp:
            loaded = []
            for direction, backend in pair.items():
                path = Path(tmp) / f"{direction}.jsonl"
                backend.save_state(path)
                loaded.append(TemplateBackend())
                loaded[-1].load_state(path)
        elems = [
            e
            for backend in [*pair.values(), *loaded, _load(records)]
            for table in backend._tables.values()
            for template in table.items()
            for side in template
            for e in side
        ]
        assert len({id(e) for e in elems}) == len(set(elems))


class TestSharedMemoLifetime:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Each pair handed to ``_abstract_pair``, counted, with a memo that
        no backend of another test holds."""
        monkeypatch.setattr(translator_module, "_live_memo", None)
        calls = Counter()
        abstract = translator_module._abstract_pair

        def counting(code_line, pseudo_line):
            calls[(code_line, pseudo_line)] += 1
            return abstract(code_line, pseudo_line)

        monkeypatch.setattr(translator_module, "_abstract_pair", counting)
        return calls

    def test_both_directions_abstract_each_pair_once(self, counted):
        samples = [
            make_pair_sample("s:1:1", 1, ["x = 1 ;", "cout << x ;"], ["set x to 1", "print x"]),
            make_pair_sample(
                "s:2:2", 2, ["x = 1 ;", "", "y = 2 ;"], ["set x to 1", "", "set y to 2"]
            ),
        ]
        forward, backward = TemplateBackend(), TemplateBackend()
        for config in ({}, {"worker_prefix": True, "pl_prefix": True}):
            forward.fine_tune(samples, FORWARD, config)
            backward.fine_tune(samples, BACKWARD, config)
        assert counted == {
            ("x = 1 ;", "set x to 1"): 1,
            ("cout << x ;", "print x"): 1,
            ("", ""): 1,
            ("y = 2 ;", "set y to 2"): 1,
        }

    def test_memo_goes_with_the_last_backend(self, counted):
        sample = make_pair_sample("s:1:1", 1, ["x = 1 ;"], ["set x to 1"])
        first = TemplateBackend()
        memo = weakref.ref(first._memo)
        first.fine_tune([sample], FORWARD, {})
        second = TemplateBackend()
        del first
        gc.collect()
        second.fine_tune([sample], BACKWARD, {})
        assert counted[("x = 1 ;", "set x to 1")] == 1
        del second
        gc.collect()
        assert memo() is None
        TemplateBackend().fine_tune([sample], FORWARD, {})
        assert counted[("x = 1 ;", "set x to 1")] == 2


class TestLoadState:
    @pytest.fixture
    def parses(self, monkeypatch):
        """The name of each table file parsed."""
        names = []
        parse = translator_module._parse_table

        def counting(name, text, memo):
            names.append(name)
            return parse(name, text, memo)

        monkeypatch.setattr(translator_module, "_parse_table", counting)
        return names

    def test_loaded_bytes_outlive_the_file(self, trained_backend, tmp_path, parses):
        path = tmp_path / "t.jsonl"
        trained_backend.save_state(path)
        restored = TemplateBackend()
        restored.load_state(path)
        assert parses == [str(path)]
        TemplateBackend().save_state(path)
        req = TranslationRequest(BACKWARD, ("set y to 3", "print y"), 3)
        assert restored.translate(req) == trained_backend.translate(req)
        assert parses == [str(path)]

    def test_table_size_reports_the_loaded_count(self, trained_backend, tmp_path, parses):
        path = tmp_path / "t.jsonl"
        trained_backend.save_state(path)
        restored = TemplateBackend()
        restored.load_state(path)
        for direction in (FORWARD, BACKWARD):
            assert restored.table_size(direction) == trained_backend.table_size(direction) == 3
        assert len(parses) == 1

    def test_fine_tune_after_load_continues_the_table(self, trained_backend, tmp_path):
        path = tmp_path / "t.jsonl"
        trained_backend.save_state(path)
        restored = TemplateBackend()
        restored.load_state(path)
        sample = make_pair_sample("s:2:1", 1, ["y = 2 ;"], ["let y be 2"])
        for backend in (trained_backend, restored):
            backend.fine_tune([sample], FORWARD, {"worker_prefix": True})
        assert _saved_records(restored)[1] == _saved_records(trained_backend)[1]

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '{"direction":"forward","source":[["lit","x"]]}',
            '{"direction":"sideways","source":[],"target":[]}',
            '{"direction":"forward","source":[["slot",0]],"target":[]}',
            '{"direction":"forward","source":[["slot",0,"ID","x"]],"target":[]}',
            '{"direction":"forward","source":[["foo","x","y"]],"target":[]}',
            '{"direction":"forward","source":[["lit","a","b"]],"target":[]}',
            '{"direction":"forward","source":[["lit","a"]],"target":[["slot","0","ID"]]}',
            '{"direction":"forward","source":[["slot",true,"ID"]],"target":[]}',
            '{"direction":"forward","source":"lit","target":[]}',
            '["forward"]',
        ],
    )
    def test_malformed_table_is_refused_at_load(self, trained_backend, tmp_path, line):
        path = tmp_path / "bad.table.jsonl"
        trained_backend.save_state(path)
        saved = path.read_bytes()
        path.write_text(path.read_text() + line + "\n")
        refused = re.escape(f"{path}: malformed table record on line 7")
        with pytest.raises(MalformedTable, match=refused):
            trained_backend.load_state(path)
        # the refused load left the tables, and the tries, as they were
        trained_backend.save_state(path)
        assert path.read_bytes() == saved
        req = TranslationRequest(FORWARD, ("x = 7 ;",), 1)
        assert trained_backend.translate(req)[0].top.text == "set x to 7"

    def test_missing_table_is_refused_at_load(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TemplateBackend().load_state(tmp_path / "nope.jsonl")


def _to_record(direction, source, target):
    return {
        "direction": direction,
        "source": [list(e) for e in source],
        "target": [list(e) for e in target],
    }


def json_dumps_table(backend):
    """The table file as ``json.dumps`` of one record dict per template: the
    reference for ``save_state``'s bytes."""
    return "".join(
        json.dumps(_to_record(direction, *template), sort_keys=True, separators=(",", ":")) + "\n"
        for direction in (FORWARD, BACKWARD)
        for template in backend._tables[direction].items()
    ).encode("utf-8")


# literal text beyond the vocabulary: non-ASCII letters, astral characters,
# quotes, backslashes and control characters all get a text from the memo
odd_texts = st.text(
    alphabet=st.sampled_from(list("aZ_9 \"\\/\t\n\x00\x7féü中\u2028\U0001f600")), min_size=1, max_size=6
)


@st.composite
def odd_tables(draw):
    records = draw(tables())
    for rec in records:
        for side in ("source", "target"):
            rec[side] = [
                ("lit", draw(odd_texts)) if e[0] == "lit" and draw(st.booleans()) else e
                for e in rec[side]
            ]
    return records


@settings(max_examples=200, deadline=None)
@given(
    elems=st.lists(
        st.one_of(
            st.tuples(st.just("lit"), odd_texts),
            st.tuples(st.just("slot"), st.integers(min_value=10), st.sampled_from(sorted(RUNS))),
        )
    )
)
def test_interned_texts_are_json_dumps(elems):
    expected = json.dumps(elems, separators=(",", ":"))
    for memo in (translator_module._AbstractionMemo(), WARM_MEMO):
        interned = memo.intern(elems)
        assert interned == tuple(elems)
        assert "[" + ",".join(memo.texts[e] for e in interned) + "]" == expected


# shared by every example of the memo text tests, so an element that an
# earlier example interned is already held
WARM_MEMO = translator_module._AbstractionMemo()


@settings(max_examples=200, deadline=None)
@given(records=odd_tables())
def test_one_warm_memo_stores_json_dumps_texts(records):
    for rec in records:
        for side in ("source", "target"):
            WARM_MEMO.intern([tuple(e) for e in rec[side]])
    assert WARM_MEMO.texts.keys() == WARM_MEMO.elements.keys()
    assert all(text == json.dumps(e, separators=(",", ":")) for e, text in WARM_MEMO.texts.items())


def test_boolean_slot_indices_are_refused_as_the_memo_would_alias_them():
    """``True == 1`` and they hash alike, so the memo, keyed by element
    value, would intern a boolean index as the integer element it equals and
    write its text; the table parser keeps such an element out of every
    table."""
    memo = translator_module._AbstractionMemo()
    (one,) = memo.intern([("slot", 1, "ID")])
    (aliased,) = memo.intern([("slot", True, "ID")])
    assert aliased is one and memo.texts[aliased] == '["slot",1,"ID"]'
    assert json.dumps(("slot", True, "ID")) == '["slot", true, "ID"]'
    with pytest.raises(ValueError, match="bad template element"):
        translator_module._elements([["slot", True, "ID"]])
    assert translator_module._elements([["slot", 1, "ID"]]) == (("slot", 1, "ID"),)


class TestTableFile:
    @settings(max_examples=150, deadline=None)
    @given(records=odd_tables())
    def test_loaded_tables_save_json_dumps_bytes(self, records):
        backend = _load(records)
        assert _saved_records(backend)[1] == json_dumps_table(backend)

    @settings(max_examples=60, deadline=None)
    @given(calls=fine_tune_calls)
    def test_fine_tuned_tables_save_json_dumps_bytes(self, calls):
        backend = TemplateBackend()
        for dataset, direction, config in calls:
            backend.fine_tune(dataset, direction, config)
            assert _saved_records(backend)[1] == json_dumps_table(backend)

    @settings(max_examples=60, deadline=None)
    @given(records=odd_tables(), calls=fine_tune_calls)
    def test_backends_on_a_cold_memo_save_json_dumps_bytes(self, records, calls):
        """Each backend on a memo of its own: one that has interned nothing
        before its fine-tunes, and a loaded table, saved once, then
        fine-tuned further with elements the memo has not interned yet."""
        cold = TemplateBackend()
        cold._memo = translator_module._AbstractionMemo()
        for dataset, direction, config in calls:
            cold.fine_tune(dataset, direction, config)
        assert _saved_records(cold)[1] == json_dumps_table(cold)
        loaded = TemplateBackend()
        loaded._memo = translator_module._AbstractionMemo()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in records))
            loaded.load_state(path)
        assert _saved_records(loaded)[1] == json_dumps_table(loaded)
        for dataset, direction, config in calls:
            loaded.fine_tune(dataset, direction, config)
            assert _saved_records(loaded)[1] == json_dumps_table(loaded)

    def test_non_ascii_literals_are_escaped(self, tmp_path):
        backend = TemplateBackend()
        sample = make_pair_sample("s:1:1", 1, ['puts ( "h\u00e9" ) ;'], ["say h\u00e9 \U0001f600"])
        backend.fine_tune([sample], FORWARD, {})
        path = tmp_path / "t.jsonl"
        backend.save_state(path)
        assert path.read_bytes() == json_dumps_table(backend)
        assert path.read_bytes().isascii()
        assert b"\\ud83d\\ude00" in path.read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(records=odd_tables())
    def test_load_then_save_is_byte_identical(self, records):
        written = json_dumps_table(_load(records))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.jsonl"
            path.write_bytes(written)
            backend = TemplateBackend()
            backend.load_state(path)
            backend.save_state(path)
            assert path.read_bytes() == written


    def test_failed_save_leaves_the_previous_file(self, trained_backend, tmp_path, monkeypatch):
        path = tmp_path / "t.jsonl"
        trained_backend.save_state(path)
        before = path.read_bytes()
        opened = translator_module.atomic_open
        written = []

        class FullDisk:
            """A file that takes two writes, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                if len(written) == 2:
                    raise OSError("disk full")
                written.append(text)
                return self.fh.write(text)

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

        @contextlib.contextmanager
        def full_after_two_writes(target):
            with opened(target) as fh:
                yield FullDisk(fh)

        monkeypatch.setattr(translator_module, "atomic_open", full_after_two_writes)
        with pytest.raises(OSError, match="disk full"):
            trained_backend.save_state(path)
        # part of the new file had been written when the fault came
        assert written and before.decode().startswith("".join(written))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]


class TestExpandWorkers:
    def _mono(self, n_lines=3):
        lines = ["int main ( ) {", "x = 1 ;", "}"][:n_lines]
        return MonoSample(
            id="y:1",
            code_lines=lines,
            tests=[TestCase(b"", b"")],
        )

    def test_variant_shapes(self):
        backend = TemplateBackend()
        sample = make_pair_sample(
            "s:1:1", 1, ["int main ( ) {", "x = 1 ;", "}"], ["begin", "set x to 1", "end"]
        )
        backend.fine_tune([sample], FORWARD, {"worker_prefix": True})
        variants = expand_workers(self._mono(), [1, 2], backend)
        assert len(variants) == 2
        assert all(len(pseudo) == 3 for _, pseudo in variants)
        # known worker gets real translations, unknown worker echoes
        assert variants[0][1][1] == "set x to 1"
        assert variants[1][1][1] == "x = 1 ;"

    def test_ten_workers_ten_variants(self):
        backend = TemplateBackend()
        backend.fine_tune(
            [make_pair_sample("s:1:1", 1, ["x = 1 ;"], ["set x to 1"])],
            FORWARD,
            {},
        )
        sample = MonoSample(id="y:2", code_lines=["x = 1 ;"], tests=[TestCase(b"", b"")])
        variants = expand_workers(sample, list(range(1, 11)), backend)
        assert len(variants) == 10

    def test_backend_outage_raised(self):
        """A failed variant is raised, not dropped: a dropped variant would
        read as a failed program."""

        class DownBackend(TemplateBackend):
            def translate(self, req):
                if any("<w:2>" in line for line in req.lines):
                    raise BackendUnavailable("model server down")
                return super().translate(req)

        with pytest.raises(BackendUnavailable):
            expand_workers(self._mono(), [1, 2, 3], DownBackend())

    def test_empty_worker_list_rejected(self):
        with pytest.raises(ValueError):
            expand_workers(self._mono(), [], TemplateBackend())


# ---------------------------------------------------------------------------
# Remote backend against an in-process protocol server


class _StubState:
    def __init__(self):
        self.fail_translates = 0  # respond 500 this many times first
        self.requests: list[tuple[str, str, dict | None]] = []
        self.status_sequence = ["running", "completed"]
        self.reject_finetune = False
        self.bad_payload = False
        self.replies: dict[str, object] = {}  # path -> a 200 body sent instead


class _Handler(BaseHTTPRequestHandler):
    state: _StubState

    def log_message(self, *args):  # noqa: D102 - silence the test server
        pass

    def _send(self, code, payload):
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self):
        length = int(self.headers.get("Content-Length", 0))
        return json.loads(self.rfile.read(length)) if length else None

    def do_POST(self):
        body = self._read_json()
        self.state.requests.append(("POST", self.path, body))
        if self.path in self.state.replies:
            self._send(200, self.state.replies[self.path])
        elif self.path == "/translate":
            if self.state.fail_translates > 0:
                self.state.fail_translates -= 1
                self._send(503, {"error": "warming up"})
                return
            if self.state.bad_payload:
                self._send(200, {"nope": True})
                return
            beams = []
            for line in body["lines"]:
                if line == "FAIL":
                    beams.append({"source": line, "error": "boom", "candidates": []})
                else:
                    beams.append(
                        {
                            "source": line,
                            "candidates": [
                                {"text": f"{line} prime", "score": -0.1},
                                {"text": "x=1;", "score": -0.9},
                            ][: body["beam_size"]],
                        }
                    )
            self._send(200, {"beams": beams})
        elif self.path == "/finetune":
            if self.state.reject_finetune:
                self._send(422, {"error": "bad dataset"})
                return
            self._send(200, {"handle": "job-1"})
        else:
            self._send(404, {"error": "no such endpoint"})

    def do_GET(self):
        self.state.requests.append(("GET", self.path, None))
        if self.path in self.state.replies:
            self._send(200, self.state.replies[self.path])
        elif self.path.startswith("/status/"):
            state = (
                self.state.status_sequence.pop(0)
                if self.state.status_sequence
                else "completed"
            )
            self._send(200, {"handle": self.path.rsplit("/", 1)[-1], "state": state})
        else:
            self._send(404, {"error": "no such endpoint"})


@pytest.fixture
def stub_server():
    state = _StubState()
    handler = type("BoundHandler", (_Handler,), {"state": state})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", state
    finally:
        server.shutdown()
        server.server_close()


def _fast_backend(url):
    return RemoteBackend(url, timeout_s=5.0, retry_delays=(0.01, 0.01, 0.01))


class TestRemoteBackend:
    def test_translate_round_trip(self, stub_server):
        url, state = stub_server
        backend = _fast_backend(url)
        beams = backend.translate(TranslationRequest(FORWARD, ("a", "b"), 2))
        assert [b.source for b in beams] == ["a", "b"]
        assert beams[0].top.text == "a prime"
        assert state.requests[0][1] == "/translate"

    def test_backward_candidates_canonicalized(self, stub_server):
        url, _ = stub_server
        backend = _fast_backend(url)
        beams = backend.translate(TranslationRequest(BACKWARD, ("set x",), 5))
        assert "x = 1 ;" in [c.text for c in beams[0].candidates]

    def test_retry_then_success(self, stub_server):
        url, state = stub_server
        state.fail_translates = 2
        backend = _fast_backend(url)
        beams = backend.translate(TranslationRequest(FORWARD, ("a",), 1))
        assert beams[0].top.text == "a prime"
        assert len([r for r in state.requests if r[1] == "/translate"]) == 3

    def test_unavailable_after_retries(self, stub_server):
        url, state = stub_server
        state.fail_translates = 99
        backend = _fast_backend(url)
        with pytest.raises(BackendUnavailable):
            backend.translate(TranslationRequest(FORWARD, ("a",), 1))
        assert len(state.requests) == 4

    def test_each_retry_waits_its_delay(self, stub_server, monkeypatch):
        url, state = stub_server
        state.fail_translates = 99
        waits = []
        monkeypatch.setattr(translator_module.time, "sleep", waits.append)
        backend = RemoteBackend(url, timeout_s=5.0, retry_delays=(0.5, 1.0, 2.0))
        with pytest.raises(BackendUnavailable, match="HTTP 503"):
            backend.translate(TranslationRequest(FORWARD, ("a",), 1))
        assert waits == [0.5, 1.0, 2.0]
        assert len(state.requests) == 4

    def test_unreachable_host(self):
        backend = RemoteBackend("http://127.0.0.1:1", retry_delays=(0.01, 0.01))
        with pytest.raises(BackendUnavailable):
            backend.translate(TranslationRequest(FORWARD, ("a",), 1))

    def test_protocol_error_on_bad_schema(self, stub_server):
        url, state = stub_server
        state.bad_payload = True
        with pytest.raises(BackendProtocolError):
            _fast_backend(url).translate(TranslationRequest(FORWARD, ("a",), 1))

    @pytest.mark.parametrize("body", [[], "beams", None, {"beams": ["a"]}, {"beams": [None]}])
    def test_non_object_translate_reply_is_protocol_error(self, stub_server, body):
        url, state = stub_server
        state.replies["/translate"] = body
        with pytest.raises(BackendProtocolError, match="not a JSON object|not an object"):
            _fast_backend(url).translate(TranslationRequest(FORWARD, ("a",), 1))
        assert len(state.requests) == 1

    @pytest.mark.parametrize("candidates", [5, None, {}, {"text": "a", "score": 0}])
    def test_non_list_candidates_is_protocol_error(self, stub_server, candidates):
        url, state = stub_server
        state.replies["/translate"] = {"beams": [{"candidates": candidates}]}
        with pytest.raises(BackendProtocolError, match="candidates are not a list"):
            _fast_backend(url).translate(TranslationRequest(FORWARD, ("a",), 1))

    @pytest.mark.parametrize("path", ["/finetune", "/status/job-1"])
    def test_non_object_training_reply_is_protocol_error(self, stub_server, path):
        url, state = stub_server
        state.replies[path] = [{"handle": "job-1", "state": "completed"}]
        sample = make_pair_sample("s:1:1", 1, ["x = 1 ;"], ["set x to 1"])
        with pytest.raises(BackendProtocolError, match=f"{path}: response is not a JSON object"):
            _fast_backend(url).fine_tune([sample], FORWARD, {})

    def test_protocol_error_on_unknown_endpoint(self, stub_server):
        url, _ = stub_server
        with pytest.raises(BackendProtocolError):
            _fast_backend(url)._request("POST", "/bogus", {})

    def test_per_line_failure_echoes(self, stub_server):
        url, _ = stub_server
        beams = _fast_backend(url).translate(TranslationRequest(FORWARD, ("ok", "FAIL"), 2))
        assert beams[1].candidates == (Candidate("FAIL", NEG_INF),)

    def test_fine_tune_polls_to_completion(self, stub_server):
        url, state = stub_server
        backend = _fast_backend(url)
        sample = make_pair_sample("s:1:1", 1, ["x = 1 ;"], ["set x to 1"])
        state.status_sequence = ["pending", "running"]
        assert backend.fine_tune([sample], FORWARD, {"learning_rate": 5e-6, "epochs": 25}) is None
        assert [r[1] for r in state.requests] == ["/finetune"] + ["/status/job-1"] * 3
        sent = next(r for r in state.requests if r[1] == "/finetune")
        assert sent[2]["config"]["learning_rate"] == 5e-6
        assert sent[2]["dataset"][0]["id"] == "s:1:1"

    def test_training_rejected(self, stub_server):
        url, state = stub_server
        state.reject_finetune = True
        sample = make_pair_sample("s:1:1", 1, ["x = 1 ;"], ["set x to 1"])
        with pytest.raises(TrainingRejected):
            _fast_backend(url).fine_tune([sample], FORWARD, {})

    def test_failed_training_run_rejected(self, stub_server, monkeypatch):
        url, state = stub_server
        monkeypatch.setattr(translator_module, "STATUS_POLL_S", 0.01)
        state.status_sequence = ["running", "failed"]
        sample = make_pair_sample("s:1:1", 1, ["x = 1 ;"], ["set x to 1"])
        with pytest.raises(TrainingRejected, match="job-1 failed"):
            _fast_backend(url).fine_tune([sample], FORWARD, {})
        assert len([r for r in state.requests if r[1] == "/status/job-1"]) == 2

    def test_unknown_training_state_is_protocol_error(self, stub_server):
        url, state = stub_server
        state.status_sequence = ["paused"]
        sample = make_pair_sample("s:1:1", 1, ["x = 1 ;"], ["set x to 1"])
        with pytest.raises(BackendProtocolError, match="bad state 'paused'"):
            _fast_backend(url).fine_tune([sample], FORWARD, {})
