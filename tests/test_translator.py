from __future__ import annotations

import gc
import json
import re
import sys
import tempfile
import threading
import time
import weakref
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ibtforge.corpus import MonoSample, ParallelSample, TestCase
import ibtforge.translator as translator_module
from ibtforge.lexer import canonicalize
from ibtforge.preprocess import Prefix, apply_prefix
from ibtforge.translator import (
    BACKWARD,
    BackendProtocolError,
    BackendUnavailable,
    Candidate,
    FORWARD,
    LineBeam,
    RemoteBackend,
    TemplateBackend,
    TrainingRejected,
    TranslationRequest,
    TranslatorError,
    _Template,
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

    def test_cold_start_clears_table(self):
        backend = TemplateBackend()
        backend.fine_tune(
            [make_pair_sample("s:1:1", 1, ["x = 1 ;"], ["set x to 1"])], FORWARD, {}
        )
        backend.fine_tune(
            [make_pair_sample("s:2:1", 1, ["cout << x ;"], ["print x"])],
            FORWARD,
            {"warm_start": False},
        )
        beams = backend.translate(TranslationRequest(FORWARD, ("y = 2 ;",), 1))
        assert beams[0].top.score == NEG_INF

    def test_state_round_trip(self, trained_backend, tmp_path):
        path = tmp_path / "table.jsonl"
        trained_backend.save_state(path)
        restored = TemplateBackend()
        restored.load_state(path)
        req = TranslationRequest(FORWARD, ("x = 1 ;", "cout << y ;"), 5)
        assert restored.translate(req) == trained_backend.translate(req)


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


class FreshAbstractionBackend(TemplateBackend):
    """``fine_tune`` without the memo: every prefixed line is abstracted
    afresh on every call."""

    def fine_tune(self, dataset, direction, config=None):
        config = dict(config or {})
        if not config.get("warm_start", True):
            self._tables[direction] = {}
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
                    source, target = _abstract_pair(code_line, pseudo_line)
                else:
                    if prefix and pseudo_line:
                        pseudo_line = apply_prefix(prefix, pseudo_line)
                    target, source = _abstract_pair(code_line, pseudo_line)
                template = _Template(source=source, target=target, seq=self._seq)
                self._seq += 1
                table[template.key] = template


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
            {"worker_prefix": st.booleans(), "pl_prefix": st.booleans(), "warm_start": st.booleans()}
        ),
    ),
    min_size=1,
    max_size=5,
)


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
            # translate between fine-tunes, so a stale trie would show
            direction = data.draw(st.sampled_from([FORWARD, BACKWARD]))
            mine = [l for d, l in lines if d == direction] or ["x = 1 ;"]
            req = TranslationRequest(direction, tuple(mine), 3)
            assert backend.translate(req) == linear_scan_translate(backend, req)

    def test_trie_built_once_under_concurrent_translates(self, trained_backend, monkeypatch):
        import ibtforge.translator as translator

        build = translator._build_trie
        builds = []

        def slow_build(templates):
            builds.append(threading.get_ident())
            time.sleep(0.05)
            return build(templates)

        monkeypatch.setattr(translator, "_build_trie", slow_build)
        req = TranslationRequest(FORWARD, ("x = 7 ;", "cout << y ;", "return 0 ;"), 3)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: results.append(trained_backend.translate(req)))
                for _ in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(builds) == 1
        assert len(results) == 6 and all(r == results[0] for r in results)
        assert results[0] == linear_scan_translate(trained_backend, req)

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
            {"pl_prefix": True, "warm_start": False},
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


class TestDeferredParse:
    @pytest.fixture
    def parses(self, monkeypatch):
        """The name of each table file parsed."""
        names = []
        parse = translator_module._parse_table

        def counting(name, text):
            names.append(name)
            return parse(name, text)

        monkeypatch.setattr(translator_module, "_parse_table", counting)
        return names

    def test_loaded_bytes_outlive_the_file(self, trained_backend, tmp_path, parses):
        path = tmp_path / "t.jsonl"
        trained_backend.save_state(path)
        restored = TemplateBackend()
        restored.load_state(path)
        TemplateBackend().save_state(path)
        req = TranslationRequest(BACKWARD, ("set y to 3", "print y"), 3)
        assert parses == []
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
            '["forward"]',
        ],
    )
    def test_malformed_table_is_refused_at_first_use(self, trained_backend, tmp_path, line):
        path = tmp_path / "bad.table.jsonl"
        trained_backend.save_state(path)
        path.write_text(path.read_text() + line + "\n")
        backend = TemplateBackend()
        backend.load_state(path)
        req = TranslationRequest(FORWARD, ("x = 1 ;",), 1)
        refused = re.escape(f"{path}: malformed table record on line 7")
        for use in (
            lambda: backend.translate(req),
            lambda: backend.table_size(FORWARD),
            lambda: backend.save_state(tmp_path / "out.jsonl"),
            lambda: backend.fine_tune(
                [make_pair_sample("s:2:1", 1, ["y = 2 ;"], ["set y to 2"])], FORWARD, {}
            ),
        ):
            with pytest.raises(TranslatorError, match=refused):
                use()
        assert not (tmp_path / "out.jsonl").exists()

    def test_missing_table_is_refused_at_load(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TemplateBackend().load_state(tmp_path / "nope.jsonl")

    def test_concurrent_translates_parse_once(self, trained_backend, tmp_path, monkeypatch):
        path = tmp_path / "t.jsonl"
        trained_backend.save_state(path)
        parse = translator_module._parse_table
        parses = []

        def slow_parse(name, text):
            parses.append(threading.get_ident())
            time.sleep(0.05)
            return parse(name, text)

        monkeypatch.setattr(translator_module, "_parse_table", slow_parse)
        backend = TemplateBackend()
        backend.load_state(path)
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
        assert len(parses) == 1
        assert len(results) == 6 and all(r == trained_backend.translate(req) for r in results)


def _to_record(template, direction):
    return {
        "direction": direction,
        "source": [list(e) for e in template.source],
        "target": [list(e) for e in template.target],
    }


def json_dumps_table(backend):
    """The table file as ``json.dumps`` of one record dict per template: the
    reference for ``save_state``'s bytes."""
    backend.table_size(FORWARD)  # parses a table loaded but not yet used
    return "".join(
        json.dumps(_to_record(template, direction), sort_keys=True, separators=(",", ":")) + "\n"
        for direction in (FORWARD, BACKWARD)
        for template in sorted(backend._tables[direction].values(), key=lambda t: t.seq)
    ).encode("utf-8")


# literal text beyond the vocabulary: non-ASCII letters, astral characters,
# quotes, backslashes and control characters all go through the encoder
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
        encode = translator_module._encode
        calls = []

        def encode_then_fault(value):
            calls.append(value)
            if len(calls) > 4:  # after the first line and into the second
                raise OSError("disk full")
            return encode(value)

        monkeypatch.setattr(translator_module, "_encode", encode_then_fault)
        with pytest.raises(OSError, match="disk full"):
            trained_backend.save_state(path)
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

    def test_failing_variant_dropped(self):
        class FlakyBackend(TemplateBackend):
            def translate(self, req):
                if any("<w:2>" in line for line in req.lines):
                    raise BackendUnavailable("worker 2 is cursed")
                return super().translate(req)

        variants = expand_workers(self._mono(), [1, 2, 3], FlakyBackend())
        assert [w for w, _ in variants] == [1, 3]

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
        if self.path == "/translate":
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
        if self.path.startswith("/status/"):
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
        assert len(state.requests) == 3

    def test_unreachable_host(self):
        backend = RemoteBackend("http://127.0.0.1:1", retry_delays=(0.01, 0.01))
        with pytest.raises(BackendUnavailable):
            backend.translate(TranslationRequest(FORWARD, ("a",), 1))

    def test_protocol_error_on_bad_schema(self, stub_server):
        url, state = stub_server
        state.bad_payload = True
        with pytest.raises(BackendProtocolError):
            _fast_backend(url).translate(TranslationRequest(FORWARD, ("a",), 1))

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
        handle = backend.fine_tune([sample], FORWARD, {"learning_rate": 5e-6, "epochs": 25})
        assert handle.wait(timeout_s=5, poll_s=0.01) == "completed"
        sent = next(r for r in state.requests if r[1] == "/finetune")
        assert sent[2]["config"]["learning_rate"] == 5e-6
        assert sent[2]["dataset"][0]["id"] == "s:1:1"

    def test_training_rejected(self, stub_server):
        url, state = stub_server
        state.reject_finetune = True
        sample = make_pair_sample("s:1:1", 1, ["x = 1 ;"], ["set x to 1"])
        with pytest.raises(TrainingRejected):
            _fast_backend(url).fine_tune([sample], FORWARD, {})
