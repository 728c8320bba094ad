from __future__ import annotations

import hashlib
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import perfbench_gen
from ibtforge.corpus import (
    _BYTES_PATH_MIN,
    CorpusError,
    IngestStats,
    LengthMismatch,
    MalformedRow,
    MonoSample,
    ParallelSample,
    TestCase,
    discover_tests,
    ingest_mono,
    ingest_parallel,
    load_mono,
    load_parallel,
    move_to_parallel,
    read_manifest,
    save_mono,
    save_parallel,
    validate_disjoint,
    write_manifest,
)

HEADER = "text\tcode\tworkerid\tprobid\tsubid\tline\n"


def write_tsv(path, rows):
    path.write_text(HEADER + "".join("\t".join(map(str, r)) + "\n" for r in rows), encoding="utf-8")


class TestIngestParallel:
    def test_two_rows_one_program(self, tmp_path):
        tsv = tmp_path / "corpus.tsv"
        write_tsv(
            tsv,
            [
                ("declare x", "int x;", 5, "p7", "s1", 0),
                ("set x to 1", "x=1;", 5, "p7", "s1", 1),
            ],
        )
        samples = ingest_parallel(tsv)
        assert len(samples) == 1
        sample = samples[0]
        assert sample.id == "p7:s1:5"
        assert sample.code_lines == ["int x ;", "x = 1 ;"]
        assert sample.pseudo_lines == ["declare x", "set x to 1"]
        assert sample.worker == 5 and sample.problem == "p7"
        assert not sample.preprocessed

    def test_gap_in_line_indices_drops_sample(self, tmp_path):
        tsv = tmp_path / "corpus.tsv"
        write_tsv(
            tsv,
            [
                ("a", "int x;", 5, "p7", "s1", 0),
                ("b", "x=1;", 5, "p7", "s1", 2),
                ("c", "int y;", 6, "p8", "s1", 0),
            ],
        )
        stats = IngestStats()
        samples = ingest_parallel(tsv, stats=stats)
        assert [s.id for s in samples] == ["p8:s1:6"]
        assert stats.dropped_samples == 1

    def test_malformed_row_skipped_and_counted(self, tmp_path):
        tsv = tmp_path / "corpus.tsv"
        tsv.write_text(HEADER + "too\tfew\n" + "a\tint x;\t5\tp7\ts1\t0\n", encoding="utf-8")
        stats = IngestStats()
        samples = ingest_parallel(tsv, stats=stats)
        assert len(samples) == 1
        assert stats.skipped_rows == 1

    def test_empty_file(self, tmp_path):
        tsv = tmp_path / "corpus.tsv"
        tsv.write_text(HEADER, encoding="utf-8")
        assert ingest_parallel(tsv) == []

    def test_deterministic_serialization(self, tmp_path):
        tsv = tmp_path / "corpus.tsv"
        write_tsv(
            tsv,
            [
                ("a", "int x;", 5, "p7", "s1", 0),
                ("b", "x=2;", 5, "p7", "s1", 1),
                ("c", "int y;", 6, "p7", "s2", 0),
            ],
        )
        out1, out2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
        save_parallel(ingest_parallel(tsv), out1)
        save_parallel(ingest_parallel(tsv), out2)
        assert out1.read_bytes() == out2.read_bytes()


class TestIngestMono:
    def make_problem(self, root, name, source, tests=((b"", b"ok"),)):
        pdir = root / name
        pdir.mkdir(parents=True)
        (pdir / "main.c").write_text(source, encoding="utf-8")
        for i, (inp, out) in enumerate(tests):
            (pdir / f"input_{i}.txt").write_bytes(inp)
            (pdir / f"output_{i}.txt").write_bytes(out)
        return pdir

    def test_file_with_two_tests(self, tmp_path):
        self.make_problem(
            tmp_path, "p1", "int main(){\nreturn 0;\n}\n", tests=((b"1", b"a"), (b"2", b"b"))
        )
        samples = ingest_mono(tmp_path)
        assert len(samples) == 1
        assert samples[0].id == "p1:main"
        assert len(samples[0].tests) == 2
        assert samples[0].code_lines == ["int main ( ) {", "return 0 ;", "}"]

    def test_no_tests_rejected(self, tmp_path):
        pdir = tmp_path / "p1"
        pdir.mkdir()
        (pdir / "main.c").write_text("int main(){}\n", encoding="utf-8")
        stats = IngestStats()
        assert ingest_mono(tmp_path, stats=stats) == []
        assert stats.rejected_no_tests == 1

    def test_blank_file_rejected(self, tmp_path):
        self.make_problem(tmp_path, "p1", "\n\n  \n// only a comment\n")
        stats = IngestStats()
        assert ingest_mono(tmp_path, stats=stats) == []
        assert stats.rejected_empty == 1

    def test_multiline_comment_stripped(self, tmp_path):
        self.make_problem(tmp_path, "p1", "int a; /* b\nc */\nint d;\n")
        samples = ingest_mono(tmp_path)
        assert samples[0].code_lines == ["int a ;", "int d ;"]

    def test_discover_tests_pairs_by_suffix(self, tmp_path):
        pdir = self.make_problem(tmp_path, "p1", "int main(){}\n", tests=())
        (pdir / "input.txt").write_bytes(b"x")
        (pdir / "output.txt").write_bytes(b"y")
        (pdir / "input_9.txt").write_bytes(b"unpaired")
        tests = discover_tests(pdir)
        assert len(tests) == 1
        assert tests[0] == TestCase(input=b"x", expected_output=b"y")


class TestMoveToParallel:
    def _mono(self):
        return MonoSample(
            id="p1:main",
            code_lines=["int main ( ) {", "return 0 ;", "}"],
            tests=[TestCase(b"", b"")],
            problem="p1",
        )

    def test_construction(self):
        sample = move_to_parallel(self._mono(), 4, ["begin", "give 0", "end"], iteration=1)
        assert sample.origin == "ibt-augmented"
        assert sample.language == "c"
        assert sample.preprocessed
        assert sample.worker == 4
        assert sample.iteration == 1
        assert sample.id == "p1:main#w4"

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            move_to_parallel(self._mono(), 4, ["begin", "end"])

    def test_round_trip_preserves_origin(self, tmp_path):
        sample = move_to_parallel(self._mono(), 4, ["begin", "give 0", "end"], iteration=0)
        path = tmp_path / "d.jsonl"
        save_parallel([sample], path)
        loaded = load_parallel(path)
        assert loaded == [sample]
        assert loaded[0].origin == "ibt-augmented"

    def test_disjointness_check(self):
        mono = self._mono()
        clash = ParallelSample(
            id=mono.id,
            language="c",
            worker=1,
            code_lines=["x = 1 ;"],
            pseudo_lines=["set"],
        )
        with pytest.raises(CorpusError):
            validate_disjoint([clash], [mono])


class TestPersistence:
    def test_mono_round_trip_with_binary_tests(self, tmp_path):
        sample = MonoSample(
            id="p:m",
            code_lines=["int main ( ) {", "}"],
            tests=[TestCase(input=b"\xff\x00binary", expected_output=b"out\n")],
        )
        path = tmp_path / "y.jsonl"
        save_mono([sample], path)
        assert load_mono(path) == [sample]

    def test_load_mono_refuses_an_empty_code_line(self, tmp_path):
        # an empty line cannot be prefixed for forward expansion, so it would
        # otherwise stop the run at evaluate, after both fine-tunes
        tests = [TestCase(input=b"", expected_output=b"").to_record()]
        record = {"id": "p:blank", "code_lines": ["int main ( ) {", "", "}"], "tests": tests}
        path = tmp_path / "y.jsonl"
        path.write_text(json.dumps(record) + "\n")
        message = f"{path}:1: malformed record: p:blank: code line 2 is empty"
        with pytest.raises(MalformedRow, match=re.escape(message)):
            load_mono(path)

    @pytest.mark.parametrize(
        "line",
        [
            '{"id":"x"}',
            "[1,2]",
            "null",
            '{"id":"x","code_lines":["int a ;"],"tests":[{"input":5,"expected_output":""}]}',
            '{"id":"x","code_lines":"int a ;","tests":[{"input":"","expected_output":""}]}',
            '{"id":"x","code_lines":["int a ;"],"tests":"ab"}',
            '{"id":"x","code_lines":["int a ;"],"tests":{"input":""}}',
        ],
        ids=["no-fields", "list", "null", "int-payload", "string-lines", "string-tests", "dict-tests"],
    )
    @pytest.mark.parametrize("load", [load_parallel, load_mono])
    def test_a_record_of_the_wrong_shape_is_refused_naming_the_file_and_line(
        self, tmp_path, load, line
    ):
        good = ParallelSample("a:1:1", "c", 1, ["x = 1 ;"], ["set x to 1"], [TestCase(b"", b"")])
        path = tmp_path / "d.jsonl"
        save_parallel([good], path)
        with path.open("a") as fh:
            fh.write(line + "\n")
        with pytest.raises(MalformedRow, match=f"^{re.escape(str(path))}:2: malformed record: "):
            load(path)

    @pytest.mark.parametrize("load", [load_parallel, load_mono])
    def test_torn_record_is_refused_naming_the_file_and_line(self, tmp_path, load):
        # a record with tests, which both loaders read
        sample = ParallelSample("a:1:1", "c", 1, ["x = 1 ;"], ["set x to 1"], [TestCase(b"", b"")])
        path = tmp_path / "d.jsonl"
        save_parallel([sample] * 3, path)
        path.write_bytes(path.read_bytes()[:-30])
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:3: malformed record: "):
            load(path)

    def test_manifest_counts_and_hash(self, tmp_path):
        path = tmp_path / "d.jsonl"
        entry = save_parallel(
            [
                ParallelSample(
                    id="a:1:1",
                    language="cpp",
                    worker=1,
                    code_lines=["x = 1 ;"],
                    pseudo_lines=["set"],
                )
            ],
            path,
        )
        assert entry == {"count": 1, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        # the manifest is written from the entries alone: a listed file that
        # is not there is not read
        entries = {"d.jsonl": entry, "gone.jsonl": {"count": 0, "sha256": "0" * 64}}
        manifest = write_manifest(tmp_path, entries)
        assert json.loads(manifest.read_text())["files"] == entries
        assert read_manifest(tmp_path) == entries

    @pytest.mark.parametrize("content", [None, "{not json", '{"files": 3}', "[]"])
    def test_missing_or_unreadable_manifest_has_no_entries(self, tmp_path, content):
        if content is not None:
            (tmp_path / "manifest.json").write_text(content)
        assert read_manifest(tmp_path) == {}

    def test_failed_save_leaves_the_previous_file(self, tmp_path):
        def sample(n):
            return ParallelSample(
                id=f"a:{n}:1", language="cpp", worker=1, code_lines=["x = 1 ;"], pseudo_lines=["set"]
            )

        def two_samples_then_a_fault():
            yield sample(2)
            yield sample(3)
            raise OSError("disk full")

        path = tmp_path / "d.jsonl"
        save_parallel([sample(1)], path)
        before = path.read_bytes()
        with pytest.raises(OSError, match="disk full"):
            save_parallel(two_samples_then_a_fault(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["d.jsonl"]


_texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)
_bytes = st.binary(max_size=8)
_samples = st.lists(
    st.builds(
        lambda n, lines, tests: ParallelSample(
            id=f"p:{n}:1",
            language="c",
            worker=n,
            code_lines=[code for code, _ in lines],
            pseudo_lines=[pseudo for _, pseudo in lines],
            tests=[TestCase(input=i, expected_output=o) for i, o in tests],
        ),
        st.integers(0, 99),
        st.lists(st.tuples(_texts, _texts), min_size=1, max_size=3),
        st.lists(st.tuples(_bytes, _bytes), max_size=2),
    ),
    max_size=4,
)


class TestPrefixedSave:
    @settings(max_examples=60, deadline=None)
    @given(a=_samples, b=_samples)
    def test_prefix_then_rest_equals_the_whole(self, a, b):
        with tempfile.TemporaryDirectory() as tmp:
            first, extended, whole = (Path(tmp) / name for name in ("a", "ab", "whole"))
            save_parallel(a, first)
            before = first.read_bytes()
            entry = save_parallel(b, extended, first)
            assert entry == save_parallel(a + b, whole)
            assert extended.read_bytes() == whole.read_bytes()
            assert first.read_bytes() == before
            data = extended.read_bytes()
            assert entry == {"count": data.count(b"\n"), "sha256": hashlib.sha256(data).hexdigest()}
            assert load_parallel(extended) == a + b

    def test_missing_prefix_leaves_no_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            save_parallel([], tmp_path / "d.jsonl", tmp_path / "nope.jsonl")
        assert list(tmp_path.iterdir()) == []


def _reference(samples) -> bytes:
    """The snapshot bytes as ``json.dumps`` writes each sample's record."""
    return b"".join(
        json.dumps(s.to_record(), sort_keys=True, separators=(",", ":")).encode() + b"\n"
        for s in samples
    )


# pieces JSON writes as themselves or as a two-character escape, pieces it
# writes as \b, \f or \u00XX, and pieces that are decoded to text before they
# are escaped: UTF-8 and bytes that are not UTF-8
_plain = [b'"', b"\\", b"\t", b"\n", b"\r", b"a", b" ~/", b"\\n"]
_other = [b"\b", b"\f", b"\x00", b"\x1b", b"\x1f", b"\x7f", "é€".encode(), b"\xff", b"\xc3", b"\xed\xa0\x80"]
_plain_payloads = st.lists(st.sampled_from(_plain), max_size=4).map(b"".join)
# a padding that takes a payload to _BYTES_PATH_MIN, from where ASCII is
# escaped from its bytes; below it json's escaper writes the payload
_PAD = b"1 2\n" * (_BYTES_PATH_MIN // 4 + 1)
_payloads = st.builds(
    bytes.__add__,
    st.sampled_from([b"", _PAD]),
    st.one_of(
        _plain_payloads,
        # one byte off the plain pieces, which alone decides how the payload is written
        st.builds(lambda a, b, c: a + b + c, _plain_payloads, st.sampled_from(_other), _plain_payloads),
        st.lists(st.sampled_from(_plain + _other), max_size=6).map(b"".join),
        st.binary(max_size=6),
    ),
)
_tests = st.lists(st.builds(TestCase, _payloads, _payloads), max_size=3)
_parallel = st.lists(
    st.builds(
        lambda n, lines, tests, problem: ParallelSample(
            id=f"p:{n}:1",
            language="c",
            worker=n,
            code_lines=[code for code, _ in lines],
            pseudo_lines=[pseudo for _, pseudo in lines],
            tests=tests,
            problem=problem,
        ),
        st.integers(0, 99),
        st.lists(st.tuples(_texts, _texts), min_size=1, max_size=2),
        _tests,
        st.none() | _texts,
    ),
    max_size=3,
)
_mono = st.lists(
    st.builds(
        lambda n, lines, tests: MonoSample(id=f"p:{n}", code_lines=lines, tests=tests),
        st.integers(0, 99),
        st.lists(_texts.filter(bool), min_size=1, max_size=2),
        _tests.filter(bool),
    ),
    max_size=3,
)


class TestRecordEncoding:
    """Snapshots escape test payloads from their bytes; the files must be
    byte-identical to ``json.dumps`` of each sample's record."""

    @settings(max_examples=150, deadline=None)
    @given(a=_parallel, b=_parallel, mono=_mono)
    # every ASCII byte, each escaped from the bytes by its own rule
    @example(a=[], b=[], mono=[MonoSample("p:m", ["x"], [TestCase(_PAD + bytes(range(0x80)), b"")])])
    def test_snapshot_bytes_are_those_of_json_dumps(self, a, b, mono):
        with tempfile.TemporaryDirectory() as tmp:
            d, extended, y = (Path(tmp) / name for name in ("d", "ab", "y"))
            save_parallel(a, d)
            assert d.read_bytes() == _reference(a)
            save_parallel(b, extended, d)
            assert extended.read_bytes() == _reference(a + b)
            save_mono(mono, y)
            assert y.read_bytes() == _reference(mono)
            assert load_parallel(extended) == a + b and load_mono(y) == mono

    @pytest.mark.parametrize("workload", ["judge-bound", "translate-bound", "resume"])
    def test_benchmark_corpora_are_those_of_json_dumps(self, tmp_path, workload):
        with perfbench_gen() as gen:
            generated = gen.generate(workload, 4)
        save_parallel(generated.parallel, tmp_path / "d")
        save_mono(generated.mono, tmp_path / "y")
        assert (tmp_path / "d").read_bytes() == _reference(generated.parallel)
        assert (tmp_path / "y").read_bytes() == _reference(generated.mono)
