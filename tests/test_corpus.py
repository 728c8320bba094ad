from __future__ import annotations

import json

import pytest

from ibtforge.corpus import (
    CorpusError,
    IngestStats,
    LengthMismatch,
    MonoSample,
    ParallelSample,
    TestCase,
    discover_tests,
    ingest_mono,
    ingest_parallel,
    load_mono,
    load_parallel,
    move_to_parallel,
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

    def test_jsonl_format_reads_snapshots(self, tmp_path):
        tsv = tmp_path / "corpus.tsv"
        write_tsv(tsv, [("a", "int x;", 5, "p7", "s1", 0)])
        snapshot = tmp_path / "d.jsonl"
        save_parallel(ingest_parallel(tsv), snapshot)
        assert ingest_parallel(snapshot, format="jsonl") == ingest_parallel(tsv)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ingest_parallel(tmp_path / "x", format="csv")


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

    def test_manifest_counts_and_hash(self, tmp_path):
        path = tmp_path / "d.jsonl"
        save_parallel(
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
        manifest = json.loads(write_manifest(tmp_path, [path]).read_text())
        assert manifest["files"]["d.jsonl"]["count"] == 1
        assert len(manifest["files"]["d.jsonl"]["sha256"]) == 64

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
