"""Data model and ingestion for the parallel and monolingual corpora, their
test-case stores, and line-delimited JSON snapshots."""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

from .lexer import canonicalize, strip_comments

log = logging.getLogger(__name__)

ORIGIN_SEED = "seed-corpus"
ORIGIN_AUGMENTED = "ibt-augmented"

SPOC_COLUMNS = ("text", "code", "workerid", "probid", "subid", "line")


class CorpusError(Exception):
    """Base class for corpus ingestion/validation failures."""


class MalformedRow(CorpusError):
    pass


class LengthMismatch(CorpusError):
    pass


def _b2s(data: bytes) -> str:
    return data.decode("utf-8", "surrogateescape")


def _s2b(text: str) -> bytes:
    return text.encode("utf-8", "surrogateescape")


@dataclass(frozen=True)
class TestCase:
    __test__ = False  # keep pytest from collecting this as a test class

    input: bytes
    expected_output: bytes

    def to_record(self) -> dict:
        return {"input": _b2s(self.input), "expected_output": _b2s(self.expected_output)}

    @classmethod
    def from_record(cls, rec: dict) -> TestCase:
        return cls(input=_s2b(rec["input"]), expected_output=_s2b(rec["expected_output"]))


@dataclass
class ParallelSample:
    """One element of the parallel set: aligned code/pseudocode lines plus
    annotator id and execution tests."""

    id: str
    language: str
    worker: int
    code_lines: list[str]
    pseudo_lines: list[str]
    tests: list[TestCase] = field(default_factory=list)
    preprocessed: bool = False
    origin: str = ORIGIN_SEED
    problem: str | None = None
    iteration: int | None = None

    def __post_init__(self) -> None:
        if self.language not in ("cpp", "c"):
            raise ValueError(f"bad language {self.language!r}")
        if len(self.code_lines) != len(self.pseudo_lines):
            raise LengthMismatch(
                f"{self.id}: {len(self.code_lines)} code lines vs "
                f"{len(self.pseudo_lines)} pseudocode lines"
            )
        if not self.code_lines:
            raise ValueError(f"{self.id}: sample has no lines")

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "language": self.language,
            "worker": self.worker,
            "code_lines": list(self.code_lines),
            "pseudo_lines": list(self.pseudo_lines),
            "tests": [t.to_record() for t in self.tests],
            "preprocessed": self.preprocessed,
            "origin": self.origin,
            "problem": self.problem,
            "iteration": self.iteration,
        }

    @classmethod
    def from_record(cls, rec: dict) -> ParallelSample:
        return cls(
            id=rec["id"],
            language=rec["language"],
            worker=int(rec["worker"]),
            code_lines=list(rec["code_lines"]),
            pseudo_lines=list(rec["pseudo_lines"]),
            tests=[TestCase.from_record(t) for t in rec.get("tests", [])],
            preprocessed=bool(rec.get("preprocessed", False)),
            origin=rec.get("origin", ORIGIN_SEED),
            problem=rec.get("problem"),
            iteration=rec.get("iteration"),
        )


@dataclass
class MonoSample:
    """Code plus test cases, no pseudocode; must carry at least one test or
    it cannot participate in filtration."""

    id: str
    code_lines: list[str]
    tests: list[TestCase]
    language: str = "c"
    problem: str | None = None

    def __post_init__(self) -> None:
        if not self.tests:
            raise ValueError(f"{self.id}: monolingual sample without test cases")
        if not self.code_lines:
            raise ValueError(f"{self.id}: sample has no lines")
        if "" in self.code_lines:
            raise ValueError(f"{self.id}: code line {self.code_lines.index('') + 1} is empty")

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "language": self.language,
            "code_lines": list(self.code_lines),
            "tests": [t.to_record() for t in self.tests],
            "problem": self.problem,
        }

    @classmethod
    def from_record(cls, rec: dict) -> MonoSample:
        return cls(
            id=rec["id"],
            language=rec.get("language", "c"),
            code_lines=list(rec["code_lines"]),
            tests=[TestCase.from_record(t) for t in rec["tests"]],
            problem=rec.get("problem"),
        )


@dataclass
class IngestStats:
    skipped_rows: int = 0
    dropped_samples: int = 0
    rejected_no_tests: int = 0
    rejected_empty: int = 0


# ---------------------------------------------------------------------------
# Parallel corpus ingestion


def ingest_parallel(path: str | Path, stats: IngestStats | None = None) -> list[ParallelSample]:
    """Load parallel samples from a SPoC-style TSV.

    TSV rows are grouped by (probid, subid, workerid) into whole programs in
    line order; code lines are canonicalized. Malformed rows and programs
    with non-contiguous line indices are skipped with a logged diagnostic.
    """
    path = Path(path)
    stats = stats if stats is not None else IngestStats()
    groups: dict[tuple[str, str, int], list[tuple[int, str, str]]] = {}
    order: list[tuple[str, str, int]] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        header = next(reader, None)
        if header is None:
            return []
        col = {name: idx for idx, name in enumerate(header)}
        missing = [c for c in SPOC_COLUMNS if c not in col]
        if missing:
            raise MalformedRow(f"{path}: header missing columns {missing}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                stats.skipped_rows += 1
                log.warning("%s:%d: malformed row (%d columns)", path, lineno, len(row))
                continue
            try:
                worker = int(row[col["workerid"]])
                line_idx = int(row[col["line"]])
            except ValueError:
                stats.skipped_rows += 1
                log.warning("%s:%d: non-numeric workerid/line", path, lineno)
                continue
            key = (row[col["probid"]], row[col["subid"]], worker)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append((line_idx, row[col["code"]], row[col["text"]]))
    samples: list[ParallelSample] = []
    for key in order:
        probid, subid, worker = key
        rows = sorted(groups[key])
        indices = [r[0] for r in rows]
        if indices != list(range(len(rows))):
            stats.dropped_samples += 1
            log.warning(
                "%s: %s:%s:%d: non-contiguous line indices %s", path, probid, subid, worker, indices
            )
            continue
        samples.append(
            ParallelSample(
                id=f"{probid}:{subid}:{worker}",
                language="cpp",
                worker=worker,
                code_lines=[canonicalize(code) for _, code, _ in rows],
                pseudo_lines=[text for _, _, text in rows],
                problem=probid,
            )
        )
    return samples


# ---------------------------------------------------------------------------
# Monolingual corpus ingestion

_INPUT_RE = re.compile(r"^input(.*)\.txt$")


def discover_tests(problem_dir: str | Path) -> list[TestCase]:
    """Pair up ``input*.txt``/``output*.txt`` files in a directory, sorted by
    their shared suffix."""
    problem_dir = Path(problem_dir)
    tests = []
    for inp in sorted(problem_dir.iterdir()):
        m = _INPUT_RE.match(inp.name)
        if not m:
            continue
        out = problem_dir / f"output{m.group(1)}.txt"
        if out.is_file():
            tests.append(TestCase(input=inp.read_bytes(), expected_output=out.read_bytes()))
    return tests


def code_to_lines(source_text: str) -> list[str]:
    """Split source text into canonical lines: comments stripped, blank
    lines removed."""
    lines = []
    for raw in strip_comments(source_text).splitlines():
        canonical = canonicalize(raw)
        if canonical:
            lines.append(canonical)
    return lines


def ingest_mono(path: str | Path, stats: IngestStats | None = None) -> list[MonoSample]:
    """Load monolingual samples from a per-problem directory layout: each
    problem directory holds ``*.c`` files and ``input*/output*`` test file
    pairs. Samples without tests or without code lines are rejected."""
    root = Path(path)
    stats = stats if stats is not None else IngestStats()
    samples: list[MonoSample] = []
    problem_dirs = sorted(p for p in root.iterdir() if p.is_dir()) if root.is_dir() else []
    if root.is_dir() and not problem_dirs and any(root.glob("*.c")):
        problem_dirs = [root]
    for problem_dir in problem_dirs:
        tests = discover_tests(problem_dir)
        for src in sorted(problem_dir.glob("*.c")):
            sample_id = f"{problem_dir.name}:{src.stem}"
            if not tests:
                stats.rejected_no_tests += 1
                log.warning("%s: no test cases, rejected", src)
                continue
            code_lines = code_to_lines(src.read_text(encoding="utf-8", errors="replace"))
            if not code_lines:
                stats.rejected_empty += 1
                log.warning("%s: no code lines after normalization, rejected", src)
                continue
            samples.append(
                MonoSample(
                    id=sample_id,
                    code_lines=code_lines,
                    tests=list(tests),
                    problem=problem_dir.name,
                )
            )
    return samples


# ---------------------------------------------------------------------------
# Augmentation


def move_to_parallel(
    y: MonoSample,
    worker: int,
    pseudo_lines: list[str],
    iteration: int | None = None,
) -> ParallelSample:
    """Promote a monolingual sample that survived filtration into a parallel
    sample; the caller removes ``y`` from the monolingual pool."""
    if len(pseudo_lines) != len(y.code_lines):
        raise LengthMismatch(
            f"{y.id}: {len(y.code_lines)} code lines vs {len(pseudo_lines)} pseudocode lines"
        )
    return ParallelSample(
        id=f"{y.id}#w{worker}",
        language=y.language,
        worker=worker,
        code_lines=list(y.code_lines),
        pseudo_lines=list(pseudo_lines),
        tests=list(y.tests),
        preprocessed=True,
        origin=ORIGIN_AUGMENTED,
        problem=y.problem,
        iteration=iteration,
    )


def validate_disjoint(parallel: Iterable[ParallelSample], mono: Iterable[MonoSample]) -> None:
    """A sample is parallel xor monolingual; shared ids are a pipeline bug."""
    overlap = {s.id for s in parallel} & {s.id for s in mono}
    if overlap:
        raise CorpusError(f"samples present in both corpora: {sorted(overlap)[:5]}")


# ---------------------------------------------------------------------------
# Snapshots: line-delimited JSON plus a manifest with counts and hashes

_CHUNK = 1 << 16


@contextmanager
def atomic_open(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open ``path`` for writing (text, or bytes with ``mode="wb"``) so that
    it is replaced whole or not at all: the data goes to ``<name>.tmp``,
    which is renamed over ``path`` when the block exits cleanly and deleted
    when it raises. A killed process leaves at worst a stray ``.tmp`` file,
    never a torn ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open(mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _dump_records(
    records: Iterable[dict], path: str | Path, prefix: str | Path | None = None
) -> dict:
    """Write one JSON record per line, after the bytes of ``prefix`` when it
    is given, and return the file's manifest entry: its record count and the
    sha256 of the bytes written."""
    digest = hashlib.sha256()
    count = 0
    with atomic_open(path, "wb") as fh:
        if prefix is not None:
            with open(prefix, "rb") as src:
                for chunk in iter(lambda: src.read(_CHUNK), b""):
                    digest.update(chunk)
                    fh.write(chunk)
                    count += chunk.count(b"\n")
        for rec in records:
            line = json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()
            digest.update(line)
            digest.update(b"\n")
            fh.write(line)
            fh.write(b"\n")
            count += 1
    return {"count": count, "sha256": digest.hexdigest()}


def save_parallel(
    samples: Iterable[ParallelSample], path: str | Path, prefix: str | Path | None = None
) -> dict:
    """Write ``samples`` to ``path``, after the bytes of the snapshot file
    ``prefix`` when it is given; return the file's manifest entry."""
    return _dump_records((s.to_record() for s in samples), path, prefix)


def save_mono(samples: Iterable[MonoSample], path: str | Path) -> dict:
    """Write ``samples`` to ``path``; return the file's manifest entry."""
    return _dump_records((s.to_record() for s in samples), path)


def _load_records(path: Path) -> list[dict]:
    records = []
    # a record with large test payloads can be a line of hundreds of KB, which
    # a default-sized buffer reads back in many small pieces
    with path.open("rb", buffering=1 << 20) as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8").strip()
                if line:
                    records.append(json.loads(line))
            except ValueError as exc:
                raise MalformedRow(f"{path}:{lineno}: malformed record: {exc}") from None
    return records


def load_parallel(path: str | Path) -> list[ParallelSample]:
    return [ParallelSample.from_record(r) for r in _load_records(Path(path))]


def load_mono(path: str | Path) -> list[MonoSample]:
    return [MonoSample.from_record(r) for r in _load_records(Path(path))]


def file_entry(path: str | Path) -> dict:
    """The manifest entry of a file read back from disk: its non-blank lines
    and its sha256."""
    digest = hashlib.sha256()
    count = 0
    with open(path, "rb") as fh:
        for line in fh:
            digest.update(line)
            count += bool(line.strip())
    return {"count": count, "sha256": digest.hexdigest()}


def read_manifest(directory: str | Path) -> dict[str, dict]:
    """The entries of ``directory``'s ``manifest.json``, by file name; none
    when it is missing or unreadable."""
    try:
        files = json.loads((Path(directory) / "manifest.json").read_text(encoding="utf-8"))["files"]
    except (OSError, ValueError, LookupError, TypeError):
        return {}
    return files if isinstance(files, dict) else {}


def write_manifest(directory: str | Path, entries: dict[str, dict]) -> Path:
    """Write ``entries`` (file name -> record count and sha256) to
    ``directory``'s ``manifest.json``; no listed file is read."""
    manifest = Path(directory) / "manifest.json"
    payload = {"schema_version": 1, "files": entries}
    with atomic_open(manifest) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return manifest
