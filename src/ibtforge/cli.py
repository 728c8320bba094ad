"""Operator surface: subcommands wiring the pipeline together.

Configuration lives in one YAML file with ``IBTFORGE_<SECTION>_<KEY>``
environment overrides; every report is emitted both as a human-readable
table on stdout and as JSON on disk. Exit codes: 0 success, 1 user or
configuration error, 2 infrastructure failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import yaml

from . import __version__
from .assembler import assemble
from .corpus import (
    CorpusError,
    atomic_open,
    discover_tests,
    ingest_mono,
    ingest_parallel,
    IngestStats,
    load_mono,
    load_parallel,
    save_mono,
    save_parallel,
    write_manifest,
)
from .ibt import IbtConfig, IbtError, IterationReport, run_ibt
from .judge import JudgeConfig, JudgeFailureError, judge_program
from .lexer import tokenize_line
from .metrics import ConservationViolated, EvalReport, corpus_bleu, exact_match
from .preprocess import Prefix, apply_prefix, preprocess_sample
from .translator import (
    BACKWARD,
    BackendProtocolError,
    BackendUnavailable,
    FORWARD,
    RemoteBackend,
    TemplateBackend,
    TrainingRejected,
    TranslationRequest,
    TranslatorError,
)

log = logging.getLogger(__name__)

ENV_PREFIX = "IBTFORGE"
SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USER = 1
EXIT_INFRA = 2


class ConfigError(Exception):
    pass


_SECTION_KEYS = {
    "paths": {"parallel", "mono", "testp", "testw", "snapshots", "scratch"},
    "backend": {"forward", "backward", "forward_state", "backward_state"},
    "judge": {
        "language",
        "compiler_command",
        "compile_timeout_s",
        "run_timeout_s",
        "memory_limit_mb",
        "output_normalization",
    },
    "ibt": {"iterations", "beam", "budget", "workers_top_k", "pl_prefix_from_iteration"},
    "run": {"max_workers"},
}


@dataclasses.dataclass
class PipelineConfig:
    paths: dict
    backend: dict
    judge: JudgeConfig
    ibt: IbtConfig
    max_workers: int = 1

    def path(self, key: str) -> Path:
        value = self.paths.get(key)
        if not value:
            raise ConfigError(f"paths.{key} is not configured")
        return Path(value)


def _apply_env_overrides(raw: dict) -> dict:
    for name, value in os.environ.items():
        if not name.startswith(ENV_PREFIX + "_"):
            continue
        rest = name[len(ENV_PREFIX) + 1 :]
        section, _, key = rest.partition("_")
        section = section.lower()
        key = key.lower()
        if section not in _SECTION_KEYS:
            raise ConfigError(f"environment override for unknown section: {name}")
        raw.setdefault(section, {})[key] = yaml.safe_load(value)
    return raw


def load_config(path: str | Path | None, overrides: dict | None = None) -> PipelineConfig:
    """Load and strictly validate the pipeline configuration; unknown keys
    are rejected so typos never silently change a run."""
    raw: dict = {}
    if path is not None:
        loaded = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        raw = loaded
    raw = _apply_env_overrides(raw)
    for section, values in (overrides or {}).items():
        raw.setdefault(section, {}).update(values)
    unknown_sections = set(raw) - set(_SECTION_KEYS)
    if unknown_sections:
        raise ConfigError(f"unknown config sections: {sorted(unknown_sections)}")
    for section, keys in _SECTION_KEYS.items():
        extra = set(raw.get(section, {})) - keys
        if extra:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(extra)}")
    judge_raw = dict(raw.get("judge", {}))
    if "compiler_command" in judge_raw and judge_raw["compiler_command"] is not None:
        judge_raw["compiler_command"] = tuple(judge_raw["compiler_command"])
    scratch = raw.get("paths", {}).get("scratch")
    if scratch:
        judge_raw.setdefault("work_dir", str(scratch))
    try:
        judge_cfg = JudgeConfig(**judge_raw)
        ibt_cfg = IbtConfig(**raw.get("ibt", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return PipelineConfig(
        paths=dict(raw.get("paths", {})),
        backend=dict(raw.get("backend", {})),
        judge=judge_cfg,
        ibt=ibt_cfg,
        max_workers=int(raw.get("run", {}).get("max_workers", 1)),
    )


def build_backend(cfg: PipelineConfig, which: str):
    """Instantiate the configured backend: the ``baseline`` sentinel gives
    the in-process template table, anything else is treated as a base URL."""
    spec = cfg.backend.get(which, "baseline")
    if spec == "baseline":
        backend = TemplateBackend()
        state = cfg.backend.get(f"{which}_state")
        if state and Path(state).exists():
            backend.load_state(state)
        return backend
    return RemoteBackend(str(spec))


def _emit(human: str, record: dict, out_path: Path | None) -> None:
    print(human)
    if out_path is not None:
        record = {"schema_version": SCHEMA_VERSION, **record}
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_open(out_path) as fh:
            fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
        print(f"report written to {out_path}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_tokenize(args: argparse.Namespace) -> int:
    in_path = Path(args.input)
    out_path = Path(args.output)
    warnings = 0
    lines_out = []
    for raw in in_path.read_text(encoding="utf-8", errors="replace").splitlines():
        tokenized = tokenize_line(raw)
        warnings += len(tokenized.diagnostics)
        lines_out.append(tokenized.canonical)
    with atomic_open(out_path) as fh:
        fh.write("".join(line + "\n" for line in lines_out))
    print(f"{len(lines_out)} lines canonicalized, {warnings} warnings", file=sys.stderr)
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    stats = IngestStats()
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if args.kind == "parallel":
        samples = ingest_parallel(args.path, format=args.format, stats=stats)
        save_parallel(samples, out_path)
    else:
        samples = ingest_mono(args.path, stats=stats)
        save_mono(samples, out_path)
    write_manifest(out_path.parent, [out_path])
    record = {
        "kind": args.kind,
        "out": str(out_path),
        "samples": len(samples),
        "skipped_rows": stats.skipped_rows,
        "dropped_samples": stats.dropped_samples,
        "rejected_no_tests": stats.rejected_no_tests,
        "rejected_empty": stats.rejected_empty,
    }
    _emit(
        f"ingested {len(samples)} {args.kind} samples into {out_path} "
        f"(skipped rows: {stats.skipped_rows}, dropped samples: {stats.dropped_samples})",
        record,
        Path(args.report) if args.report else None,
    )
    return EXIT_OK


def _parse_budgets(text: str) -> list[int]:
    try:
        budgets = sorted({int(part) for part in text.split(",") if part.strip()})
    except ValueError as exc:
        raise ConfigError(f"bad budget list {text!r}") from exc
    if not budgets or any(b < 1 for b in budgets):
        raise ConfigError(f"bad budget list {text!r}")
    return budgets


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    split_key = {"test-p": "testp", "test-w": "testw"}[args.split]
    samples = [preprocess_sample(s) for s in load_parallel(cfg.path(split_key))]
    if not samples:
        raise ConfigError(f"split {args.split} is empty")
    backend = build_backend(cfg, "forward" if args.direction == FORWARD else "backward")
    if args.direction == FORWARD:
        hypotheses: list[list[str]] = []
        references: list[list[str]] = []
        raw_hyp: list[str] = []
        raw_ref: list[str] = []
        for sample in samples:
            prefix = Prefix(worker=sample.worker)
            lines = tuple(apply_prefix(prefix, line) for line in sample.code_lines)
            beams = backend.translate(TranslationRequest(FORWARD, lines, beam_size=1))
            for beam, gold in zip(beams, sample.pseudo_lines):
                hyp = beam.top.text
                raw_hyp.append(hyp)
                raw_ref.append(gold)
                hypotheses.append(hyp.split())
                references.append(gold.split())
        report = EvalReport(
            bleu=corpus_bleu(hypotheses, references),
            exact_match_pct=exact_match(raw_hyp, raw_ref),
        )
        human = (
            f"forward evaluation on {args.split}: BLEU {report.bleu:.2f}, "
            f"exact match {report.exact_match_pct:.2f} %"
        )
    else:
        budgets = _parse_budgets(args.budgets)
        max_budget = max(budgets)
        judged = 0
        success_at = {b: 0 for b in budgets}
        for sample in samples:
            if not sample.tests:
                log.warning("eval: %s has no tests, skipped", sample.id)
                continue
            beams = backend.translate(
                TranslationRequest(BACKWARD, tuple(sample.pseudo_lines), cfg.ibt.beam)
            )
            result = assemble(
                beams,
                sample.tests,
                max_budget,
                lambda source, tests: judge_program(source, tests, cfg.judge),
            )
            judged += 1
            for b in budgets:
                # the repair path is budget-independent, so success at a
                # smaller budget means success within that many executions
                if result.success and result.executions_used <= b:
                    success_at[b] += 1
        if not judged:
            raise ConfigError(f"split {args.split} has no testable samples")
        report = EvalReport(
            success_rate_at={b: 100.0 * n / judged for b, n in success_at.items()}
        )
        human = f"backward evaluation on {args.split} ({judged} programs):\n" + "\n".join(
            f"  success rate at budget {b}: {rate:.2f} %"
            for b, rate in sorted(report.success_rate_at.items())
        )
    _emit(
        human,
        {"split": args.split, "direction": args.direction, **report.to_record()},
        Path(args.out) if args.out else None,
    )
    return EXIT_OK


def _report_table(reports: list[IterationReport], budget: int) -> str:
    header = (
        f"{'Iteration':<11}{'# Test Programs':<17}"
        f"{f'Success Rate at B={budget}':<24}{'Cumulative Success Rate'}"
    )
    rows = [header]
    for r in reports:
        rows.append(
            f"{r.iteration:<11}{r.tested_count:<17}"
            f"{f'{r.success_rate_pct:.2f} %':<24}{r.cumulative_success_rate_pct:.2f} %"
        )
    return "\n".join(rows)


def cmd_run_ibt(args: argparse.Namespace) -> int:
    overrides: dict = {}
    if args.iterations is not None:
        overrides.setdefault("ibt", {})["iterations"] = args.iterations
    cfg = load_config(args.config, overrides)
    parallel = load_parallel(cfg.path("parallel"))
    mono = load_mono(cfg.path("mono"))
    forward = build_backend(cfg, "forward")
    backward = build_backend(cfg, "backward")
    snapshots = cfg.paths.get("snapshots")
    reports = run_ibt(
        parallel,
        mono,
        forward,
        backward,
        cfg.ibt,
        judge_cfg=cfg.judge,
        snapshot_dir=snapshots,
        max_workers=cfg.max_workers,
    )
    record = {
        "initial_mono_count": len(mono),
        "reports": [r.to_record() for r in reports],
    }
    _emit(
        _report_table(reports, cfg.ibt.budget),
        record,
        Path(args.out) if args.out else None,
    )
    return EXIT_OK


def cmd_judge(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    source = Path(args.source).read_text(encoding="utf-8")
    tests = discover_tests(args.tests)
    if not tests:
        raise ConfigError(f"no input*/output* test pairs under {args.tests}")
    verdict = judge_program(source, tests, cfg.judge)
    record = {
        "source": str(args.source),
        "kind": verdict.kind.value,
        "failed_test": verdict.failed_test,
        "detail": verdict.detail,
        "per_test": list(verdict.per_test),
        "wall_time_ms": [round(t, 3) for t in verdict.wall_time_ms],
    }
    human = f"{args.source}: {verdict.kind.value}"
    if verdict.failed_test is not None:
        human += f" (first failing test: {verdict.failed_test})"
    _emit(human, record, Path(args.out) if args.out else None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibtforge",
        description="iterative back-translation pipeline with execution-based filtering",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="canonicalize a corpus file line by line")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("ingest", help="build a corpus snapshot")
    p.add_argument("kind", choices=["parallel", "mono"])
    p.add_argument("path")
    p.add_argument("--format", default="spoc-tsv", choices=["spoc-tsv", "jsonl"])
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("eval", help="evaluate a translation direction on a held-out split")
    p.add_argument("--split", required=True, choices=["test-p", "test-w"])
    p.add_argument("--direction", required=True, choices=[FORWARD, BACKWARD])
    p.add_argument("--config", required=True)
    p.add_argument("--budgets", default="1,10,100")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run-ibt", help="run the full back-translation loop")
    p.add_argument("--config", required=True)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_run_ibt)

    p = sub.add_parser("judge", help="judge one source file against a test directory")
    p.add_argument("source")
    p.add_argument("tests")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_judge)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ConfigError, CorpusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except TrainingRejected as exc:
        print(f"error: training rejected: {exc}", file=sys.stderr)
        return EXIT_USER
    except (BackendUnavailable, BackendProtocolError, JudgeFailureError) as exc:
        print(f"infrastructure failure: {exc}", file=sys.stderr)
        return EXIT_INFRA
    except (IbtError, ConservationViolated, TranslatorError) as exc:
        # a snapshot or table that cannot be resumed or read
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER


if __name__ == "__main__":
    sys.exit(main())
