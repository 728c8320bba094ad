"""Spans around the calls the IBT loop makes into each layer, recorded from
the benchmark's own files: nothing in ``src/`` is instrumented.

Spans come from the backend objects and the judge function handed to
``IbtRunner``, and from wrappers installed on the module attributes that
``ibtforge.ibt`` resolves at call time. Each span has a name, start, end, the
span that caused it (per thread, falling back to the current phase span for
the evaluation threads) and the monolingual sample being evaluated.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
import time
from contextlib import contextmanager

import ibtforge.ibt as ibt_module
from ibtforge.judge import judge_program

# ``ibtforge.ibt`` attributes that read or write snapshot files: the layer
# their spans are named after, and the argument holding the file's path
# (None: the path is returned)
SNAPSHOT_CALLS = {
    "load_parallel": ("corpus", 0),
    "load_mono": ("corpus", 0),
    "save_parallel": ("corpus", 1),
    "save_mono": ("corpus", 1),
    "write_manifest": ("corpus", None),
    "_dump_json": ("ibt", 0),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.iteration: int | None = None
        self.phase: str | None = None
        self.phase_span: int | None = None
        self.lexed_lines: list[str] = []  # lines sent to translate and assemble
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = next(self._ids)
        rec = {
            "id": sid,
            "parent": stack[-1] if stack else self.phase_span,
            "sample": getattr(self._local, "sample", None),
            "name": name,
            "iteration": self.iteration,
            "phase": self.phase,
            **attrs,
        }
        stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)  # list.append is atomic under the GIL

    def set_sample(self, sample_id: str | None) -> None:
        self._local.sample = sample_id

    @contextmanager
    def phase_scope(self, iteration: int, phase: str):
        self.iteration, self.phase = iteration, phase
        with self.span("ibt.phase") as rec:
            self.phase_span = rec["id"]
            try:
                yield rec
            finally:
                self.iteration = self.phase = self.phase_span = None


class TracedBackend:
    """Forwards to a backend, recording spans for translate, fine-tune and
    table persistence."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def translate(self, req):
        self._tracer.lexed_lines.extend(req.lines)
        with self._tracer.span("translator.translate", direction=req.direction, lines=len(req.lines)) as rec:
            beams = self._inner.translate(req)
        rec["candidates"] = sum(len(b.candidates) for b in beams)
        rec["echo_lines"] = sum(1 for b in beams if b.top.score == float("-inf"))
        return beams

    def fine_tune(self, dataset, direction, config):
        pairs = sum(len(s.code_lines) for s in dataset)
        with self._tracer.span("translator.fine_tune", direction=direction, pairs=pairs):
            return self._inner.fine_tune(dataset, direction, config)

    def save_state(self, path):
        with self._tracer.span("translator.save_state") as rec:
            self._inner.save_state(path)
        rec["bytes"] = os.path.getsize(path)

    def load_state(self, path):
        with self._tracer.span("translator.load_state", bytes=os.path.getsize(path)):
            self._inner.load_state(path)

    def table_size(self, direction: str) -> int:
        return self._inner.table_size(direction)


def traced_judge(judge_cfg, tracer: Tracer):
    seen: set[str] = set()
    lock = threading.Lock()

    def judge(source, tests):
        h = hashlib.sha256(source.encode())
        for t in tests:
            h.update(len(t.input).to_bytes(8, "big") + t.input)
            h.update(len(t.expected_output).to_bytes(8, "big") + t.expected_output)
        key = h.hexdigest()
        with lock:
            duplicate = key in seen
            seen.add(key)
        with tracer.span("judge.call", duplicate=duplicate) as rec:
            verdict = judge_program(source, tests, judge_cfg)
        rec["kind"] = verdict.kind.value
        rec["run_ms"] = list(verdict.wall_time_ms)
        return verdict

    return judge


def _wrap_expand(fn, tracer: Tracer):
    def expand_workers(sample, workers, forward, language_tag=None):
        tracer.set_sample(sample.id)
        with tracer.span("translator.expand_workers", workers=len(workers)):
            return fn(sample, workers, forward, language_tag)

    return expand_workers


def _wrap_assemble(fn, tracer: Tracer, budget: int):
    def assemble(beams, tests, budget_arg, judge, *args, **kwargs):
        for beam in beams:
            tracer.lexed_lines.extend(c.text for c in beam.candidates)
        with tracer.span("assembler.assemble", lines=len(beams)) as rec:
            result = fn(beams, tests, budget_arg, judge, *args, **kwargs)
        chosen = [beams[i].candidates[c] for i, c in enumerate(result.chosen_indices)]
        rec["executions"] = result.executions_used
        rec["success"] = result.success
        rec["exhausted"] = not result.success and result.executions_used >= budget
        rec["echo"] = any(c.score == float("-inf") for c in chosen)
        rec["beam_sizes"] = [len(b.candidates) for b in beams]
        return result

    return assemble


def _wrap_io(fn, tracer: Tracer, name: str):
    layer, path_arg = SNAPSHOT_CALLS[name]

    def io(*args, **kwargs):
        with tracer.span(f"{layer}.{name}") as rec:
            result = fn(*args, **kwargs)
        rec["bytes"] = os.path.getsize(result if path_arg is None else args[path_arg])
        return result

    return io


def _wrap_preprocess(fn, tracer: Tracer):
    def preprocess_sample(sample):
        with tracer.span("preprocess.sample"):
            return fn(sample)

    return preprocess_sample


@contextmanager
def installed(tracer: Tracer, budget: int):
    """Install the wrappers on ``ibtforge.ibt`` and restore the originals on
    exit."""
    originals = {}
    wrappers = {
        "expand_workers": lambda f: _wrap_expand(f, tracer),
        "assemble": lambda f: _wrap_assemble(f, tracer, budget),
        "preprocess_sample": lambda f: _wrap_preprocess(f, tracer),
    }
    for name in SNAPSHOT_CALLS:
        wrappers[name] = lambda f, name=name: _wrap_io(f, tracer, name)
    for name, make in wrappers.items():
        originals[name] = getattr(ibt_module, name)
        setattr(ibt_module, name, make(originals[name]))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(ibt_module, name, fn)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced run

CONTAINERS = ("ibt.phase", "ibt.setup", "ibt.recovery", "ibt.resume")
SNAPSHOT_WRITES = (
    "corpus.save_parallel",
    "corpus.save_mono",
    "corpus.write_manifest",
    "ibt._dump_json",
    "translator.save_state",
)
SNAPSHOT_IO = SNAPSHOT_WRITES + ("corpus.load_parallel", "corpus.load_mono", "translator.load_state")
VERDICTS = ("AllPassed", "CompileError", "RuntimeFail", "WrongAnswer", "TimeLimit", "JudgeFailure")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(traced: dict, untraced_wall_s: float) -> dict[str, float]:
    spans = traced["spans"]
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    self_s = {s["id"]: dur[s["id"]] - sum(dur[c["id"]] for c in children.get(s["id"], [])) for s in spans}
    named: dict[str, list[dict]] = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def total(name: str, key: str | None = None) -> float:
        return sum(s[key] if key else dur[s["id"]] for s in named.get(name, []))

    m: dict[str, float] = {}
    tested = traced["tested"]

    # translator
    translate = named.get("translator.translate", [])
    for direction in ("forward", "backward"):
        mine = [s for s in translate if s["direction"] == direction]
        lines = sum(s["lines"] for s in mine)
        m[f"translator.{direction}.lines"] = lines
        m[f"translator.{direction}.ms_per_line"] = 1000 * _share(sum(dur[s["id"]] for s in mine), lines)
        for it in (0, 1):
            at = [s for s in mine if s["iteration"] == it]
            m[f"translator.echo_line_share.{direction}.it{it}"] = _share(
                sum(s["echo_lines"] for s in at), sum(s["lines"] for s in at)
            )
    backward = [s for s in translate if s["direction"] == "backward"]
    m["translator.beam_width"] = _share(sum(s["candidates"] for s in backward), m["translator.backward.lines"])
    m["translator.finetune.ms_per_pair"] = 1000 * _share(total("translator.fine_tune"), total("translator.fine_tune", "pairs"))
    m["translator.table_size.forward"] = traced["table_size"]["forward"]
    m["translator.table_size.backward"] = traced["table_size"]["backward"]
    m["translator.save_state_s"] = total("translator.save_state")
    m["translator.save_state_bytes"] = total("translator.save_state", "bytes")

    m["lexer.lines_per_s"] = traced["lexer_lines_per_s"]

    # assembler
    calls = named.get("assembler.assemble", [])
    executions = [s["executions"] for s in calls]
    passes = [s for s in calls if s["success"]]
    m["assembler.calls"] = len(calls)
    m["assembler.executions_per_call.p50"] = percentile(executions, 50)
    m["assembler.executions_per_call.p90"] = percentile(executions, 90)
    m["assembler.executions_per_call.max"] = max(executions, default=0)
    m["assembler.pass_share"] = _share(len(passes), len(calls))
    m["assembler.budget_exhausted_share"] = _share(sum(1 for s in calls if s["exhausted"]), len(calls))
    m["assembler.echo_pass_share"] = _share(sum(1 for s in passes if s["echo"]), len(passes))
    for it in (0, 1):
        at = [s for s in passes if s["iteration"] == it]
        m[f"assembler.echo_pass_share.it{it}"] = _share(sum(1 for s in at if s["echo"]), len(at))
    m["assembler.self_ms_per_call"] = 1000 * _share(sum(self_s[s["id"]] for s in calls), len(calls))

    # judge
    judged = named.get("judge.call", [])
    call_ms = [1000 * dur[s["id"]] for s in judged]
    verdicts = [s for s in judged if "kind" in s]
    m["judge.calls"] = len(judged)
    m["judge.calls_per_program"] = _share(len(judged), tested)
    m["judge.ms_per_call.p50"] = percentile(call_ms, 50)
    m["judge.ms_per_call.p95"] = percentile(call_ms, 95)
    m["judge.compile_ms"] = percentile([1000 * dur[s["id"]] - sum(s["run_ms"]) for s in verdicts], 50)
    m["judge.run_ms_per_test"] = percentile([t for s in verdicts for t in s["run_ms"]], 50)
    for kind in VERDICTS:
        m[f"judge.verdict.{kind}"] = sum(1 for s in verdicts if s["kind"] == kind)
    m["judge.duplicate_share"] = _share(sum(1 for s in judged if s["duplicate"]), len(judged))
    m["judge.infra_failures"] = len(judged) - len(verdicts)

    # ibt
    for phase in ("finetune-forward", "finetune-backward", "evaluate", "augment", "report"):
        m[f"ibt.phase.{phase}_s"] = sum(dur[s["id"]] for s in named.get("ibt.phase", []) if s["phase"] == phase)
    writes = [s for s in spans if s["name"] in SNAPSHOT_WRITES]
    m["ibt.snapshot.bytes_written"] = sum(s["bytes"] for s in writes)
    m["ibt.snapshot.write_s"] = sum(dur[s["id"]] for s in writes)
    m["ibt.resume_s"] = total("ibt.resume")
    recovery = traced["recovery_span"]
    parent = {s["id"]: s["parent"] for s in spans}

    def within(sid: int) -> bool:
        while sid is not None:
            if sid == recovery:
                return True
            sid = parent.get(sid)
        return False

    io = sum(dur[s["id"]] for s in spans if s["name"] in SNAPSHOT_IO and within(s["id"]))
    m["ibt.recovery.snapshot_io_share"] = _share(io, dur[recovery])
    m["ibt.quarantine_share"] = _share(traced["quarantined"], tested)

    # corpus and preprocess
    m["corpus.load_s"] = total("corpus.load_parallel") + total("corpus.load_mono")
    m["corpus.save_s"] = total("corpus.save_parallel") + total("corpus.save_mono")
    m["corpus.bytes"] = traced["corpus_bytes"]
    m["preprocess.ms_per_sample"] = 1000 * _share(total("preprocess.sample"), len(named.get("preprocess.sample", [])))

    # where the loop's busy time goes: self time per layer, containers'
    # own time counted as the runner's
    busy: dict[str, float] = {}
    for s in spans:
        layer = "ibt" if s["name"] in CONTAINERS else s["name"].split(".")[0]
        busy[layer] = busy.get(layer, 0.0) + max(0.0, self_s[s["id"]])
    whole = sum(busy.values())
    for layer in ("translator", "assembler", "judge"):
        m[f"{layer}.busy_share"] = _share(busy.get(layer, 0.0), whole)

    m["trace.overhead_pct"] = 100.0 * (traced["wall_s"] / untraced_wall_s - 1.0)
    return m
