"""Seeded generator of the benchmark's inputs: SPoC-shaped C++ parallel data
(annotator ids, aligned pseudocode) and CodeNet-shaped C monolingual programs
with tests. Nothing is downloaded; the same seed always gives the same corpora.

Programs are built from a small line language (``Line`` tuples below) that
renders to C source, to the pseudocode phrase a given annotator would write,
and to a Python evaluation that produces each test's expected output. Expected
outputs therefore come from the generator itself, never from the pipeline.

Every monolingual program carries one of four kinds, and an expectation of
when the loop should pass it:

* ``plain``   -- every line round-trips at iteration 0 (``iteration-0``).
* ``trap``    -- prints with ``printf("%d\\n", v)``. Every annotator's seed
  pseudocode for that line also annotates a later ``cout`` line, which shadows
  the ``printf`` mapping (the trap of ``tests/conftest.py``), so the program
  fails to compile at iteration 0 and only passes once ``<pl:c>`` templates
  learned from augmented C data take over (``after-adaptation``).
* ``wide``    -- has ``v = a % n`` lines that several backward templates
  match. The extra templates are more specific and render C++ ``cout`` code,
  so greedy repair walks ``r`` compile errors per line before the correct
  candidate. One variant costs ``1 + sum(r)`` executions; within the budget it
  passes at iteration 0, beyond it only after adaptation.
* ``never``   -- prints with ``printf(" %d ", v)``. The canonical line form
  pads string literals with one boundary space and strips it again before
  compiling, so a literal that already starts and ends with a space loses
  both; no translation can reproduce the original output (``never``).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from ibtforge.corpus import MonoSample, ParallelSample, TestCase, code_to_lines
from ibtforge.ibt import IbtConfig

OP_WORDS = {"+": "plus", "-": "minus", "*": "times"}

# One phrase list per line shape; annotator ``w`` uses entry ``(w - 1) % 4``.
# Phrases are distinct across shapes because the backward table is keyed on
# pseudocode alone.
PHRASES = {
    "main": ["main begins", "start main", "begin main function", "main starts here"],
    "decl": ["declare int {v}", "create integer {v}", "make int {v}", "let {v} be an integer"],
    "read": ["read {v}", "input {v}", "read integer {v}", "get {v} from input"],
    "print_sp": [
        "print {v} and a space",
        "output {v} then space",
        "display {v} followed by a space",
        "write {v} with trailing space",
    ],
    "print_nl": ["print {v}", "output {v}", "display {v}", "write {v}"],
    "print_pad": [
        "print {v} without newline",
        "output {v} alone",
        "display just {v}",
        "write only {v}",
    ],
    "expr": ["set {v} to {e}", "assign {e} to {v}", "let {v} be {e}", "{v} gets {e}"],
    "wide": ["set {v} to {a} modulo {n}"] * 4,
    "for": [
        "for i = 0 to n exclusive",
        "loop i from 0 to n",
        "repeat for i from 0 below n",
        "for each i less than n",
    ],
    "close": ["end", "close block", "end block", "done"],
    "return": ["return 0", "return zero", "exit with 0", "finish returning 0"],
}

TESTS_PER_PROGRAM = 2

PRINT_FORMATS = {"print_sp": "%d ", "print_nl": "%d\\n", "print_pad": " %d "}

# Literal sets of the wide-line templates that shadow the correct one, in the
# order a wide line with ``r`` repairs takes them.
LADDER = [("v",), ("a",), ("n",), ("v", "a"), ("v", "n"), ("a", "n"), ("v", "a", "n")]

# Line tuples:
#   ("include",) ("main",) ("return",) ("close",)
#   ("decl", v) ("read", v) (<print shape>, v)
#   ("expr", v, operands, ops)   operands: names (str) or constants (int)
#   ("wide", v, a, n)
#   ("for", body)                fixed header ``for (i = 0; i < n; i++)``
Line = tuple


@dataclass(frozen=True)
class Workload:
    name: str
    iterations: int
    beam: int
    budget: int
    workers: int  # annotators in the seed corpus; all are top-k workers
    max_workers: int
    programs: dict  # kind -> count
    wide_executions: tuple  # executions per variant of each wide program
    expr_lines: int  # expression lines per program
    shapes: int  # distinct expression shapes in the seed corpus
    bulk: int  # numbers per test read by a loop; 0 for straight-line programs
    stop_after: tuple | None = None

    def ibt_config(self) -> IbtConfig:
        return IbtConfig(
            iterations=self.iterations,
            beam=self.beam,
            budget=self.budget,
            workers_top_k=self.workers,
            pl_prefix_from_iteration=1,
        )


WORKLOADS = {
    # Small tables, wide beams, every annotator's variant collapsing to the
    # same C program, two evaluation threads.
    "judge-bound": Workload(
        name="judge-bound",
        iterations=3,
        beam=8,
        budget=6,
        workers=4,
        max_workers=2,
        programs={"plain": 3, "wide": 5, "trap": 2, "never": 1},
        wide_executions=(2, 3, 4, 6, 8),
        expr_lines=3,
        shapes=6,
        bulk=0,
    ),
    # Thousands of backward shapes sharing the "set <ID> to ..." prefix, one
    # annotator, one thread, short repair paths.
    "translate-bound": Workload(
        name="translate-bound",
        iterations=2,
        beam=4,
        budget=4,
        workers=1,
        max_workers=1,
        programs={"plain": 1, "wide": 1, "trap": 1, "never": 1},
        wide_executions=(2,),
        expr_lines=5,
        shapes=2000,
        bulk=0,
    ),
    # Large test payloads, stopped after the last evaluation and recovered.
    "resume": Workload(
        name="resume",
        iterations=2,
        beam=4,
        budget=4,
        workers=2,
        max_workers=1,
        programs={"plain": 8, "wide": 1, "trap": 2, "never": 1},
        wide_executions=(2,),
        expr_lines=1,
        shapes=4,
        bulk=12000,
        stop_after=(1, "evaluate"),
    ),
}

SMOKE = {
    "judge-bound": dict(programs={"plain": 1, "wide": 2, "trap": 1, "never": 1}, wide_executions=(3, 8)),
    "translate-bound": dict(shapes=60, expr_lines=3, programs={"plain": 1, "wide": 1, "trap": 1, "never": 1}),
    "resume": dict(bulk=50, programs={"plain": 2, "wide": 1, "trap": 1, "never": 1}),
}


def workload(name: str, smoke: bool = False) -> Workload:
    base = WORKLOADS[name]
    if not smoke:
        return base
    fields = {**base.__dict__, **SMOKE[name]}
    return Workload(**fields)


@dataclass
class Program:
    id: str
    kind: str
    expect: str  # iteration-0 | after-adaptation | never
    source: str  # the original C program, judged verbatim for ground truth
    tests: list[TestCase]
    executions: int = 1  # judge calls one variant spends at iteration 0


@dataclass
class Generated:
    workload: Workload
    parallel: list[ParallelSample]
    mono: list[MonoSample]
    programs: list[Program]
    broken_source: str  # a program that must not compile


# ---------------------------------------------------------------------------
# rendering


def _expr_text(operands, ops, words: dict | None = None) -> str:
    parts = [str(operands[0])]
    for op, x in zip(ops, operands[1:]):
        parts += [words[op] if words else op, str(x)]
    return " ".join(parts)


def raw_lines(line: Line) -> list[str]:
    tag = line[0]
    if tag == "include":
        return ["#include <stdio.h>"]
    if tag == "main":
        return ["int main() {"]
    if tag == "return":
        return ["return 0;"]
    if tag == "close":
        return ["}"]
    if tag == "decl":
        return [f"int {line[1]};"]
    if tag == "read":
        return [f'scanf("%d", &{line[1]});']
    if tag in PRINT_FORMATS:
        return [f'printf("{PRINT_FORMATS[tag]}", {line[1]});']
    if tag == "expr":
        return [f"{line[1]} = {_expr_text(line[2], line[3])};"]
    if tag == "wide":
        return [f"{line[1]} = {line[2]} % {line[3]};"]
    if tag == "for":
        body = [text for inner in line[1] for text in raw_lines(inner)]
        return ["for (i = 0; i < n; i++) {", *body, "}"]
    raise ValueError(f"unknown line {line!r}")


def phrase(line: Line, worker: int) -> str:
    tag = line[0]
    template = PHRASES[tag][(worker - 1) % 4]
    if tag == "expr":
        return template.format(v=line[1], e=_expr_text(line[2], line[3], OP_WORDS))
    if tag == "wide":
        return template.format(v=line[1], a=line[2], n=line[3])
    if tag in ("main", "return", "close", "for"):
        return template
    return template.format(v=line[1])


def program_source(lines: list[Line]) -> str:
    return "\n".join(text for line in lines for text in raw_lines(line)) + "\n"


# ---------------------------------------------------------------------------
# evaluation: the generator's own semantics for each line


def _value(x, env: dict) -> int:
    return env[x] if isinstance(x, str) else x


def _eval_expr(operands, ops, env: dict) -> int:
    # + - * with C precedence; operands are small, so no int overflow
    total, term = 0, _value(operands[0], env)
    sign = 1
    for op, x in zip(ops, operands[1:]):
        v = _value(x, env)
        if op == "*":
            term *= v
        else:
            total += sign * term
            sign = 1 if op == "+" else -1
            term = v
    return total + sign * term


def _run(lines: list[Line], env: dict, inputs, out: list[str]) -> None:
    for line in lines:
        tag = line[0]
        if tag == "read":
            env[line[1]] = next(inputs)
        elif tag in PRINT_FORMATS:
            out.append(PRINT_FORMATS[tag].replace("\\n", "\n").replace("%d", str(env[line[1]])))
        elif tag == "expr":
            env[line[1]] = _eval_expr(line[2], line[3], env)
        elif tag == "wide":
            env[line[1]] = env[line[2]] % line[3]  # operands are non-negative
        elif tag == "for":
            for _ in range(env["n"]):
                _run(line[1], env, inputs, out)


def evaluate(lines: list[Line], inputs: list[int]) -> bytes:
    out: list[str] = []
    _run(lines, {}, iter(inputs), out)
    return "".join(out).encode()


# ---------------------------------------------------------------------------
# generation


class _Names:
    """Unique identifiers; digits keep them apart from phrase words and from
    the loop's fixed ``i``/``n``."""

    def __init__(self, rng: random.Random) -> None:
        pool = [c + str(d) for c in "bcdfghjkmpqrstuwxyz" for d in range(10, 100)]
        rng.shuffle(pool)
        self._pool = pool

    def take(self) -> str:
        return self._pool.pop()


def _expr_shapes(rng: random.Random, count: int) -> list[tuple]:
    """``count`` distinct (ops, operand classes) shapes, shortest first, so
    that every seed gives a table with the same number of shapes of each
    length; the seed picks which shapes of the last length are in."""
    by_length = []
    for n in range(2, 7):
        shapes = [
            (ops, classes)
            for ops in itertools.product("+-*", repeat=n - 1)
            for classes in itertools.product("IN", repeat=n)
        ]
        rng.shuffle(shapes)
        by_length.append(shapes)
    return [shape for shapes in by_length for shape in shapes][:count]


def _instantiate(shapes, j: int, target: str, names: list[str], rng: random.Random) -> Line:
    """Expression line ``j`` of a program, cycling through the operand counts
    the table has, so programs cost about the same on every seed."""
    lengths = sorted({len(classes) for _, classes in shapes})
    length = lengths[j % len(lengths)]
    ops, classes = rng.choice([s for s in shapes if len(s[1]) == length])
    operands = [rng.choice(names) if c == "I" else rng.randint(2, 9) for c in classes]
    return ("expr", target, tuple(operands), ops)


def _distinct(shape, rng: random.Random) -> Line:
    """An instance whose operands are all different, so abstraction gives
    every operand its own slot. Names need only differ within the line."""
    ops, classes = shape
    numbers = rng.sample(range(2, 10), sum(1 for c in classes if c == "N"))
    names = iter(f"y{k}" for k in range(1, 8))
    operands = [next(names) if c == "I" else numbers.pop() for c in classes]
    return ("expr", "y0", tuple(operands), ops)


def _split(total: int, parts: int, rng: random.Random) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0, *cuts, total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def generate(name: str, seed: int, smoke: bool = False) -> Generated:
    wl = workload(name, smoke)
    rng = random.Random(f"{name}:{seed}")
    names = _Names(rng)
    shapes = _expr_shapes(rng, wl.shapes)
    moduli = iter(rng.sample(range(11, 100), 64))

    kinds = [k for k, count in wl.programs.items() for _ in range(count)]
    rng.shuffle(kinds)
    wide_totals = list(wl.wide_executions)
    programs: list[Program] = []
    mono: list[MonoSample] = []
    wide_lines: list[tuple[Line, int]] = []  # (line, repairs)

    for index, kind in enumerate(kinds):
        inputs = [names.take() for _ in range(3)]
        results = [names.take() for _ in range(wl.expr_lines)]
        body = [_instantiate(shapes, j, r, inputs, rng) for j, r in enumerate(results)]
        prints = [("print_sp", r) for r in results]
        special = {"trap": "print_nl", "never": "print_pad"}.get(kind, "print_sp")
        executions = 1
        if kind == "wide":
            executions = wide_totals.pop(0)
            for r in _split(executions - 1, min(3, executions - 1), rng):
                a, v = names.take(), names.take()
                line = ("wide", v, a, next(moduli))
                inputs.append(a)
                body.append(line)
                prints.append(("print_sp", v))
                wide_lines.append((line, r))
        loop_var = names.take() if wl.bulk else None
        if not wl.bulk and special != "print_sp":
            pick = rng.randrange(len(prints))
            prints[pick] = (special, prints[pick][1])
        lines: list[Line] = [("include",), ("main",)]
        declared = inputs + [p[1] for p in prints] + ([loop_var, "n", "i"] if wl.bulk else [])
        lines += [("decl", v) for v in declared]
        lines += [("read", v) for v in inputs]
        lines += body
        lines += prints
        if wl.bulk:
            k, c = rng.randint(2, 9), rng.randint(2, 9)
            update = ("expr", loop_var, (loop_var, k, c), ("*", "+"))
            lines += [("read", "n"), ("for", [("read", loop_var), update, (special, loop_var)])]
        lines += [("return",), ("close",)]

        tests = []
        for _ in range(TESTS_PER_PROGRAM):
            values = [rng.randint(0, 9) for _ in inputs]
            text = " ".join(map(str, values)) + "\n"
            if wl.bulk:
                loop_values = [rng.randint(0, 999) for _ in range(wl.bulk)]
                values += [wl.bulk, *loop_values]
                text += f"{wl.bulk}\n" + " ".join(map(str, loop_values)) + "\n"
            tests.append(TestCase(input=text.encode(), expected_output=evaluate(lines, values)))
        pid = f"c{index:03d}"
        source = program_source(lines)
        expect = {"plain": "iteration-0", "trap": "after-adaptation", "never": "never"}.get(kind)
        if kind == "wide":
            expect = "iteration-0" if executions <= wl.budget else "after-adaptation"
        programs.append(Program(pid, kind, expect, source, tests, executions))
        mono.append(
            MonoSample(id=f"{pid}:main", code_lines=code_to_lines(source), tests=tests, problem=pid)
        )

    parallel = _seed_corpus(wl, rng, names, shapes, wide_lines)
    broken = programs[0].source.replace("int main() {", "int main( {", 1)
    return Generated(wl, parallel, mono, programs, broken_source=broken)


def _pair_sample(sid: str, worker: int, lines: list[Line], code: list[str] | None = None) -> ParallelSample:
    """One annotated C++ sample; a line's code is the first line it renders
    to (a loop header stands alone)."""
    if code is None:
        code = [code_to_lines(program_source([line]))[0] for line in lines]
    return ParallelSample(
        id=sid,
        language="cpp",
        worker=worker,
        code_lines=code,
        pseudo_lines=[phrase(line, worker) for line in lines],
        problem=sid.split(":")[0],
    )


def _seed_corpus(wl: Workload, rng, names: _Names, shapes, wide_lines) -> list[ParallelSample]:
    """C++ seed corpus: per annotator one sample of the fixed line shapes and
    one instance of each expression shape, then the ``cout`` lines that shadow
    ``printf("%d\\n")``, then the wide-line ladders."""
    samples: list[ParallelSample] = []
    fresh = names.take
    for worker in range(1, wl.workers + 1):
        x, u = fresh(), fresh()
        base = [
            ("main",),
            ("decl", x),
            ("read", x),
            ("print_sp", x),
            ("print_nl", x),
            ("print_pad", x),
            ("wide", fresh(), fresh(), rng.randint(2, 9)),
            ("return",),
            ("close",),
        ]
        samples.append(_pair_sample(f"s{worker}:0:{worker}", worker, base))
        if wl.bulk:
            loop = [("for", []), ("expr", u, (u, 3, 7), ("*", "+"))]
            samples.append(_pair_sample(f"s{worker}:1:{worker}", worker, loop))
        exprs = [_distinct(shape, rng) for shape in shapes]
        for chunk, start in enumerate(range(0, len(exprs), 20)):
            samples.append(_pair_sample(f"e{worker}:{chunk}:{worker}", worker, exprs[start : start + 20]))
    for worker in range(1, wl.workers + 1):
        x = fresh()
        samples.append(_pair_sample(f"t{worker}:0:{worker}", worker, [("print_nl", x)], [f"cout << {x} ;"]))
    for index, (line, repairs) in enumerate(wide_lines):
        if not repairs:
            continue
        values = dict(zip("van", (line[1], line[2], str(line[3]))))
        code = []
        for literal in LADDER[:repairs]:
            slotted = [values[k] for k in "van" if k not in literal]
            code.append("cout << " + (" << ".join(slotted) if slotted else '" ? "') + " ;")
        samples.append(_pair_sample(f"w{index}:0:1", 1, [line] * len(code), code))
    return samples
