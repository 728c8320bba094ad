"""End-to-end benchmark of the ibtforge iterative back-translation loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload judge-bound --seed 1 --seconds 36 --trace 0

It generates the workload's corpora from the seed, judges every original C
program once as ground truth, then runs the real loop (``IbtRunner``
construction, then ``IbtRunner.run``) in a child process for ``--seconds``
seconds. ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` prints the per-layer metrics of one traced run. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when the outputs are not
correct. ``--workload all`` runs every workload in turn. ``--smoke`` runs the
same harness at a tiny size.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
DIGESTS = HERE / "digests.json"
CHILD_GRACE_S = 120


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora, same harness")
    parser.add_argument(
        "--record", action="store_true", help="store this run's output digest in digests.json"
    )
    return parser.parse_args(argv)


def metadata(workload) -> dict:
    import ibtforge

    gcc = subprocess.run(["gcc", "--version"], capture_output=True, text=True, check=True)
    sources = sorted((ROOT / "src" / "ibtforge").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "gcc": gcc.stdout.splitlines()[0],
        "max_workers": workload.max_workers,
        "src_loc": sum(len(p.read_text().splitlines()) for p in sources),
        "public_names": len(ibtforge.__all__),
    }


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except OSError:
        return (0, 0)
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def ground_truth(generated, work: Path) -> list[str]:
    """Judge every original program verbatim, and one broken program; return
    the problems found."""
    from ibtforge.judge import JudgeConfig, VerdictKind, judge_program

    cfg = JudgeConfig(language="c", work_dir=str(work / "judge"))
    programs = generated.programs
    with ThreadPoolExecutor(max_workers=2) as pool:
        verdicts = list(pool.map(lambda p: judge_program(p.source, p.tests, cfg), programs))
    problems = [
        f"{p.id}: original program judged {v.kind.value}"
        for p, v in zip(programs, verdicts)
        if v.kind is not VerdictKind.ALL_PASSED
    ]
    broken = judge_program(generated.broken_source, programs[0].tests, cfg)
    if broken.kind is not VerdictKind.COMPILE_ERROR:
        problems.append(f"broken program judged {broken.kind.value}, not CompileError")
    return problems


def run_child(job: dict, work: Path) -> dict:
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "loop.py"), str(job_path)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=job["seconds"] * 2 + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("benchmark loop timed out")
    finally:
        try:  # judge processes the child may have left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise SystemExit(f"benchmark loop exited with {proc.returncode}")
    return json.loads(Path(job["result"]).read_text())


def expectation(passed_at: int | None) -> str:
    if passed_at is None:
        return "never"
    return "iteration-0" if passed_at == 0 else "after-adaptation"


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ibtforge" / "__init__.py").is_file():
        print(f"{ROOT}: no src/ibtforge here; run from the root of an ibtforge checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import gen

    if args.workload == "all":
        codes = []
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        common += ["--smoke"] * args.smoke + ["--record"] * args.record
        for name in gen.WORKLOADS:
            codes.append(main(["--workload", name, *common]))
        return max(codes)
    from ibtforge.corpus import save_mono, save_parallel

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in gen.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(gen.WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    results = ROOT / ".perfbench_work" / "results"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work / "tmp")  # gcc's temporary files stay in the checkout
    try:
        generated = gen.generate(args.workload, args.seed, args.smoke)
        meta = metadata(generated.workload)
        save_parallel(generated.parallel, work / "D.jsonl")
        save_mono(generated.mono, work / "Y.jsonl")
        problems = ground_truth(generated, work)
        job = {
            "workload": args.workload,
            "smoke": args.smoke,
            "seconds": args.seconds,
            "trace": args.trace,
            "parallel": str(work / "D.jsonl"),
            "mono": str(work / "Y.jsonl"),
            "work": str(work),
            "result": str(work / "result.json"),
        }
        steal_before, total_before = cpu_ticks()
        result = run_child(job, work)
        steal_after, total_after = cpu_ticks()
        meta["steal_pct"] = 100.0 * (steal_after - steal_before) / max(1, total_after - total_before)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = result["reps"]
    runs = reps + ([result["traced"]] if args.trace else [])
    digests = {r["digest"] for r in runs}
    if len(digests) != 1:
        problems.append(f"output digest differs between runs: {sorted(digests)}")
    digest = reps[0]["digest"]
    key = f"{args.workload}{'@smoke' if args.smoke else ''}/{args.seed}"
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if key in recorded and recorded[key] != digest:
        problems.append(f"output digest {digest} differs from the one recorded for {key}")
    labels = []
    for program in generated.programs:
        passed_at = reps[0]["passes"].get(f"{program.id}:main")
        observed = expectation(passed_at)
        labels.append((program.id, program.kind, program.expect, observed, program.executions))
        if observed != program.expect:
            problems.append(f"{program.id} ({program.kind}) expected {program.expect}, observed {observed}")
    correct = not problems

    if args.trace:
        import spans

        wanted = spec["per_layer"]
        untraced = statistics.median(r["wall_s"] for r in reps)
        values = spans.per_layer(result["traced"], untraced)
    else:
        wanted = spec["end_to_end"]
        values = {
            name: statistics.median(r[name] for r in reps)
            for name in ("programs_per_s", "cpu_s_per_program", "setup_s", "recovery_s", "cumulative_success_pct")
        }
        values["peak_rss_mb"] = result["peak_rss_mb"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "meta": meta,
        "digest": digest,
        "repetitions": [
            {k: r[k] for k in ("setup_s", "run_s", "recovery_s", "programs_per_s", "cpu_s_per_program")}
            for r in reps
        ],
        "programs": [dict(zip(("id", "kind", "expect", "observed", "executions"), row)) for row in labels],
        "problems": problems,
        "metrics": metrics,
    }
    if args.trace:
        details["spans"] = result["traced"]["spans"]
    (results / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(details))
    if args.record and correct:
        recorded[key] = digest
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    print(f"# {args.workload} seed {args.seed}: {len(reps)} repetitions, digest {digest[:16]}")
    for pid, kind, expect, observed, executions in labels:
        print(f"#   {pid} {kind:<6} executions={executions:<2} expect={expect:<16} observed={observed}")
    for problem in problems:
        print(f"# PROBLEM {problem}")
    for name, metric in metrics.items():
        print(f"#   {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["tested"] for r in runs),
                "failed": sum(r["quarantined"] for r in runs),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
