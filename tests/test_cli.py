from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import yaml

from conftest import build_mono_corpus, build_seed_parallel, requires_gcc
import ibtforge.cli as cli_module
from ibtforge.cli import EXIT_INFRA, EXIT_OK, EXIT_USER, load_config, main, ConfigError
from ibtforge.corpus import ParallelSample, TestCase, save_mono, save_parallel
from ibtforge.ibt import IbtConfig
from ibtforge.judge import JudgeConfig, judge_program
from ibtforge.preprocess import preprocess_sample
from ibtforge.translator import BACKWARD, FORWARD, BackendProtocolError, TemplateBackend

HEADER = "text\tcode\tworkerid\tprobid\tsubid\tline\n"


def write_config(tmp_path, **sections) -> str:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(sections), encoding="utf-8")
    return str(path)


def eval_corpus():
    sample = ParallelSample(
        id="e:1:3",
        language="c",
        worker=3,
        code_lines=["#include <stdio.h>", "int main ( ) {", 'printf ( " %d " , 7 ) ;', "return 0 ;", "}"],
        pseudo_lines=["include io", "main begins", "print 7", "return 0", "end"],
        tests=[TestCase(b"", b"7")],
    )
    return [preprocess_sample(sample)]


class TestTokenizeCommand:
    def test_golden_line(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("else if(  ans== int( ans))\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        assert main(["tokenize", str(src), str(out)]) == EXIT_OK
        assert out.read_text() == "else if ( ans == int ( ans ) )\n"

    def test_empty_file(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("", encoding="utf-8")
        out = tmp_path / "out.txt"
        assert main(["tokenize", str(src), str(out)]) == EXIT_OK
        assert out.read_text() == ""

    def test_unterminated_literal_warns_but_succeeds(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text('x = "abc\ny = 1;\n', encoding="utf-8")
        out = tmp_path / "out.txt"
        assert main(["tokenize", str(src), str(out)]) == EXIT_OK
        assert "1 warnings" in capsys.readouterr().err

    def test_missing_input_is_user_error(self, tmp_path):
        assert main(["tokenize", str(tmp_path / "nope"), str(tmp_path / "o")]) == EXIT_USER


class TestIngestCommand:
    def test_parallel_tsv(self, tmp_path, capsys):
        tsv = tmp_path / "c.tsv"
        tsv.write_text(
            HEADER + "set x\tx=1;\t4\tp1\ts1\t0\n" + "print x\tcout<<x;\t4\tp1\ts1\t1\n",
            encoding="utf-8",
        )
        out = tmp_path / "snap" / "D.jsonl"
        report = tmp_path / "ingest.json"
        code = main(
            ["ingest", "parallel", str(tsv), "--out", str(out), "--report", str(report)]
        )
        assert code == EXIT_OK
        assert out.exists() and (out.parent / "manifest.json").exists()
        assert json.loads(report.read_text())["samples"] == 1
        assert "ingested 1 parallel samples" in capsys.readouterr().out

    def test_mono_directory(self, tmp_path):
        pdir = tmp_path / "problems" / "p1"
        pdir.mkdir(parents=True)
        (pdir / "main.c").write_text("int main(){return 0;}\n")
        (pdir / "input_0.txt").write_bytes(b"")
        (pdir / "output_0.txt").write_bytes(b"")
        out = tmp_path / "Y.jsonl"
        assert main(["ingest", "mono", str(tmp_path / "problems"), "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 1

    def test_second_ingest_keeps_the_first_manifest_entry(self, tmp_path):
        tsv = tmp_path / "c.tsv"
        tsv.write_text(HEADER + "set x\tx=1;\t4\tp1\ts1\t0\n", encoding="utf-8")
        pdir = tmp_path / "problems" / "p1"
        pdir.mkdir(parents=True)
        (pdir / "main.c").write_text("int main(){return 0;}\n")
        (pdir / "input_0.txt").write_bytes(b"")
        (pdir / "output_0.txt").write_bytes(b"")
        snap = tmp_path / "snap"
        for kind, source, name in (
            ("parallel", tsv, "corpus.D.jsonl"),
            ("mono", tmp_path / "problems", "corpus.Y.jsonl"),
        ):
            assert main(["ingest", kind, str(source), "--out", str(snap / name)]) == EXIT_OK
        files = json.loads((snap / "manifest.json").read_text())["files"]
        assert sorted(files) == ["corpus.D.jsonl", "corpus.Y.jsonl"]
        for name, entry in files.items():
            data = (snap / name).read_bytes()
            assert entry == {"count": 1, "sha256": hashlib.sha256(data).hexdigest()}


# a value other than the default for every configurable field
CONFIG_VALUES = {
    "ibt": {
        "iterations": 3,
        "beam": 5,
        "budget": 7,
        "workers_top_k": 4,
        "pl_prefix_from_iteration": 0,
    },
    "judge": {
        "language": "cpp",
        "compiler_command": ["gcc", "{src}", "-o", "{bin}"],
        "compile_timeout_s": 12.5,
        "run_timeout_s": 2.5,
        "memory_limit_mb": 64,
        "output_normalization": "exact",
    },
}


class TestConfigLoading:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, judge={"language": "c", "typo_key": 1})
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_unknown_section_rejected(self, tmp_path):
        cfg = write_config(tmp_path, nonsense={"a": 1})
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_env_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, judge={"language": "c", "run_timeout_s": 5})
        monkeypatch.setenv("IBTFORGE_JUDGE_RUN_TIMEOUT_S", "2.5")
        monkeypatch.setenv("IBTFORGE_IBT_BEAM", "7")
        loaded = load_config(cfg)
        assert loaded.judge.run_timeout_s == 2.5
        assert loaded.ibt.beam == 7

    @pytest.mark.parametrize(
        "section, name",
        [("ibt", f.name) for f in dataclasses.fields(IbtConfig)]
        + [("judge", f.name) for f in dataclasses.fields(JudgeConfig) if f.name != "work_dir"],
    )
    @pytest.mark.parametrize("source", ["yaml", "env"])
    def test_every_config_field_accepted(self, tmp_path, monkeypatch, section, name, source):
        value = CONFIG_VALUES[section][name]
        if source == "yaml":
            cfg = write_config(tmp_path, **{section: {name: value}})
        else:
            cfg = write_config(tmp_path)
            monkeypatch.setenv(f"IBTFORGE_{section.upper()}_{name.upper()}", json.dumps(value))
        loaded = getattr(load_config(cfg), section)
        expected = tuple(value) if isinstance(value, list) else value
        assert getattr(loaded, name) == expected

    def test_invalid_value_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, judge={"language": "rust"})
        with pytest.raises(ConfigError):
            load_config(cfg)


@requires_gcc
class TestJudgeCommand:
    def test_one_shot_judging(self, tmp_path, capsys):
        src = tmp_path / "prog.c"
        src.write_text('#include <stdio.h>\nint main(){printf("%d\\n",2);return 0;}\n')
        tdir = tmp_path / "tests"
        tdir.mkdir()
        (tdir / "input_0.txt").write_bytes(b"")
        (tdir / "output_0.txt").write_bytes(b"2\n")
        cfg = write_config(tmp_path, judge={"language": "c"})
        out = tmp_path / "verdict.json"
        assert main(["judge", str(src), str(tdir), "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert "AllPassed" in capsys.readouterr().out
        assert json.loads(out.read_text())["kind"] == "AllPassed"

    def test_wrong_answer_still_exit_zero(self, tmp_path, capsys):
        src = tmp_path / "prog.c"
        src.write_text('#include <stdio.h>\nint main(){printf("1");return 0;}\n')
        tdir = tmp_path / "tests"
        tdir.mkdir()
        (tdir / "input_0.txt").write_bytes(b"")
        (tdir / "output_0.txt").write_bytes(b"2\n")
        cfg = write_config(tmp_path, judge={"language": "c"})
        assert main(["judge", str(src), str(tdir), "--config", cfg]) == EXIT_OK
        assert "WrongAnswer" in capsys.readouterr().out

    def test_missing_compiler_is_infra_failure(self, tmp_path):
        src = tmp_path / "prog.c"
        src.write_text("int main(){return 0;}\n")
        tdir = tmp_path / "tests"
        tdir.mkdir()
        (tdir / "input_0.txt").write_bytes(b"")
        (tdir / "output_0.txt").write_bytes(b"")
        cfg = write_config(
            tmp_path,
            judge={"language": "c", "compiler_command": ["no-such-cc", "{src}", "-o", "{bin}"]},
        )
        assert main(["judge", str(src), str(tdir), "--config", cfg]) == EXIT_INFRA

    def test_empty_test_dir_is_user_error(self, tmp_path):
        src = tmp_path / "prog.c"
        src.write_text("int main(){return 0;}\n")
        tdir = tmp_path / "tests"
        tdir.mkdir()
        cfg = write_config(tmp_path, judge={"language": "c"})
        assert main(["judge", str(src), str(tdir), "--config", cfg]) == EXIT_USER


@requires_gcc
class TestRunIbtCommand:
    def _config(self, tmp_path, judge=None, **sections):
        save_parallel(build_seed_parallel(), tmp_path / "D.jsonl")
        save_mono(build_mono_corpus(), tmp_path / "Y.jsonl")
        return write_config(
            tmp_path,
            paths={
                "parallel": str(tmp_path / "D.jsonl"),
                "mono": str(tmp_path / "Y.jsonl"),
                "snapshots": str(tmp_path / "snapshots"),
                "scratch": str(tmp_path / "scratch"),
            },
            judge={"language": "c", **(judge or {})},
            ibt={"iterations": 2, "beam": 4, "budget": 10, "workers_top_k": 2},
            **sections,
        )

    def test_table_and_json_report(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out = tmp_path / "report.json"
        assert main(["run-ibt", "--config", cfg, "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "Cumulative Success Rate" in stdout
        assert "50.00 %" in stdout and "100.00 %" in stdout
        record = json.loads(out.read_text())
        rates = [r["cumulative_success_rate_pct"] for r in record["reports"]]
        assert rates == sorted(rates) and rates[1] > rates[0]

    def test_zero_iterations_is_config_error(self, tmp_path):
        cfg = self._config(tmp_path)
        assert main(["run-ibt", "--config", cfg, "--iterations", "0"]) == EXIT_USER

    @pytest.mark.parametrize("max_workers", [0, -3])
    def test_max_workers_below_one_is_config_error(self, tmp_path, capsys, max_workers):
        cfg = self._config(tmp_path, run={"max_workers": max_workers})
        assert main(["run-ibt", "--config", cfg]) == EXIT_USER
        assert "max_workers must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "snapshots").exists()

    def test_rerun_from_finished_snapshot_is_stable(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["run-ibt", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["run-ibt", "--config", cfg, "--out", str(out2)]) == EXIT_OK

        def strip(path):
            rec = json.loads(path.read_text())
            for r in rec["reports"]:
                r.pop("wall_time_s")
            return rec

        assert strip(out1) == strip(out2)

    def test_snapshot_of_another_config_is_user_error(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        assert main(["run-ibt", "--config", cfg]) == EXIT_OK
        capsys.readouterr()
        assert main(["run-ibt", "--config", cfg, "--iterations", "3"]) == EXIT_USER
        err = capsys.readouterr().err
        assert err == "error: snapshot was produced under a different configuration\n"

    def test_protocol_error_mid_evaluate_is_infra_failure(self, tmp_path, capsys, monkeypatch):
        class BrokenForward(TemplateBackend):
            def translate(self, req):
                raise BackendProtocolError("translate: beam count does not match line count")

        monkeypatch.setattr(
            cli_module,
            "build_backend",
            lambda cfg, which: BrokenForward() if which == "forward" else TemplateBackend(),
        )
        cfg = self._config(tmp_path)
        assert main(["run-ibt", "--config", cfg]) == EXIT_INFRA
        assert "beam count does not match" in capsys.readouterr().err
        state = json.loads((tmp_path / "snapshots" / "state.json").read_text())
        assert (state["iteration"], state["completed_phase"]) == (0, "finetune-backward")

    def test_judge_fault_stops_the_run_resumably(self, tmp_path, capsys):
        """A compiler that cannot be found stops the run after the last
        completed phase; a rerun with the default compiler resumes there and
        prints the uninterrupted run's reports."""
        (tmp_path / "clean").mkdir()
        assert main(["run-ibt", "--config", self._config(tmp_path / "clean")]) == EXIT_OK
        clean = capsys.readouterr().out
        missing = {"compiler_command": ["no-such-cc", "{src}", "-o", "{bin}"]}
        assert main(["run-ibt", "--config", self._config(tmp_path, missing)]) == EXIT_INFRA
        assert "compiler not found: no-such-cc" in capsys.readouterr().err
        state = json.loads((tmp_path / "snapshots" / "state.json").read_text())
        assert (state["iteration"], state["completed_phase"]) == (0, "finetune-backward")
        assert main(["run-ibt", "--config", self._config(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().out == clean

    @pytest.mark.parametrize("which", ["forward", "backward"])
    def test_missing_configured_table_is_user_error(self, tmp_path, capsys, monkeypatch, which):
        missing = tmp_path / f"{which}.typo.jsonl"
        monkeypatch.setenv(f"IBTFORGE_BACKEND_{which.upper()}_STATE", str(missing))
        assert main(["run-ibt", "--config", self._config(tmp_path)]) == EXIT_USER
        assert str(missing) in capsys.readouterr().err
        assert not (tmp_path / "snapshots").exists()

    @pytest.mark.parametrize(
        "boundary",
        [(0, "finetune-forward"), (0, "finetune-backward"), (0, "report"), (1, "evaluate")],
    )
    def test_resume_with_a_configured_table_reproduces_the_run(
        self, tmp_path, capsys, monkeypatch, boundary
    ):
        """The configured table is loaded on every start, and a resume
        replays the completed fine-tunes on top of it."""
        pretrained = TemplateBackend()
        pretrained.fine_tune(
            [preprocess_sample(ParallelSample("q:1:1", "c", 1, ["putchar ( a ) ;"], ["print x"]))],
            FORWARD,
            {"worker_prefix": True},
        )
        pretrained.save_state(tmp_path / "fwd.jsonl")
        monkeypatch.setenv("IBTFORGE_BACKEND_FORWARD_STATE", str(tmp_path / "fwd.jsonl"))

        def reports(name: str) -> list:
            rec = json.loads((tmp_path / name).read_text())
            return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rec["reports"]]

        (tmp_path / "clean").mkdir()
        cfg = self._config(tmp_path / "clean")
        assert main(["run-ibt", "--config", cfg, "--out", str(tmp_path / "clean.json")]) == EXIT_OK
        # the configured table changes what the run augments
        assert reports("clean.json")[0]["augmented_pairs_count"] == 1

        runner = cli_module.IbtRunner

        class Stopping(runner):
            def run(self, stop_after=None):
                return super().run(stop_after=boundary)

        (tmp_path / "s").mkdir()
        cfg = self._config(tmp_path / "s")
        monkeypatch.setattr(cli_module, "IbtRunner", Stopping)
        assert main(["run-ibt", "--config", cfg]) == EXIT_OK
        monkeypatch.setattr(cli_module, "IbtRunner", runner)
        out = tmp_path / "resumed.json"
        assert main(["run-ibt", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert reports("resumed.json") == reports("clean.json")

    def test_damaged_state_file_is_user_error(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        assert main(["run-ibt", "--config", cfg]) == EXIT_OK
        capsys.readouterr()
        state_path = tmp_path / "snapshots" / "state.json"
        state = json.loads(state_path.read_text())
        del state["initial_mono_count"]
        state_path.write_text(json.dumps(state))
        assert main(["run-ibt", "--config", cfg]) == EXIT_USER
        err = capsys.readouterr().err
        assert err == (
            "error: cannot resume: state.json is malformed: KeyError('initial_mono_count')\n"
        )


@requires_gcc
class TestEvalCommand:
    def _config(self, tmp_path):
        samples = eval_corpus()
        save_parallel(samples, tmp_path / "testp.jsonl")
        forward = TemplateBackend()
        forward.fine_tune(samples, FORWARD, {"worker_prefix": True})
        forward.save_state(tmp_path / "fwd.jsonl")
        backward = TemplateBackend()
        backward.fine_tune(samples, BACKWARD, {})
        backward.save_state(tmp_path / "bwd.jsonl")
        return write_config(
            tmp_path,
            paths={"testp": str(tmp_path / "testp.jsonl")},
            backend={
                "forward": "baseline",
                "backward": "baseline",
                "forward_state": str(tmp_path / "fwd.jsonl"),
                "backward_state": str(tmp_path / "bwd.jsonl"),
            },
            judge={"language": "c"},
            ibt={"beam": 4},
        )

    def test_forward_eval_perfect_on_training_data(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out = tmp_path / "eval.json"
        code = main(
            ["eval", "--split", "test-p", "--direction", "forward", "--config", cfg, "--out", str(out)]
        )
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        assert record["bleu"] == pytest.approx(100.0)
        assert record["exact_match_pct"] == pytest.approx(100.0)

    def test_backward_budget_sweep(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out = tmp_path / "eval.json"
        code = main(
            [
                "eval", "--split", "test-p", "--direction", "backward",
                "--config", cfg, "--budgets", "1,10,100", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        assert sorted(record["success_rate_at"]) == ["1", "10", "100"]
        assert record["success_rate_at"]["1"] == pytest.approx(100.0)

    def test_backward_eval_judges_each_distinct_program_once(self, tmp_path, monkeypatch):
        """Two annotators of one program back-translate alike: the second
        reaches no compiler, and the report is that of the first alone."""
        cfg = self._config(tmp_path)
        calls = []

        def counting(source, tests, judge_cfg):
            calls.append(source)
            return judge_program(source, tests, judge_cfg)

        monkeypatch.setattr(cli_module, "judge_program", counting)

        def evaluate():
            calls.clear()
            out = tmp_path / "eval.json"
            argv = ["eval", "--split", "test-p", "--direction", "backward", "--config", cfg]
            assert main([*argv, "--budgets", "1,10", "--out", str(out)]) == EXIT_OK
            return json.loads(out.read_text()), list(calls)

        alone, alone_calls = evaluate()
        sample = eval_corpus()[0]
        twin = dataclasses.replace(sample, id="e:1:4", worker=4)
        save_parallel([sample, twin], tmp_path / "testp.jsonl")
        both, both_calls = evaluate()
        assert alone_calls and both_calls == alone_calls
        assert both == alone

    def test_empty_split_is_user_error(self, tmp_path):
        (tmp_path / "testp.jsonl").write_text("")
        cfg = write_config(
            tmp_path,
            paths={"testp": str(tmp_path / "testp.jsonl")},
            judge={"language": "c"},
        )
        code = main(["eval", "--split", "test-p", "--direction", "forward", "--config", cfg])
        assert code == EXIT_USER

    def test_bad_budget_list_is_user_error(self, tmp_path):
        cfg = self._config(tmp_path)
        code = main(
            ["eval", "--split", "test-p", "--direction", "backward", "--config", cfg, "--budgets", "0,x"]
        )
        assert code == EXIT_USER


class _ModelStub(BaseHTTPRequestHandler):
    """Model server that answers each path with its entry in ``replies``:
    training completes at once unless a test replaces that, and translating
    answers only what a test puts there."""

    replies: dict[str, tuple[int, object]]

    def log_message(self, *args):  # noqa: D102 - silence the test server
        pass

    def do_GET(self):
        self.do_POST()

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        code, payload = self.replies.get(self.path, (404, {"error": "no such endpoint"}))
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class TestRemoteBackendFailures:
    def _run(self, tmp_path, path, reply, mono=None):
        replies = {
            "/finetune": (200, {"handle": "job-1"}),
            "/status/job-1": (200, {"handle": "job-1", "state": "completed"}),
            path: reply,
        }
        handler = type("Stub", (_ModelStub,), {"replies": replies})
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_port}"
        try:
            save_parallel(build_seed_parallel(), tmp_path / "D.jsonl")
            save_mono(mono or build_mono_corpus(), tmp_path / "Y.jsonl")
            cfg = write_config(
                tmp_path,
                paths={"parallel": str(tmp_path / "D.jsonl"), "mono": str(tmp_path / "Y.jsonl")},
                backend={"forward": url, "backward": url},
                judge={"language": "c"},
            )
            return main(["run-ibt", "--config", cfg])
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_protocol_violation_is_infra_failure(self, tmp_path, capsys):
        assert self._run(tmp_path, "/finetune", (200, {"no": "handle"})) == EXIT_INFRA
        assert "lacks a handle" in capsys.readouterr().err

    def test_rejected_training_is_user_error(self, tmp_path, capsys):
        assert self._run(tmp_path, "/finetune", (422, {"error": "bad dataset"})) == EXIT_USER
        assert "training rejected" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["/translate", "/finetune", "/status/job-1"])
    def test_non_object_body_is_infra_failure(self, tmp_path, capsys, path):
        assert self._run(tmp_path, path, (200, [])) == EXIT_INFRA
        assert f"{path}: response is not a JSON object" in capsys.readouterr().err

    def test_non_list_candidates_is_infra_failure(self, tmp_path, capsys):
        # one program, so the first request translates its lines
        mono = build_mono_corpus()[:1]
        beams = [{"candidates": 5}] * len(mono[0].code_lines)
        assert self._run(tmp_path, "/translate", (200, {"beams": beams}), mono) == EXIT_INFRA
        assert "translate: candidates are not a list: 5" in capsys.readouterr().err
