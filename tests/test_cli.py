"""Command-line interface tests (driving main() directly)."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.observability import validate_stats, validate_stats_file


@pytest.fixture
def lai_file(tmp_path):
    path = tmp_path / "prog.lai"
    path.write_text("""
func main
entry:
    input n
    make s, 0
    make i, 0
    br head
head:
    cmplt c, i, n
    cbr c, body, exit
body:
    add s, s, i
    autoadd i, i, 1
    br head
exit:
    ret s
endfunc
""")
    return str(path)


class TestRun:
    def test_run_prints_result(self, lai_file, capsys):
        assert main(["run", lai_file, "main", "5"]) == 0
        assert capsys.readouterr().out.strip() == "10"

    def test_run_trace(self, lai_file, capsys):
        assert main(["run", lai_file, "main", "3", "--trace"]) == 0
        err = capsys.readouterr().err
        assert "steps:" in err

    def test_run_hex_args(self, lai_file, capsys):
        assert main(["run", lai_file, "main", "0x3"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_runtime_error_reported(self, lai_file, capsys):
        assert main(["run", lai_file, "main"]) == 1
        assert "runtime error" in capsys.readouterr().err


class TestCompile:
    def test_compile_default(self, lai_file, capsys):
        assert main(["compile", lai_file]) == 0
        captured = capsys.readouterr()
        assert "func main" in captured.out
        assert "phi" not in captured.out
        assert "moves=" in captured.err

    def test_compile_to_file(self, lai_file, tmp_path, capsys):
        out = str(tmp_path / "out.lai")
        assert main(["compile", lai_file, "-o", out]) == 0
        text = open(out).read()
        assert "func main" in text
        from repro.lai import parse_module

        parse_module(text)  # output must re-parse

    def test_compile_experiment_choice(self, lai_file, capsys):
        assert main(["compile", lai_file, "-e", "C"]) == 0
        assert "experiment=C" in capsys.readouterr().err

    def test_compile_variant(self, lai_file, capsys):
        assert main(["compile", lai_file, "--variant", "opt"]) == 0

    def test_compile_with_verify(self, lai_file, capsys):
        assert main(["compile", lai_file, "--verify", "main", "7"]) == 0

    def test_show_ssa(self, lai_file, capsys):
        assert main(["compile", lai_file, "--show-ssa"]) == 0
        err = capsys.readouterr().err
        assert "pinned SSA" in err
        assert "phi" in err

    @pytest.mark.parametrize("flags, experiment, variant", [
        (["-e", "Sphi+C"], "Sphi+C", "base"),
        (["--variant", "pess"], "Lphi,ABI+C", "pess")],
        ids=["Sphi+C", "pess"])
    def test_show_ssa_is_the_pipelines_own(self, flags, experiment,
                                           variant, capsys):
        # The dump is the experiment's own module right before
        # out-of-pinned-ssa: sreedhar has run, and pinningPhi saw the
        # variant's options.
        from repro.ir.printer import format_module
        from repro.lai import parse_module
        from repro.pipeline import EXPERIMENTS, run_phases, table5_variants

        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples", "dsp_pipeline.lai")
        assert main(["compile", path, "--show-ssa", *flags]) == 0
        err = capsys.readouterr().err
        shown = err.split("; ---- pinned SSA ----\n", 1)[1] \
            .split("\n; experiment=", 1)[0]
        phases = EXPERIMENTS[experiment]
        module = parse_module(open(path).read(), name=path)
        expected = run_phases(module, experiment,
                              phases[:phases.index("out-of-pinned-ssa")],
                              table5_variants()[variant]).module
        assert shown == format_module(expected)

    def test_profile_passes(self, lai_file, capsys):
        assert main(["compile", lai_file, "--profile-passes"]) == 0
        err = capsys.readouterr().err
        assert "self(ms)" in err and "total(ms)" in err
        assert "phase:pinningPhi" in err
        assert "TOTAL" in err

    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["compile", "/nonexistent/x.lai"])

    def test_syntax_error(self, tmp_path):
        bad = tmp_path / "bad.lai"
        bad.write_text("func f\n    frobnicate x\nendfunc\n")
        with pytest.raises(SystemExit):
            main(["compile", str(bad)])

    def test_malformed_number_exits_with_location(self, tmp_path):
        bad = tmp_path / "bad.lai"
        bad.write_text("func f\nentry:\n    make x, 08\n    ret x\n"
                       "endfunc\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        run = subprocess.run(
            [sys.executable, "-m", "repro", "compile", str(bad)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True)
        assert run.returncode != 0
        assert run.stdout == ""
        assert run.stderr.splitlines() == [
            f"{bad}: line 3, col 13: malformed number '08'"]


class TestExperiments:
    def test_experiment_table(self, lai_file, capsys):
        assert main(["experiments", lai_file]) == 0
        out = capsys.readouterr().out
        assert "Lphi,ABI+C" in out
        assert "naiveABI+C" in out


class TestCompileObservability:
    def test_trace_and_stats_files(self, lai_file, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        stats = str(tmp_path / "s.json")
        assert main(["compile", lai_file, "--trace", trace,
                     "--stats-json", stats, "--verify", "main", "4"]) == 0
        document = json.load(open(trace))
        phases = {e["name"] for e in document["traceEvents"]
                  if e["ph"] == "X" and e["name"].startswith("phase:")}
        from repro.pipeline import EXPERIMENTS
        assert phases == {f"phase:{p}" for p in EXPERIMENTS["Lphi,ABI+C"]}
        doc = validate_stats_file(stats)
        assert doc["experiment"] == "Lphi,ABI+C"
        assert [e["phase"] for e in doc["result"]["phases"]] == \
            list(EXPERIMENTS["Lphi,ABI+C"])
        # before + after verify
        assert doc["result"]["counters"]["interp.runs"] == 2

    def test_verbose_summary_on_stderr(self, lai_file, capsys):
        assert main(["compile", lai_file, "-v"]) == 0
        err = capsys.readouterr().err
        assert "phase:coalescing" in err
        assert "dmoves" in err
        assert "counters:" in err

    def test_no_flags_no_files(self, lai_file, tmp_path, capsys):
        # Without observability flags compile must not create any files.
        assert main(["compile", lai_file]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["prog.lai"]


class TestCompileCache:
    def test_cache_dir_round_trip(self, lai_file, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["compile", lai_file, "--cache-dir", cache]) == 0
        cold = capsys.readouterr()
        assert main(["compile", lai_file, "--cache-dir", cache]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out  # byte-identical cache-hot
        assert warm.err == cold.err

    def test_cache_block_in_stats(self, lai_file, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        stats = str(tmp_path / "s.json")
        assert main(["compile", lai_file, "--cache-dir", cache,
                     "--stats-json", stats]) == 0
        doc = validate_stats_file(stats)
        assert doc["env"]["cache"]["misses"] == 1
        assert doc["env"]["cache"]["stores"] == 1
        assert main(["compile", lai_file, "--cache-dir", cache,
                     "--stats-json", stats]) == 0
        doc = validate_stats_file(stats)
        assert doc["env"]["cache"]["hits"] == 1
        assert doc["env"]["cache"]["misses"] == 0

    def test_no_cache_no_block(self, lai_file, tmp_path, capsys,
                               monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        stats = str(tmp_path / "s.json")
        assert main(["compile", lai_file, "--stats-json", stats]) == 0
        doc = validate_stats_file(stats)
        assert "cache" not in doc["env"]

    def test_experiments_accepts_cache_dir(self, lai_file, tmp_path,
                                           capsys):
        def summary_table(text):
            # Everything before the per-phase breakdowns, whose time(ms)
            # column is legitimately non-deterministic.
            return text.split("\n\n")[0]

        cache = str(tmp_path / "cache")
        assert main(["experiments", lai_file, "--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert main(["experiments", lai_file, "--cache-dir", cache]) == 0
        second = capsys.readouterr().out
        assert summary_table(second) == summary_table(first)


class TestExperimentsObservability:
    def test_format_json_stdout(self, lai_file, capsys):
        assert main(["experiments", lai_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_stats(doc)
        from repro.pipeline import EXPERIMENTS
        assert {run["experiment"] for run in doc["runs"]} == \
            set(EXPERIMENTS)
        for run in doc["runs"]:
            assert run["result"]["phases"], run["experiment"]

    def test_table_format_includes_breakdown(self, lai_file, capsys):
        assert main(["experiments", lai_file]) == 0
        out = capsys.readouterr().out
        assert "per-phase breakdown" in out
        assert "dmoves" in out

    def test_stats_json_file(self, lai_file, tmp_path, capsys):
        stats = str(tmp_path / "runs.json")
        assert main(["experiments", lai_file, "--stats-json", stats]) == 0
        doc = validate_stats_file(stats)
        assert len(doc["runs"]) == len(set(
            run["experiment"] for run in doc["runs"]))

    def test_stats_json_and_json_stdout_share_one_document(
            self, lai_file, tmp_path, capsys, monkeypatch):
        from repro.pipeline import EXPERIMENTS, ExperimentResult

        built = []
        to_stats = ExperimentResult.to_stats

        def counting(self):
            built.append(self.name)
            return to_stats(self)

        monkeypatch.setattr(ExperimentResult, "to_stats", counting)
        stats = tmp_path / "runs.json"
        assert main(["experiments", lai_file, "--stats-json", str(stats),
                     "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert stats.read_text() == out
        validate_stats(json.loads(out))
        assert sorted(built) == sorted(EXPERIMENTS)  # one build per run

    def test_stats_json_written_before_stdout(self, lai_file, tmp_path,
                                              monkeypatch):
        """The stats file must exist even if stdout dies (pipe safety)."""
        import repro.cli as cli_mod

        stats = tmp_path / "runs.json"

        def broken_print(*args, **kwargs):
            raise BrokenPipeError

        monkeypatch.setattr(cli_mod, "print", broken_print, raising=False)
        with pytest.raises(BrokenPipeError):
            main(["experiments", lai_file, "--format", "json",
                  "--stats-json", str(stats)])
        assert stats.exists()
        validate_stats_file(str(stats))


class TestRejectedOptions:
    @staticmethod
    def _options(command: str) -> set:
        from repro.cli import build_parser

        subparsers, = [action for action in build_parser()._actions
                       if action.choices]
        return {option for action in subparsers.choices[command]._actions
                for option in action.option_strings}

    def test_serve_takes_only_socket_jobs_and_cache_dir(self):
        # One transport and one configuration: no HTTP listener, batch
        # window or interpreter tier (serve requests never replay).
        assert self._options("serve") == {
            "-h", "--help", "--socket", "--jobs", "--cache-dir"}

    def test_cache_dir_help_matches_each_command(self):
        # A server without --cache-dir still caches, in a private store;
        # a one-shot command without it does not cache at all.
        from repro.cli import build_parser

        subparsers, = [action for action in build_parser()._actions
                       if action.choices]

        def cache_help(command: str) -> str:
            action, = [action for action
                       in subparsers.choices[command]._actions
                       if "--cache-dir" in action.option_strings]
            return action.help

        assert "unset = a private temporary store removed at shutdown" \
            in cache_help("serve")
        assert "no caching" not in cache_help("serve")
        for command in ("compile", "experiments", "tables"):
            assert "unset = no caching" in cache_help(command), command

    def test_serve_rejects_metrics(self):
        # The server always counts; its totals are read live through
        # the ``stats`` and ``metrics`` ops, never switched on by a flag.
        assert not any("metrics" in option
                       for option in self._options("serve"))

    def test_one_shot_commands_take_no_metrics_option(self):
        # A one-shot run's figures are the tracer's and the stats
        # document's; no registry records it.
        for command in ("compile", "experiments", "tables"):
            assert "--jobs" in self._options(command)
            assert not any("metrics" in option
                           for option in self._options(command)), command

    def test_no_perf_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["perf", "list"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err
