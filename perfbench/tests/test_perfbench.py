"""Tests of the benchmark itself (not part of the repository's tier-1).

    python3 -m pytest perfbench/tests -q

The fixed-work test runs every workload twice and takes a few minutes.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calib  # noqa: E402
from checks import OutputParser  # noqa: E402
from run import WORKLOADS  # noqa: E402


def test_kernel_imports_nothing_from_repro():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import calib; "
             "calib.kernel_seconds(); "
             "print([m for m in sys.modules if m.split('.')[0] == 'repro'])")
    out = subprocess.run([sys.executable, "-c", probe, BENCH],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_kernel_allocates_no_gc_tracked_objects():
    gc.disable()
    try:
        before = gc.get_count()
        calib.kernel()
        after = gc.get_count()
    finally:
        gc.enable()
    assert before == after


def test_kernel_seconds_restores_gc_state():
    calib.kernel_seconds()
    assert gc.isenabled()
    gc.disable()
    try:
        calib.kernel_seconds()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_calibration_restores_cpu_affinity():
    cpus = os.sched_getaffinity(0)
    assert calib.calib_seconds() > 0
    assert os.sched_getaffinity(0) == cpus


def test_output_reader_accepts_register_call_results():
    from repro.ir.printer import format_module
    from repro.lai import LaiSyntaxError, parse_module

    text = ("func f\nentry:\n    input $R0\n    ret $R0\nendfunc\n\n"
            "func g\nentry:\n    input $R0\n    call $R0 = f($R0)\n"
            "    ret $R0\nendfunc")
    with pytest.raises(LaiSyntaxError):
        parse_module(text)
    assert format_module(OutputParser(text).parse_module("m")) == text


def test_benchmark_json_names_every_reported_metric():
    from calib import HostClock
    from common import Outcome
    from run import end_to_end, per_layer
    from tracing import Recorder

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    reported = end_to_end([1.0], Outcome(attempted=1))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == {name: unit for name, (_, unit) in reported.items()}
    layers, _ = per_layer(Recorder(), Outcome(), Outcome(), HostClock())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == {name: unit for name, (_, unit) in layers.items()}


def _run(workload: str, hash_seed: str, cwd: str = ROOT):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=600)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_fixed_work_per_seed(workload):
    """Same seed, different hash seeds: identical counts and outputs."""
    runs = []
    for hash_seed in ("0", "1"):
        out = _run(workload, hash_seed)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        digests = [line for line in lines if line.startswith("outputs: ")]
        counts = {name: metric["value"]
                  for name, metric in result["metrics"].items()
                  if metric["unit"] in ("count", "ratio")}
        runs.append((counts, digests, result["attempted"],
                     result["failed"]))
    assert runs[0] == runs[1]
    assert runs[0][1], "run.py printed no output digest"


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-tables",
         "--seed", "1", "--seconds", "15", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert out.returncode != 0
    assert "correct" not in out.stdout
