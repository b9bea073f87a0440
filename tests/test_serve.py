"""The warm compile service: protocol, dispatch, dedup, drain.

Contracts under test:

* every server response is **byte-identical** to the serial CLI path
  (same ``format_module`` text, same timing-stripped stats digest) at
  every jobs setting and through every fast path (dedup, memo, a
  respawned pool);
* concurrent requests on one cache directory keep hits+misses
  accounting exact, and cache corruption stays a recoverable miss
  under contention;
* errors are per-request (``{"ok": false}``) and never tear down the
  connection or another request;
* with a pool, concurrent requests compile at the same time, and a
  killed worker costs a respawn, never an answer;
* graceful shutdown drains in-flight work and removes the socket;
* the real ``repro serve`` process answers byte-identically to
  ``repro compile`` and exits cleanly on ``shutdown``;
* the ``metrics`` exposition carries the samples perfbench's
  ``serve-mix`` reads.
"""

import concurrent.futures
import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings

import pytest

from repro.benchgen import SUITE_NAMES, load_suite
from repro.ir.printer import format_module
from repro.observability.statdiff import stats_digest
from repro.parallel import fork_available
from repro.pipeline import run_experiment, table5_variants
from repro.serve import (CompileServer, ServeClient, ThreadedServer,
                         wait_for_server)
from repro.serve import server as server_module
from repro.serve.protocol import (ProtocolError, decode_request,
                                  parse_compile, request_fingerprint)

SUITES = ("VALcc1", "example1-8", "SPECint")


@pytest.fixture
def sock_dir():
    # Short paths: AF_UNIX caps sun_path at ~108 bytes and pytest
    # tmp_path can blow through that.
    with tempfile.TemporaryDirectory(prefix="rs-", dir="/tmp") as path:
        yield path


def start_server(sock_dir, **kwargs):
    socket_path = os.path.join(sock_dir, "s.sock")
    server = CompileServer(socket_path, **kwargs)
    return socket_path, server


def wait_until(condition, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise TimeoutError("condition never held")
        time.sleep(0.005)


def compile_concurrently(socket_path, requests):
    """Send *requests* (``(source, compile kwargs)`` pairs) at once,
    each on its own connection; the responses in request order."""
    def one_request(request):
        source, kwargs = request
        with ServeClient(socket_path) as client:
            return client.compile(source, **kwargs)

    with concurrent.futures.ThreadPoolExecutor(len(requests)) as pool:
        return list(pool.map(one_request, requests))


def serial_reference(suite_name, experiment="Lphi,ABI+C", options=None):
    suite = load_suite(suite_name)
    result = run_experiment(suite.module.copy(), experiment,
                            options=options)
    return format_module(result.module), stats_digest(result.to_stats())


def suite_source(suite_name):
    return format_module(load_suite(suite_name).module)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_decode_rejects_garbage(self):
        for line in (b"not json\n", b"[1,2]\n",
                     b'{"op": "explode"}\n', b"\xff\xfe\n"):
            with pytest.raises(ProtocolError):
                decode_request(line)

    def test_decode_defaults_op_to_compile(self):
        assert decode_request(b'{"source": "x"}')["op"] == "compile"

    def test_parse_compile_validates(self):
        for obj in ({}, {"source": ""}, {"source": 5},
                    {"source": "f", "experiment": "nope"},
                    {"source": "f", "variant": "nope"},
                    {"source": "f", "name": 3}):
            with pytest.raises(ProtocolError):
                parse_compile(obj)

    def test_parse_error_surfaces_on_module_access(self):
        request = parse_compile({"source": "this is not lai"})
        with pytest.raises(ProtocolError, match="parse error"):
            request.ensure_module()

    def test_fingerprint_separates_pipelines(self):
        source = suite_source("example1-8")
        base = request_fingerprint(source, ("ssa",), None)
        assert base == request_fingerprint(source, ("ssa",), None)
        assert base != request_fingerprint(source + " ", ("ssa",), None)
        assert base != request_fingerprint(source, ("ssa", "copyprop"),
                                           None)
        opts = table5_variants()["opt"]
        assert base != request_fingerprint(source, ("ssa",), opts)


# ----------------------------------------------------------------------
# Byte-identity with the serial CLI path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_responses_byte_identical_at_any_jobs(sock_dir, jobs):
    if jobs > 1 and not fork_available():
        pytest.skip("platform lacks fork")
    socket_path, server = start_server(sock_dir, jobs=jobs)
    with ThreadedServer(server):
        with ServeClient(socket_path) as client:
            for suite_name in SUITES:
                response = client.compile(suite_source(suite_name),
                                          name=suite_name)
                assert response["ok"], response
                text, digest = serial_reference(suite_name)
                assert response["module"] == text
                assert response["stats_digest"] == digest


def test_variant_and_experiment_routing(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=1)
    with ThreadedServer(server):
        with ServeClient(socket_path) as client:
            source = suite_source("VALcc1")
            for experiment in ("C", "LABI"):
                response = client.compile(source, experiment=experiment,
                                          name="VALcc1")
                text, digest = serial_reference("VALcc1", experiment)
                assert (response["module"], response["stats_digest"]) \
                    == (text, digest)
            response = client.compile(source, variant="opt",
                                      name="VALcc1")
            text, digest = serial_reference(
                "VALcc1", options=table5_variants()["opt"])
            assert (response["module"], response["stats_digest"]) \
                == (text, digest)


def test_memo_and_dedup_serve_identical_bytes(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=1)
    source = suite_source("example1-8")
    text, digest = serial_reference("example1-8")
    with ThreadedServer(server):
        def one_request(_):
            with ServeClient(socket_path) as client:
                return client.compile(source, name="examples")

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            responses = list(pool.map(one_request, range(16)))
    assert all(r["ok"] for r in responses)
    assert {r["module"] for r in responses} == {text}
    assert {r["stats_digest"] for r in responses} == {digest}
    # 16 identical requests cannot have compiled 16 times: the
    # in-flight dedup and the response memo absorb the repeats.
    stats = server.totals
    assert stats["requests"] == 16
    assert stats["dedup_hits"] + stats["memo_hits"] >= 1
    assert stats["errors"] == 0


def test_memo_disabled_and_bounded(sock_dir, monkeypatch):
    a = (suite_source("example1-8"), "examples")
    b = (suite_source("VALcc1"), "VALcc1")

    def memo_flags(memo_size, sources):
        monkeypatch.setattr(server_module, "MEMO_SIZE", memo_size)
        socket_path, server = start_server(sock_dir, jobs=1)
        with ThreadedServer(server):
            with ServeClient(socket_path) as client:
                responses = [client.compile(source, name=name)
                             for source, name in sources]
        assert all(r["ok"] for r in responses)
        texts = {}
        for (_, name), response in zip(sources, responses):
            assert texts.setdefault(name, response["module"]) == \
                response["module"]
        assert len(server._memo) == min(memo_size, len(set(sources)))
        return [bool(r.get("memo")) for r in responses], server

    flags, server = memo_flags(0, (a, a))
    assert flags == [False, False]
    assert server.totals["memo_hits"] == 0
    # An LRU of one: B evicts A, so the last A compiles again.
    flags, server = memo_flags(1, (a, a, b, a))
    assert flags == [False, True, False, False]
    assert server.totals["memo_hits"] == 1


# ----------------------------------------------------------------------
# Dispatch: one task per request, on a pool worker as it arrives
# ----------------------------------------------------------------------
def test_concurrent_mixed_requests_dispatch_and_stay_correct(sock_dir):
    jobs = 2 if fork_available() else 1
    socket_path, server = start_server(sock_dir, jobs=jobs)
    work = [(suite_name, experiment) for suite_name in SUITES
            for experiment in ("Lphi,ABI+C", "C", "LABI")]
    with ThreadedServer(server):
        responses = compile_concurrently(
            socket_path,
            [(suite_source(suite_name),
              {"name": suite_name, "experiment": experiment})
             for suite_name, experiment in work])
    for (suite_name, experiment), response in zip(work, responses):
        assert response["ok"], response
        assert (response["module"], response["stats_digest"]) == \
            serial_reference(suite_name, experiment)
    # Distinct requests: each is one dispatch of its own.
    assert (server.totals["batches"], server.totals["batched_requests"]) \
        == (len(work), len(work))


def test_per_request_errors_stay_per_request(sock_dir):
    socket_path, server = start_server(
        sock_dir, jobs=2 if fork_available() else 1)
    good_source = suite_source("example1-8")
    reference = serial_reference("example1-8")
    sources = [good_source, "definitely not lai"] * 3
    with ThreadedServer(server):
        # Distinct names: no request rides another's in-flight task.
        responses = compile_concurrently(
            socket_path, [(source, {"name": f"mixed{i}"})
                          for i, source in enumerate(sources)])
    for source, response in zip(sources, responses):
        if source is good_source:
            assert response["ok"]
            assert (response["module"], response["stats_digest"]) == \
                reference
        else:
            assert not response["ok"]
            assert "parse error" in response["error"]
    assert server.totals["errors"] == 3


def test_malformed_number_fails_only_its_request(sock_dir):
    socket_path, server = start_server(
        sock_dir, jobs=2 if fork_available() else 1)
    good = "func f\nentry:\n    input a\n    add x, a, 1\n    ret x\nendfunc"
    bad = good.replace("add x, a, 1", "add x, a, 08")
    with ThreadedServer(server):
        ok, failed = compile_concurrently(socket_path,
                                          [(good, {}), (bad, {})])
    assert ok["ok"] is True
    del failed["wall_s"]
    assert failed == {
        "ok": False,
        "error": "parse error: line 4, col 15: malformed number '08'"}


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
def test_two_requests_compile_at_the_same_time(sock_dir, monkeypatch):
    # The barrier exists before the pool forks, so both workers share
    # it: neither compile starts until the other is running too.  A
    # server that compiled one request at a time would break the
    # barrier on its timeout and answer both with an error.
    barrier = multiprocessing.get_context("fork").Barrier(2)
    run_jobs = server_module.run_jobs

    def run_jobs_together(*args, **kwargs):
        barrier.wait(timeout=30)
        return run_jobs(*args, **kwargs)

    monkeypatch.setattr(server_module, "run_jobs", run_jobs_together)
    socket_path, server = start_server(sock_dir, jobs=2)
    with ThreadedServer(server):
        responses = compile_concurrently(
            socket_path, [(suite_source(name), {"name": name})
                          for name in ("VALcc1", "example1-8")])
    for name, response in zip(("VALcc1", "example1-8"), responses):
        assert response["ok"], response
        assert (response["module"], response["stats_digest"]) == \
            serial_reference(name)


# ----------------------------------------------------------------------
# Killed workers: respawn, resubmit once, then compile in-process
# ----------------------------------------------------------------------
def pid_exists(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def compile_valcc1(socket_path):
    """One VALcc1 compile, checked against the serial CLI path; returns
    the server's ``stats`` afterwards."""
    with ServeClient(socket_path) as client:
        response = client.compile(suite_source("VALcc1"), name="VALcc1")
        assert response["ok"], response
        assert (response["module"], response["stats_digest"]) == \
            serial_reference("VALcc1")
        return client.stats()


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
def test_killed_worker_respawns_the_pool(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=2)
    with ThreadedServer(server):
        os.kill(server.worker_pids[0], signal.SIGKILL)
        # The executor notices the death, terminates and reaps every
        # worker: once all are gone, the next submission must respawn.
        wait_until(lambda: not any(map(pid_exists, server.worker_pids)))
        stats = compile_valcc1(socket_path)
    assert stats["pool"]["respawns"] >= 1


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
def test_stats_reports_live_workers_after_a_respawn(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=2)
    with ThreadedServer(server):
        victim = server.worker_pids[0]
        os.kill(victim, signal.SIGKILL)
        # Reaped by the executor, which is then broken: the next
        # request respawns the pool.
        wait_until(lambda: not pid_exists(victim))
        stats = compile_valcc1(socket_path)
        processes = server.pool._pool._processes
        live = sorted(pid for pid, process in processes.items()
                      if process.is_alive())
    assert stats["pool"]["respawns"] == 1
    assert stats["pool"]["pids"] == live
    assert len(live) == 2 and victim not in live


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
def test_worker_dying_mid_request_is_resubmitted(sock_dir, tmp_path,
                                                 monkeypatch):
    marker = tmp_path / "died"
    run_jobs = server_module.run_jobs

    def die_once(*args, **kwargs):
        if not marker.exists():
            marker.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return run_jobs(*args, **kwargs)

    monkeypatch.setattr(server_module, "run_jobs", die_once)
    socket_path, server = start_server(sock_dir, jobs=2)
    with ThreadedServer(server):
        stats = compile_valcc1(socket_path)
    assert marker.exists()
    assert stats["pool"]["respawns"] == 1
    assert stats["serve"]["errors"] == 0


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
def test_pool_that_keeps_breaking_compiles_in_process(sock_dir,
                                                     monkeypatch):
    server_pid = os.getpid()
    run_jobs = server_module.run_jobs

    def die_in_workers(*args, **kwargs):
        if os.getpid() != server_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_jobs(*args, **kwargs)

    monkeypatch.setattr(server_module, "run_jobs", die_in_workers)
    socket_path, server = start_server(sock_dir, jobs=2)
    with ThreadedServer(server):
        stats = compile_valcc1(socket_path)
    assert stats["pool"]["respawns"] >= 1
    assert stats["serve"]["errors"] == 0


def test_failed_connect_closes_the_client_socket(sock_dir, monkeypatch):
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(OSError):
            ServeClient(os.path.join(sock_dir, "missing.sock"))
        gc.collect()
    assert unraisable == []


def test_connection_survives_bad_requests(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=1)
    with ThreadedServer(server):
        with ServeClient(socket_path) as client:
            bad = client.request({"op": "compile"})  # no source
            assert not bad["ok"]
            assert client.ping()["ok"]  # same connection still alive
            good = client.compile(suite_source("example1-8"),
                                  name="examples")
            assert good["ok"]


# ----------------------------------------------------------------------
# Concurrent cache sharing (satellite: one --cache-dir, many clients)
# ----------------------------------------------------------------------
def test_concurrent_cache_sharing_exact_accounting(sock_dir, tmp_path,
                                                   monkeypatch):
    cache_dir = tmp_path / "cache"
    # memo off so every request exercises the store; jobs=1 keeps the
    # accounting on the server's own cache handle.
    monkeypatch.setattr(server_module, "MEMO_SIZE", 0)
    socket_path, server = start_server(sock_dir, jobs=1,
                                       cache=str(cache_dir))
    functions = len(load_suite("VALcc1").module.functions)
    source = suite_source("VALcc1")
    text, _ = serial_reference("VALcc1")
    with ThreadedServer(server):
        def one_request(_):
            with ServeClient(socket_path) as client:
                return client.compile(source, name="VALcc1")

        with concurrent.futures.ThreadPoolExecutor(6) as pool:
            responses = list(pool.map(one_request, range(12)))
        assert all(r["ok"] and r["module"] == text for r in responses)
        # Exactness per compile: every run probes every function, so
        # hits+misses always sums to the function count.
        for response in responses:
            block = response["cache"]
            assert block["hits"] + block["misses"] == functions
        totals = server.cache.stats()
        assert totals["hits"] + totals["misses"] == \
            functions * (len(responses) - server.totals["dedup_hits"])
        # Only the cold runs stored; nothing was ever stored twice.
        assert totals["stores"] == functions
        assert totals["corrupt"] == 0


def test_cache_corruption_recovers_under_contention(sock_dir, tmp_path,
                                                   monkeypatch):
    cache_dir = tmp_path / "cache"
    monkeypatch.setattr(server_module, "MEMO_SIZE", 0)
    socket_path, server = start_server(sock_dir, jobs=1,
                                       cache=str(cache_dir))
    source = suite_source("VALcc1")
    text, digest = serial_reference("VALcc1")
    with ThreadedServer(server):
        with ServeClient(socket_path) as client:
            assert client.compile(source, name="VALcc1")["ok"]
        # Smash every stored object, then hammer the server: corrupt
        # entries must degrade to misses and be re-stored, never error.
        objects = [os.path.join(root, name)
                   for root, _, names in os.walk(
                       os.path.join(cache_dir, "objects"))
                   for name in names]
        assert objects
        for path in objects:
            with open(path, "wb") as handle:
                handle.write(b"\x00garbage\x00")

        def one_request(_):
            with ServeClient(socket_path) as client:
                return client.compile(source, name="VALcc1")

        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            responses = list(pool.map(one_request, range(8)))
        assert all(r["ok"] for r in responses)
        assert {r["module"] for r in responses} == {text}
        assert {r["stats_digest"] for r in responses} == {digest}
        assert server.cache.stats()["corrupt"] > 0


# ----------------------------------------------------------------------
# Introspection endpoints
# ----------------------------------------------------------------------
def test_stats_and_metrics_endpoints(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=1)
    with ThreadedServer(server):
        with ServeClient(socket_path) as client:
            client.compile(suite_source("example1-8"), name="examples")
            stats = client.stats()
            assert stats["ok"] and stats["schema"] == "repro.serve/v3"
            assert stats["serve"]["requests"] == 1
            assert stats["jobs"] == 1 and stats["pool"] is None
            exposition = client.metrics_text()
    assert "repro_serve_request_seconds" in exposition
    assert "repro_serve_requests_total 1" in exposition


def sample_value(exposition, sample):
    """The value of an unlabelled sample line, read the way
    ``perfbench/serve_mix.py`` reads it."""
    values = [float(line.split()[1]) for line in exposition.splitlines()
              if line.startswith(sample + " ")]
    assert len(values) == 1, (sample, values)
    return values[0]


def test_metrics_exposition_carries_serve_mix_samples(sock_dir, monkeypatch):
    # memo off: the repeat is a cache hit, not a response-memo hit.
    monkeypatch.setattr(server_module, "MEMO_SIZE", 0)
    socket_path, server = start_server(sock_dir, jobs=1)
    functions = len(load_suite("example1-8").module.functions)
    with ThreadedServer(server):
        with ServeClient(socket_path) as client:
            responses = [client.compile(suite_source("example1-8"),
                                        name="examples")
                         for _ in range(2)]
            exposition = client.metrics_text()
    cold, hit = (response["cache"] for response in responses)
    assert (cold["misses"], hit["hits"]) == (functions, functions)
    assert sample_value(exposition,
                        "repro_serve_cache_hits_total") == functions
    assert sample_value(exposition,
                        "repro_serve_cache_misses_total") == functions
    assert sample_value(exposition, "repro_serve_cache_bytes_total") \
        == cold["bytes"] + hit["bytes"] > 0
    assert sample_value(exposition, "repro_serve_request_seconds_sum") \
        == pytest.approx(sum(r["wall_s"] for r in responses), abs=1e-5)


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
def test_stats_reports_pool_health(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=2)
    with ThreadedServer(server):
        with ServeClient(socket_path) as client:
            stats = client.stats()
    pool = stats["pool"]
    assert pool["workers"] == 2 and pool["alive"]
    assert pool["respawns"] == 0 and len(pool["pids"]) == 2


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
def test_graceful_drain_finishes_inflight_and_cleans_up(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=1)
    handle = ThreadedServer(server).start()
    try:
        with ServeClient(socket_path) as client:
            assert client.compile(suite_source("example1-8"),
                                  name="examples")["ok"]
    finally:
        handle.stop()
    assert not os.path.exists(socket_path)  # socket cleaned up
    stats = server.totals
    assert (stats["requests"], stats["errors"]) == (1, 0)
    exposition = server.metrics_text()
    assert "repro_serve_requests_total 1\n" in exposition
    assert "repro_serve_batched_requests_total 1\n" in exposition


def test_shutdown_op_rejects_new_work(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=1)
    handle = ThreadedServer(server).start()
    try:
        with ServeClient(socket_path) as client:
            assert client.compile(suite_source("example1-8"),
                                  name="examples")["ok"]
            reply = client.shutdown()
            assert reply["ok"] and reply["draining"]
    finally:
        # The shutdown op drains asynchronously; stop() joins it.
        handle.stop()
    assert server._draining


def test_private_cache_tempdir_removed_on_shutdown(sock_dir):
    socket_path, server = start_server(sock_dir, jobs=1)
    tempdir = server._cache_tempdir
    assert tempdir and os.path.isdir(tempdir)
    handle = ThreadedServer(server).start()
    try:
        with ServeClient(socket_path) as client:
            client.ping()
    finally:
        handle.stop()
    assert not os.path.exists(tempdir)


# ----------------------------------------------------------------------
# The real ``repro serve`` process, launched as perfbench launches it
# ----------------------------------------------------------------------
def test_serve_process_matches_one_shot_compile(sock_dir, tmp_path):
    source_path = tmp_path / "VALcc1.lai"
    source_path.write_text(suite_source("VALcc1"))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    one_shot = subprocess.run(
        [sys.executable, "-m", "repro", "compile", str(source_path),
         "-e", "Lphi,ABI+C"],
        env=env, capture_output=True, text=True, timeout=60)
    assert one_shot.returncode == 0, one_shot.stderr

    socket_path = os.path.join(sock_dir, "s.sock")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
         "--jobs", "2"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        wait_for_server(socket_path, timeout=30)
        with ServeClient(socket_path) as client:
            cold, memo = [client.compile(source_path.read_text(),
                                         name="VALcc1")
                          for _ in range(2)]
            assert client.shutdown()["draining"]
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert cold["ok"] and "memo" not in cold
    assert memo["ok"] and memo["memo"]
    for response in (cold, memo):
        assert response["module"] + "\n" == one_shot.stdout
    assert not os.path.exists(socket_path)


# ----------------------------------------------------------------------
# Suite sanity: the suites these tests and serve-mix compile exist
# ----------------------------------------------------------------------
def test_smoke_suites_are_real():
    for name in ("VALcc1", "LAI_Large", "SPECint"):
        assert name in SUITE_NAMES
