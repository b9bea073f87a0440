"""``serve-mix``: a seeded request stream against ``repro serve``.

A ``repro serve --jobs 2`` subprocess with its default response memo
and private compilation cache; one client process drives it over 2
closed-loop connections.  Each pass of the stream gets a fresh server.
Requests come in three classes, so no number compares a memo hit with
a cold compile:

``cold``
    a module whose functions the server has never seen;
``hit``
    an earlier cold request's functions, rotated into another order and
    sent under another module name: every function hits the cache and
    the memo misses;
``memo``
    a byte-identical repeat of an earlier request, same ``name``.

The modules come from a fixed pool of benchgen programs, and every
cold module is repeated once as a hit and :data:`MEMO_REPEATS` times as
a memo, so every seed does the same work; the seed shuffles the cold
order, the order of the blocks and which earlier modules each hit block
repeats.  A hit or memo only repeats a request of an earlier block, so
it never races its original.

The stream runs in blocks of :data:`BLOCK` requests of one class, so a
memo hit is never timed while a cold compile holds the server's CPUs.
The calibration kernel runs between blocks, while no request is in
flight.
"""

from __future__ import annotations

import json
import os
import random
import re
import selectors
import socket
import subprocess
import sys
import time

import repro.benchgen.synthetic as synthetic
from repro import lai, pipeline
from repro.ir import printer
from repro.serve.client import ServeClient, wait_for_server
from repro.serve.protocol import encode_response

from checks import check_output, digest
from common import Outcome, bench_path, ratio, tree_peak_rss_mb

#: Cold (and hit) requests per pass; at the default 3 passes the cold
#: p90 has 24 samples beyond it.
PER_CLASS = 80
N_FUNCTIONS = 2
#: Generator seed of pool module 0 (module *i* uses POOL_SEED + i).
POOL_SEED = 5000
BLOCK = 16
#: A memo answer takes well under a millisecond and its latency varies
#: mostly from block to block, so every cold module is repeated
#: MEMO_REPEATS times as a memo: many memo blocks per run.
MEMO_REPEATS = 3
CONNECTIONS = 2
JOBS = 2
EXPERIMENT = "Lphi,ABI+C"
NOMINAL_PASS_S = 5.0
#: A memo request repeats a cold request at most MEMO_WINDOW cold or
#: hit requests old, so its original is still in the server's
#: 256-entry memo.
MEMO_WINDOW = 128
CLASSES = ("cold", "hit", "memo")


def pool_module(index: int) -> tuple[str, str, list]:
    """``(module name, LAI source, verify runs)`` of pool module
    *index*."""
    name = f"m{index}"
    config = synthetic.SyntheticConfig()
    source = synthetic.generate_module_source(POOL_SEED + index,
                                              N_FUNCTIONS, config, name)
    verify = synthetic.verify_runs(POOL_SEED + index, N_FUNCTIONS,
                                   config, name)
    return name, source, verify


def rotate(source: str) -> str:
    """*source* with its first function moved to the end."""
    functions = re.findall(r"^func .*?^endfunc$", source,
                           flags=re.S | re.M)
    return "\n".join(functions[1:] + functions[:1])


def build_stream(seed: int, passes: int) -> list[list[list[tuple]]]:
    """Per pass, blocks of ``(class, module name, source, verify)``
    requests, one class per block.  Pass *p* uses pool modules
    ``[p * PER_CLASS, (p + 1) * PER_CLASS)``."""
    rng = random.Random(seed)
    return [_pass_blocks(rng, [pool_module(i) for i in
                               range(p * PER_CLASS, (p + 1) * PER_CLASS)])
            for p in range(passes)]


def _pass_blocks(rng: random.Random, cold: list) -> list[list[tuple]]:
    rng.shuffle(cold)
    # Cold requests of earlier blocks not yet repeated, as
    # (number of cold and hit requests sent before it, module).
    unhit: list = []
    unmemo: list = []
    sent = 0
    blocks = []
    while cold or unhit or unmemo:
        if unmemo and sent - unmemo[0][0] >= MEMO_WINDOW:
            cls = "memo"
        else:
            remaining = {"cold": len(cold),
                         "hit": len(cold) + len(unhit) if unhit else 0,
                         "memo": MEMO_REPEATS * len(cold) + len(unmemo)
                         if unmemo else 0}
            cls = rng.choices(CLASSES, [remaining[c] for c in CLASSES])[0]
        if cls == "cold":
            modules = [cold.pop() for _ in range(min(BLOCK, len(cold)))]
            block = [("cold", *module) for module in modules]
            unhit += [(sent + i, module) for i, module in enumerate(modules)]
            unmemo += [(sent + i, module)
                       for i, module in enumerate(modules)
                       for _ in range(MEMO_REPEATS)]
        elif cls == "hit":
            picks = [unhit.pop(rng.randrange(len(unhit)))
                     for _ in range(min(BLOCK, len(unhit)))]
            block = [("hit", f"{name}.hit", rotate(source), verify)
                     for _, (name, source, verify) in picks]
        else:
            picks, unmemo = unmemo[:BLOCK], unmemo[BLOCK:]
            block = [("memo", *module) for _, module in picks]
            rng.shuffle(block)
        if cls != "memo":
            sent += len(block)
        blocks.append(block)
    return blocks


class Server:
    """One ``repro serve`` subprocess on a socket under ``.perfbench``."""

    def __init__(self, tag: str) -> None:
        self.socket = bench_path(f"serve-{os.getpid()}-{tag}.sock")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket",
             self.socket, "--jobs", str(JOBS)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            wait_for_server(self.socket, timeout=60)
        except BaseException:
            self.stop()
            raise

    def request(self, obj: dict) -> dict:
        with ServeClient(self.socket) as client:
            return client.request(obj)

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.request({"op": "shutdown"})
                self.process.wait(timeout=60)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()


class Connection:
    """One closed-loop NDJSON connection (at most one request in
    flight), driven from the client's single thread."""

    def __init__(self, socket_path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(socket_path)
        self.buffer = b""
        self.request = None
        self.start = 0.0

    def send(self, request: tuple) -> None:
        _, name, source, _ = request
        self.request = request
        line = encode_response({"op": "compile", "source": source,
                                "experiment": EXPERIMENT, "name": name})
        self.start = time.perf_counter()
        self.sock.sendall(line)

    def receive(self):
        """The answer to the request in flight once it is complete,
        else ``None``; raises ``ConnectionError`` if the server closed
        the connection."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk
        if b"\n" not in self.buffer:
            return None
        line, self.buffer = self.buffer.split(b"\n", 1)
        return (self.request, time.perf_counter() - self.start,
                json.loads(line))


def run_block(connections: list, block: list) -> list:
    """Serve *block* over *connections* from one thread: request *i*
    goes to connection ``i % len(connections)``, and each connection
    sends its next request as soon as its previous answer arrives.
    Returns ``(request, raw latency, response)`` per request."""
    queues = [block[k::len(connections)] for k in range(len(connections))]
    answers = []
    with selectors.DefaultSelector() as selector:
        for connection, queue in zip(connections, queues):
            if queue:
                connection.send(queue.pop(0))
                selector.register(connection.sock, selectors.EVENT_READ,
                                  (connection, queue))
        while selector.get_map():
            for key, _ in selector.select():
                connection, queue = key.data
                answer = connection.receive()
                if answer is None:
                    continue
                answers.append(answer)
                if queue:
                    connection.send(queue.pop(0))
                else:
                    selector.unregister(connection.sock)
    return answers


class ServeMix:
    nominal_pass_s = NOMINAL_PASS_S

    def __init__(self, seed: int, passes: int) -> None:
        self.seed = seed
        self.passes = passes
        self.servers: list[Server] = []
        self.spawned = 0
        self.stream = None

    def setup_once(self) -> None:
        """Spawn a server (warm pool, answers ``ping``) and generate the
        stream; the first pass of :meth:`measure` uses this server."""
        self.servers.append(Server(str(self.spawned)))
        self.spawned += 1
        self.stream = build_stream(self.seed, self.passes)

    def discard_setup(self) -> None:
        self.close()

    def measure(self, clock, recorder=None) -> Outcome:
        """Serve the stream, one fresh server per pass (spawned between
        passes, untimed): memo latency differs by up to a quarter from
        one server process to the next, so a run averages several."""
        outcome = Outcome()
        timed, blocks = [], []
        server_totals: dict = {}
        for number, pass_blocks in enumerate(self.stream):
            if number:
                self.servers.append(Server(str(self.spawned)))
                self.spawned += 1
            server = self.servers[-1]
            connections = [Connection(server.socket)
                           for _ in range(CONNECTIONS)]
            for block in pass_blocks:
                if recorder is not None:
                    recorder.op = len(clock.blocks)
                start = time.perf_counter()
                answers = run_block(connections, block)
                index = clock.close(time.perf_counter() - start)
                if recorder is not None:
                    recorder.blocks[index] = (clock, index)
                timed.extend(answers)
                blocks.extend([index] * len(answers))
            for connection in connections:
                connection.sock.close()
            outcome.peak_rss_mb = max(outcome.peak_rss_mb,
                                      tree_peak_rss_mb(server.process.pid))
            _add_server_totals(server_totals, server)
            server.stop()
            self.servers.pop()
        results = [(request, latency * clock.factor(block),
                    clock.factor(block), response)
                   for (request, latency, response), block
                   in zip(timed, blocks)]
        outcome.records = results
        for cls in CLASSES:
            outcome.latencies[cls] = [latency for (c, *_), latency, _, _
                                      in results if c == cls]
        mean_factor = ratio(sum(f for _, _, f, _ in results), len(results))
        totals = server_totals
        outcome.layers.update({
            "serve.server_s": totals["server_s"] * mean_factor,
            "serve.queue_s": sum(
                latency - response.get("wall_s", 0.0) * factor
                for _, latency, factor, response in results),
            "serve.batch_size_mean": ratio(totals["batched_requests"],
                                           totals["batches"]),
            "serve.memo_hits": totals["memo_hits"],
            "serve.dedup_hits": totals["dedup_hits"],
            "cache.hit_ratio": ratio(totals["hits"],
                                     totals["hits"] + totals["misses"]),
            "cache.bytes": totals["bytes"],
        })
        return outcome

    def check(self, outcome: Outcome, verdicts) -> None:
        for index, ((cls, name, source, verify), _, _, response) \
                in enumerate(outcome.records):
            op_id = f"{cls}#{index}:{name}"
            outcome.attempted += 1
            if not response.get("ok"):
                outcome.fail(op_id, response.get("error", "not ok"))
                continue
            output = response["module"]
            hits = response.get("cache", {}).get("hits", 0)
            memo = bool(response.get("memo"))
            expected = {"cold": (0, False), "hit": (N_FUNCTIONS, False),
                        "memo": (None, True)}[cls]
            if memo != expected[1] or expected[0] not in (None, hits):
                outcome.fail(op_id, f"class {cls} but cache hits={hits}, "
                                    f"memo={memo}")
            serial = verdicts.get(digest("serial", EXPERIMENT, name, source),
                                  lambda: _serial_digest(source, name))
            if digest(output) != serial:
                outcome.fail(op_id, "response differs from a serial "
                                    "format_module of the same source")
                continue
            verdict = check_output(verdicts, source, name, verify, output)
            outcome.output_rejects += verdict["rejected"]
            if not verdict["ok"]:
                outcome.fail(op_id, verdict["detail"])
                continue
            outcome.moves += response["moves"]
            outcome.weighted_moves += response["weighted"]
            outcome.generated_steps += verdict["steps"]
            outcome.digests[f"{cls}:{name}"] = digest(output)

    def close(self) -> None:
        for server in self.servers:
            server.stop()
        self.servers = []


def _serial_digest(source: str, name: str) -> str:
    module = lai.parse_module(source, name=name)
    result = pipeline.run_experiment(module, EXPERIMENT, jobs=1, cache=None)
    return digest(printer.format_module(result.module))


def _add_server_totals(totals: dict, server: Server) -> None:
    """Add one server's lifetime ``stats`` and ``metrics`` figures."""
    stats = server.request({"op": "stats"})["serve"]
    text = server.request({"op": "metrics"})["text"]
    figures = {key: stats[key] for key in ("batches", "batched_requests",
                                           "memo_hits", "dedup_hits")}
    for key, sample in (("server_s", "repro_serve_request_seconds_sum"),
                        ("hits", "repro_serve_cache_hits_total"),
                        ("misses", "repro_serve_cache_misses_total"),
                        ("bytes", "repro_serve_cache_bytes_total")):
        figures[key] = _metric_sum(text, sample)
    for key, value in figures.items():
        totals[key] = totals.get(key, 0) + value


def _metric_sum(text: str, sample: str) -> float:
    for line in text.splitlines():
        if line.startswith(sample + " "):
            return float(line.split()[1])
    return 0.0
