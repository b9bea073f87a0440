#!/usr/bin/env python
"""Check the ``repro serve`` figures the benchmark's ``serve-mix`` reads.

``perfbench/serve_mix.py`` starts ``repro serve`` through its own
``Server`` class, classifies every response by its ``memo`` flag and
``cache`` block, and reads the server's lifetime totals back through
``_add_server_totals`` (the ``stats`` op plus four samples of the
``metrics`` text).  This checks that contract from the server's side
with the benchmark's own code: it starts the server as the benchmark
does and sends three requests of the benchmark's three classes:

``cold``
    a module the server has never seen: every function misses;
``hit``
    the same functions rotated under a new name: every function hits
    the compilation cache and the response memo misses;
``memo``
    a byte-identical repeat of the cold request: answered from the memo.

It fails unless each response matches its class and the totals, read
the benchmark's way, give hits = misses = the function count, cache
bytes > 0, server time > 0 and exactly one memo hit.

Usage (from the repository root)::

    PYTHONPATH=src python tools/check_serve_contract.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))

from common import bench_path  # noqa: E402
from serve_mix import (EXPERIMENT, N_FUNCTIONS, Server,  # noqa: E402
                       _add_server_totals, pool_module, rotate)


def main() -> int:
    # perfbench's run.py creates its scratch directory; Server needs it.
    os.makedirs(os.path.dirname(bench_path("serve.sock")), exist_ok=True)
    name, source, _ = pool_module(0)
    requests = (("cold", name, source),
                ("hit", f"{name}.hit", rotate(source)),
                ("memo", name, source))
    # (cache hits, cache misses, memo flag) of each class.
    expected = {"cold": (0, N_FUNCTIONS, False),
                "hit": (N_FUNCTIONS, 0, False),
                "memo": (0, N_FUNCTIONS, True)}
    failures = []
    server = Server("contract")
    try:
        for cls, module_name, text in requests:
            response = server.request({"op": "compile", "source": text,
                                       "experiment": EXPERIMENT,
                                       "name": module_name})
            if not response.get("ok"):
                failures.append(f"{cls}: {response.get('error', 'not ok')}")
                continue
            cache = response.get("cache", {})
            got = (cache.get("hits"), cache.get("misses"),
                   bool(response.get("memo")))
            if got != expected[cls]:
                failures.append(f"{cls}: (cache hits, misses, memo) = "
                                f"{got}, expected {expected[cls]}")
        totals: dict = {}
        _add_server_totals(totals, server)
    finally:
        server.stop()
    checks = {"hits": totals["hits"] == N_FUNCTIONS,
              "misses": totals["misses"] == N_FUNCTIONS,
              "bytes": totals["bytes"] > 0,
              "server_s": totals["server_s"] > 0,
              "memo_hits": totals["memo_hits"] == 1}
    failures += [f"totals: {key} = {totals[key]}"
                 for key, ok in checks.items() if not ok]
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"{len(requests)} requests, totals {totals}: "
          f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
