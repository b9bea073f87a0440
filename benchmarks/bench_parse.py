"""Per-layer budget for the LAI front end: parse time over print time.

Times ``repro.lai.parse_module`` over the five suites' LAI text (the
text ``format_module`` prints for them) and ``format_module`` on the
modules that text parses to, min over ``--rounds`` interleaved rounds
in one process with the garbage collector off.  Printing walks the same
modules and emits the same characters, so the ratio parse/print cancels
the host's speed; the script fails when it exceeds ``--gate``.

Measured on a 2-vCPU host (docs/performance.md, "LAI front end"): the
recursive-descent parser this one replaced ran at ratio 11.8-12.2, the
line-oriented parser at 3.95-4.02; the default gate sits between them.

Usage::

    PYTHONPATH=src python benchmarks/bench_parse.py [--rounds 15] [--gate 7]
"""

from __future__ import annotations

import argparse
import gc
import time


def measure(rounds: int) -> dict:
    from repro.benchgen import all_suites
    from repro.ir.printer import format_module
    from repro.lai import parse_module

    texts = [format_module(suite.module) for suite in all_suites()]
    modules = [parse_module(text) for text in texts]
    assert [format_module(m) for m in modules] == texts

    def timed(fn, items) -> float:
        start = time.perf_counter()
        for item in items:
            fn(item)
        return time.perf_counter() - start

    parse_s = print_s = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            parse_s = min(parse_s, timed(parse_module, texts))
            print_s = min(print_s, timed(format_module, modules))
    finally:
        gc.enable()
    chars = sum(map(len, texts))
    return {"chars": chars, "parse_s": parse_s, "print_s": print_s,
            "chars_per_s": chars / parse_s, "ratio": parse_s / print_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--gate", type=float, default=7.0,
                        help="fail when parse/print exceeds this ratio")
    args = parser.parse_args(argv)
    row = measure(args.rounds)
    print(f"parse {row['parse_s'] * 1e3:.1f} ms "
          f"({row['chars_per_s'] / 1e6:.2f} M chars/s), "
          f"print {row['print_s'] * 1e3:.1f} ms, "
          f"parse/print {row['ratio']:.2f} (gate {args.gate})")
    if row["ratio"] > args.gate:
        print(f"FAIL: parse/print ratio {row['ratio']:.2f} > {args.gate}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
