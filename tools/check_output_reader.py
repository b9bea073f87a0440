#!/usr/bin/env python
"""Read every paper-table output back through the benchmark's reader.

``perfbench/checks.py`` reads each compiled output of the benchmark
with ``OutputParser``, a subclass of ``repro.lai.parser.Parser``.  This
checks that contract from the parser's side: it runs the experiments
behind ``repro tables`` (Tables 2-4) and the Table 5 variants on every
suite, parses each printed module with ``OutputParser`` and fails
unless printing the result gives back the same bytes.

Usage::

    PYTHONPATH=src python tools/check_output_reader.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))

from checks import OutputParser  # noqa: E402

from repro.benchgen import all_suites  # noqa: E402
from repro.ir.printer import format_module  # noqa: E402
from repro.pipeline import (TABLE_EXPERIMENTS, run_table,  # noqa: E402
                            run_table5)


def main() -> int:
    checked = failed = 0
    for suite in all_suites():
        results = [(table, r) for table in TABLE_EXPERIMENTS
                   for r in run_table(suite.module, table, jobs=1)]
        results += [("table5", r) for r in run_table5(suite.module, jobs=1)]
        for table, result in results:
            text = format_module(result.module)
            read = OutputParser(text).parse_module(suite.module.name)
            checked += 1
            if format_module(read) != text:
                failed += 1
                print(f"FAIL {table} {suite.name} {result.name}: "
                      f"OutputParser does not print back the same bytes")
    print(f"{checked} outputs read back, {failed} differ")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
