#!/usr/bin/env python
"""Compare the ``result`` blocks of two stats JSON files.

Usage::

    python benchmarks/diff_stats.py LEFT.json RIGHT.json

A ``repro.stats/v2`` document keeps what a run produced in ``result``
and how it ran (timing, pool shape, cache traffic) in ``env``.  The
parallel engine (``--jobs``) promises an identical ``result`` at any
job count, and the persistent cache the same cache-hot and cache-cold;
this script enforces both promises in CI.  It loads two documents (or
``repro.stats-collection`` files) and reports the first path at which
their runs' experiment names or ``result`` blocks differ.

What is compared lives in :mod:`repro.observability.statdiff` -- one
definition shared with ``stats_digest``, the digest ``repro serve``
returns per response, so what this gate compares and what the digest
fingerprints can never drift apart.  Exit status 0 means equal, 1
means a real divergence, 2 means usage/IO error.
"""

import json
import os
import sys

# CI runs this script directly (no PYTHONPATH); make src/ importable
# the same way benchmarks/conftest.py does.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.observability.statdiff import (  # noqa: E402
    first_difference, result_blocks)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        blocks = []
        for path in argv[1:]:
            with open(path) as handle:
                blocks.append(result_blocks(json.load(handle)))
    except (OSError, ValueError, KeyError) as error:
        print(f"error: {error!r}", file=sys.stderr)
        return 2
    found = first_difference(*blocks)
    if found:
        path, a, b = found
        print(f"STATS DIVERGED at {path}:\n  {argv[1]}: {a!r}\n"
              f"  {argv[2]}: {b!r}", file=sys.stderr)
        return 1
    print(f"stats results identical: {argv[1]} == {argv[2]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
