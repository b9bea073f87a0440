#!/usr/bin/env python
"""Compare two stats JSON files ignoring timing fields.

Usage::

    python benchmarks/diff_stats.py SERIAL.json PARALLEL.json

The parallel engine (``--jobs``) promises that every *non-timing*
field of a ``repro.stats`` document is identical at any job count.
This script enforces that promise in CI: it loads two documents (or
``repro.stats-collection`` files), strips the documented
non-deterministic fields and reports the first path at which the
remainders differ.  The same stripping makes it the tool for diffing
a cache-hot against a cache-cold run (see docs/caching.md).

The stripping rules themselves live in
:mod:`repro.observability.statdiff` -- one implementation shared with
``stats_digest``, the digest ``repro serve`` returns per response, so
what this gate compares and what the digest fingerprints can never
drift apart.  Exit status 0 means equal, 1 means a real divergence, 2
means usage/IO error.
"""

import json
import os
import sys

# CI runs this script directly (no PYTHONPATH); make src/ importable
# the same way benchmarks/conftest.py does.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.observability.statdiff import (  # noqa: E402
    first_difference, strip_timing)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as handle:
            left = json.load(handle)
        with open(argv[2]) as handle:
            right = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    found = first_difference(strip_timing(left), strip_timing(right))
    if found:
        path, a, b = found
        print(f"STATS DIVERGED at {path}:\n  {argv[1]}: {a!r}\n"
              f"  {argv[2]}: {b!r}", file=sys.stderr)
        return 1
    print(f"stats identical modulo timing: {argv[1]} == {argv[2]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
