#!/usr/bin/env python
"""Cross-check the interference oracle in every kill mode.

A fuzz sweep's ``oracle`` check runs ``oracle_cross_check`` in the
``base`` kill mode only.  This runs it in all three modes of Algorithm 4
(``base``, ``optimistic``, ``pessimistic``) on the programs of fuzz
seeds 0-4 of every generator profile: the oracle's kill and strong
answers must agree with the bulk dominance and liveness reference
(``repro.fuzz.differential.KillReference``) on every sampled pair.  The
``optimistic`` mode matters here: on the generator's split-edge
programs it is the mode in which a phi's edge kills (Case 2) reach past
its Case 1 test.  Exits 1 on any mismatch.

Usage::

    PYTHONPATH=src python tools/check_oracle_reference.py
"""

from __future__ import annotations

from repro.benchgen.synthetic import (FUZZ_PROFILES, generate_module_source,
                                      profile_config)
from repro.fuzz import oracle_cross_check
from repro.lai import parse_module

SEEDS = range(5)
N_FUNCTIONS = 3
KILL_MODES = ("base", "optimistic", "pessimistic")


def main() -> int:
    functions = mismatches = 0
    for profile in FUZZ_PROFILES:
        for seed in SEEDS:
            name = f"fuzz_{profile.replace('-', '_')}_{seed}"
            source = generate_module_source(seed, N_FUNCTIONS,
                                            profile_config(profile), name)
            for function in parse_module(source).iter_functions():
                functions += 1
                found = oracle_cross_check(function, kill_modes=KILL_MODES)
                mismatches += len(found)
                for mismatch in found[:5]:
                    print(f"FAIL {profile}/{seed} {mismatch}")
    print(f"{functions} functions x {len(KILL_MODES)} kill modes: "
          f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
