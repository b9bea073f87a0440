"""Self-contained repro files.

Repro / regression file format -- plain LAI prefixed with structured
comment headers, so the file replays with zero out-of-band state:

.. code-block:: text

    ; fuzz regression: coalescer dropped a swap on the back edge
    ; seed: 4211  profile: swap-webs
    ; check: compositions  composition: Lphi,ABI+C  kind: behaviour
    ; verify: f0 3 -1
    ; verify: f1 7
    func f0
    ...

``verify`` lines repeat, one per interpreter run (function name then
integer arguments).  Everything after the header block is the program.
Files committed under ``tests/corpus_regressions/`` are replayed by the
tier-1 suite through *every* check (:func:`replay_regression`), so a
fixed bug stays fixed under all compositions, not just the one that
originally failed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .differential import (ALL_CHECKS, Divergence, SeedResult,
                           check_module)


@dataclass
class Regression:
    """One parsed repro file."""

    source: str
    verify: list
    description: str = ""
    check: str = ""
    composition: str = ""
    kind: str = ""
    seed: int = -1
    profile: str = ""
    path: str = ""

    def divergence(self) -> Divergence:
        """The recorded failure, for a targeted re-check."""
        return Divergence(self.check or "compositions", self.composition,
                          self.kind or "behaviour", self.description,
                          self.seed, self.profile)


def write_regression(path: str | os.PathLike, source: str,
                     verify: Sequence[tuple[str, Sequence[int]]],
                     divergence: Optional[Divergence] = None,
                     description: str = "") -> None:
    """Write a self-contained repro file (see module docstring)."""
    lines = []
    note = description or (divergence.detail if divergence else "")
    lines.append(f"; fuzz regression: {note}".rstrip())
    if divergence is not None:
        if divergence.seed >= 0 or divergence.profile:
            lines.append(f"; seed: {divergence.seed}  "
                         f"profile: {divergence.profile}")
        lines.append(f"; check: {divergence.check}  "
                     f"composition: {divergence.composition}  "
                     f"kind: {divergence.kind}")
    for fn_name, args in verify:
        arg_text = " ".join(str(a) for a in args)
        lines.append(f"; verify: {fn_name} {arg_text}".rstrip())
    body = source if source.endswith("\n") else source + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n" + body)


def _header_fields(text: str) -> dict[str, str]:
    """``key: value`` pairs of one ``; key: v  key: v`` header line."""
    fields = {}
    parts = [chunk for chunk in text.split("  ") if chunk.strip()]
    for chunk in parts:
        if ":" in chunk:
            key, _, value = chunk.partition(":")
            fields[key.strip()] = value.strip()
    return fields


def load_regression(path: str | os.PathLike) -> Regression:
    """Parse a repro file written by :func:`write_regression` (or by
    hand, following the same convention)."""
    regression = Regression(source="", verify=[], path=os.fspath(path))
    body: list[str] = []
    in_header = True
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if in_header and stripped.startswith(";"):
                text = stripped.lstrip("; ")
                if text.startswith("fuzz regression:"):
                    regression.description = \
                        text.partition(":")[2].strip()
                elif text.startswith("verify:"):
                    parts = text.partition(":")[2].split()
                    if parts:
                        regression.verify.append(
                            (parts[0], [int(a) for a in parts[1:]]))
                else:
                    fields = _header_fields(text)
                    regression.check = fields.get("check",
                                                  regression.check)
                    regression.composition = fields.get(
                        "composition", regression.composition)
                    regression.kind = fields.get("kind", regression.kind)
                    regression.profile = fields.get("profile",
                                                    regression.profile)
                    if "seed" in fields:
                        try:
                            regression.seed = int(fields["seed"])
                        except ValueError:
                            pass
                continue
            if stripped:
                in_header = False
            body.append(line)
    regression.source = "".join(body)
    return regression


def replay_regression(path: str | os.PathLike,
                      checks: Sequence[str] = ALL_CHECKS,
                      jobs: int = 2) -> SeedResult:
    """Run a committed repro through the differential driver.

    A fixed bug replays clean under *every* check; the returned
    :attr:`SeedResult.divergences` must be empty for the regression
    suite to pass.
    """
    regression = load_regression(path)
    return check_module(regression.source, regression.verify,
                        checks=checks, jobs=jobs,
                        seed=regression.seed,
                        profile=regression.profile)


def iter_regressions(directory: str | os.PathLike) -> Iterator[str]:
    """Paths of every ``.lai`` repro under *directory*, sorted."""
    root = os.fspath(directory)
    if not os.path.isdir(root):
        return
    for name in sorted(os.listdir(root)):
        if name.endswith(".lai"):
            yield os.path.join(root, name)
