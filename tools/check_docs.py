#!/usr/bin/env python
"""Docs integrity checker -- the CI ``docs-lint`` job.

Three classes of rot this catches, all of which have bitten grown
codebases before:

* **dead links** -- every intra-repository markdown link in
  ``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md`` and ``docs/*.md``
  must point at a file that exists (external ``http(s)``/``mailto``
  targets and pure ``#anchors`` are skipped);
* **dead paths** -- every backticked repository path in those files
  (``repro/...py``, optionally under ``src/``, ``benchmarks/...py``,
  ``tests/...py``, ``tools/...py``, ``examples/...``) must exist, so a
  deleted module cannot stay documented;
* **dangling code references** -- every dotted ``module.symbol``
  reference in ``docs/paper_map.md`` must resolve against the actual
  code, by importing the module and walking attributes.  The map is
  the contract "this paper concept lives here"; a rename that breaks
  it should fail CI, not confuse a reader.

Reference resolution, in order (a span is one backtick-quoted code
fragment; ``(...)``/``[...]`` argument noise is stripped first):

1. spans containing ``/`` are repository-relative paths;
2. ``test_*.py`` (optionally ``::symbol``) must exist under
   ``tests/``, and the symbol must be defined in the file;
3. ``bench_*`` (optionally ``.symbol``) must exist under
   ``benchmarks/``, and the symbol must be defined in the file;
4. dotted spans resolve by import: a leading ``repro.`` prefix is
   imported directly (longest importable module prefix, then a
   getattr chain); otherwise the first component is looked up as a
   module suffix (``figures.fig9`` -> ``repro.benchgen.figures``) or
   as a symbol exported by any ``repro`` module
   (``KillRules.variable_kills``), and the rest is a getattr chain;
5. bare single-word spans (experiment labels, stat field names,
   CLI flags) are not code references and are skipped.

Usage::

    PYTHONPATH=src python tools/check_docs.py [--verbose]

Exit status 0 when everything resolves, 1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import os
import pkgutil
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SPAN_RE = re.compile(r"`([^`]+)`")
EXTERNAL = ("http://", "https://", "mailto:")
PATH_RE = re.compile(r"(?<![\w/.])((?:src/)?repro/[\w/]*\.py"
                     r"|(?:benchmarks|tests|tools)/[\w/-]*\.py"
                     r"|examples/[\w/.-]*\w)")


def iter_markdown_files():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        yield os.path.join(REPO, name)
    docs = os.path.join(REPO, "docs")
    for name in sorted(os.listdir(docs)):
        if name.endswith(".md"):
            yield os.path.join(docs, name)


# ----------------------------------------------------------------------
# Link checking
# ----------------------------------------------------------------------
def check_links(path: str) -> list[str]:
    problems = []
    base = os.path.dirname(path)
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            for target in LINK_RE.findall(line):
                if target.startswith(EXTERNAL) or target.startswith("#"):
                    continue
                resolved = os.path.normpath(
                    os.path.join(base, target.split("#", 1)[0]))
                if not os.path.exists(resolved):
                    problems.append(
                        f"{os.path.relpath(path, REPO)}:{lineno}: "
                        f"dead link -> {target}")
    return problems


def check_paths(path: str) -> list[str]:
    """Backticked repository paths in *path* that do not exist
    (``repro/...`` paths are resolved under ``src/``)."""
    problems = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            for span in SPAN_RE.findall(line):
                for ref in PATH_RE.findall(span):
                    root = os.path.join(REPO, "src") \
                        if ref.startswith("repro/") else REPO
                    if not os.path.exists(os.path.join(root, ref)):
                        problems.append(
                            f"{os.path.relpath(path, REPO)}:{lineno}: "
                            f"dead path -> {ref}")
    return problems


# ----------------------------------------------------------------------
# Symbol-reference checking (docs/paper_map.md)
# ----------------------------------------------------------------------
def import_all_repro_modules() -> dict:
    """Import every module of the ``repro`` package; returns
    {dotted name: module}.  A module that fails to import is itself a
    docs-lint failure (the map cannot be checked against broken code)."""
    import repro

    modules = {"repro": repro}
    prefix = repro.__name__ + "."
    for info in pkgutil.walk_packages(repro.__path__, prefix):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        modules[info.name] = importlib.import_module(info.name)
    return modules


def build_symbol_index(modules: dict) -> dict:
    """{attribute name: [objects bound to it across all modules]}."""
    index: dict = {}
    for module in modules.values():
        for name, value in vars(module).items():
            index.setdefault(name, []).append(value)
    return index


def normalize(span: str):
    """Strip call/subscript noise; None when the span is not a
    checkable code reference (prose, multi-token, bare word)."""
    span = re.sub(r"\(.*?\)", "", span)
    span = re.sub(r"\[.*?\]", "", span)
    span = span.strip().rstrip(".")
    if not span or any(ch in span for ch in " ,=<>"):
        return None
    return span


def getattr_chain(obj, parts) -> bool:
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def file_defines(path: str, symbol: str) -> bool:
    with open(path) as handle:
        text = handle.read()
    return re.search(rf"^\s*(?:def|class)\s+{re.escape(symbol)}\b",
                     text, re.MULTILINE) is not None


def resolve_span(span: str, modules: dict, index: dict):
    """None when the span resolves (or is not a code reference),
    otherwise a human-readable failure reason."""
    ref = normalize(span)
    if ref is None:
        return None
    if "/" in ref:
        if os.path.exists(os.path.join(REPO, ref)):
            return None
        return f"path {ref!r} does not exist"
    if ref.startswith("test_"):
        file_part, _, symbol = ref.partition("::")
        if not file_part.endswith(".py"):
            file_part += ".py"
        path = os.path.join(REPO, "tests", file_part)
        if not os.path.exists(path):
            return f"tests/{file_part} does not exist"
        if symbol and not file_defines(path, symbol):
            return f"tests/{file_part} does not define {symbol!r}"
        return None
    if ref.startswith("bench_"):
        file_part, _, symbol = ref.partition(".")
        if symbol == "py":  # `bench_foo.py` names the file itself
            file_part, symbol = ref[:-len(".py")], ""
        path = os.path.join(REPO, "benchmarks", file_part + ".py")
        if not os.path.exists(path):
            return f"benchmarks/{file_part}.py does not exist"
        if symbol and not file_defines(path, symbol):
            return f"benchmarks/{file_part}.py does not define {symbol!r}"
        return None
    if "." not in ref:
        return None  # bare word: a label, stat field or flag -- not code
    parts = ref.split(".")
    if ref.startswith("repro."):
        for cut in range(len(parts), 0, -1):
            name = ".".join(parts[:cut])
            if name in modules:
                if getattr_chain(modules[name], parts[cut:]):
                    return None
                return (f"{name} has no attribute path "
                        f"{'.'.join(parts[cut:])!r}")
        return f"no importable prefix of {ref!r}"
    # unqualified: first component as a module suffix ...
    suffix_hits = [m for name, m in modules.items()
                   if name.endswith("." + parts[0])]
    for module in suffix_hits:
        if getattr_chain(module, parts[1:]):
            return None
    # ... or as a symbol defined somewhere in the package
    for obj in index.get(parts[0], ()):
        if getattr_chain(obj, parts[1:]):
            return None
    return f"cannot resolve {ref!r} against the repro package"


def check_paper_map(modules: dict, index: dict,
                    verbose: bool) -> list[str]:
    path = os.path.join(REPO, "docs", "paper_map.md")
    problems = []
    checked = 0
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.lstrip().startswith("|"):
                continue  # code references live in the tables
            for span in SPAN_RE.findall(line):
                reason = resolve_span(span, modules, index)
                if reason is not None:
                    problems.append(f"docs/paper_map.md:{lineno}: "
                                    f"`{span}`: {reason}")
                elif normalize(span) is not None:
                    checked += 1
                    if verbose:
                        print(f"  ok: {span}")
    print(f"paper_map: {checked} code references resolved")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    problems = []
    for path in iter_markdown_files():
        found = check_links(path) + check_paths(path)
        problems.extend(found)
        print(f"links and paths: {os.path.relpath(path, REPO)}: "
              f"{'ok' if not found else f'{len(found)} dead'}")

    try:
        modules = import_all_repro_modules()
    except Exception as error:  # broken import = unverifiable docs
        problems.append(f"importing the repro package failed: {error!r}")
    else:
        index = build_symbol_index(modules)
        problems.extend(check_paper_map(modules, index, args.verbose))

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        print(f"{len(problems)} docs problem(s)", file=sys.stderr)
        return 1
    print("docs ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
