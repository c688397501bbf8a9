"""The docs describe the code that exists.

- The module map in ``docs/architecture.md`` names every module under
  ``src/repro`` and nothing else.
- Every ``--flag`` in ``README.md`` and ``docs/*.md`` is declared by
  ``repro.cli.build_parser()`` or by the argparse of a script the docs
  run (``benchmarks/perf/run.py``, ``compare.py``, ``tools/*.py``);
  curl's flags are the only others.
- Every ``docs/*.md`` path the code, the tools, the benchmark scripts
  and CI cite exists, and every ``docs/architecture.md#anchor`` link in
  ``README.md`` names a heading of that page.
"""

from __future__ import annotations

import argparse
import ast
import re
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
DOCS = sorted((ROOT / "docs").glob("*.md"))

#: Flags of the curl command lines the docs show.
CURL_FLAGS = {"--data-binary"}

#: Scripts whose argparse flags the docs may cite.
SCRIPTS = [ROOT / "benchmarks/perf/run.py", ROOT / "benchmarks/perf/compare.py",
           *sorted((ROOT / "tools").glob("*.py"))]


def module_map() -> set[str]:
    """``package/module.py`` for each module line of the map's tree."""
    text = (ROOT / "docs/architecture.md").read_text()
    block = text.split("## Module map", 1)[1].split("```")[1]
    names, package = set(), None
    for line in block.splitlines():
        m = re.search(r"[├└]── (\S+)", line)
        if m is None:
            continue
        name, depth = m.group(1), m.start(1) // 4
        if depth == 1 and not name.endswith(".py"):
            package = name
            assert (SRC / name).is_dir(), f"map names no package {name}"
        elif name.endswith(".py"):
            names.add(name if depth == 1 else f"{package}/{name}")
    return names


def source_modules() -> set[str]:
    """Every module under ``src/repro`` but the package ``__init__``s
    and ``__main__``."""
    return {p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py")
            if p.name not in ("__init__.py", "__main__.py")}


def parser_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Long options of *parser* and of all its subcommands."""
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= parser_flags(sub)
    return flags


def script_flags(path: Path) -> set[str]:
    """Long options a script declares with ``add_argument``."""
    flags = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(
                node.func, "attr", None) == "add_argument":
            flags.update(a.value for a in node.args
                         if isinstance(a, ast.Constant)
                         and str(a.value).startswith("--"))
    return flags


class TestModuleMap:
    def test_every_module_is_on_the_map(self):
        assert sorted(source_modules() - module_map()) == []

    def test_the_map_names_only_modules_that_exist(self):
        assert sorted(module_map() - source_modules()) == []


class TestFlags:
    def test_every_documented_flag_is_declared(self):
        declared = parser_flags(build_parser()) | CURL_FLAGS
        for script in SCRIPTS:
            declared |= script_flags(script)
        stale = {}
        for path in [ROOT / "README.md", *DOCS]:
            for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*",
                                   path.read_text()):
                if flag not in declared:
                    stale.setdefault(flag, set()).add(path.name)
        assert stale == {}


class TestCitedDocs:
    def test_every_cited_docs_path_exists(self):
        sources = [*SRC.rglob("*.py"), *(ROOT / "tools").glob("*.py"),
                   *(ROOT / "benchmarks").glob("*.py"),
                   ROOT / ".github/workflows/ci.yml"]
        missing = {f"{path.relative_to(ROOT)}: {cited}"
                   for path in sources
                   for cited in re.findall(r"docs/[\w.-]+\.md",
                                           path.read_text())
                   if not (ROOT / cited).is_file()}
        assert sorted(missing) == []

    def test_readme_anchors_name_architecture_headings(self):
        headings = {
            re.sub(r"[^\w\- ]", "", h.strip().lower()).replace(" ", "-")
            for h in re.findall(r"^#+ (.+)$",
                                (ROOT / "docs/architecture.md").read_text(),
                                re.M)}
        anchors = re.findall(r"docs/architecture\.md#([\w-]+)",
                             (ROOT / "README.md").read_text())
        assert anchors, "README links no architecture section"
        assert sorted(set(anchors) - headings) == []
