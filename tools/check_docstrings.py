"""D1-style docstring lint, stdlib-only (no pydocstyle/ruff available
offline).

Enforces the "missing docstring" family of pydocstyle checks over a
scoped set of modules:

- D100: public module must have a docstring
- D101: public class must have a docstring
- D102: public method must have a docstring (``__init__`` included,
  other dunders exempt)
- D103: public function must have a docstring

A name is public unless it starts with ``_``.  Nested (function-local)
definitions are exempt, matching pydocstyle.

Usage::

    python tools/check_docstrings.py [FILE_OR_DIR ...]

With no arguments, checks the modules this repo scopes the rule to:
``repro.jpeg.fast_entropy``, ``repro.jpeg.parallel_huffman``, the
pixel kernels ``repro.jpeg.idct`` and ``repro.jpeg.color``, every
module of ``repro.service`` — which includes the serving
front ends ``service/session.py`` and ``service/http.py``, and the
shared-memory transport ``service/transport.py`` — and the partitioning core
(``repro.core.partition``, ``repro.core.perfmodel``).  Exit status 1
when any violation is found.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules the docstring rule is scoped to: the entropy and pixel
#: kernels, the partitioning core — the modules docs/partitioning.md
#: maps the paper onto must stay documented — and, via the service
#: directory target, every service module including the serving front
#: ends session.py/http.py; tests/test_docstrings.py pins them.
DEFAULT_TARGETS = (
    REPO_ROOT / "src" / "repro" / "jpeg" / "fast_entropy.py",
    REPO_ROOT / "src" / "repro" / "jpeg" / "parallel_huffman.py",
    REPO_ROOT / "src" / "repro" / "jpeg" / "idct.py",
    REPO_ROOT / "src" / "repro" / "jpeg" / "color.py",
    REPO_ROOT / "src" / "repro" / "service",
    REPO_ROOT / "src" / "repro" / "core" / "partition.py",
    REPO_ROOT / "src" / "repro" / "core" / "perfmodel.py",
)

#: Dunder methods that still require a docstring.
DOCUMENTED_DUNDERS = {"__init__"}


def _is_public(name: str) -> bool:
    """Public = not underscore-prefixed (dunders handled separately)."""
    if name.startswith("__") and name.endswith("__"):
        return name in DOCUMENTED_DUNDERS
    return not name.startswith("_")


def _check_body(path: Path, parent: str, body: list[ast.stmt],
                inside_class: bool, problems: list[str]) -> None:
    """Walk one definition body, recording missing-docstring findings."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _is_public(node.name):
                continue
            if ast.get_docstring(node) is None:
                code = "D102" if inside_class else "D103"
                kind = "method" if inside_class else "function"
                problems.append(
                    f"{path}:{node.lineno}: {code} missing docstring on "
                    f"public {kind} {parent}{node.name}")
        elif isinstance(node, ast.ClassDef):
            if not _is_public(node.name):
                continue
            if ast.get_docstring(node) is None:
                problems.append(
                    f"{path}:{node.lineno}: D101 missing docstring on "
                    f"public class {node.name}")
            _check_body(path, f"{node.name}.", node.body, True, problems)


def check_file(path: Path) -> list[str]:
    """Return every D1 violation in one Python source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    problems: list[str] = []
    if ast.get_docstring(tree) is None:
        problems.append(f"{path}:1: D100 missing module docstring")
    _check_body(path, "", tree.body, False, problems)
    return problems


def collect(targets: list[Path]) -> list[Path]:
    """Expand files/directories into the list of .py files to check."""
    files: list[Path] = []
    for target in targets:
        if target.is_dir():
            files.extend(sorted(target.rglob("*.py")))
        else:
            files.append(target)
    return files


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; prints violations and returns the exit status."""
    args = argv if argv is not None else sys.argv[1:]
    targets = [Path(a) for a in args] or list(DEFAULT_TARGETS)
    missing = [t for t in targets if not t.exists()]
    if missing:
        for t in missing:
            print(f"error: no such target: {t}", file=sys.stderr)
        return 2
    problems: list[str] = []
    files = collect(targets)
    for path in files:
        problems.extend(check_file(path))
    for problem in problems:
        print(problem)
    if problems:
        print(f"\n{len(problems)} docstring problem(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"docstring lint OK: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
