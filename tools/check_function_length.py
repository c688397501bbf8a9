"""Function-length lint, stdlib-only (same style as
``check_docstrings.py``).

Fails when any function or method in the given files is longer than
``--max`` lines.  A function's length is its body *without* the
docstring: from the first statement after the docstring to the last
line of the body, inclusive (comments and blank lines in between
count — they are part of what a reader scrolls through).  Nested
functions are measured on their own *and* count toward the function
that contains them.

Usage::

    python tools/check_function_length.py PATH... --max 80

CI runs it over ``src/repro/service/batch.py`` and
``src/repro/service/tasks.py`` so the dispatch core stays plan ->
dispatch -> gather in small functions, not one long loop, and
over ``src/repro/jpeg/idct.py``, ``color.py`` and ``decoder.py`` so the
tile loop, the strip loop and the shared pixel helper cannot
grow into one; over ``src/repro/service/remote.py`` and
``src/repro/cli.py`` (one pool contract, one declaration per CLI flag);
and, with ``--max 150``, over
``src/repro/jpeg/fast_entropy.py``, whose ``decode_mcu_rows`` keeps its
fast path inline on purpose and its cold paths in helpers.
Exit status 1 when any function is over the limit.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path


def function_lengths(path: Path) -> list[tuple[str, int, int]]:
    """``(qualified name, first line, length)`` of every function in
    one Python source file, in source order."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found: list[tuple[str, int, int]] = []

    def walk(node: ast.AST, prefix: str) -> None:
        """Record the functions defined directly or deeper under
        *node*."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body
                if ast.get_docstring(child, clean=False) is not None:
                    body = body[1:]
                length = (body[-1].end_lineno - body[0].lineno + 1
                          if body else 0)
                found.append((prefix + child.name, child.lineno, length))
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; prints violations and returns the exit status."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path, metavar="PATH")
    parser.add_argument("--max", type=int, default=80, dest="limit",
                        help="longest allowed body, docstring excluded")
    args = parser.parse_args(argv)
    missing = [p for p in args.paths if not p.is_file()]
    if missing:
        for p in missing:
            print(f"error: no such file: {p}", file=sys.stderr)
        return 2
    problems = 0
    longest = 0
    for path in args.paths:
        for name, lineno, length in function_lengths(path):
            longest = max(longest, length)
            if length > args.limit:
                problems += 1
                print(f"{path}:{lineno}: {name} is {length} lines "
                      f"(max {args.limit})")
    if problems:
        print(f"\n{problems} function(s) over {args.limit} lines",
              file=sys.stderr)
        return 1
    print(f"function length OK: {len(args.paths)} file(s), "
          f"longest body {longest} lines (max {args.limit})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
