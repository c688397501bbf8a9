"""Docstring (D1) lint over the scoped modules, run as a tier-1 test.

The scope is the ISSUE-2 satellite contract, widened by ISSUEs 3-5 and
14: ``repro.jpeg.fast_entropy``, ``repro.jpeg.parallel_huffman``, the
pixel kernels ``repro.jpeg.idct``/``repro.jpeg.color``, every module of ``repro.service`` (the scheduler, the serving front
ends ``session``/``http``, and the shared-memory
``transport`` module included), and the
partitioning core ``repro.core.partition``/``repro.core.perfmodel``
must document their module, every public class and every public
function/method.  The
checker itself is ``tools/check_docstrings.py`` (stdlib ``ast``;
pydocstyle/ruff are not available offline).
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docstrings  # noqa: E402


def test_scoped_modules_fully_documented(capsys):
    assert check_docstrings.main([]) == 0, capsys.readouterr().out


def test_scope_includes_serving_front_ends():
    """The ISSUE-4 widening: the default targets must sweep in the new
    session/http serving modules (via the service directory)."""
    files = check_docstrings.collect(list(check_docstrings.DEFAULT_TARGETS))
    names = {f.name for f in files if "service" in str(f)}
    assert {"session.py", "http.py"} <= names


def test_scope_includes_executors_and_transport():
    """The shared-memory transport module must stay fully documented
    (the lane-pool executors module that came with it is gone: a
    decoder has one local pool)."""
    files = check_docstrings.collect(list(check_docstrings.DEFAULT_TARGETS))
    names = {f.name for f in files if "service" in str(f)}
    assert "transport.py" in names


def test_scope_includes_fault_injection():
    """The ISSUE-6 widening: the fault-injection module rides the same
    service-directory sweep and must stay fully documented."""
    files = check_docstrings.collect(list(check_docstrings.DEFAULT_TARGETS))
    names = {f.name for f in files if "service" in str(f)}
    assert "faults.py" in names


def test_scope_includes_pixel_kernels():
    """The ISSUE-14 widening: the tiled IDCT and strip-wise colour
    modules must stay fully documented."""
    files = check_docstrings.collect(list(check_docstrings.DEFAULT_TARGETS))
    names = {f.name for f in files if f.parent.name == "jpeg"}
    assert {"idct.py", "color.py"} <= names


def test_checker_flags_missing_docstrings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def public():\n    pass\n\n\n"
        "class Thing:\n    def method(self):\n        pass\n"
    )
    problems = check_docstrings.check_file(bad)
    codes = {p.split()[1] for p in problems}
    assert codes == {"D100", "D101", "D102", "D103"}


def test_checker_ignores_private_and_nested(tmp_path):
    ok = tmp_path / "ok.py"
    ok.write_text(
        '"""Module docstring."""\n\n\n'
        "def _private():\n    pass\n\n\n"
        "def public():\n"
        '    """Doc."""\n'
        "    def nested():\n        pass\n"
    )
    assert check_docstrings.check_file(ok) == []


# ---------------------------------------------------------------------------
# tools/check_function_length.py (ISSUE 13): the dispatch core stays small.
# ---------------------------------------------------------------------------

import check_function_length  # noqa: E402

DISPATCH_CORE = [str(REPO_ROOT / "src" / "repro" / "service" / name)
                 for name in ("batch.py", "tasks.py")]
#: ISSUE 14: the tile loop, the strip loop and the shared pixel helper.
PIXEL_KERNELS = [str(REPO_ROOT / "src" / "repro" / "jpeg" / name)
                 for name in ("idct.py", "color.py", "decoder.py")]


def test_dispatch_core_functions_stay_under_80_lines(capsys):
    assert check_function_length.main(DISPATCH_CORE + ["--max", "80"]) == 0, \
        capsys.readouterr().out


def test_pixel_kernel_functions_stay_under_80_lines(capsys):
    assert check_function_length.main(PIXEL_KERNELS + ["--max", "80"]) == 0, \
        capsys.readouterr().out


def test_fanout_functions_stay_under_80_lines(capsys):
    """ISSUE 16: the stitcher is a sync walk, a tail cover and a
    scatter; chunk, repair and restart-run decodes are thin callers of
    the engine's one bounded run."""
    paths = [str(REPO_ROOT / "src" / "repro" / "jpeg" / name)
             for name in ("speculative.py", "parallel_huffman.py")]
    assert check_function_length.main(paths + ["--max", "80"]) == 0, \
        capsys.readouterr().out


def test_marker_walk_is_one_loop_of_short_functions(capsys):
    """``walk_header`` and ``parse_jpeg`` consume one segment walk: the
    fill-byte, marker and length checks are written once, and no
    function of the module passes 80 lines."""
    path = REPO_ROOT / "src" / "repro" / "jpeg" / "markers.py"
    source = path.read_text()
    for check in ("expected marker at offset", "truncated marker",
                  "_check_segment_marker(marker)", "bad segment length"):
        assert source.count(check) == 1, check
    assert check_function_length.main([str(path), "--max", "80"]) == 0, \
        capsys.readouterr().out


def test_entropy_hot_loop_stays_under_150_lines(capsys):
    """ISSUE 15: restart handling, the end-of-segment careful symbols
    and the long-code walk live in module-level helpers; the hot
    function may not grow back into one 310-line body.  ISSUE 24 holds
    the progressive scan loops to the same discipline."""
    paths = [str(REPO_ROOT / "src" / "repro" / "jpeg" / name)
             for name in ("fast_entropy.py", "progressive.py")]
    assert check_function_length.main(paths + ["--max", "150"]) == 0, \
        capsys.readouterr().out


def test_length_excludes_docstring_and_counts_nested(tmp_path, capsys):
    src = tmp_path / "long.py"
    src.write_text(
        "class K:\n"
        "    def method(self):\n"
        '        """Doc line one.\n\n        Doc line three.\n        """\n'
        "        a = 1\n"
        "        def inner():\n"
        "            return a\n"
        "        return inner\n"
    )
    assert check_function_length.function_lengths(src) == [
        ("K.method", 2, 4), ("K.method.inner", 8, 1)]
    assert check_function_length.main([str(src), "--max", "4"]) == 0
    assert check_function_length.main([str(src), "--max", "3"]) == 1
    assert "K.method is 4 lines (max 3)" in capsys.readouterr().out
