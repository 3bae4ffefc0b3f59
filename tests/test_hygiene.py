"""Source hygiene: no assertion or bare RuntimeError as a runtime check.

An `assert` vanishes under `python -O`, and a bare AssertionError or
RuntimeError escapes the CLI's one-line refusal paths as a traceback.
Internal inconsistencies raise RootSystemConsistencyError (or another
named subclass), which `main` reports on one stderr line.
"""

import ast
from pathlib import Path

import orbitkit

SRC = Path(orbitkit.__file__).parent
BANNED_RAISES = {"AssertionError", "RuntimeError"}


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def _violations(source: str) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Raise) and _raised_name(node) in BANNED_RAISES:
            found.append((node.lineno, f"raise {_raised_name(node)}"))
    return found


def test_no_assert_or_bare_runtime_error_in_src():
    found = [f"{path.relative_to(SRC)}:{line}: {what}"
             for path in sorted(SRC.rglob("*.py"))
             for line, what in _violations(path.read_text())]
    assert found == []


def test_detector_flags_each_form():
    source = "\n".join([
        "assert x",
        "raise AssertionError('a')",
        "raise RuntimeError('b')",
        "raise RuntimeError",
        "raise NotNilpotentError('c')",
        "raise",
    ])
    assert _violations(source) == [
        (1, "assert"), (2, "raise AssertionError"), (3, "raise RuntimeError"),
        (4, "raise RuntimeError")]
