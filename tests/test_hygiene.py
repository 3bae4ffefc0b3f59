"""Source hygiene: no assertion or bare RuntimeError as a runtime check,
and an oracle module that shares no code with orbitkit.

An `assert` vanishes under `python -O`, and a bare AssertionError or
RuntimeError escapes the CLI's one-line refusal paths as a traceback.
Internal inconsistencies raise RootSystemConsistencyError (or another
named subclass), which `main` reports on one stderr line.

The tests take their independent oracles from `perfbench/oracles.py`;
an oracle that imported orbitkit would check orbitkit against itself.
"""

import ast
from pathlib import Path

import orbitkit
from perfbench import oracles

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


def _orbitkit_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each import of orbitkit, and of each relative
    import, since the other perfbench modules do import orbitkit."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "." * node.level + (node.module or "")))
    return [(line, name) for line, name in found
            if name.startswith(".") or name.split(".")[0] == "orbitkit"]


def test_oracles_import_nothing_from_orbitkit():
    assert _orbitkit_imports(Path(oracles.__file__).read_text()) == []


def test_echelon_is_a_leaf_module():
    # rootsys, orbits and lndcalc all import it, so it imports none of them
    assert _orbitkit_imports((SRC / "echelon.py").read_text()) == []


def _lndcalc_may_import(name: str) -> bool:
    """A sibling, the lndcalc package, `echelon` or the package root."""
    if name.startswith("."):
        return name in ("..", "..echelon") or not name.startswith("..")
    return name in ("orbitkit", "orbitkit.echelon") or name.startswith("orbitkit.lndcalc")


def test_lndcalc_imports_no_other_orbitkit_module():
    # the derivation calculus stays apart from the Lie-theory modules; its
    # one shared error class lives in the package root
    for path in sorted((SRC / "lndcalc").glob("*.py")):
        imports = _orbitkit_imports(path.read_text())
        assert imports and [(line, name) for line, name in imports
                            if not _lndcalc_may_import(name)] == [], path.name


def test_import_detector_flags_each_form():
    source = "\n".join([
        "import orbitkit",
        "import fractions, orbitkit.rootsys as rs",
        "from orbitkit import cli",
        "from orbitkit.partitions import Partition",
        "from math import comb",
        "import orbitkitten",
        "from . import shim",
        "from ..perfbench.worker import run",
    ])
    assert _orbitkit_imports(source) == [
        (1, "orbitkit"), (2, "orbitkit.rootsys"), (3, "orbitkit"), (4, "orbitkit.partitions"),
        (7, "."), (8, "..perfbench.worker")]
