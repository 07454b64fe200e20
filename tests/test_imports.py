"""Every module of the package uses each name it imports, and every
function, method and class the package defines is named somewhere."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "srlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"_engine", "harness", "homology", "betti"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == [], path.name


def test_an_unused_import_is_found():
    source = "from .homology import pivot_rows_gf2, dims_gf2\nimport json\nx = dims_gf2\n"
    assert _unused_imports(source) == ["line 1: pivot_rows_gf2", "line 2: json"]


def _unreferenced_defs(sources: list[str], corpus: str) -> list[str]:
    """Names of the functions, methods and classes (dunders excluded)
    defined in ``sources`` that ``corpus`` names no more often than they
    are defined: no call, attribute, string or comment names them."""
    defs = Counter(
        node.name
        for source in sources for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__")))
    return sorted(name for name, k in defs.items()
                  if len(re.findall(rf"\b{name}\b", corpus)) <= k)


def test_every_definition_is_referenced():
    """Every def in srlab is named in srlab, the tests, the benchmark (which
    wraps functions by name) or the verify manifest, besides its own def."""
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    others = [p.read_text() for d in ("tests", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    corpus = "\n".join(sources + others + [(SRC / "verify_manifest.json").read_text()])
    assert _unreferenced_defs(sources, corpus) == []


def test_an_unreferenced_definition_is_found():
    source = ("class Used:\n    def kept(self): pass\n    def dropped(self): pass\n"
              "def helper(): return Used().kept()\ndef dead(): pass\n")
    assert _unreferenced_defs([source], source + "helper()\n") == ["dead", "dropped"]
