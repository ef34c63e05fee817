"""Every module in ``src/`` and ``tests/`` reads each name it imports.

No linter is a dependency, so this is an ``ast`` scan: a name bound by an
import and never loaded in its module fails.  ``pertvqe/__init__.py`` is
exempt, since its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path != ROOT / "src" / "pertvqe" / "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_scan_flags_a_name_never_read():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "line 1: os", "line 2: b"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []
