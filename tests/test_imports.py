"""Every imported name is read somewhere in its module.

Each module of ``src/surety`` and ``tests/`` is parsed with ``ast``. A
name an ``import`` binds must be read at least once in the same module,
or the import is dead. ``from __future__`` imports bind no name, and
``surety/__init__.py`` imports names to re-export them, so both are
skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "surety").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path != ROOT / "src" / "surety" / "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.partition(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [f"line {lineno}: {name}" for lineno, name in sorted(imported) if name not in read]


def test_an_import_nobody_reads_is_reported():
    source = "from __future__ import annotations\nimport os, os.path as osp\nfrom typing import Optional\nos.sep\n"
    assert unused_imports(source) == ["line 2: osp", "line 3: Optional"]


@pytest.mark.parametrize("path", MODULES, ids=[f"{path.parent.name}/{path.name}" for path in MODULES])
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
