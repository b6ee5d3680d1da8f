"""Every import in the package is used: a removed check must not leave an
import behind.  Standard library only (ast), so it adds no dependency."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "chaoskit"


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import math\nimport os.path\nos.sep\n") == ["math"]
    assert unused_imports("from a import b as c, d\nd()\n") == ["c"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
