"""Every import in the package is used, and so is every name it defines: a
removed check must not leave an import behind, and a helper that only the
tests call lives in the tests.  Standard library only (ast), so it adds no
dependency."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "chaoskit"
# Where a package name counts as read: the package itself, the benchmark
# that drives it, and the documents that name its API.
READERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
DOCS = [ROOT / "README.md", ROOT / "perfbench" / "README.md"]


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


def definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each name a module binds at top level, dunders aside, with the
    statement that binds it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return {n: node for n, node in out.items() if not re.fullmatch(r"__\w+__", n)}


def reads(nodes) -> set[str]:
    """The names the nodes read: as variables, as attributes, or as words of
    a string, which covers docstrings and lookups by name."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                out.update(re.findall(r"\w+", n.value))
    return out


def unread_names(path: Path, readers: list[Path], docs: str) -> list[str]:
    """The names path defines that nothing reads outside its own
    definition: not path's other statements, not the other readers, and
    not docs as a word."""
    tree = ast.parse(path.read_text())
    elsewhere = reads(ast.parse(p.read_text()) for p in readers if p != path)
    return [name for name, node in definitions(tree).items()
            if name not in elsewhere
            and name not in reads(s for s in tree.body if s is not node)
            and not re.search(rf"\b{re.escape(name)}\b", docs)]


def test_unread_names_are_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("__all__ = []\nA = 1\ndef f():\n    return f() + A\n"
                   "def g(): pass\nclass C: pass\nB: int = 2\nD = E = 3\n")
    user = tmp_path / "user.py"
    user.write_text("import mod\nmod.g()\ngetattr(mod, 'D')\n")
    assert unread_names(mod, [mod, user], "see `C`") == ["f", "B", "E"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_defines_no_unread_name(path):
    docs = "\n".join(p.read_text() for p in DOCS)
    assert unread_names(path, READERS, docs) == []
