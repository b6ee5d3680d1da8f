"""Every import in the package is used, and so is every name it defines: a
removed check must not leave an import behind, a helper that only the
tests call lives in the tests, and a private helper that a refactor leaves
without a caller in the package goes with it.  No cache outlives the call
that fills it: functools caches are made inside a call, a context
variable set in a function is reset in a finally of that function, and the
CLI builds its parser inside each call, not once at import, so a benchmark
that calls cli.main many times in one process pays what one run pays.
Standard library only (ast), so it adds no dependency."""

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


def reads(nodes, strings: bool = True) -> set[str]:
    """The names the nodes read: as variables, as attributes, and, with
    strings, as words of a string, which covers docstrings and lookups by
    name."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif (strings and isinstance(n, ast.Constant)
                  and isinstance(n.value, str)):
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


def orphaned_private_names(path: Path, package: list[Path]) -> list[str]:
    """The private names (one leading underscore) that path defines at top
    level and that no code of the package reads outside the definition: a
    read by a test, by the benchmark or in a string does not keep one."""
    tree = ast.parse(path.read_text())
    elsewhere = reads((ast.parse(p.read_text()) for p in package if p != path),
                      strings=False)
    return [name for name, node in definitions(tree).items()
            if name.startswith("_") and name not in elsewhere
            and name not in reads((s for s in tree.body if s is not node),
                                  strings=False)]


def test_orphaned_private_names_are_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text('"""_doc is named here."""\n_A = 1\n_B = _A\n_C = 2\n'
                   "def _f(): return _f()\ndef _g(): pass\ndef _doc(): pass\n"
                   "def h(): return _g\nclass _K: pass\n")
    user = tmp_path / "user.py"
    user.write_text("import mod\nmod._K()\n")
    assert orphaned_private_names(mod, [mod, user]) == ["_B", "_C", "_f", "_doc"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_private_names_are_read_by_the_package(path):
    assert orphaned_private_names(path, sorted(PACKAGE.glob("*.py"))) == []


# The one cache that lives as long as the module, with the reason it stays:
# perfbench/workloads.py clears it to start each run cold, so it goes only
# with a change to the benchmark.
LIFELONG_CACHES = {"subshift.sturmian_prefix": "perfbench calls its cache_clear()"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own(body: list[ast.stmt]) -> list[ast.AST]:
    """Every node that runs with a body, in source order: the bodies of the
    functions it defines are left out, their decorators kept."""
    stack, out = list(body), []
    while stack:
        node = stack.pop()
        out.append(node)
        stack += [c for c in ast.iter_child_nodes(node)
                  if not (isinstance(node, FUNCTIONS) and c in node.body)]
    return sorted(out, key=lambda n: (getattr(n, "lineno", 0),
                                      getattr(n, "col_offset", 0)))


def lifelong_caches(source: str) -> list[str]:
    """The names a module caches with functools.cache or lru_cache outside
    any function body (at module or class level), where the cache lives as
    long as the module; a cache made inside a call dies with it."""
    tree = ast.parse(source)
    wrappers = {"cache", "lru_cache"} | {
        a.asname for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
        and n.module == "functools" for a in n.names
        if a.asname and a.name in ("cache", "lru_cache")}

    def is_cache(node) -> bool:
        while isinstance(node, ast.Call):
            node = node.func
        return (node.attr if isinstance(node, ast.Attribute)
                else getattr(node, "id", None)) in wrappers

    found = []
    for node in own(tree.body):
        if isinstance(node, FUNCTIONS) and any(map(is_cache, node.decorator_list)):
            found.append(node.name)
        elif isinstance(node, ast.Assign) and any(
                isinstance(n, ast.Call) and is_cache(n) for n in ast.walk(node.value)):
            found += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return found


def unreset_context_vars(source: str) -> list[str]:
    """Each call var.set(...) on a module-level ContextVar that its own
    scope does not undo, as "scope: var": the set must bind a token, and a
    finally of the same function must call var.reset(token)."""
    tree = ast.parse(source)
    cvars = {t.id for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign))
             and isinstance(n.value, ast.Call)
             and getattr(n.value.func, "id", None) == "ContextVar"
             for t in (n.targets if isinstance(n, ast.Assign) else [n.target])}

    def var_of(n, method: str) -> str | None:
        """The context variable whose method n calls, if it is one."""
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == method
                and getattr(n.func.value, "id", None) in cvars):
            return n.func.value.id
        return None

    bad = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        nodes = own(scope.body)
        token = {id(n.value): n.targets[0].id for n in nodes
                 if isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Name)}
        reset = {(var_of(n, "reset"), getattr(n.args[0], "id", None))
                 for t in nodes if isinstance(t, ast.Try)
                 for n in own(t.finalbody) if var_of(n, "reset") and n.args}
        bad += [f"{getattr(scope, 'name', '<module>')}: {var}" for n in nodes
                if (var := var_of(n, "set")) and (var, token.get(id(n))) not in reset]
    return bad


def test_cache_rule_breaches_are_found():
    mod = """
import functools
from contextvars import ContextVar
from functools import cache, lru_cache as lru
_memo: ContextVar[dict] = ContextVar("_memo")
_other = ContextVar("_other")

@functools.lru_cache(maxsize=8)
def kept(x): return x

@lru
def kept_too(x): return x

table = cache(len)

class K:
    @cache
    def method(self): return 1

def per_call(xs):
    @cache
    def f(x): return x
    g = functools.cache(lambda y: y)
    token = _memo.set({})
    try:
        return [f(x) + g(x) for x in xs]
    finally:
        _memo.reset(token)

def leaks():
    _memo.set({})
    token = _other.set(1)
    _other.reset(token)

def wrong_token():
    token, other = _memo.set({}), None
    try:
        pass
    finally:
        _memo.reset(other)

_other.set(2)
"""
    assert lifelong_caches(mod) == ["kept", "kept_too", "table", "method"]
    assert unreset_context_vars(mod) == [
        "<module>: _other", "leaks: _memo", "leaks: _other", "wrong_token: _memo"]


def test_package_caches_die_with_their_call():
    found = {f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
             for name in lifelong_caches(path.read_text())}
    assert found == set(LIFELONG_CACHES)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_resets_every_context_var_it_sets(path):
    assert unreset_context_vars(path.read_text()) == []


# The calls that build the CLI's parser, as written in cli.py.
PARSER_BUILDERS = {"_build_parser", "argparse.ArgumentParser", "ArgumentParser"}


def import_time_calls(source: str, names: set[str]) -> list[str]:
    """The calls of the named functions that run when the module is
    imported: at module or class level, in a decorator or in a default."""
    return [ast.unparse(n.func) for n in own(ast.parse(source).body)
            if isinstance(n, ast.Call) and ast.unparse(n.func) in names]


def test_import_time_parsers_are_found():
    mod = """
import argparse
from argparse import ArgumentParser
PARSER = argparse.ArgumentParser(prog="x")

def _build_parser(parents=(ArgumentParser(add_help=False),)):
    return argparse.ArgumentParser(parents=list(parents))

class K:
    parser = _build_parser()

def main(argv):
    return _build_parser().parse_args(argv)
"""
    assert import_time_calls(mod, PARSER_BUILDERS) == [
        "argparse.ArgumentParser", "ArgumentParser", "_build_parser"]


def test_cli_builds_its_parser_per_call():
    assert import_time_calls((PACKAGE / "cli.py").read_text(),
                             PARSER_BUILDERS) == []
