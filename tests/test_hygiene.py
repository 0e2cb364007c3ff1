"""Source hygiene: every imported name is used in the module that imports
it, and every definition in the package has a caller.

The package's own ``__init__.py`` is left out of both scans as a user, since
it imports names only to re-export them.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "eorec"
PERFBENCH = TESTS.parent / "perfbench"


def _modules():
    yield from sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    yield from sorted(TESTS.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names an import binds in this module that no ``ast.Name`` reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_caught():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport json as js\n"
                     "from math import comb, gcd\n"
                     "x = os.path.join(comb(4, 2))\n")
    assert _unused_imports(tree) == ["js", "gcd"]


def test_every_import_is_used():
    unused = [f"{path.relative_to(TESTS.parent)}: {name}"
              for path in _modules()
              for name in _unused_imports(ast.parse(path.read_text(), str(path)))]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _definitions(tree: ast.Module, prefix: str = "") -> list[tuple[str, str]]:
    """(qualified name, name) of every function, method and class defined
    in ``tree``, nested ones included; dunders are left out."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                out.append((prefix + node.name, node.name))
            out += _definitions(node, prefix + node.name + ".")
        else:
            out += _definitions(node, prefix)
    return out


def _references(tree: ast.Module) -> set[str]:
    """The names ``tree`` reads, as an ``ast.Name``, the attribute of an
    ``ast.Attribute`` or an imported name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def _unreferenced(defining: list[ast.Module], using: list[ast.Module]) -> list[str]:
    """Qualified names of the definitions in ``defining`` whose name no
    module in ``using`` references.

    The scan goes by name alone, so it is coarse: a definition counts as
    called when any function, method, class, variable or attribute of the
    same name is read anywhere, and a recursive call counts as a caller.
    It catches dead code, not every unused overload.
    """
    used = set().union(*(_references(tree) for tree in using))
    return [qual for tree in defining for qual, name in _definitions(tree) if name not in used]


def test_unreferenced_definitions_are_caught():
    tree = ast.parse("class A:\n"
                     "    def __init__(self): self.run()\n"
                     "    def run(self): pass\n"
                     "    def spare(self): pass\n"
                     "def helper(): return A\n"
                     "def orphan(): pass\n")
    user = ast.parse("from lib import helper\nhelper()\n")
    assert _unreferenced([tree], [tree, user]) == ["A.spare", "orphan"]


def test_every_definition_has_a_caller():
    """Each function, method and class of the package is used by the
    package or by the benchmark harness; tests do not count as callers."""
    def parse(path):
        return ast.parse(path.read_text(), str(path))

    package = [parse(p) for p in sorted(PACKAGE.glob("*.py"))]
    using = [parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    using += [parse(p) for p in sorted(PERFBENCH.glob("*.py"))
              if not p.name.startswith("test_")]
    unreferenced = _unreferenced(package, using)
    assert not unreferenced, "definitions without a caller:\n" + "\n".join(unreferenced)
