"""Source hygiene: every imported name is used in the module that imports it.

The package's own ``__init__.py`` is left out, since it imports names only
to re-export them.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "eorec"


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
