"""Source hygiene: every module of the package, and every helper module
the tests import, reads what it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "groupoidal"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
HELPERS = [Path(__file__).resolve().parent / name
           for name in ("arrow_formulas.py", "battery_oracles.py")]


def unused_imports(tree):
    """The names an import statement binds and no expression reads.

    `import a.b` binds a; a name read anywhere in the module counts as
    used, inside functions included.
    """
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_are_found():
    assert MODULES, "no modules found under {}".format(PACKAGE)
    tree = ast.parse("import os.path\nimport sys\nfrom m import a, b as c\n"
                     "def f():\n    from n import d\n    return sys.argv, c\n")
    assert unused_imports(tree) == ["a", "d", "os"]


@pytest.mark.parametrize("path", MODULES + HELPERS, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []
