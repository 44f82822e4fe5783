"""Source hygiene: every module of the package, and every helper module
the tests import, reads what it imports; the package reads every private
name it defines; and every package name that the benchmark wraps or reads
exists."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "groupoidal"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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


def is_private(name):
    return name.startswith("_") and not name.endswith("__")


def bound_names(node):
    """The names a def, class, assignment or import statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    targets = (node.targets if isinstance(node, ast.Assign) else [node.target]
               if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unread_private_names(trees):
    """The private names, by module and qualified name, that a module binds
    at its top level, or a top-level class in its body, and that no module
    of trees reads: no load of the name, no attribute of that name, no
    import of it.  Reads are matched by name alone, so a read of a same-named
    attribute anywhere counts."""
    defined, read = [], set()
    for label, tree in trees.items():
        for node in tree.body:
            defined += [(label, name) for name in bound_names(node)]
            if isinstance(node, ast.ClassDef):
                defined += [(label, node.name + "." + name) for sub in node.body
                            for name in bound_names(sub)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted("{}:{}".format(label, name) for label, name in defined
                  if is_private(name.split(".")[-1]) and name.split(".")[-1] not in read)


def test_unread_private_names_are_found():
    trees = {"m": ast.parse("import os as _os\nfrom k import _j\n_A, b = 1, 2\n_B = _j\n"
                            "def _f():\n    return _A\n"
                            "class _C:\n    _x = 1\n    def __init__(self):\n"
                            "        self._y = self._x\n    def _m(self):\n        pass\n"),
             "n": ast.parse("from m import _f\n")}
    assert unread_private_names(trees) == ["m:_B", "m:_C", "m:_C._m", "m:_os"]


def test_package_reads_every_private_name():
    # a private helper, class or method that nothing calls is left behind
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in PACKAGE.glob("*.py")}
    assert "__init__.py" in trees
    assert unread_private_names(trees) == []


def test_benchmark_targets_exist():
    # the tracer replaces each entry of TARGETS on groupoidal.<module>, and
    # reads a Class.method entry from the class __dict__
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])

    def defined(module, attr):
        scope = vars(importlib.import_module("groupoidal." + module))
        *cls, name = attr.split(".")
        if cls:
            scope = vars(scope[cls[0]]) if cls[0] in scope else {}
        return name in scope

    assert targets
    assert [m + "." + a for m, a, *_ in targets if not defined(m, a)] == []


def test_benchmark_workloads_read_existing_names():
    # every alias.x the workloads read, for the aliases bound to groupoidal
    # and its modules by the workloads' imports
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname, a.name) for a in node.names
                           if a.asname and a.name.startswith("groupoidal"))
        elif isinstance(node, ast.ImportFrom) and node.module == "groupoidal":
            aliases.update((a.asname or a.name, "groupoidal." + a.name)
                           for a in node.names)
    read = {(aliases[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}
    assert {"G", "C", "S"} <= set(aliases)
    assert sorted((m, a) for m, a in read
                  if not hasattr(importlib.import_module(m), a)) == []


def fd_step_reads(tree):
    """The functions that read or import FD_STEP, by name; a read outside
    every function counts under None."""
    found = []

    def walk(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Name) and node.id == "FD_STEP"
                and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == "FD_STEP"
                or isinstance(node, ast.ImportFrom)
                and any(a.name == "FD_STEP" for a in node.names)):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            walk(child, func)
    walk(tree, None)
    return found


def test_fd_step_reads_are_found():
    tree = ast.parse("from s import FD_STEP\nFD_STEP = 1\n"
                     "def f():\n    return FD_STEP\n"
                     "def central_difference():\n    return s.FD_STEP\n")
    assert fd_step_reads(tree) == [None, "f", "central_difference"]


def test_fd_step_is_read_only_by_central_difference():
    reads = {p.name: fd_step_reads(ast.parse(p.read_text(), str(p)))
             for p in MODULES}
    assert set(reads.pop("scenario.py")) == {"central_difference"}
    assert {name: r for name, r in reads.items() if r} == {}
