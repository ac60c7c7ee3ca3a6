"""The import structure of src/phimin, read from the source: no module
reaches into another phimin module's underscore names, the sparse grid
layer is imported from grid.py, stability does not go through the graph
solver for it, only grid.py imports scipy's sparse solvers or LAPACK,
so that every factorisation has one owner, and no module imports scipy
when it is itself imported, only inside the functions that use it, so
that a command that needs no scipy does not load it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "phimin"
MODULES = sorted(SRC.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _phimin_module(node: ast.ImportFrom):
    """The phimin module an import reads from ("" for the package), or
    None for an import from outside phimin."""
    if node.level:
        return node.module or ""
    if node.module == "phimin" or (node.module or "").startswith("phimin."):
        return node.module.removeprefix("phimin").removeprefix(".")
    return None


def _at_import(node: ast.AST):
    """The nodes under node that run when its module is imported: all but
    those inside a function body."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from _at_import(child)


def _imported_modules(tree: ast.Module, at_import: bool = False) -> set:
    """Every module, in or out of phimin, that the source imports, with
    phimin's own written without the package prefix; `from a import b`
    outside phimin gives both a and a.b, as b may be a module.  With
    at_import, only the imports that run when the module is imported."""
    found = set()
    for node in (_at_import(tree) if at_import else ast.walk(tree)):
        if isinstance(node, ast.Import):
            found |= {a.name.removeprefix("phimin.") for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = _phimin_module(node)
            if module == "":
                found |= {a.name for a in node.names}
            elif module is None:
                found |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
            else:
                found.add(module)
    return found


def _private_reaches(path: Path) -> list:
    """'module:line name' of each underscore name that the module imports
    from another phimin module, or reads as an attribute of one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _phimin_module(node) is not None:
            if _phimin_module(node) == "":
                modules |= {a.asname or a.name for a in node.names}
            found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                      if _private(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    assert [reach for path in MODULES for reach in _private_reaches(path)] == []


@pytest.mark.parametrize("module, banned", [
    ("solvers", "scipy"),          # its sparse algebra lives in grid
    ("stability", "solvers"),      # it takes the V-cycle from grid
])
def test_module_does_not_import(module, banned):
    imported = _imported_modules(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")))
    assert not {m for m in imported if m == banned or m.startswith(banned + ".")}


# the sparse LU, GMRES and LAPACK modules
FACTORISATION = {"scipy.sparse.linalg", "scipy.linalg.lapack"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_only_grid_imports_the_factorisations(path):
    imported = _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
    reached = {banned for banned in FACTORISATION for m in imported
               if m == banned or m.startswith(banned + ".")}
    assert reached == (FACTORISATION if path.stem == "grid" else set())


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_imports_scipy_when_imported(path):
    imported = _imported_modules(ast.parse(path.read_text(encoding="utf-8")),
                                 at_import=True)
    assert not {m for m in imported if m == "scipy" or m.startswith("scipy.")}


def test_the_checks_see_the_reaches_they_forbid(tmp_path):
    # each form of import the checks look for, as a module would write it
    path = tmp_path / "mod.py"
    path.write_text("from . import potential\nfrom .solvers import _Hierarchy, solve_graph\n"
                    "from phimin.grid import __doc__\nx = potential._derivatives\n"
                    "import scipy.sparse as sp\nfrom scipy.linalg import lapack\n",
                    encoding="utf-8")
    assert _private_reaches(path) == ["mod.py:2 _Hierarchy", "mod.py:4 potential._derivatives"]
    assert _imported_modules(ast.parse(path.read_text(encoding="utf-8"))) == {
        "potential", "solvers", "grid", "scipy.sparse", "scipy.linalg",
        "scipy.linalg.lapack"}
    # an import inside a function or a method runs on the call; one in a
    # class body or under a module-level if runs on import
    path.write_text("import numpy\nif numpy:\n    import scipy.sparse\n"
                    "def f():\n    import scipy.linalg\n"
                    "class C:\n    import scipy.special\n"
                    "    def m(self):\n        from scipy import optimize\n",
                    encoding="utf-8")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _imported_modules(tree, at_import=True) == {"numpy", "scipy.sparse",
                                                       "scipy.special"}
    assert _imported_modules(tree) == {"numpy", "scipy.sparse", "scipy.linalg",
                                       "scipy.special", "scipy", "scipy.optimize"}
