"""A lint guard with no dependency beyond ``ast``: no unused import, no unreferenced module-level private name,
no private name imported from another module of the package, no line over ``MAX_COLUMNS``.

Every ``.py`` file under ``src/``, ``scripts/`` and ``tests/`` is parsed. An import binds a name that the file
must read somewhere (``from __future__`` imports bind none), and every line fits in ``MAX_COLUMNS`` columns.
A module-level function, class or assignment of ``src/ssda_lab`` whose name starts with one underscore (dunders
aside) must be read by name or as an attribute somewhere in the package, since nothing outside it is meant to,
and no module of the package imports another one's such name, but for those ``PRIVATE_IMPORTS`` lists.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ssda_lab"
MODULES = sorted(SRC.glob("*.py"))
PY_FILES = sorted(p for d in ("src", "scripts", "tests") for p in (ROOT / d).rglob("*.py"))
MAX_COLUMNS = 120

# (importing module, imported module, name): the private names one module of the package may import from another;
# trainer.entropy_loss reads the entropy value of network's loss head
PRIVATE_IMPORTS = {("trainer", "network", "_loss_terms")}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _read_names(tree: ast.AST) -> set:
    """Every name the tree reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imports(tree: ast.Module) -> list:
    """(line, bound name) for every import in the module."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    return bound


def _module_privates(tree: ast.Module) -> list:
    """(line, name) for every module-level def, class or assignment named ``_x``."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in names if name.startswith("_") and not name.startswith("__")]


@pytest.mark.parametrize("path", PY_FILES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    read = _read_names(tree)
    unused = [f"{path.name}:{line} {name}" for line, name in _imports(tree) if name not in read]
    assert not unused, f"unused imports: {unused}"


def test_every_module_private_name_is_referenced():
    trees = {path: _tree(path) for path in MODULES}
    read = set().union(*map(_read_names, trees.values()))
    unreferenced = [f"{path.name}:{line} {name}" for path, tree in trees.items()
                    for line, name in _module_privates(tree) if name not in read]
    assert not unreferenced, f"module-level private names nothing in the package references: {unreferenced}"


def test_no_module_imports_another_modules_private_name():
    imported = {(path.stem, (node.module or "").removeprefix("ssda_lab."), a.name) for path in MODULES
                for node in ast.walk(_tree(path))
                if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ssda_lab"))
                for a in node.names if a.name.startswith("_") and not a.name.startswith("__")}
    crossing = sorted(imported - PRIVATE_IMPORTS)
    assert not crossing, f"private names imported from another module: {crossing}"


def test_no_line_is_over_max_columns():
    assert PY_FILES
    long = [f"{path.relative_to(ROOT)}:{i} ({len(line)})" for path in PY_FILES
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if len(line) > MAX_COLUMNS]
    assert not long, f"lines over {MAX_COLUMNS} columns: {long}"
