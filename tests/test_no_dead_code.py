"""Every function, method and module-level name in ``src/k3siegel`` has
a reader in ``src/``, and every dataclass field one in ``src/`` or
``demos/``.

A module-level function or a class method, dunders aside, must be named
somewhere in ``src/`` outside its own definition, as an ``ast.Name`` id
or an ``ast.Attribute`` attr; so must a module-level class or a name a
module-level assignment binds.  Code and data that only tests read
belong in the tests, as an oracle helper or a test constant.  The
function allow-list holds the public methods that the demos read and
nothing in ``src/`` calls; the name allow-list holds the package's
``__version__`` and ``__all__``, which importers read.  Names are
matched by text alone, so a definition that shares its name with
another name read in ``src/`` passes unseen (``np.sign`` reads
``sign``).  A dataclass field must be read as an attribute somewhere in
``src/`` or ``demos/``: a field that is only written holds data no
reader wants.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ALLOWED = {"AlgebraicReal.approx", "SalemStore.keys"}
ALLOWED_NAMES = {"__init__.__version__", "__init__.__all__"}


def _names(node) -> list[str]:
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _functions(path: Path, tree: ast.Module):
    """(qualified name, name, node) of each module-level function and class
    method, dunders aside."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        methods = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in methods:
            if (isinstance(fn, functions)
                    and not (fn.name.startswith("__") and fn.name.endswith("__"))):
                owner = node.name if fn is not node else path.stem
                yield f"{owner}.{fn.name}", fn.name, fn


def _module_names(path: Path, tree: ast.Module):
    """(qualified name, name, node) of each module-level class and each name
    a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield f"{path.stem}.{node.name}", node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield f"{path.stem}.{n.id}", n.id, node


def _unread(definitions) -> set[str]:
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.rglob("*.py"))}
    counts = Counter(name for tree in trees.values() for name in _names(tree))
    return {qualname
            for path, tree in trees.items() if path.parent.name == "k3siegel"
            for qualname, name, node in definitions(path, tree)
            if counts[name] == _names(node).count(name)}


def test_every_function_has_a_reader_in_src():
    assert _unread(_functions) == ALLOWED


def test_every_module_level_name_has_a_reader_in_src():
    assert _unread(_module_names) == ALLOWED_NAMES


def test_the_demos_read_the_allowed_methods():
    demos = Counter(name for p in sorted((ROOT / "demos").glob("*.py"))
                    for name in _names(ast.parse(p.read_text())))
    assert all(demos[qualname.split(".")[1]] for qualname in ALLOWED)


def _dataclass_fields(tree: ast.Module):
    """(qualified name, name) of each annotated field of a ``@dataclass``."""
    for node in tree.body:
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in getattr(node, "decorator_list", [])]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield f"{node.name}.{stmt.target.id}", stmt.target.id


def test_every_dataclass_field_is_read():
    files = sorted(SRC.rglob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    read = {n.attr for p in files for n in ast.walk(ast.parse(p.read_text()))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    fields = [f for p in sorted((SRC / "k3siegel").glob("*.py"))
              for f in _dataclass_fields(ast.parse(p.read_text()))]
    assert fields
    assert [qualname for qualname, name in fields if name not in read] == []
