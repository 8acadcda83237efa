"""Every function and method in ``src/k3siegel`` has a reader in ``src/``.

A module-level function or a class method, dunders aside, must be named
somewhere in ``src/`` outside its own definition, as an ``ast.Name`` id
or an ``ast.Attribute`` attr.  Code that only tests call belongs in the
tests, as an oracle helper.  The allow-list holds the public methods
that the demos read and nothing in ``src/`` calls.  Names are matched
by text alone, so a method that shares its name with another name read
in ``src/`` passes unseen (``np.sign`` reads ``sign``).
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ALLOWED = {"AlgebraicReal.approx", "SalemStore.keys"}


def _names(node) -> list[str]:
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _definitions(path: Path, tree: ast.Module):
    """(qualified name, node) of each module-level function and class method."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield f"{path.stem}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions):
                    yield f"{node.name}.{item.name}", item


def _unread() -> set[str]:
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.rglob("*.py"))}
    counts = Counter(name for tree in trees.values() for name in _names(tree))
    unread = set()
    for path, tree in trees.items():
        if path.parent.name != "k3siegel":
            continue
        for qualname, fn in _definitions(path, tree):
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            if counts[fn.name] == _names(fn).count(fn.name):
                unread.add(qualname)
    return unread


def test_every_function_has_a_reader_in_src():
    assert _unread() == ALLOWED


def test_the_demos_read_the_allowed_methods():
    demos = Counter(name for p in sorted((ROOT / "demos").glob("*.py"))
                    for name in _names(ast.parse(p.read_text())))
    assert all(demos[qualname.split(".")[1]] for qualname in ALLOWED)
