"""No module of the package imports another module's private names but
three named ones.

``hodgeclass`` reads ``algnum._sign`` for its sign tests at rational
points, and ``hyplattice`` and ``salemlib`` read ``algnum._variations_at``
to count sign variations on a chain they build.  Any other
``from .module import _name`` in ``src/k3siegel`` would be a second entry
point into another module's internals, such as a second root isolation
beside ``algnum.isolate_real_roots``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "k3siegel"
ALLOWED = {
    ("hodgeclass", "_sign"),
    ("hyplattice", "_variations_at"),
    ("salemlib", "_variations_at"),
}


def private_imports() -> set[tuple[str, str]]:
    """(importing module, private name) for every relative import of a
    name that starts with an underscore."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found |= {(path.stem, a.name) for a in node.names if a.name.startswith("_")}
    return found


def test_only_allowed_private_names_cross_modules():
    assert private_imports() - ALLOWED == set()


def test_the_allowlist_names_imports_that_exist():
    assert ALLOWED <= private_imports()
