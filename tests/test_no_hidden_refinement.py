"""No function of the package narrows an ``AlgebraicReal`` in place but
three named ones.

``AlgebraicReal.refine`` mutates its interval, and the conjugates of a
trace polynomial are shared: ``picard2``'s grid reads one set of them for
every sign it takes.  ``algnum.separate`` refines two roots apart to order
them, ``AlgebraicReal.approx`` refines to a requested width, and the
id-523 acceptance check refines its own Salem root to bound it.  A sign
test (``sign_at``) decides without refining, so that which signs were
taken never changes an interval that another reader sees.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "k3siegel"
ALLOWED = {
    ("algnum", "separate"),
    ("algnum", "AlgebraicReal.approx"),
    ("acceptance", "criterion_setup2_id523"),
}


def refine_callers() -> set[tuple[str, str]]:
    """(module, qualified name of the enclosing function or class) for
    every ``.refine(`` call; "" for a call at module level."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "refine"):
            found.add((path.stem, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), "")
    return found


def test_only_allowed_functions_refine():
    assert refine_callers() - ALLOWED == set()


def test_the_allowlist_names_calls_that_exist():
    assert ALLOWED <= refine_callers()
