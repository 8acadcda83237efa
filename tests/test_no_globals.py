"""The package keeps no module-level cache but three named ones.

``acceptance._setup2`` enumerates the 1019 census words once, in
``_SETUP2_CACHE``, for the three criteria that read them, and
``intpoly.cyclotomic`` and ``intpoly.euler_phi`` are memoized.  Any other
``global`` statement, any function that writes into a module-level name
(item or slice assignment, ``del``, or a mutating method such as
``append``, ``update`` or ``setdefault``), or any other ``lru_cache`` or
``cache`` decorator in ``src/k3siegel`` would be a new module-level cache.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault", "pop",
            "popitem", "remove", "discard", "clear", "__setitem__"}


def _module_names(tree: ast.Module) -> set[str]:
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def _writes(fn, module_names: set[str]) -> list[str]:
    """Module-level names fn writes into, unless fn binds them itself."""
    local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    local |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
              and isinstance(n.ctx, ast.Store)}
    shared = module_names - local
    out = []
    for node in ast.walk(fn):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Name) and node.value.id in shared):
            out.append(node.value.id)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS and isinstance(node.func.value, ast.Name)
              and node.func.value.id in shared):
            out.append(node.func.value.id)
    return out


def _memoized(fn) -> bool:
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name in ("lru_cache", "cache"):
            return True
    return False


def _state():
    globals_, writes, memoized = [], [], []
    for path in sorted((SRC / "k3siegel").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module_names = _module_names(tree)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            globals_ += [(path.name, fn.name, name) for stmt in fn.body
                         for node in ast.walk(stmt) if isinstance(node, ast.Global)
                         for name in node.names]
            writes += [(path.name, fn.name, name) for name in _writes(fn, module_names)]
            if _memoized(fn):
                memoized.append((path.name, fn.name))
    return globals_, writes, memoized


def test_only_global_is_the_census_cache():
    globals_, _, _ = _state()
    assert globals_ == [("acceptance.py", "_setup2", "_SETUP2_CACHE")]


def test_no_function_writes_module_state():
    _, writes, _ = _state()
    assert writes == []


def test_only_memoized_functions_are_cyclotomic_and_euler_phi():
    _, _, memoized = _state()
    assert sorted(memoized) == [("intpoly.py", "cyclotomic"), ("intpoly.py", "euler_phi")]
