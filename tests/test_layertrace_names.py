"""Every layer the benchmark traces still exists in the package, and
every traced ``linalg`` name does the work it is named for.

``perfbench/layertrace.py`` wraps each name in its ``LAYERS`` table with
``getattr`` and no default, so a deleted or renamed layer function would
only surface as an ``AttributeError`` in a traced benchmark run.  This
reads the table from the file's source, without importing or changing
it, and resolves each name here.
"""

import importlib
import sys
from pathlib import Path

from k3siegel import cli, linalg, picard2
from k3siegel.intpoly import IntPoly
from k3siegel.salemlib import load_store

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
PSI_523 = IntPoly([1, -1, -2, 0, 2, 1, 0, -1, -2, 0, 1, 1, 1, 0, -2, -1, 0, 1, 2, 0, -2, -1, 1])


def traced_layers() -> dict:
    namespace = {"__name__": "layertrace_readonly"}
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_layer_resolves():
    layers = traced_layers()
    assert layers
    missing = []
    for mod, attr in layers.values():
        module = importlib.import_module(f"k3siegel.{mod}" if mod else "k3siegel")
        if not callable(getattr(module, attr, None)):
            missing.append(f"{mod}.{attr}")
    assert missing == []


def test_every_traced_linalg_layer_is_called(monkeypatch):
    # an accepted rho = 18 pair and the rank-2 analysis call each traced
    # linalg name, through the module attributes the tracer replaces, so
    # none of them times a wrapper that the program never calls
    names = [attr for mod, attr in traced_layers().values() if mod == "linalg"]
    assert names
    calls = dict.fromkeys(names, 0)
    modules = [m for key, m in sys.modules.items() if key.startswith("k3siegel")]
    for attr in names:
        fn = getattr(linalg, attr)

        def counted(*args, _attr=attr, _fn=fn, **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, counted)
    phi = cli.phi_of(load_store()[(4, 1)].salem_poly, (8, 12, 30))
    assert cli.analyze_pair(phi, PSI_523).accepted()
    picard2.full_analysis()
    assert [name for name, n in calls.items() if n == 0] == []
