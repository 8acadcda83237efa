"""Every layer the benchmark traces still exists in the package.

``perfbench/layertrace.py`` wraps each name in its ``LAYERS`` table with
``getattr`` and no default, so a deleted or renamed layer function would
only surface as an ``AttributeError`` in a traced benchmark run.  This
reads the table from the file's source, without importing or changing
it, and resolves each name here.
"""

import importlib
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_every_traced_layer_resolves():
    namespace = {"__name__": "layertrace_readonly"}
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), namespace)
    layers = namespace["LAYERS"]
    assert layers
    missing = []
    for mod, attr in layers.values():
        module = importlib.import_module(f"k3siegel.{mod}" if mod else "k3siegel")
        if not callable(getattr(module, attr, None)):
            missing.append(f"{mod}.{attr}")
    assert missing == []
