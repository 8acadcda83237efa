"""Outside-in layer tracing: timing wrappers around the program's layer functions.

Each wrapper records a span (name, start, end, parent) in memory.  A
layer's self time is its span minus the time its child spans cover.
The wrappers replace module attributes, so they see exactly the calls
the program makes through those attributes.  Nothing here changes
what the program computes.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# metric prefix -> (module, attribute through which the program calls the layer)
LAYERS = {
    "setup2.enumerate_setup2": ("setup2", "enumerate_setup2"),
    "cli.analyze_pair": ("cli", "analyze_pair"),
    "cli.prefilter": ("cli", "_resultant_unit_table"),
    "hyplattice.build": ("hyplattice", "build"),
    "hyplattice.b_matrix": ("hyplattice", "_b_matrix_in_a_basis"),
    "hyplattice.unimodularity_gate": ("hyplattice", "unimodularity_gate"),
    "hyplattice.signature_and_renormalize": ("hyplattice", "signature_and_renormalize"),
    "hyplattice.reflection_factor": ("hyplattice", "reflection_factor"),
    "linalg.solve": ("linalg", "solve"),
    "linalg.inertia": ("linalg", "inertia"),
    "linalg.bareiss_det": ("linalg", "bareiss_det"),
    "linalg.lll_reduce": ("linalg", "lll_reduce"),
    "linalg.short_vectors": ("linalg", "short_vectors"),
    "linalg.charpoly": ("linalg", "charpoly"),
    "intpoly.resultant": ("intpoly", "resultant"),
    "algnum.isolate_real_roots": ("algnum", "isolate_real_roots"),
    "hodgeclass.dissect": ("hodgeclass", "dissect"),
    "hodgeclass.classify": ("hodgeclass", "classify"),
    "picardweyl.picard_lattice": ("picardweyl", "picard_lattice"),
    "picardweyl.enumerate_roots": ("picardweyl", "enumerate_roots"),
    "picardweyl.chamber_walk": ("picardweyl", "chamber_walk"),
    "picardweyl.assemble_full_isometry": ("picardweyl", "assemble_full_isometry"),
    "picardweyl.action_analysis": ("picardweyl", "action_analysis"),
    "fpfsiegel.budget": ("fpfsiegel", "saito_budget"),
    "fpfsiegel.derive_P": ("fpfsiegel", "derive_P"),
    "fpfsiegel.siegel_verdict_P": ("fpfsiegel", "siegel_verdict_P"),
    "picard2.full_analysis": ("picard2", "full_analysis"),
    "picard2.eliminant": ("picard2", "eliminant"),
    "salemlib.load_store": ("salemlib", "load_store"),
}

STAGES = ("precondition", "resultant", "signature", "cluster", "picard", "verdict")

_PRECONDITION_PREFIXES = ("both polynomials", "phi must", "psi must",
                          "phi and psi must", "B does not")


def stage_of(row) -> str:
    """The pipeline stage that decided a row, read from its rejection text.

    Accepted rows (including those left for manual analysis) were decided
    by the verdict stage.  "internal:" rows come from the Picard/Weyl
    stage or later; they are counted under picard.
    """
    text = row.rejection
    if text is None:
        return "verdict"
    if text.startswith("internal"):
        return "picard"
    if text == "resultant is not a unit":
        return "resultant"
    if text.startswith(("signature", "singular Gram")):
        return "signature"
    if text.startswith(_PRECONDITION_PREFIXES):
        return "precondition"
    return "cluster"


class Tracer:
    """Spans kept in memory; written out once, when the run ends."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts = {"picardweyl.roots": 0, "picardweyl.chamber_walk.steps": 0}

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, parent]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self):
        """Replace every k3siegel module attribute bound to a layer function."""
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("k3siegel.")}
        mods[""] = sys.modules["k3siegel"]
        for metric, (mod_name, attr) in LAYERS.items():
            fn = getattr(mods[mod_name], attr)
            wrapped = self.wrap(metric, fn)
            if metric == "picardweyl.enumerate_roots":
                wrapped = self._counting(wrapped, "picardweyl.roots",
                                         lambda rep: len(rep.delta_plus))
            elif metric == "picardweyl.chamber_walk":
                wrapped = self._counting(wrapped, "picardweyl.chamber_walk.steps",
                                         lambda rep: len(rep.w_word))
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def _counting(self, fn, counter: str, measure):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[counter] += measure(result)
            return result
        return counted

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += (end - start) - child[i]
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, criteria: list[str], rows, pairs: int, wall_s: float,
                  raw_wall_s: float) -> dict:
    """Every per-layer metric, by name, for one traced round."""
    selfs = tracer.self_times()
    out = {}
    for name in list(LAYERS) + [f"acceptance.{c}" for c in criteria]:
        s, calls = selfs.get(name, (0.0, 0))
        out[f"{name}.s"] = {"value": s, "unit": "s"}
        out[f"{name}.calls"] = {"value": calls, "unit": "count"}
    pair_ms = [(end - start) * 1e3 for name, start, end, _ in tracer.spans
               if name == "cli.analyze_pair"]
    # a round whose checks failed before any pair ran reports 0, not a crash
    out["cli.analyze_pair.p50_ms"] = {"value": statistics.median(pair_ms) if pair_ms else 0.0,
                                      "unit": "ms"}
    out["cli.prefilter.pass_ratio"] = {"value": len(pair_ms) / pairs if pairs else 0.0,
                                       "unit": "ratio"}
    decided = dict.fromkeys(STAGES, 0)
    for row in rows:
        decided[stage_of(row)] += 1
    for stage, n in decided.items():
        out[f"cli.decided.{stage}"] = {"value": n, "unit": "count"}
    for name, n in tracer.counts.items():
        out[name] = {"value": n, "unit": "count"}
    out["trace.wall_s"] = {"value": wall_s, "unit": "s"}
    out["trace.raw_wall_s"] = {"value": raw_wall_s, "unit": "s"}
    return out
