"""Exact-arithmetic toolkit for K3 surface automorphisms with Siegel disks.

Builds rank-22 hypergeometric lattices from (anti-)palindromic
polynomial pairs, classifies the induced Hodge isometries, computes
root systems and Weyl-normalized isometries on the Picard lattice,
derives fixed-point rational functions from holomorphic Lefschetz-type
formulas, and certifies Siegel disks or hyperbolic fixed points, all in
exact integer/rational arithmetic.
"""

from .intpoly import IntPoly, cyclotomic, resultant, trace_polynomial
from .algnum import AlgebraicReal, NumberFieldElem, RationalFunctionW, isolate_real_roots
from .salemlib import SalemStore, is_salem, is_unramified_salem, load_store
from .hyplattice import LatticeModel, build
from .hodgeclass import dissect_and_classify
from .picardweyl import analyze_root_system
from .fpfsiegel import derive_P, siegel_verdict_P, siegel_verdict_Q
from .setup2 import enumerate_setup2

__version__ = "0.1.0"

__all__ = [
    "IntPoly", "cyclotomic", "resultant", "trace_polynomial",
    "AlgebraicReal", "NumberFieldElem", "RationalFunctionW", "isolate_real_roots",
    "SalemStore", "is_salem", "is_unramified_salem", "load_store",
    "LatticeModel", "build", "dissect_and_classify", "analyze_root_system",
    "derive_P", "siegel_verdict_P", "siegel_verdict_Q",
    "enumerate_setup2", "AnalysisRow", "analyze_pair",
    "search_setup1", "search_setup2",
]


def __getattr__(name: str):
    # PEP 562: load cli on first use, so ``python -m k3siegel.cli`` imports it first
    if name in ("AnalysisRow", "analyze_pair", "search_setup1", "search_setup2"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
