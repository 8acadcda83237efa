"""Trace-cluster dissection and the hyperbolic-isometry gate.

Write phi = (z-1)(z+1) z^10 Phi(z + 1/z) and psi = z^11 Psi(z + 1/z).
The real roots of Phi and Psi inside (-2, 2) interleave into maximal
blocks ("trace clusters") A_(s+1) < B_s < A_s < ... < B_1 < A_1, where
the two end A-clusters may be empty.  The pair defines a K3 Hodge
structure with a positive hyperbolic Hodge isometry exactly when
Phi(+-2) != 0, all roots are simple, and the cluster configuration is
one of nine admissible patterns; the pattern also locates the special
trace tau (the trace of the eigenvalue acting on the holomorphic
2-form), which must be a root of the Salem trace factor of Phi.

All root comparisons are exact: isolating intervals are refined until
disjoint, never compared through floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .intpoly import (
    IntPoly,
    cyclotomic_salem_split,
    gcd,
    trace_polynomial,
)
from .algnum import (
    TWO,
    AlgebraicReal,
    algebraic_equal,
    isolate_real_roots,
    refine_off_two,
    sign_at,
)
from .salemlib import is_salem


class PipelineError(RuntimeError):
    """Internal inconsistency: data contradicting the accepted-gate theory."""


@dataclass
class ClusterDissection:
    """Root data of (Phi, Psi) split along [-2, 2]."""

    phi_trace: IntPoly
    psi_trace: IntPoly
    a_on: list = field(default_factory=list)     # descending roots of Phi in (-2,2)
    b_on: list = field(default_factory=list)     # descending roots of Psi in (-2,2)
    a_gt2_count: int = 0
    b_off_count: int = 0
    a_clusters: list = field(default_factory=list)   # A_1 .. A_(s+1), descending
    b_clusters: list = field(default_factory=list)   # B_1 .. B_s
    s: int = 0
    flags: list = field(default_factory=list)

    def a_signature(self) -> dict[int, int]:
        return _signature(self.a_clusters)

    def b_signature(self) -> dict[int, int]:
        return _signature(self.b_clusters)


def _signature(clusters: list) -> dict[int, int]:
    sig: dict[int, int] = {}
    for c in clusters:
        sig[len(c)] = sig.get(len(c), 0) + 1
    return sig


@dataclass
class HodgeVerdict:
    accepted: bool
    case_number: int | None = None
    special_trace: AlgebraicReal | None = None
    special_trace_index: int | None = None
    salem_factor: IntPoly | None = None
    salem_trace: IntPoly | None = None
    cyclo_indices: dict[int, int] | None = None
    rejection_reason: str | None = None


def _disjointify(roots: list[AlgebraicReal]) -> None:
    """Refine isolating intervals until pairwise strictly disjoint, so
    interval order is number order.  Touching counts as overlap: an
    exact rational root of one polynomial may sit on the boundary of
    another root's interval, and only strict separation orders them."""
    changed = True
    while changed:
        changed = False
        ordered = sorted(roots, key=lambda r: (r.lo, r.hi))
        for a, b in zip(ordered, ordered[1:]):
            if a.is_point() and b.is_point():
                if a.lo == b.lo:
                    raise PipelineError("distinct roots with identical value")
                continue
            if a.hi >= b.lo:
                a.refine((a.hi - a.lo) / 4)
                b.refine((b.hi - b.lo) / 4)
                changed = True


def dissect(phi: IntPoly, psi: IntPoly) -> ClusterDissection:
    """Compute the trace-cluster configuration of a valid (phi, psi) pair."""
    v = phi // IntPoly([-1, 0, 1])
    phi_tr = trace_polynomial(v)
    psi_tr = trace_polynomial(psi)
    d = ClusterDissection(phi_trace=phi_tr, psi_trace=psi_tr)

    if gcd(phi_tr, phi_tr.derivative()).degree > 0:
        d.flags.append("multiple root of Phi")
    if gcd(psi_tr, psi_tr.derivative()).degree > 0:
        d.flags.append("multiple root of Psi")
    if phi_tr(TWO) == 0 or phi_tr(-TWO) == 0:
        d.flags.append("Phi vanishes at +-2")
    if psi_tr(TWO) == 0 or psi_tr(-TWO) == 0:
        d.flags.append("Psi vanishes at +-2")
    if d.flags:
        return d

    a_roots = isolate_real_roots(phi_tr)
    b_roots = isolate_real_roots(psi_tr)
    _disjointify(a_roots + b_roots)

    def on_interval(r: AlgebraicReal) -> bool:
        return r.lo > -TWO and r.hi < TWO

    def above_two(r: AlgebraicReal) -> bool:
        return r.lo > TWO

    refine_off_two(a_roots + b_roots)

    d.a_on = [r for r in a_roots if on_interval(r)]
    d.b_on = [r for r in b_roots if on_interval(r)]
    d.a_gt2_count = sum(1 for r in a_roots if above_two(r))
    d.b_off_count = psi_tr.degree - len(d.b_on)

    # merge on-interval roots (descending) and take maximal runs
    tagged = [("A", r) for r in d.a_on] + [("B", r) for r in d.b_on]
    tagged.sort(key=lambda t: t[1].lo, reverse=True)
    runs: list[tuple[str, list]] = []
    for tag, r in tagged:
        if runs and runs[-1][0] == tag:
            runs[-1][1].append(r)
        else:
            runs.append((tag, [r]))

    b_runs = [block for tag, block in runs if tag == "B"]
    d.s = len(b_runs)
    d.b_clusters = b_runs
    a_clusters: list[list] = []
    if not runs or runs[0][0] == "B":
        a_clusters.append([])
    for i, (tag, block) in enumerate(runs):
        if tag == "A":
            a_clusters.append(block)
        elif i + 1 < len(runs) and runs[i + 1][0] == "B":
            # cannot happen: maximal runs alternate
            raise PipelineError("non-alternating cluster runs")
    if runs and runs[-1][0] == "B":
        a_clusters.append([])
    d.a_clusters = a_clusters
    return d


# The nine admissible configurations: (case, s, [A_on], [B_on], |A_>2|,
# |B_off|, constraint, special-trace rule).
_TABLE_ROWS = [
    (1, 8, {0: 2, 1: 6, 3: 1}, {1: 8}, 1, 3, None, "middle_tc"),
    (2, 8, {0: 2, 1: 6, 3: 1}, {1: 7, 3: 1}, 1, 1, None, "middle_tc"),
    (3, 8, {0: 1, 1: 7, 2: 1}, {1: 8}, 1, 3, "a_first_double", "max_a_first"),
    (4, 8, {0: 1, 1: 7, 2: 1}, {1: 8}, 1, 3, "a_last_double", "min_a_last"),
    (5, 8, {0: 1, 1: 7, 2: 1}, {1: 7, 3: 1}, 1, 1, "a_first_double", "max_a_first"),
    (6, 8, {0: 1, 1: 7, 2: 1}, {1: 7, 3: 1}, 1, 1, "a_last_double", "min_a_last"),
    (7, 9, {0: 2, 1: 7, 2: 1}, {1: 8, 2: 1}, 1, 1, "doubles_adjacent", "inner_ap"),
    (8, 9, {0: 1, 1: 9}, {1: 8, 2: 1}, 1, 1, "a_first_single_b_first_double", "elem_a_first"),
    (9, 9, {0: 1, 1: 9}, {1: 8, 2: 1}, 1, 1, "a_last_single_b_last_double", "elem_a_last"),
]


def _constraint_holds(name: str | None, d: ClusterDissection) -> bool:
    if name is None:
        return True
    ac, bc = d.a_clusters, d.b_clusters
    if name == "a_first_double":
        return len(ac[0]) == 2
    if name == "a_last_double":
        return len(ac[-1]) == 2
    if name == "a_first_single_b_first_double":
        return len(ac[0]) == 1 and len(bc[0]) == 2
    if name == "a_last_single_b_last_double":
        return len(ac[-1]) == 1 and len(bc[-1]) == 2
    if name == "doubles_adjacent":
        return _adjacent_doubles(d) is not None
    raise PipelineError(f"unknown constraint {name}")


def _adjacent_doubles(d: ClusterDissection):
    """The (A-double, B-double, a_above) triple when the unique double
    clusters of the two sides are adjacent, else None."""
    a_dbl = [i for i, c in enumerate(d.a_clusters) if len(c) == 2]
    b_dbl = [j for j, c in enumerate(d.b_clusters) if len(c) == 2]
    if len(a_dbl) != 1 or len(b_dbl) != 1:
        return None
    i, j = a_dbl[0], b_dbl[0]
    # descending layout: A_1 B_1 A_2 B_2 ...: B_j sits between A_j and A_(j+1)
    if j == i - 1:          # B-double directly above the A-double
        return (d.a_clusters[i], d.b_clusters[j], False)
    if j == i:              # B-double directly below the A-double
        return (d.a_clusters[i], d.b_clusters[j], True)
    return None


def _special_trace(rule: str, d: ClusterDissection) -> AlgebraicReal:
    ac = d.a_clusters
    if rule == "middle_tc":
        tc = next(c for c in ac if len(c) == 3)
        return tc[1]
    if rule == "max_a_first":
        return ac[0][0]
    if rule == "min_a_last":
        return ac[-1][-1]
    if rule == "elem_a_first":
        return ac[0][0]
    if rule == "elem_a_last":
        return ac[-1][0]
    if rule == "inner_ap":
        a_block, b_block, a_above = _adjacent_doubles(d)
        # inner element of the four: the A-side one facing the B-double
        return a_block[-1] if a_above else a_block[0]
    raise PipelineError(f"unknown trace rule {rule}")


def classify(d: ClusterDissection, phi: IntPoly) -> HodgeVerdict:
    """Match a dissection against the admissible configurations.

    On acceptance the verdict carries the Salem factor S of phi, its
    trace polynomial, the cyclotomic factor indices of phi, and the
    index j of the special trace among the descending roots
    tau_0 > 2 > tau_1 > ... of the Salem trace polynomial.
    """
    if d.flags:
        return HodgeVerdict(accepted=False, rejection_reason="; ".join(d.flags))
    matches = []
    asig, bsig = d.a_signature(), d.b_signature()
    for (case, s, arow, brow, agt2, boff, constraint, rule) in _TABLE_ROWS:
        if (d.s == s and asig == arow and bsig == brow
                and d.a_gt2_count == agt2 and d.b_off_count == boff
                and _constraint_holds(constraint, d)):
            matches.append((case, rule))
    if not matches:
        return HodgeVerdict(accepted=False, rejection_reason="no admissible cluster configuration")
    if len(matches) > 1:
        return HodgeVerdict(accepted=False,
                            rejection_reason="ambiguous cluster configuration "
                                             f"(cases {[c for c, _ in matches]})")
    case, rule = matches[0]
    tau = _special_trace(rule, d)

    cyclo, residual = cyclotomic_salem_split(phi)
    if cyclo.get(1, 0) != 1 or cyclo.get(2, 0) != 1:
        return HodgeVerdict(accepted=False,
                            rejection_reason="phi lacks the simple (z-1)(z+1) factor")
    if not (residual.degree >= 4 and is_salem(residual)):
        return HodgeVerdict(accepted=False,
                            rejection_reason="phi has no Salem factor")
    salem_tr = trace_polynomial(residual)
    if sign_at(salem_tr, tau) != 0:
        return HodgeVerdict(accepted=False,
                            rejection_reason="special trace is not conjugate to the Salem number")
    st_roots = isolate_real_roots(salem_tr)
    index = next(j for j, r in enumerate(st_roots) if algebraic_equal(r, tau))
    if index < 1:
        raise PipelineError("special trace must lie in (-2, 2)")
    c_indices = {n: m for n, m in cyclo.items() if n not in (1, 2)}
    return HodgeVerdict(accepted=True, case_number=case, special_trace=tau,
                        special_trace_index=index, salem_factor=residual,
                        salem_trace=salem_tr, cyclo_indices=c_indices)


def dissect_and_classify(phi: IntPoly, psi: IntPoly) -> HodgeVerdict:
    return classify(dissect(phi, psi), phi)
