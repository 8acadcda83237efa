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

All root comparisons are exact and need no refinement: one Sturm
bisection of the squarefree product Phi * Psi, cut at -2 and 2, gives
disjoint isolating intervals in descending order, and an interval holds
a root of Phi exactly when Phi changes sign across it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .intpoly import (
    IntPoly,
    PolynomialDomainError,
    cyclotomic_salem_split,
    gcd,
    trace_polynomial,
)
from .algnum import (
    TWO,
    AlgebraicReal,
    _isolating_intervals,
    _sign,
    count_roots_in,
)
from .salemlib import salem_trace_poly


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
    cyclo_indices: dict[int, int] | None = None
    rejection_reason: str | None = None


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
    if phi_tr(2) == 0 or phi_tr(-2) == 0:
        d.flags.append("Phi vanishes at +-2")
    if psi_tr(2) == 0 or psi_tr(-2) == 0:
        d.flags.append("Psi vanishes at +-2")
    if d.flags:
        return d

    # Phi and Psi are squarefree here, so their product is unless they
    # share a root; each interval holds one root of the product
    try:
        intervals = _isolating_intervals(phi_tr * psi_tr)
    except PolynomialDomainError as exc:
        raise PipelineError("Phi and Psi share a root") from exc
    runs: list[tuple[str, list]] = []
    for lo, hi in intervals:
        is_a = _sign(phi_tr, lo) != _sign(phi_tr, hi)
        if not (-TWO <= lo and hi <= TWO):
            if is_a and lo >= TWO:
                d.a_gt2_count += 1
            continue
        tag = "A" if is_a else "B"
        r = AlgebraicReal(phi_tr if is_a else psi_tr, lo, hi)
        (d.a_on if is_a else d.b_on).append(r)
        if runs and runs[-1][0] == tag:
            runs[-1][1].append(r)
        else:
            runs.append((tag, [r]))
    d.b_off_count = psi_tr.degree - len(d.b_on)

    b_runs = [block for tag, block in runs if tag == "B"]
    d.s = len(b_runs)
    d.b_clusters = b_runs
    # maximal runs alternate, so an empty A-cluster stands only at an end
    d.a_clusters = [block for tag, block in runs if tag == "A"]
    if not runs or runs[0][0] == "B":
        d.a_clusters.insert(0, [])
    if runs and runs[-1][0] == "B":
        d.a_clusters.append([])
    return d


def _first_a(d: ClusterDissection) -> AlgebraicReal:
    return d.a_clusters[0][0]


def _last_a(d: ClusterDissection) -> AlgebraicReal:
    return d.a_clusters[-1][-1]


def _middle_of_triple(d: ClusterDissection) -> AlgebraicReal:
    return next(c for c in d.a_clusters if len(c) == 3)[1]


def _facing_double(d: ClusterDissection) -> AlgebraicReal | None:
    """When the unique double clusters of the two sides are adjacent, the
    element of the A-double facing the B-double (the inner one of the
    four); else None."""
    a_dbl = [i for i, c in enumerate(d.a_clusters) if len(c) == 2]
    b_dbl = [j for j, c in enumerate(d.b_clusters) if len(c) == 2]
    if len(a_dbl) != 1 or len(b_dbl) != 1:
        return None
    i, j = a_dbl[0], b_dbl[0]
    # descending layout: A_1 B_1 A_2 B_2 ...: B_j sits between A_j and A_(j+1)
    if j == i - 1:          # B-double directly above the A-double
        return d.a_clusters[i][0]
    if j == i:              # B-double directly below the A-double
        return d.a_clusters[i][-1]
    return None


def _a_first_double(d: ClusterDissection) -> bool:
    return len(d.a_clusters[0]) == 2


def _a_last_double(d: ClusterDissection) -> bool:
    return len(d.a_clusters[-1]) == 2


# The nine admissible configurations: (case, s, [A_on], [B_on], |A_>2|,
# |B_off|, constraint, special trace), the last two as functions of the
# dissection.
_TABLE_ROWS = [
    (1, 8, {0: 2, 1: 6, 3: 1}, {1: 8}, 1, 3, lambda d: True, _middle_of_triple),
    (2, 8, {0: 2, 1: 6, 3: 1}, {1: 7, 3: 1}, 1, 1, lambda d: True, _middle_of_triple),
    (3, 8, {0: 1, 1: 7, 2: 1}, {1: 8}, 1, 3, _a_first_double, _first_a),
    (4, 8, {0: 1, 1: 7, 2: 1}, {1: 8}, 1, 3, _a_last_double, _last_a),
    (5, 8, {0: 1, 1: 7, 2: 1}, {1: 7, 3: 1}, 1, 1, _a_first_double, _first_a),
    (6, 8, {0: 1, 1: 7, 2: 1}, {1: 7, 3: 1}, 1, 1, _a_last_double, _last_a),
    (7, 9, {0: 2, 1: 7, 2: 1}, {1: 8, 2: 1}, 1, 1,
     lambda d: _facing_double(d) is not None, _facing_double),
    (8, 9, {0: 1, 1: 9}, {1: 8, 2: 1}, 1, 1,
     lambda d: len(d.a_clusters[0]) == 1 and len(d.b_clusters[0]) == 2, _first_a),
    (9, 9, {0: 1, 1: 9}, {1: 8, 2: 1}, 1, 1,
     lambda d: len(d.a_clusters[-1]) == 1 and len(d.b_clusters[-1]) == 2, _last_a),
]


def classify(d: ClusterDissection, phi: IntPoly) -> HodgeVerdict:
    """Match a dissection against the admissible configurations.

    On acceptance the verdict carries the Salem factor S of phi, the
    cyclotomic factor indices of phi, and the index j of the special
    trace tau = tau_j in the numbering tau_1 > tau_2 > ... of
    ``salemlib.trace_conjugates``; the conjugates themselves are
    isolated only where a verdict reads them (``cli.analyze_pair``).

    The dissection's interval (lo, hi) of tau decides both by Sturm's
    theorem.  Its endpoints are not roots of Phi, and the Salem trace
    polynomial S_tr divides Phi, so tau is a Salem conjugate exactly
    when S_tr changes sign across (lo, hi), and then j is the number of
    roots of S_tr in (lo, 2).  The (z-1)(z+1) factor of phi is simple:
    v(+-1) = Phi(+-2) for v = phi / (z^2 - 1) of degree 20, and the
    dissection flags Phi(+-2) = 0.
    """
    if d.flags:
        return HodgeVerdict(accepted=False, rejection_reason="; ".join(d.flags))
    matches = []
    asig, bsig = d.a_signature(), d.b_signature()
    for (case, s, arow, brow, agt2, boff, holds, special) in _TABLE_ROWS:
        if (d.s == s and asig == arow and bsig == brow
                and d.a_gt2_count == agt2 and d.b_off_count == boff
                and holds(d)):
            matches.append((case, special))
    if not matches:
        return HodgeVerdict(accepted=False, rejection_reason="no admissible cluster configuration")
    if len(matches) > 1:
        return HodgeVerdict(accepted=False,
                            rejection_reason="ambiguous cluster configuration "
                                             f"(cases {[c for c, _ in matches]})")
    case, special = matches[0]
    tau = special(d)

    cyclo, residual = cyclotomic_salem_split(phi)
    salem_tr = salem_trace_poly(residual)
    if salem_tr is None:
        return HodgeVerdict(accepted=False,
                            rejection_reason="phi has no Salem factor")
    if _sign(salem_tr, tau.lo) == _sign(salem_tr, tau.hi):
        return HodgeVerdict(accepted=False,
                            rejection_reason="special trace is not conjugate to the Salem number")
    c_indices = {n: m for n, m in cyclo.items() if n not in (1, 2)}
    return HodgeVerdict(accepted=True, case_number=case, special_trace=tau,
                        special_trace_index=count_roots_in(salem_tr, tau.lo, TWO),
                        salem_factor=residual, cyclo_indices=c_indices)


def dissect_and_classify(phi: IntPoly, psi: IntPoly) -> HodgeVerdict:
    return classify(dissect(phi, psi), phi)
