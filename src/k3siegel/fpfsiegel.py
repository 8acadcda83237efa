"""Fixed-point bookkeeping and Siegel disk certification.

Two Lefschetz-type fixed point formulas constrain an automorphism with
special eigenvalue delta.  The topological one counts multiplicities:
sum mu_p = Tr(f*|H^2) + 2 (1 - N_f) with N_f the number of pointwise
fixed (-2)-curves.  The holomorphic one sums Grothendieck residues:
1 + 1/delta = sum nu_p + N_f (1+delta)/(1-delta)^2.  For an exceptional
component of type D or E the isolated fixed points sit along the arms
of the diagram and their index sums telescope into the closed forms
Lambda_k^+/- implemented here; the leftover budget then pins down the
eigenvalues at the unique remaining transverse fixed point, giving
(alpha + 1/alpha)^2 = P(tau) for an explicit rational function P.  The
Siegel/hyperbolic dichotomy is decided exactly from P (or its on-curve
variant Q) by sign tests at the special trace and its conjugates, plus
an algebraic-integrality test.

delta stays a formal variable throughout; it is specialized to an
algebraic number only inside the final verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intpoly import IntPoly
from .algnum import (
    TWO,
    AlgebraicReal,
    RationalFunctionW,
    is_algebraic_integer,
    isolate_real_roots,
    minpoly_of_value,
    ratfunc_compare,
    symmetric_descent,
)
from .symbolic import MPoly, MRat


class NeedsManualAnalysis(Exception):
    """The fixed-point pattern falls outside the automated cases."""


class FpfInconsistency(RuntimeError):
    """Budget or index bookkeeping contradicting the theory."""


def _delta() -> RationalFunctionW:
    return RationalFunctionW.variable()


def _geom(k: int) -> RationalFunctionW:
    """1 + delta + ... + delta^k."""
    return RationalFunctionW(IntPoly([1] * (k + 1)))


def lambda_plus(k: int) -> RationalFunctionW:
    """Index sum along a fixed-curve arm of length k:
    -delta (1 + ... + delta^(k-1)) / ((1-delta)^2 (1 + ... + delta^k))."""
    if k < 1:
        raise ValueError("lambda_plus needs k >= 1")
    d = _delta()
    one_minus = 1 - d
    return -d * _geom(k - 1) / (one_minus * one_minus * _geom(k))


def lambda_plus_sum(k: int) -> RationalFunctionW:
    """Defining sum  sum_(j=1..k) 1/((1 - delta^-j)(1 - delta^(j+1)))."""
    d = _delta()
    one = RationalFunctionW.of(1)
    total = RationalFunctionW.of(0)
    for j in range(1, k + 1):
        total = total + one / ((1 - one / d ** j) * (1 - d ** (j + 1)))
    return total


def lambda_minus(k: int) -> RationalFunctionW:
    """Index sum along the fixed arm when the other two arms are swapped:
    1/(2(1+delta)) + (1 + ... + delta^k)/(2(1+delta^(k+1)))."""
    if k < 0:
        raise ValueError("lambda_minus needs k >= 0")
    d = _delta()
    half = Fraction(1, 2)
    return half / (1 + d) + half * _geom(k) / (1 + d ** (k + 1))


def lambda_minus_sum(k: int) -> RationalFunctionW:
    """Defining sum 1/(2(1+delta)) + sum_(j=0..k) 1/((1+delta^-j)(1+delta^(j+1)))."""
    d = _delta()
    one = RationalFunctionW.of(1)
    total = RationalFunctionW.of(Fraction(1, 2)) / (1 + d)
    for j in range(0, k + 1):
        total = total + one / ((1 + one / d ** j) * (1 + d ** (j + 1)))
    return total


def fixed_curve_index() -> RationalFunctionW:
    """(1+delta)/(1-delta)^2, the index of a pointwise fixed (-2)-curve."""
    d = _delta()
    return (1 + d) / ((1 - d) * (1 - d))


# ---------------------------------------------------------------------------
# per-component contributions
# ---------------------------------------------------------------------------

@dataclass
class ComponentContribution:
    label: str                   # e.g. "D9", "E8", "A2"
    action: str                  # "trivial" | "nontrivial" | "moved"
    n_fixed_curves: int
    mu_sum: int
    nu_sum: RationalFunctionW


def component_contribution(label: str, rank: int, action: str) -> ComponentContribution:
    """Multiplicity and residue totals of the isolated fixed points on
    one exceptional component.

    Components moved off themselves carry no fixed points at all.  A
    preserved diagram with a trivalent node contributes along its arms:
    with trivial diagram action the trivalent curve is pointwise fixed
    and each arm contributes a lambda_plus; with the order-two action
    only the invariant arm contributes, as a lambda_minus.  Preserved
    A-type components (and D4 with nontrivial action) are outside the
    automated theory and raise NeedsManualAnalysis.
    """
    zero = RationalFunctionW.of(0)
    name = f"{label}{rank}"
    if action == "moved":
        return ComponentContribution(name, action, 0, 0, zero)
    if label == "A":
        raise NeedsManualAnalysis(f"preserved A-type component {name}")
    if label == "D":
        if action == "trivial":
            nu = lambda_plus(1) + lambda_plus(1) + lambda_plus(rank - 3)
            return ComponentContribution(name, action, 1, rank - 1, nu)
        if rank == 4:
            raise NeedsManualAnalysis("nontrivial action on D4")
        return ComponentContribution(name, action, 0, rank - 1, lambda_minus(rank - 3))
    if label == "E":
        if action == "trivial":
            nu = lambda_plus(1) + lambda_plus(2) + lambda_plus(rank - 4)
            return ComponentContribution(name, action, 1, rank - 1, nu)
        if rank in (7, 8):
            raise ValueError(f"{name} admits no nontrivial diagram automorphism")
        return ComponentContribution(name, action, 0, 3, lambda_minus(1))
    raise ValueError(f"unknown component label {label}")


@dataclass
class FpfBudget:
    trace_h2: int
    n_f_total: int
    mu_on_exceptional: int
    free_multiplicity: int


def saito_budget(trace_h2: int, contributions: list[ComponentContribution]) -> FpfBudget:
    """Multiplicity budget left for fixed points off the exceptional set."""
    n_f = sum(c.n_fixed_curves for c in contributions)
    mu = sum(c.mu_sum for c in contributions)
    free = trace_h2 + 2 * (1 - n_f) - mu
    if free < 0:
        raise FpfInconsistency(f"negative multiplicity budget {free}")
    return FpfBudget(trace_h2, n_f, mu, free)


def derive_P(contributions: list[ComponentContribution], n_f_total: int) -> RationalFunctionW:
    """Rational function P with (alpha + 1/alpha)^2 = P(tau) at the
    unique transverse fixed point off the exceptional set.

    Solves the holomorphic fixed point formula for the residue of the
    free point, converts it into the squared eigenvalue sum, and
    rewrites the result in the trace variable by symmetric descent.
    """
    d = _delta()
    x = 1 + 1 / d - n_f_total * fixed_curve_index()
    for c in contributions:
        x = x - c.nu_sum
    if x.is_zero():
        raise FpfInconsistency("vanishing residue for the free fixed point")
    a_squared = (1 + d - 1 / x) ** 2 / d
    return symmetric_descent(a_squared)


# ---------------------------------------------------------------------------
# Siegel / hyperbolic verdicts
# ---------------------------------------------------------------------------

SIEGEL = "S"
HYPERBOLIC = "H"
UNDECIDED = "U"


@dataclass
class SiegelVerdict:
    kind: str                    # SIEGEL | HYPERBOLIC | UNDECIDED
    rule: str | None = None      # "1-i" | "1-ii" | "2"
    witness: object = None       # conjugate index for 1-i, minpoly for 1-ii

    def __str__(self):
        return self.kind


def _interval_roots(st: IntPoly) -> list[AlgebraicReal]:
    """tau_1 > tau_2 > ... : the roots of a Salem trace polynomial in
    (-2, 2); index 0 of the returned list is tau_1."""
    roots = isolate_real_roots(st)
    inside = [r for r in roots if -TWO <= r.lo and r.hi <= TWO]
    if len(inside) != len(roots) - 1:
        raise FpfInconsistency("trace polynomial does not have the Salem root pattern")
    return inside


def siegel_verdict_P(p: RationalFunctionW, st: IntPoly, j: int) -> SiegelVerdict:
    """Dichotomy at the off-curve point: eigenvalues delta^(1/2) alpha^(+-1).

    P(tau_j) > 4 gives a hyperbolic point.  0 <= P(tau_j) <= 4 puts the
    eigenvalues on the unit circle and certifies a Siegel center when a
    conjugate tau' in (-2,2) has P(tau') > 4 (rule 1-i) or P(tau_j) is
    not an algebraic integer (rule 1-ii).
    """
    taus = _interval_roots(st)
    tau = taus[j - 1]
    try:
        above4 = ratfunc_compare(p, 4, tau)
    except ZeroDivisionError as exc:
        raise FpfInconsistency("pole of P at the special trace") from exc
    if above4 > 0:
        return SiegelVerdict(HYPERBOLIC, rule="2")
    if ratfunc_compare(p, 0, tau) < 0:
        return SiegelVerdict(UNDECIDED)
    for idx, other in enumerate(taus, start=1):
        if idx == j:
            continue
        if ratfunc_compare(p, 4, other) > 0:
            return SiegelVerdict(SIEGEL, rule="1-i", witness=idx)
    mp = minpoly_of_value(p, tau)
    if not is_algebraic_integer(mp):
        return SiegelVerdict(SIEGEL, rule="1-ii", witness=mp)
    return SiegelVerdict(UNDECIDED)


def siegel_verdict_Q(q: RationalFunctionW, st: IntPoly, j: int) -> SiegelVerdict:
    """Dichotomy at an on-curve point pair: eigenvalues beta, delta/beta,
    with beta + 1/beta = Q(tau); the threshold is |Q| <= 2."""
    taus = _interval_roots(st)
    tau = taus[j - 1]

    def abs_above_2(x: AlgebraicReal) -> int:
        try:
            hi = ratfunc_compare(q, 2, x)
            lo = ratfunc_compare(q, -2, x)
        except ZeroDivisionError as exc:
            raise FpfInconsistency("pole of Q at a trace conjugate") from exc
        if hi > 0 or lo < 0:
            return 1
        if hi < 0 and lo > 0:
            return -1
        return 0  # |Q| = 2 exactly

    band = abs_above_2(tau)
    if band > 0:
        return SiegelVerdict(HYPERBOLIC, rule="2")
    for idx, other in enumerate(taus, start=1):
        if idx == j:
            continue
        if abs_above_2(other) > 0:
            return SiegelVerdict(SIEGEL, rule="1-i", witness=idx)
    mp = minpoly_of_value(q, tau)
    if not is_algebraic_integer(mp):
        return SiegelVerdict(SIEGEL, rule="1-ii", witness=mp)
    return SiegelVerdict(UNDECIDED)


# ---------------------------------------------------------------------------
# exceptional fixed points and their iterates
# ---------------------------------------------------------------------------

def exceptional_nu_typeI(n: int) -> RationalFunctionW:
    """Residue of a type-I exceptional point under the n-th iterate:
    (1 + delta^n)/(1 - delta^n)^2, with multiplicity 2; identical to the
    index of a pointwise fixed (-2)-curve at n = 1."""
    if n < 1:
        raise ValueError("iterate index must be >= 1")
    d = _delta()
    dn = d ** n
    return (1 + dn) / ((1 - dn) * (1 - dn))


# variables (delta, theta) for the type-II identities
_NV2 = 2


def _d2() -> MPoly:
    return MPoly.var(_NV2, 0)


def _th2() -> MPoly:
    return MPoly.var(_NV2, 1)


def exceptional_nu_typeII(n: int) -> MRat:
    """Residue of a type-II exceptional point under the n-th iterate, as
    a rational expression in (delta, theta):
    (n-1 + (n+1) delta^n + (1 + ... + delta^(n-1)) theta) / (n (1-delta^n)^2)."""
    if n < 1:
        raise ValueError("iterate index must be >= 1")
    d, th = _d2(), _th2()
    geo = MPoly(_NV2, {(k, 0): 1 for k in range(n)})
    num = MPoly.const(_NV2, n - 1) + (n + 1) * d ** n + geo * th
    den = MPoly.const(_NV2, n) * (1 - d ** n) ** 2
    return MRat(num, den)


def theta_iterate_closed_form(n: int) -> MRat:
    """theta^(n) = (1 - delta^n)((n-1)(1-delta) + theta) / (n (1-delta))."""
    d, th = _d2(), _th2()
    num = (1 - d ** n) * ((n - 1) * (1 - d) + th)
    den = MPoly.const(_NV2, n) * (1 - d)
    return MRat(num, den)


def typeII_iterate_identity(n: int) -> bool:
    """nu(f^n) from (2 delta^n + theta^(n))/(1-delta^n)^2 with theta^(n)
    substituted equals the displayed n-dependence; exact identity."""
    d = _d2()
    dn = MRat(d ** n)
    via_theta = (2 * dn + theta_iterate_closed_form(n)) / ((1 - dn) * (1 - dn))
    return via_theta == exceptional_nu_typeII(n)


# jet variables: (delta, a01, b10, a20)
_NV4 = 4


@dataclass
class JetState:
    """Leading jet coefficients of the n-th iterate at a type-II point,
    in the normalization a10 = 1, b01 = -2."""

    n: int
    a10: MPoly
    a01: MPoly
    b10: MPoly
    a20: MPoly

    def theta(self) -> MRat:
        d = MPoly.var(_NV4, 0)
        num = (1 - d ** self.n) * self.a20 + d ** self.n * self.a01 * self.b10
        return MRat(num, self.a10 * self.a10)


def jet_oracle(n_max: int) -> list[JetState]:
    """Iterate the composition recurrences for the jet coefficients.

    a10^(n+1) = a10^(n) + 1            a01^(n+1) = a01^(n) + delta^n a01
    b10^(n+1) = b10^(n) + delta^-n b10 a20^(n+1) = a20^(n) + a20
                                                  + 2 a10^(n) + delta^n a01 b10^(n)

    delta appears with negative exponents (Laurent), and a01, b10, a20
    stay fully symbolic.
    """
    d = MPoly.var(_NV4, 0)
    a01 = MPoly.var(_NV4, 1)
    b10 = MPoly.var(_NV4, 2)
    a20 = MPoly.var(_NV4, 3)
    one = MPoly.const(_NV4, 1)
    states = [JetState(1, one, a01, b10, a20)]
    for n in range(1, n_max):
        s = states[-1]
        dn = MPoly.var(_NV4, 0, n)
        dminus = MPoly.var(_NV4, 0, -n)
        states.append(JetState(
            n + 1,
            s.a10 + one,
            s.a01 + dn * a01,
            s.b10 + dminus * b10,
            s.a20 + a20 + 2 * s.a10 + dn * a01 * s.b10,
        ))
    return states


@dataclass
class JetClosedForms:
    """The solved recurrence, as displayed rational expressions:
    a10^(n) = n,
    a01^(n) = (1 - delta^n) a01 / (1 - delta),
    b10^(n) = (1 - delta^n) b10 / (delta^(n-1) (1 - delta)),
    a20^(n) = n(n-1) + n a20
              + (delta/(1-delta)) (n-1 - delta(1-delta^(n-1))/(1-delta)) a01 b10.
    """

    n: int
    a10: MRat
    a01: MRat
    b10: MRat
    a20: MRat


def jet_closed_forms(n: int) -> JetClosedForms:
    d = MPoly.var(_NV4, 0)
    a01 = MPoly.var(_NV4, 1)
    b10 = MPoly.var(_NV4, 2)
    a20 = MPoly.var(_NV4, 3)
    one = MPoly.const(_NV4, 1)
    dn = MRat(d ** n)
    dm = MRat(d)
    omd = MRat(one - d)
    a01_n = (1 - dn) * MRat(a01) / omd
    b10_n = (1 - dn) * MRat(b10) / (MRat(d ** (n - 1)) * omd)
    inner = MRat.of(n - 1, _NV4) - dm * (1 - MRat(d ** (n - 1))) / omd
    a20_n = (MRat.of(n * (n - 1), _NV4) + MRat(a20) * n
             + (dm / omd) * inner * MRat(a01) * MRat(b10))
    return JetClosedForms(n, MRat.of(n, _NV4), a01_n, b10_n, a20_n)


def base_theta_4vars() -> MPoly:
    """theta = (1-delta) a20 + delta a01 b10 in the jet variables."""
    d = MPoly.var(_NV4, 0)
    a01 = MPoly.var(_NV4, 1)
    b10 = MPoly.var(_NV4, 2)
    a20 = MPoly.var(_NV4, 3)
    return (1 - d) * a20 + d * a01 * b10


def theta_closed_form_4vars(n: int) -> MRat:
    """(1 - delta^n)((n-1)(1-delta) + theta)/(n (1-delta)) expanded in
    the jet variables."""
    d = MPoly.var(_NV4, 0)
    th = base_theta_4vars()
    num = (1 - d ** n) * ((n - 1) * (1 - d) + th)
    den = MPoly.const(_NV4, n) * (1 - d)
    return MRat(num, den)


# ---------------------------------------------------------------------------
# truncated-jet multiplicity check
# ---------------------------------------------------------------------------

_MONOMIALS = [(0, 0), (1, 0), (2, 0), (0, 1), (3, 0), (1, 1)]  # weights 0,1,2,2,3,3


def residue_quotient_dimension(g1: dict, g2: dict) -> int:
    """Dimension of C{z}/(g1, g2) computed in the weighted truncation.

    z1 has weight 1 and z2 weight 2; everything of total weight > 3 is
    discarded.  g1, g2 are {(i, j): coefficient} dictionaries for the
    generators z1 - f1 and z2 - f2.  The returned dimension is exact for
    the multiplicity-2 configurations against which it is used (the
    ideal then contains z1^2 and z2 up to units).
    """
    def weight(e):
        return e[0] + 2 * e[1]

    def truncate(p: dict) -> dict:
        return {e: Fraction(c) for e, c in p.items() if weight(e) <= 3 and c}

    def shift(p: dict, by) -> dict:
        return {(e[0] + by[0], e[1] + by[1]): c for e, c in p.items()}

    spanning = []
    for g in (g1, g2):
        for m in ((0, 0), (1, 0)):
            spanning.append(truncate(shift(g, m)))
    index = {m: i for i, m in enumerate(_MONOMIALS)}
    rows = []
    for p in spanning:
        row = [Fraction(0)] * len(_MONOMIALS)
        for e, c in p.items():
            row[index[e]] = c
        rows.append(row)
    # rank over QQ
    rank = 0
    cols = len(_MONOMIALS)
    for col in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return len(_MONOMIALS) - rank


def typeII_generators(delta: Fraction, a10, a01, b10, a20) -> tuple[dict, dict]:
    """Truncated generators for the type-II normal form
    f1 = z1(1 + a10 z1 + a01 z2 + a20 z1^2 + ...),
    f2 = delta(z2 + z1 (b10 z1 + b01 z1 z2 ...)) with b01 = -2."""
    b01 = Fraction(-2)
    g1 = {(2, 0): -Fraction(a10), (1, 1): -Fraction(a01), (3, 0): -Fraction(a20)}
    g2 = {(0, 1): 1 - Fraction(delta), (2, 0): -Fraction(delta) * Fraction(b10),
          (1, 1): -Fraction(delta) * b01}
    return g1, g2


def typeI_generators(delta: Fraction, c11: Fraction = Fraction(1)) -> tuple[dict, dict]:
    """Truncated generators for the type-I normal form
    f1 = z1/(1+z1) + z2 g1, f2 = z2 (delta + g2)."""
    # z1 - f1 = z1^2 - z1^3 + ... - z2*(c11 z1 + ...)
    g1 = {(2, 0): Fraction(1), (3, 0): Fraction(-1), (1, 1): -Fraction(c11)}
    g2 = {(0, 1): 1 - Fraction(delta), (1, 1): Fraction(-1)}
    return g1, g2
