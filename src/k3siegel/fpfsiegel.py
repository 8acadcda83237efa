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
from operator import add

from .intpoly import IntPoly
from .algnum import (
    AlgebraicReal,
    RationalFunctionW,
    is_algebraic_integer,
    minpoly_of_value,
    ratfunc_compare,
    sign_at,
    symmetric_descent,
)


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
        return ComponentContribution(0, 0, zero)
    if label == "A":
        raise NeedsManualAnalysis(f"preserved A-type component {name}")
    if label == "D":
        if action == "trivial":
            nu = lambda_plus(1) + lambda_plus(1) + lambda_plus(rank - 3)
            return ComponentContribution(1, rank - 1, nu)
        if rank == 4:
            raise NeedsManualAnalysis("nontrivial action on D4")
        return ComponentContribution(0, rank - 1, lambda_minus(rank - 3))
    if label == "E":
        if action == "trivial":
            nu = lambda_plus(1) + lambda_plus(2) + lambda_plus(rank - 4)
            return ComponentContribution(1, rank - 1, nu)
        if rank in (7, 8):
            raise ValueError(f"{name} admits no nontrivial diagram automorphism")
        return ComponentContribution(0, 3, lambda_minus(1))
    raise ValueError(f"unknown component label {label}")


@dataclass
class FpfBudget:
    n_f_total: int
    free_multiplicity: int


def saito_budget(trace_h2: int, contributions: list[ComponentContribution]) -> FpfBudget:
    """Multiplicity budget left for fixed points off the exceptional set."""
    n_f = sum(c.n_fixed_curves for c in contributions)
    mu = sum(c.mu_sum for c in contributions)
    free = trace_h2 + 2 * (1 - n_f) - mu
    if free < 0:
        raise FpfInconsistency(f"negative multiplicity budget {free}")
    return FpfBudget(n_f, free)


def derive_P(contributions: list[ComponentContribution], n_f_total: int) -> RationalFunctionW:
    """Rational function P with (alpha + 1/alpha)^2 = P(tau) at the
    unique transverse fixed point off the exceptional set.

    Solves the holomorphic fixed point formula for the residue of the
    free point, converts it into the squared eigenvalue sum, and
    rewrites the result in the trace variable by symmetric descent:
    the trace polynomials of its palindromic numerator and denominator
    (``algnum.symmetric_descent``).
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


class ConjugateSigns:
    """The signs of f(tau) - c that the verdicts read, each decided once.

    ``ratfunc_compare`` decides each (f, c, tau) once, handed the sign of
    den(tau), itself taken once per (den, tau).  A grid of verdicts keeps
    one for all its rows and columns (``picard2.classify_grid``), so off
    and undecided are decided at most once per conjugate and function;
    it lives no longer than that call.
    """

    def __init__(self):
        self._den: dict = {}
        self._diff: dict = {}

    def compare(self, f: RationalFunctionW, c, tau: AlgebraicReal) -> int:
        key = (f, c, tau)
        if key not in self._diff:
            den = (f.den, tau)
            if den not in self._den:
                self._den[den] = sign_at(f.den, tau)
            self._diff[key] = ratfunc_compare(f, c, tau, self._den[den])
        return self._diff[key]


def _dichotomy(f: RationalFunctionW, taus: list[AlgebraicReal], j: int, off,
               undecided=lambda tau: False) -> SiegelVerdict:
    """Rules 2, 1-i and 1-ii at tau_j for eigenvalues read off f(tau), on
    the conjugates taus of a Salem trace polynomial st, as
    ``salemlib.trace_conjugates(st)`` lists them.

    off(x) tells whether f(x) puts the eigenvalues off the unit circle,
    and undecided(tau_j) whether f(tau_j) fixes no eigenvalue pair at
    all; both read their signs from a ``ConjugateSigns``, so a grid that
    shares one decides each once.  Off at tau_j is hyperbolic (rule 2);
    otherwise the point is a Siegel center when off at another conjugate
    (rule 1-i, witnessed by the first such index) or when f(tau_j) is not
    an algebraic integer (rule 1-ii).
    """
    tau = taus[j - 1]
    try:
        if off(tau):
            return SiegelVerdict(HYPERBOLIC, rule="2")
        if undecided(tau):
            return SiegelVerdict(UNDECIDED)
        for idx, other in enumerate(taus, start=1):
            if idx != j and off(other):
                return SiegelVerdict(SIEGEL, rule="1-i", witness=idx)
    except ZeroDivisionError as exc:
        raise FpfInconsistency("pole at a trace conjugate") from exc
    mp = minpoly_of_value(f, tau)
    if not is_algebraic_integer(mp):
        return SiegelVerdict(SIEGEL, rule="1-ii", witness=mp)
    return SiegelVerdict(UNDECIDED)


def siegel_verdict_P(p: RationalFunctionW, taus: list[AlgebraicReal], j: int,
                     signs: ConjugateSigns | None = None) -> SiegelVerdict:
    """Dichotomy at the off-curve point: eigenvalues delta^(1/2) alpha^(+-1),
    with (alpha + 1/alpha)^2 = P(tau).

    P > 4 is off the unit circle and 0 <= P <= 4 on it; P(tau_j) < 0
    is left undecided.  A grid passes the signs it shares.
    """
    signs = ConjugateSigns() if signs is None else signs
    return _dichotomy(p, taus, j, lambda x: signs.compare(p, 4, x) > 0,
                      lambda tau: signs.compare(p, 0, tau) < 0)


def siegel_verdict_Q(q: RationalFunctionW, taus: list[AlgebraicReal], j: int,
                     signs: ConjugateSigns | None = None) -> SiegelVerdict:
    """Dichotomy at an on-curve point pair: eigenvalues beta, delta/beta,
    with beta + 1/beta = Q(tau); |Q| > 2 is off the unit circle."""
    signs = ConjugateSigns() if signs is None else signs
    return _dichotomy(q, taus, j, lambda x: (signs.compare(q, 2, x) > 0
                                             or signs.compare(q, -2, x) < 0))


# ---------------------------------------------------------------------------
# exceptional fixed points and their iterates
# ---------------------------------------------------------------------------

class JetPoly(dict):
    """Sparse polynomial in (theta, a01, b10, a20) over Frac(Z[delta]):
    {exponent tuple: RationalFunctionW} with zero coefficients dropped.

    RationalFunctionW keeps the normal form of Frac(Z[delta]), so == is
    plain dict equality and exact.  Every denominator in the type-II
    identities lies in delta alone, so a JetPoly divides only by a
    rational function of delta.
    """

    def __init__(self, terms: dict):
        super().__init__((e, c) for e, c in terms.items() if not c.is_zero())

    def __add__(self, other) -> "JetPoly":
        if not isinstance(other, JetPoly):
            other = {(0, 0, 0, 0): RationalFunctionW.of(other)}
        out = dict(self)
        for e, c in other.items():
            out[e] = out[e] + c if e in out else c
        return JetPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "JetPoly":
        return JetPoly({e: -c for e, c in self.items()})

    def __sub__(self, other) -> "JetPoly":
        return self + -other

    def __mul__(self, other) -> "JetPoly":
        if not isinstance(other, JetPoly):
            k = RationalFunctionW.of(other)
            return JetPoly({e: c * k for e, c in self.items()})
        out: dict = {}
        for e1, c1 in self.items():
            for e2, c2 in other.items():
                e = tuple(map(add, e1, e2))
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return JetPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "JetPoly":
        return self * (1 / RationalFunctionW.of(other))


# the jet variables theta, a01, b10, a20
THETA, A01, B10, A20 = (JetPoly({tuple(int(k == i) for k in range(4)): RationalFunctionW.of(1)})
                        for i in range(4))


def exceptional_nu_typeII(n: int) -> JetPoly:
    """Residue of a type-II exceptional point under the n-th iterate, as
    a polynomial in theta over Frac(Z[delta]):
    (n-1 + (n+1) delta^n + (1 + ... + delta^(n-1)) theta) / (n (1-delta^n)^2)."""
    if n < 1:
        raise ValueError("iterate index must be >= 1")
    dn = _delta() ** n
    return (THETA * _geom(n - 1) + (n - 1 + (n + 1) * dn)) / (n * (1 - dn) ** 2)


def theta_iterate_closed_form(n: int, theta: JetPoly) -> JetPoly:
    """theta^(n) = (1 - delta^n)((n-1)(1-delta) + theta) / (n (1-delta)),
    for theta the variable THETA or its jet form base_theta_4vars()."""
    d = _delta()
    one_minus = 1 - d
    return (theta + (n - 1) * one_minus) * (1 - d ** n) / (n * one_minus)


def typeII_iterate_identity(n: int) -> bool:
    """nu(f^n) from (2 delta^n + theta^(n))/(1-delta^n)^2 with theta^(n)
    substituted equals the displayed n-dependence; exact identity."""
    dn = _delta() ** n
    via_theta = (theta_iterate_closed_form(n, THETA) + 2 * dn) / (1 - dn) ** 2
    return via_theta == exceptional_nu_typeII(n)


@dataclass
class JetState:
    """Leading jet coefficients of the n-th iterate at a type-II point,
    in the normalization a10 = 1, b01 = -2.  a10 stays a constant, so it
    is a RationalFunctionW; the others are JetPolys."""

    n: int
    a10: RationalFunctionW
    a01: JetPoly
    b10: JetPoly
    a20: JetPoly

    def theta(self) -> JetPoly:
        dn = _delta() ** self.n
        return (self.a20 * (1 - dn) + self.a01 * self.b10 * dn) / self.a10 ** 2


def jet_oracle(n_max: int) -> list[JetState]:
    """Iterate the composition recurrences for the jet coefficients.

    a10^(n+1) = a10^(n) + 1            a01^(n+1) = a01^(n) + delta^n a01
    b10^(n+1) = b10^(n) + delta^-n b10 a20^(n+1) = a20^(n) + a20
                                                  + 2 a10^(n) + delta^n a01 b10^(n)

    The coefficients are rational functions of delta (RationalFunctionW),
    so delta^-n is 1/delta^n; a01, b10, a20 stay free variables.
    """
    d = _delta()
    states = [JetState(1, RationalFunctionW.of(1), A01, B10, A20)]
    for n in range(1, n_max):
        s = states[-1]
        dn = d ** n
        states.append(JetState(
            n + 1,
            s.a10 + 1,
            s.a01 + A01 * dn,
            s.b10 + B10 / dn,
            s.a20 + A20 + 2 * s.a10 + A01 * s.b10 * dn,
        ))
    return states


def jet_closed_forms(n: int) -> JetState:
    """The solved recurrence of jet_oracle, as displayed expressions:
    a10^(n) = n,
    a01^(n) = (1 - delta^n) a01 / (1 - delta),
    b10^(n) = (1 - delta^n) b10 / (delta^(n-1) (1 - delta)),
    a20^(n) = n(n-1) + n a20
              + (delta/(1-delta)) (n-1 - delta(1-delta^(n-1))/(1-delta)) a01 b10.
    """
    d = _delta()
    one_minus = 1 - d
    ratio = (1 - d ** n) / one_minus
    mixed = d / one_minus * (n - 1 - d * (1 - d ** (n - 1)) / one_minus)
    return JetState(n, RationalFunctionW.of(n), A01 * ratio, B10 * ratio / d ** (n - 1),
                    A20 * n + n * (n - 1) + A01 * B10 * mixed)


def base_theta_4vars() -> JetPoly:
    """theta = (1-delta) a20 + delta a01 b10 in the jet variables."""
    d = _delta()
    return A20 * (1 - d) + A01 * B10 * d
