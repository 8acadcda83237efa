"""Picard number 2: the single-A1 exceptional curve analysis.

For a pair with rho = 2, exceptional set a single (-2)-curve E and
f*|Pic of characteristic polynomial (z-1)(z+1), the induced Moebius
transformation on E has two fixed points p+- with eigenvalue data
B = beta + 1/beta, and there is one more fixed point p off E with
(alpha + 1/alpha)^2 = A^2.  The two fixed point formulas at the
iterates n = 1, 3, 7 (where the trace of f* on H^2 returns to 1)
overdetermine the pair (A, B): writing sigma^2 = tau + 2, the n-th
equation collapses to a single polynomial condition E_n(B) over the
number field K = QQ(tau), and gcd(E_3, E_7) has degree one, pinning
B = Q(tau) and then A^2 = P(tau) in closed form.  Exact sign tests of
Q and P at the conjugates tau_1 > ... > tau_9 then classify every
fixed point as a Siegel center or a hyperbolic point.

Everything is exact.  E_n's numerator and denominator are built in
Z[w][B] (tau = w) and cancelled by the package's one subresultant PRS
(``intpoly.subresultants``) with checked exact divisions, over Z[w]/(st)
(integer polynomials modulo the monic trace polynomial) for E_3 and E_7
and over Z[w] for the formal case-ii/iii run; gcd and numerator then
move once into K or QQ(w), where E_n is made monic.  gcd(E_3, E_7)
runs through the same PRS.
The case exclusions are certified by trivial-gcd witnesses against
the minimal polynomials.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .intpoly import (IntPoly, PolynomialDomainError, from_trace_polynomial, gcd as zgcd,
                      last_subresultant, newton_traces, trace_polynomial)
from .algnum import NumberFieldElem, RationalFunctionW, hn_poly, integral_inverse
from .fpfsiegel import ConjugateSigns, siegel_verdict_P, siegel_verdict_Q
from .salemlib import trace_conjugates

ST20_1 = IntPoly([1, -15, 21, 35, -49, -28, 35, 9, -10, -1, 1])
S20_1 = from_trace_polynomial(ST20_1)


class CertificationError(RuntimeError):
    """A certified step of the analysis came out differently than the
    theory demands."""


# ---------------------------------------------------------------------------
# dense polynomials in B, as ascending coefficient lists over a ring or a
# field, and the domains Z[w] and Z[w]/(st) for the subresultant PRS
# ---------------------------------------------------------------------------

def _trim(c: list) -> list:
    while c and c[-1].is_zero():
        c.pop()
    return c


def fp_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + y for x, y in zip(a, b)] + a[len(b):])


def fp_sub(a: list, b: list) -> list:
    return fp_add(a, [-x for x in b])


def fp_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return _trim(out)


def fp_divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder over a field."""
    rem, db, inv = _trim(list(a)), len(b) - 1, 1 / b[-1]
    quo = [b[-1] * 0] * max(len(rem) - db, 0)
    for k in range(len(quo) - 1, -1, -1):
        q = quo[k] = rem[k + db] * inv
        for i in range(db + 1):
            rem[k + i] = rem[k + i] - q * b[i]
    return _trim(quo), _trim(rem[:db])


def fp_monic(a: list) -> list:
    inv = 1 / a[-1]
    return [x * inv for x in a]


def fp_eval(a: list, x):
    acc = a[-1]
    for c in reversed(a[:-1]):
        acc = acc * x + c
    return acc


class IntegralRing:
    """Z[w] (mod None) or Z[w]/(mod) for a monic integer mod, a domain
    when mod is irreducible, as a coefficient ring of
    ``intpoly.subresultants``.  Elements are IntPolys in w reduced modulo
    mod; ``divide`` is exact division, checked, and ``to_field`` moves an
    element into QQ(w) or K = QQ[w]/(mod)."""

    one = IntPoly([1])

    def __init__(self, mod: IntPoly | None = None):
        if mod is not None and not mod.is_monic():
            raise PolynomialDomainError("Z[w]/(mod) needs a monic mod")
        self.mod = mod

    def reduce(self, a: IntPoly) -> IntPoly:
        return a if self.mod is None else a.rem_monic(self.mod)

    def mul(self, a: IntPoly, b: IntPoly) -> IntPoly:
        return a * b if self.mod is None else a.mul_mod(b, self.mod)

    def to_field(self, a: IntPoly):
        return RationalFunctionW.of(a) if self.mod is None else NumberFieldElem.of(self.mod, a)

    def divide(self, values: list, c: IntPoly) -> list:
        """The quotients v / c; CertificationError unless each lies in the ring.

        c = 1 divides not at all.  In Z[w]/(mod) the content k of c
        divides coefficientwise first, and a nonconstant c / k then takes
        one inverse (adj, d) = d (c / k)^(-1) (``algnum.integral_inverse``):
        each quotient is (adj (v / k) mod mod) / d, where d must divide
        every coefficient."""
        if c.is_one():
            return values
        if self.mod is None:
            try:
                return [v // c for v in values]
            except PolynomialDomainError:
                raise CertificationError("inexact division in Z[w]") from None
        if c.is_zero():
            raise CertificationError("division by a zero divisor of Z[w]/(st)")
        k = c.content()
        if k != 1:
            values, c = [_exact_quotient(v, k) for v in values], _exact_quotient(c, k)
        if c.degree == 0:  # c = +-1
            return values if c.is_one() else [-v for v in values]
        try:
            adj, d = integral_inverse(self.mod, c)
        except ZeroDivisionError:
            raise CertificationError("division by a zero divisor of Z[w]/(st)") from None
        return [_exact_quotient(adj.mul_mod(v, self.mod), d) for v in values]


def _exact_quotient(v: IntPoly, d: int) -> IntPoly:
    """v / d coefficientwise; CertificationError unless d divides each."""
    quotient = [divmod(x, d) for x in v.coeffs]
    if any(r for _, r in quotient):
        raise CertificationError("inexact division in Z[w]/(st)")
    return IntPoly(x for x, _ in quotient)


def k_gcd(a: list, b: list) -> list:
    """Monic gcd in K[B] of nonzero polynomials over K = QQ[w]/(st): the
    subresultant PRS over Z[w]/(st) after clearing denominators."""
    def integral(p: list) -> list:
        den = math.lcm(*(x.den for x in p))
        return [x.num * (den // x.den) for x in p]

    ring = IntegralRing(a[0].modulus)
    return fp_monic([ring.to_field(c) for c in last_subresultant(ring, integral(a), integral(b))])


# ---------------------------------------------------------------------------
# the elimination
# ---------------------------------------------------------------------------

def _fixed_point_fraction(n: int) -> tuple[list, list]:
    """Numerator and denominator of the n-th condition, in Z[w][B] with tau = w.

    The fixed point formula for the n-th iterate, with A eliminated
    through A = ((tau+1) B + 2 - tau^2) / (sigma (B + 1 - tau)),
    reduces (after dividing out sigma, using sigma^2 = tau + 2) to
    g_n = g_n / (h_n(tau) - h_n(B)) + V / ((tau+2)(g_n V - U)),
    where g_n = p_n(tau+2) and h_n(A) = sigma U(B)/V(B).
    """
    one, tau2, hn = IntPoly([1]), IntPoly([2, 1]), hn_poly(n)
    if any(hn.coeffs[0::2]):
        raise CertificationError(f"h_{n} is not an odd polynomial")
    pn = IntPoly(hn.coeffs[1::2])  # h_n(x) = x p_n(x^2)
    k = pn.degree
    g = fp_eval([IntPoly([c]) for c in pn.coeffs], tau2)  # p_n(tau+2)

    def power(p: list, e: int) -> list:
        return functools.reduce(fp_mul, [p] * e, [one])

    # N(B) = (tau+1) B + 2 - tau^2 ; D(B) = (tau+2)(B + 1 - tau)
    n_poly, d_poly = [IntPoly([2, 0, -1]), IntPoly([1, 1])], [IntPoly([2, -1, -1]), tau2]
    # h_n(A) = sigma U/V: U = N sum_i q_i (tau+2)^i N^(2i) D^(2(k-i)), V = D^(2k+1)
    u_poly = fp_mul(n_poly, functools.reduce(fp_add, (
        fp_mul([tau2 ** i * pn[i]], fp_mul(power(n_poly, 2 * i), power(d_poly, 2 * (k - i))))
        for i in range(k + 1))))
    v_poly = power(d_poly, 2 * k + 1)
    t_minus_h = fp_sub([hn], [IntPoly([c]) for c in hn.coeffs])  # h_n(tau) - h_n(B)
    gv_minus_u = fp_sub(fp_mul([g], v_poly), u_poly)
    # numerator of g - g/(T - h_n(B)) - V/((tau+2)(g V - U)) over the
    # common denominator (T - h_n(B)) (tau+2) (g V - U)
    den = fp_mul(t_minus_h, gv_minus_u)
    return fp_sub(fp_mul([g * tau2], fp_sub(den, gv_minus_u)), fp_mul(v_poly, t_minus_h)), den


def eliminant(n: int, ring: IntegralRing) -> list:
    """E_n(B), fully cancelled and monic over the field of fractions of ring:
    the PRS over ring finds the common factor of numerator and denominator,
    and both numerator and factor move into the field once for the division."""
    num, den = ([ring.reduce(c) for c in p] for p in _fixed_point_fraction(n))
    cancel = last_subresultant(ring, _trim(num), _trim(den))
    numerator = [ring.to_field(c) for c in num]
    if len(cancel) > 1:
        numerator, rem = fp_divmod(numerator, fp_monic([ring.to_field(c) for c in cancel]))
        if rem:
            raise CertificationError("gcd does not divide the eliminant numerator")
    return fp_monic(numerator)


@dataclass
class Picard2Report:
    salem_trace: IntPoly
    q_func: RationalFunctionW = None
    p_func: RationalFunctionW = None
    grid: dict = field(default_factory=dict)       # (row, j) -> SiegelVerdict
    certificates: dict = field(default_factory=dict)
    e3_degree: int = 0
    e7_degree: int = 0

    def to_json(self) -> dict:
        cols = range(1, self.salem_trace.degree)
        grid = {row: [str(self.grid[(row, j)]) for j in cols] for row in ("p_pm", "p")}
        certs = {key: val.text() if isinstance(val, IntPoly) else val
                 for key, val in self.certificates.items()}
        return {
            "salem_trace": self.salem_trace.text(),
            "Q_num": self.q_func.num.signed_primitive().text(),
            "Q_den": self.q_func.den.signed_primitive().text(),
            "P_num": self.p_func.num.signed_primitive().text(),
            "P_den": self.p_func.den.signed_primitive().text(),
            "E3_degree": self.e3_degree,
            "E7_degree": self.e7_degree,
            "grid": grid,
            "certificates": certs,
        }


def trace_check(salem_poly: IntPoly = S20_1) -> bool:
    """Tr(F^n) = Tr(F) = 1 for the iterates n = 1, 3, 7, where F has
    characteristic polynomial (z-1)(z+1) S(z)."""
    traces = newton_traces(IntPoly([-1, 0, 1]) * salem_poly, 7)
    return all(traces[n - 1] == 1 for n in (1, 3, 7))


def eliminate(n: int, st: IntPoly = ST20_1) -> list:
    """E_n(B) over K = QQ[w]/(st); monic, fully cancelled."""
    return eliminant(n, IntegralRing(st))


def expected_Q() -> RationalFunctionW:
    """-(w+1)(w-2)(w^3-3w+1)."""
    w = RationalFunctionW.variable()
    return -(w + 1) * (w - 2) * (w ** 3 - 3 * w + 1)


def expected_P() -> RationalFunctionW:
    """(w^6-6w^4-w^3+10w^2+3w-4)^2 / ((w+2)(w^2-3)^2(w^3-w^2-2w+1)^2)."""
    w = RationalFunctionW.variable()
    num = (w ** 6 - 6 * w ** 4 - w ** 3 + 10 * w ** 2 + 3 * w - 4) ** 2
    den = (w + 2) * (w ** 2 - 3) ** 2 * (w ** 3 - w ** 2 - 2 * w + 1) ** 2
    return num / den


def solve_B_and_P(st: IntPoly = ST20_1) -> Picard2Report:
    """Run the elimination, read off B = Q(tau), back-substitute for P.

    The common root of E_3 and E_7 is certified by a degree-1 gcd over
    K; the lifted polynomial Q(w) (the canonical representative of the
    root) and the resulting P(w) are returned as rational functions.
    Their agreement with the published closed forms is checked by the
    ``picard2-certification`` acceptance criterion, not here.
    """
    report = Picard2Report(salem_trace=st)
    e3 = eliminate(3, st)
    e7 = eliminate(7, st)
    report.e3_degree = len(e3) - 1
    report.e7_degree = len(e7) - 1
    g = k_gcd(e3, e7)
    if len(g) != 2:
        raise CertificationError(f"gcd of eliminants has degree {len(g) - 1}, not 1")
    b_root: NumberFieldElem = -g[0]
    q_poly = RationalFunctionW(b_root.num, IntPoly([b_root.den]))
    report.q_func = q_poly

    # A = ((w+1) Q + 2 - w^2) / (sigma (Q + 1 - w)); P = A^2 with sigma^2 = w+2
    w = RationalFunctionW.variable()
    num = (w + 1) * q_poly + 2 - w * w
    den = q_poly + 1 - w
    if den.is_zero():
        raise CertificationError("B + 1 - tau vanishes identically")
    report.p_func = num * num / ((w + 2) * den * den)

    # derived certificate: h_n(tau) != h_n(B) in K for n = 3, 7
    tau = NumberFieldElem.of(st, IntPoly([0, 1]))
    for n in (3, 7):
        coeffs = [NumberFieldElem.of(st, c) for c in hn_poly(n).coeffs]
        diff = fp_eval(coeffs, tau) - fp_eval(coeffs, b_root)
        if diff.is_zero():
            raise CertificationError(f"h_{n}(tau) = h_{n}(B): on-curve eigenvalue collision")
        report.certificates[f"h{n}_separation"] = True
    return report


# ---------------------------------------------------------------------------
# case exclusions
# ---------------------------------------------------------------------------

CASE_IV_FACTOR = IntPoly([3, 0, 5, -2, 9, -2, 5, 0, 3])   # 3+5d^2-2d^3+9d^4-2d^5+5d^6+3d^8
CASE_II_SEPTIC = IntPoly([-20, -50, -7, 39, 17, -9, -3, 1])


def exclude_case_iv(salem_poly: IntPoly = S20_1) -> IntPoly:
    """Eliminate theta from the type-II residue equations at n = 1, 3.

    The resulting polynomial condition on delta must be coprime to the
    Salem polynomial (so the configuration cannot occur), and it carries
    the printed degree-9 factor (1+delta)(3 + 5 d^2 - 2 d^3 + 9 d^4
    - 2 d^5 + 5 d^6 + 3 d^8).  Returns the derived numerator.
    """
    d = RationalFunctionW.variable()
    one = RationalFunctionW.of(1)
    # eigenvalues at p-: 1/delta and delta^2
    theta = ((1 + 1 / d) - one / ((1 - 1 / d) * (1 - d ** 2))) * (1 - d) ** 2 - 2 * d
    lhs = 1 + 1 / d ** 3
    rhs = one / ((1 - 1 / d ** 3) * (1 - d ** 6)) \
        + (2 + 4 * d ** 3 + (1 + d + d * d) * theta) / (3 * (1 - d ** 3) ** 2)
    condition = lhs - rhs
    if condition.is_zero():
        raise CertificationError("case-iv condition vanishes identically")
    numerator = condition.num.signed_primitive()
    printed = IntPoly([1, 1]) * CASE_IV_FACTOR
    if not printed.divides(numerator):
        raise CertificationError("case-iv numerator lost the printed factor")
    if zgcd(numerator, salem_poly).degree != 0:
        raise CertificationError("case-iv condition shares a root with the Salem polynomial")
    if zgcd(printed, salem_poly).degree != 0:
        raise CertificationError("printed case-iv factor shares a root with the Salem polynomial")
    return numerator


def exclude_cases_ii_iii(st: IntPoly = ST20_1) -> IntPoly:
    """Substitute B = 2 into the n = 3 elimination over QQ(w), formally.

    The resulting condition on tau is a polynomial whose septic factor
    tau^7 - 3 tau^6 - 9 tau^5 + 17 tau^4 + 39 tau^3 - 7 tau^2 - 50 tau - 20
    must be coprime to the Salem trace polynomial; the full numerator is
    returned after both gcd certificates pass.
    """
    value = fp_eval(eliminant(3, IntegralRing()), RationalFunctionW.of(2))
    if value.is_zero():
        raise CertificationError("B = 2 satisfies the n = 3 eliminant identically")
    numerator = value.num.signed_primitive()
    if not CASE_II_SEPTIC.divides(numerator):
        raise CertificationError("case-ii/iii numerator lost the septic factor")
    if zgcd(numerator, st).degree != 0:
        raise CertificationError("case-ii/iii condition shares a root with the trace polynomial")
    if zgcd(CASE_II_SEPTIC, st).degree != 0:
        raise CertificationError("septic shares a root with the trace polynomial")
    return numerator


# ---------------------------------------------------------------------------
# the verdict grid
# ---------------------------------------------------------------------------

def classify_grid(report: Picard2Report) -> Picard2Report:
    """Verdicts for the on-curve pair (row p+-, via Q) and the free
    point (row p, via P) at every trace conjugate tau_1..tau_(m-1).

    The verdicts share one ``ConjugateSigns``, so each sign of Q or P
    against a threshold is decided once per conjugate."""
    taus = trace_conjugates(report.salem_trace)
    signs = ConjugateSigns()
    for j in range(1, len(taus) + 1):
        report.grid[("p_pm", j)] = siegel_verdict_Q(report.q_func, taus, j, signs)
        report.grid[("p", j)] = siegel_verdict_P(report.p_func, taus, j, signs)
    return report


def full_analysis(salem_poly: IntPoly = S20_1) -> Picard2Report:
    """Trace check, exclusions, elimination, and the verdict grid.

    The analysis is a property of the Salem number alone, not of a pair:
    the searches run it once per Salem factor (``cli.rank2_verdicts``).
    """
    if not trace_check(salem_poly):
        raise CertificationError("trace sequence precondition fails")
    st = trace_polynomial(salem_poly)
    report = solve_B_and_P(st)
    report.certificates["case_iv_numerator"] = exclude_case_iv(salem_poly)
    report.certificates["case_ii_iii_numerator"] = exclude_cases_ii_iii(st)
    return classify_grid(report)
