"""Exact real algebraic numbers and number field arithmetic.

Real roots are counted and isolated with one Sturm chain, the (p, p')
case of one integer signed remainder sequence of a pair
(``signed_remainders``, read off ``intpoly.prem``), and carried
around as (squarefree minimal polynomial, isolating interval) pairs
that can be refined on demand.
One bisection on that chain isolates the roots of a polynomial, with
-2 and 2 as fixed cut points, so an interval holds -2 or 2 inside it
only when that point is its root; two distinct roots are ordered by
refining both until their intervals part (``separate``).
Every sign at a rational point n/d, of a Sturm term or of any other
polynomial, is taken by one integer evaluation (``_scaled_value``).
The sign of a polynomial q at an algebraic point is one Tarski query:
the sign variations at the interval's endpoints of the signed remainder
sequence of (m, m' q mod m), for the minimal polynomial m, with no gcd
and no refinement (``sign_at``).
On top of that sit elements of a number field QQ[w]/(m(w)), kept as an
integer polynomial reduced mod m over a positive integer, univariate
rational functions kept as coprime pairs of integer polynomials (the
normal form of Frac(Z[w])), and the symmetric descent
delta + 1/delta -> w used to rewrite eigenvalue equations in the trace
variable, which reads that normal form and hands its palindromic
numerator and denominator to ``intpoly.trace_polynomial``.  All of
their arithmetic is in integers: one gcd and one content gcd
normalize each rational function.  One inverse in
integers, (adj c, d) = d c^(-1) from the multiplication matrix of c
handed to the fraction-free ``linalg.solve`` (``integral_inverse``),
inverts in the number field and divides exactly in Z[w]/(m) for
``picard2``.
Every gcd and resultant reads the package's one subresultant PRS
(``intpoly.subresultants``); minimal polynomials of values f(alpha)
also read ``intpoly.interpolate``, which interpolates in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .intpoly import (
    PALINDROMIC,
    IntPoly,
    PolynomialDomainError,
    Z,
    gcd,
    interpolate,
    palindrome_kind,
    prem,
    resultant,
    squarefree_part,
    trace_polynomial,
)
from .linalg import solve


# ---------------------------------------------------------------------------
# Sturm sequences and root isolation / counting
# ---------------------------------------------------------------------------

TWO = Fraction(2)


def signed_remainders(f: IntPoly, g: IntPoly) -> list[list[int]]:
    """Signed remainder sequence f, g, -rem(f, g), ... over ZZ of nonzero
    f and deg g < deg f, as ascending coefficient lists.

    Each remainder is the pseudo-remainder ``intpoly.prem``, a multiple
    of the rational one by lc(g)^(deg f - deg g + 1), taken with the sign
    of that factor, negated and divided by its content, so the terms
    have the signs of the rational sequence at every point.  The last
    term is gcd(f, g) up to a nonzero factor.  By the Sturm-Sylvester
    theorem, V(a) - V(b) (sign variations, ``_variations_at``) is the
    Cauchy index of g/f on (a, b), for a and b not roots of f; for a
    squarefree f it is the sum of sign(g(t) f'(t)) over the roots t of
    f between them.
    """
    f, g = list(f.coeffs), list(g.coeffs)
    chain = [f]
    while g:
        chain.append(g)
        r = prem(Z, f, g)
        if not r:
            break
        content = math.gcd(*r)
        if g[-1] < 0 and (len(f) - len(g)) % 2 == 0:
            content = -content
        f, g = g, [-c // content for c in r]
    return chain


def sturm_chain(p: IntPoly) -> list[list[int]]:
    """The Sturm chain p, p', ...: ``signed_remainders`` of (p, p').

    p need not be squarefree: the last term is gcd(p, p') up to a
    positive factor, and Sturm's theorem counts the distinct roots
    between two points that are not roots of p.
    """
    return signed_remainders(p, p.derivative())


def _scaled_value(coeffs, n: int, d: int) -> int:
    """d^m q(n/d) = sum c_k n^k d^(m-k) for q of degree m, in integers
    only; for d > 0 it has the sign of q(n/d).  Plain Horner when d == 1."""
    acc = 0
    if d == 1:
        for c in reversed(coeffs):
            acc = acc * n + c
        return acc
    dk = 1
    for c in reversed(coeffs):
        acc = acc * n + c * dk
        dk *= d
    return acc


def _sign(p: IntPoly, x: Fraction) -> int:
    """Sign of p(x) at a rational x, read off ``_scaled_value``."""
    v = _scaled_value(p.coeffs, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def _variations_at(chain: list[list[int]], x: Fraction) -> int:
    n, d = x.numerator, x.denominator
    signs = [v > 0 for v in (_scaled_value(q, n, d) for q in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_in(p: IntPoly, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (a, b).

    Endpoint roots are removed exactly by dividing out the linear factor
    before counting, so the count is always of the open interval.
    """
    if p.is_zero():
        raise PolynomialDomainError("zero polynomial")
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise PolynomialDomainError("empty interval")
    for end in (a, b):
        n, d = end.numerator, end.denominator
        while _scaled_value(p.coeffs, n, d) == 0:
            p = p // IntPoly([-n, d])
    chain = sturm_chain(p)
    return _variations_at(chain, a) - _variations_at(chain, b)


def root_bound(p: IntPoly) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    lc = abs(p.leading())
    m = max(abs(c) for c in p.coeffs[:-1]) if p.degree > 0 else 0
    return Fraction(m, lc) + 1


@dataclass(eq=False)
class AlgebraicReal:
    """A real algebraic number: squarefree primitive minimal polynomial
    plus a rational interval (lo, hi) isolating exactly one of its real
    roots.  ``refine`` narrows the interval in place, and only
    ``separate`` and ``approx`` call it in the package (and the id-523
    acceptance check, on its own root); all other state is immutable, so
    concurrent readers can only ever see a stale (wider) interval, never
    an inconsistent one.  ``==`` is identity.
    """

    minpoly: IntPoly
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        self.lo = Fraction(self.lo)
        self.hi = Fraction(self.hi)
        # a root sitting on the boundary must be the isolated root itself;
        # collapse to an exact point so interval endpoints are never roots
        if self.lo != self.hi:
            if _sign(self.minpoly, self.lo) == 0:
                self.hi = self.lo
            elif _sign(self.minpoly, self.hi) == 0:
                self.lo = self.hi

    def is_point(self) -> bool:
        return self.lo == self.hi

    def refine(self, width: Fraction) -> None:
        """Shrink the isolating interval to at most the requested width; a
        point interval is left as it is, and any other needs width > 0."""
        p = self.minpoly
        lo, hi = self.lo, self.hi
        if lo == hi:
            return
        if width <= 0:
            raise PolynomialDomainError(f"refine to width {width} never ends")
        s_lo = _sign(p, lo)
        while hi - lo > width:
            mid = (lo + hi) / 2
            s_mid = _sign(p, mid)
            if s_mid == 0:
                lo = hi = mid
                break
            if s_mid == s_lo:
                lo = mid
            else:
                hi = mid
        self.lo, self.hi = lo, hi

    def approx(self, digits: int = 8) -> float:
        self.refine(Fraction(1, 10 ** (digits + 2)))
        return float((self.lo + self.hi) / 2)

    def __repr__(self):
        return f"AlgebraicReal({self.minpoly.text()}, ({self.lo}, {self.hi}))"


def isolate_real_roots(p: IntPoly) -> list[AlgebraicReal]:
    """All real roots of p in strictly descending order.

    One Sturm bisection on ``sturm_chain(p)``, whose last term, gcd(p, p')
    up to a positive factor, also gives the squarefree part that each
    root carries: the open isolating intervals share at most an endpoint,
    their rational endpoints are never roots, and none holds -2 or 2
    inside unless that point is the root it isolates.
    """
    if p.is_zero():
        raise PolynomialDomainError("zero polynomial")
    if p.degree == 0:
        return []
    chain = sturm_chain(p)
    sf = p.primitive() // IntPoly(chain[-1]).primitive()
    bound = root_bound(sf)
    cuts = [-bound] + [c for c in (-TWO, TWO) if -bound < c < bound and _sign(sf, c)] + [bound]
    out: list[AlgebraicReal] = []

    def split(a: Fraction, va: int, b: Fraction, vb: int):
        # va - vb roots in (a, b); the upper half goes first, so out descends
        if va - vb == 1:
            out.append(AlgebraicReal(sf, a, b))
        elif va > vb:
            mid = (a + b) / 2
            while _sign(sf, mid) == 0:
                mid = (a + 2 * mid) / 3  # nudge off the root, exactly
            vm = _variations_at(chain, mid)
            split(mid, vm, b, vb)
            split(a, va, mid, vm)

    ends = [(x, _variations_at(chain, x)) for x in cuts]
    for (a, va), (b, vb) in reversed(list(zip(ends, ends[1:]))):
        split(a, va, b, vb)
    return out


def separate(x: AlgebraicReal, y: AlgebraicReal) -> None:
    """Refine x and y until their isolating intervals share at most an
    endpoint, so (lo, hi) orders them.  Ends only when x != y: each pass
    quarters both widths until they sum to less than the distance."""
    while x.lo < y.hi and y.lo < x.hi:
        x.refine((x.hi - x.lo) / 4)
        y.refine((y.hi - y.lo) / 4)


def sign_at(q: IntPoly, x: AlgebraicReal) -> int:
    """Exact sign of q(x), by one Tarski query; x is left as it is.

    For m = x.minpoly, taken with a positive leading coefficient, and
    r = m' q reduced mod m by ``intpoly.prem`` (a positive multiple of
    the remainder), V(lo) - V(hi) on ``signed_remainders(m, r)`` is the
    Cauchy index of m' q / m on (lo, hi): by Sturm-Tarski, the sum of
    sign q(t) over the roots t of m there.  The interval holds one root,
    x, and no endpoint is a root of m; a root of q is no pole, so adds 0.
    """
    if x.is_point():
        return _sign(q, x.lo)
    m = x.minpoly if x.minpoly.leading() > 0 else -x.minpoly
    mq = m.derivative() * q
    r = prem(Z, mq.coeffs, m.coeffs) if mq.degree >= m.degree else mq.coeffs
    chain = signed_remainders(m, IntPoly(r))
    return _variations_at(chain, x.lo) - _variations_at(chain, x.hi)


# ---------------------------------------------------------------------------
# number field elements
# ---------------------------------------------------------------------------

def integral_inverse(modulus: IntPoly, c: IntPoly) -> tuple[IntPoly, int]:
    """(adj c, d) with c adj c = d in Z[w]/(modulus): adj c = d c^(-1).

    M is the multiplication matrix of c on 1, w, ..., w^(n-1) for the
    monic modulus of degree n, d = det M, and adj c is the Cramer form d x
    of M x = e_0 (``linalg.solve``), so its coefficients are integers.
    The number field inverse and the exact division of ``picard2`` both
    read it.  Raises ZeroDivisionError when M is singular (c a zero
    divisor).
    """
    n = modulus.degree
    cols = [c.shift(j).rem_monic(modulus) for j in range(n)]
    (adj,), d = solve([[col[i] for col in cols] for i in range(n)],
                      [[int(i == 0)] for i in range(n)])
    return IntPoly(adj), d


class NumberFieldElem:
    """Element num/den of QQ[w]/(m(w)) for a fixed monic modulus m: num is
    an IntPoly reduced mod m, den > 0 an integer, and gcd(content(num),
    den) = 1 (zero is 0/1), so == and hash decide equality."""

    __slots__ = ("modulus", "num", "den")

    def __init__(self, modulus: IntPoly, num: IntPoly, den: int = 1):
        if not modulus.is_monic():
            raise PolynomialDomainError("number field modulus must be monic")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if num.degree >= modulus.degree:
            num = num.rem_monic(modulus)
        g = math.gcd(num.content(), den)  # |den| when num is zero
        if den < 0:
            g = -g
        if g != 1:
            num, den = IntPoly([c // g for c in num.coeffs]), den // g
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("NumberFieldElem is immutable")

    def __reduce__(self):
        return (NumberFieldElem, (self.modulus, self.num, self.den))

    @staticmethod
    def of(modulus: IntPoly, value) -> "NumberFieldElem":
        if isinstance(value, NumberFieldElem):
            return value
        if isinstance(value, IntPoly):
            return NumberFieldElem(modulus, value)
        c = Fraction(value)
        return NumberFieldElem(modulus, IntPoly([c.numerator]), c.denominator)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        return (isinstance(other, NumberFieldElem) and self.modulus == other.modulus
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.modulus, self.num, self.den))

    def _coerce(self, other) -> "NumberFieldElem":
        return NumberFieldElem.of(self.modulus, other)

    def __add__(self, other):
        o = self._coerce(other)
        return NumberFieldElem(self.modulus, self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NumberFieldElem(self.modulus, self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return NumberFieldElem(self.modulus, -self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        return NumberFieldElem(self.modulus, self.num.mul_mod(o.num, self.modulus),
                               self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "NumberFieldElem":
        """den / num = den adj(num) / d, from ``integral_inverse`` unless
        num is a constant."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        if self.num.degree == 0:
            return NumberFieldElem(self.modulus, IntPoly([self.den]), self.num[0])
        adj, d = integral_inverse(self.modulus, self.num)
        return NumberFieldElem(self.modulus, adj * self.den, d)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __repr__(self):
        return f"NumberFieldElem({self.num.text()}/{self.den} mod {self.modulus.text()})"


# ---------------------------------------------------------------------------
# univariate rational functions
# ---------------------------------------------------------------------------

_ONE = IntPoly([1])


def _coerced(op):
    """The operator op(self, o) with the operand read as a RationalFunctionW,
    or NotImplemented for any type but those RationalFunctionW.of reads
    exactly: RationalFunctionW, IntPoly, int and Fraction."""
    def method(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return op(self, RationalFunctionW.of(other))
    return method


class RationalFunctionW:
    """A rational function num/den in one variable, in the normal form of
    Frac(Z[w]): num and den are IntPolys with gcd(num, den) = 1 in Z[w],
    content included, lead(den) > 0, and zero is 0/1.  The form is
    canonical, so == and hash decide equality.  Also used for functions
    of the eigenvalue variable delta; the variable name carries no
    semantics.  fpfsiegel's JetPoly keeps its jet and type-II residue
    coefficients as RationalFunctionW in delta, and so compares them
    exactly.  Any other operand type gets NotImplemented, so == with it
    is False and its own reflected operator (a JetPoly's) takes over.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly = _ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = IntPoly(), _ONE
        else:
            g = gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            c = math.gcd(num.content(), den.content())
            if den.leading() < 0:
                c = -c
            if c != 1:
                num, den = (IntPoly([x // c for x in p.coeffs]) for p in (num, den))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunctionW is immutable")

    def __reduce__(self):
        return (RationalFunctionW, (self.num, self.den))

    @staticmethod
    def of(value) -> "RationalFunctionW":
        if isinstance(value, RationalFunctionW):
            return value
        if isinstance(value, IntPoly):
            return RationalFunctionW(value)
        c = Fraction(value)
        return RationalFunctionW(IntPoly([c.numerator]), IntPoly([c.denominator]))

    @staticmethod
    def variable() -> "RationalFunctionW":
        return RationalFunctionW(IntPoly([0, 1]))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    @_coerced
    def __eq__(self, o) -> bool:
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    @_coerced
    def __add__(self, o):
        return RationalFunctionW(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    @_coerced
    def __sub__(self, o):
        return RationalFunctionW(self.num * o.den - o.num * self.den, self.den * o.den)

    @_coerced
    def __rsub__(self, o):
        return o - self

    def __neg__(self):
        return RationalFunctionW(-self.num, self.den)

    @_coerced
    def __mul__(self, o):
        return RationalFunctionW(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, o):
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunctionW(self.num * o.den, self.den * o.num)

    @_coerced
    def __rtruediv__(self, o):
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return (RationalFunctionW.of(1) / self) ** (-n)
        # coprime num and den stay coprime, content included, under powers
        return RationalFunctionW(self.num ** n, self.den ** n)

    def substitute(self, inner: "RationalFunctionW") -> "RationalFunctionW":
        """Composition self(inner)."""
        num = RationalFunctionW.of(0)
        for c in reversed(self.num.coeffs):
            num = num * inner + c
        den = RationalFunctionW.of(0)
        for c in reversed(self.den.coeffs):
            den = den * inner + c
        return num / den

    def __repr__(self):
        return f"RationalFunctionW({self.num.text()} / {self.den.text()})"


_OPERANDS = (RationalFunctionW, IntPoly, int, Fraction)


# ---------------------------------------------------------------------------
# minimal polynomials of values f(alpha)
# ---------------------------------------------------------------------------

def minpoly_of_value(f: RationalFunctionW, alpha: AlgebraicReal) -> IntPoly:
    """Minimal polynomial over QQ of f(alpha).

    Computed as the squarefree part of Res_w(m(w), x den(w) - num(w)),
    interpolated from its values at the integer nodes x = 0..deg(m),
    each an integer resultant since num and den are integral; primitive
    with positive leading coefficient.  When m is irreducible (the case
    in every pipeline use: m is a Salem trace polynomial) the squarefree
    resultant is exactly the minimal polynomial, so no factor selection
    is needed; minimality requires m irreducible.
    """
    m = alpha.minpoly
    if f.num.degree <= 0 and f.den.degree <= 0:
        return minpoly_of_rational(Fraction(f.num[0], f.den[0]))
    if sign_at(f.den, alpha) == 0:
        raise ZeroDivisionError("pole of f at alpha")
    # Res_w(m, g) = lc(m)^deg(g) prod g(roots of m); where g = x0 den - num
    # drops below its generic degree e, the missing powers of lc(m) go back
    deg, lc, e = m.degree, m.leading(), max(f.num.degree, f.den.degree)
    ys = []
    for x0 in range(deg + 1):
        g = f.den * x0 - f.num
        ys.append(resultant(m, g) * lc ** (e - g.degree))
    r = interpolate(ys)
    if r.degree < 1:
        raise PolynomialDomainError("degenerate resultant in minpoly_of_value")
    p = squarefree_part(r)
    if p.degree > deg:
        raise PolynomialDomainError("minimal polynomial of f(alpha) exceeds deg m")
    return p.primitive()


def is_algebraic_integer(minpoly: IntPoly) -> bool:
    """True iff the primitive integer minimal polynomial is monic up to sign."""
    return abs(minpoly.leading()) == 1


def minpoly_of_rational(c: Fraction) -> IntPoly:
    c = Fraction(c)
    return IntPoly([-c.numerator, c.denominator]).primitive()


# ---------------------------------------------------------------------------
# symmetric descent: R(delta) -> R^(w) with R(delta) = R^(delta + 1/delta)
# ---------------------------------------------------------------------------

def symmetric_descent(r: RationalFunctionW) -> RationalFunctionW:
    """Rewrite a delta <-> 1/delta symmetric rational function in the
    trace variable w = delta + 1/delta.

    Reads the normal form of r = delta^a N / (delta^b D), with N(0) and
    D(0) nonzero: r is symmetric iff N and D are palindromic of even
    degree and deg N - deg D = 2 (b - a).  (An anti-palindromic pair, or
    a palindromic pair of odd degree, would share the factor delta - 1
    or delta + 1.)  Then r = U(w) / V(w) for the trace polynomials U of
    N and V of D (``intpoly.trace_polynomial``, checked by
    back-substitution); PolynomialDomainError is raised when r is not
    symmetric.
    """
    if r.is_zero():
        return r
    (a, n), (b, d) = (_split_delta_power(p) for p in (r.num, r.den))
    if not (palindrome_kind(n) == palindrome_kind(d) == PALINDROMIC
            and n.degree % 2 == 0 and n.degree - d.degree == 2 * (b - a)):
        raise PolynomialDomainError("input is not symmetric under delta -> 1/delta")
    return RationalFunctionW(trace_polynomial(n), trace_polynomial(d))


def _split_delta_power(p: IntPoly) -> tuple[int, IntPoly]:
    """(k, q) with p = delta^k q and q(0) != 0, for nonzero p."""
    k = next(i for i, c in enumerate(p.coeffs) if c)
    return k, IntPoly(p.coeffs[k:])


def hn_poly(n: int) -> IntPoly:
    """h_n(w) with z^n + z^(-n) = h_n(z + 1/z); h_0 = 2, h_1 = w,
    h_n = w h_(n-1) - h_(n-2)."""
    if n < 0:
        raise PolynomialDomainError("negative index")
    h0, h1 = IntPoly([2]), IntPoly([0, 1])
    if n == 0:
        return h0
    w = IntPoly([0, 1])
    for _ in range(n - 1):
        h0, h1 = h1, w * h1 - h0
    return h1
