"""Exact real algebraic numbers and number field arithmetic.

Real roots are counted and isolated with one Sturm chain, an integer
signed remainder sequence whose terms are evaluated at rational points
n/d in integers only, and carried around as (squarefree minimal
polynomial, isolating interval) pairs that can be refined on demand.
Sign evaluation of a polynomial at an algebraic point is decided
exactly: a gcd test for the zero case, interval refinement otherwise.
On top of that sit elements of a number field QQ[w]/(m(w)), univariate
rational functions kept coprime by a gcd in ZZ, and the symmetric
descent delta + 1/delta -> w used to rewrite eigenvalue equations in
the trace variable.  Every gcd and resultant reads the package's one
subresultant PRS (``intpoly.subresultants``); minimal polynomials of
values f(alpha) also read ``intpoly.interpolate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .intpoly import (
    IntPoly,
    PolynomialDomainError,
    RatPoly,
    gcd,
    interpolate,
    resultant,
    squarefree_part,
)


# ---------------------------------------------------------------------------
# Sturm sequences and root isolation / counting
# ---------------------------------------------------------------------------

TWO = Fraction(2)


def _signed_rem(f: list[int], g: list[int]) -> list[int]:
    """A positive multiple of the rational remainder of f by g, in
    integers: the elimination r <- lc(g) r - head z^k g is applied until
    deg r < deg g, and the accumulated multiplier lc(g)^steps is
    corrected when negative."""
    r = list(f)
    lc = g[-1]
    steps = 0
    while r and len(r) >= len(g):
        head = r[-1]
        if head == 0:
            r.pop()
            continue
        k = len(r) - len(g)
        r = [c * lc for c in r]
        for i, c in enumerate(g):
            r[k + i] -= head * c
        r.pop()
        steps += 1
        while r and r[-1] == 0:
            r.pop()
    if lc < 0 and steps % 2 == 1:
        r = [-c for c in r]
    return r


def sturm_chain(p: IntPoly) -> list[list[int]]:
    """Signed remainder sequence p, p', -rem(p, p'), ... over ZZ, as
    ascending coefficient lists.

    Each remainder is a positive multiple of the rational one (see
    ``_signed_rem``), negated and divided by its content, so the terms
    have the signs of the rational Sturm sequence at every point.  p
    need not be squarefree: the last term is gcd(p, p') up to a
    positive factor, and Sturm's theorem counts the distinct roots
    between two points that are not roots of p.
    """
    f, g = list(p.coeffs), list(p.derivative().coeffs)
    chain = [f]
    while g:
        chain.append(g)
        r = _signed_rem(f, g)
        if not r:
            break
        content = math.gcd(*r)
        f, g = g, [-c // content for c in r]
    return chain


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
    roots.  ``refine`` narrows the interval in place; all other state is
    immutable, so concurrent readers can only ever see a stale (wider)
    interval, never an inconsistent one.  Use ``algebraic_equal`` for
    mathematical equality; ``==`` is identity.
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
            if self.minpoly(self.lo) == 0:
                self.hi = self.lo
            elif self.minpoly(self.hi) == 0:
                self.lo = self.hi

    def is_point(self) -> bool:
        return self.lo == self.hi

    def refine(self, width: Fraction) -> None:
        """Shrink the isolating interval below the requested width."""
        p = self.minpoly
        lo, hi = self.lo, self.hi
        if lo == hi:
            return
        neg = p(lo) < 0
        while hi - lo > width:
            mid = (lo + hi) / 2
            fm = p(mid)
            if fm == 0:
                lo = hi = mid
                break
            if (fm < 0) == neg:
                lo = mid
            else:
                hi = mid
        self.lo, self.hi = lo, hi

    def approx(self, digits: int = 8) -> float:
        self.refine(Fraction(1, 10 ** (digits + 2)))
        return float((self.lo + self.hi) / 2)

    def sign(self) -> int:
        """Sign of the number itself (exact)."""
        return sign_at(IntPoly([0, 1]), self)

    def serialize(self) -> tuple[str, str, str]:
        return (self.minpoly.text(), str(self.lo), str(self.hi))

    @staticmethod
    def deserialize(data: tuple[str, str, str]) -> "AlgebraicReal":
        poly, lo, hi = data
        return AlgebraicReal(IntPoly.from_text(poly), Fraction(lo), Fraction(hi))

    def __repr__(self):
        return f"AlgebraicReal({self.minpoly.text()}, ({self.lo}, {self.hi}))"


def isolate_real_roots(p: IntPoly) -> list[AlgebraicReal]:
    """All real roots of p in strictly descending order.

    Sturm-based bisection on the squarefree part; the isolating
    intervals are pairwise disjoint with rational endpoints that are
    never roots.
    """
    if p.is_zero():
        raise PolynomialDomainError("zero polynomial")
    if p.degree == 0:
        return []
    sf = squarefree_part(p)
    chain = sturm_chain(sf)
    bound = root_bound(sf)
    lo, hi = -bound, bound
    total = _variations_at(chain, lo) - _variations_at(chain, hi)
    out: list[tuple[Fraction, Fraction]] = []

    def split(a: Fraction, b: Fraction, count: int):
        if count == 0:
            return
        if count == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        while sf(mid) == 0:
            mid = (a + 2 * mid) / 3  # nudge off the root, exactly
        left = _variations_at(chain, a) - _variations_at(chain, mid)
        split(a, mid, left)
        split(mid, b, count - left)

    split(lo, hi, total)
    roots = [AlgebraicReal(sf, a, b) for a, b in sorted(out, key=lambda t: t[0], reverse=True)]
    # make the isolating intervals pairwise disjoint
    for r1, r2 in zip(roots, roots[1:]):
        while r2.hi > r1.lo:
            r1.refine((r1.hi - r1.lo) / 4)
            r2.refine((r2.hi - r2.lo) / 4)
    return roots


def refine_off_two(roots: list[AlgebraicReal]) -> None:
    """Refine each isolating interval until it excludes -2 and 2, so the
    interval shows on which side of +-2 its root lies.  Neither point
    may be a root."""
    for r in roots:
        for end in (-TWO, TWO):
            while r.lo <= end <= r.hi:
                r.refine((r.hi - r.lo) / 4)


def sign_at(p, x: AlgebraicReal) -> int:
    """Exact sign of p(x) for p an IntPoly or RatPoly.

    Zero is decided by a gcd test (zero iff gcd(minpoly, p) has a root
    in the isolating interval); otherwise the isolating interval is
    refined until p has constant sign on it.  Always terminates.
    """
    q = p.clear_denominators() if isinstance(p, RatPoly) else p
    if q.is_zero():
        return 0
    if x.is_point():
        v = q(x.lo)
        return 0 if v == 0 else (1 if v > 0 else -1)
    g = gcd(x.minpoly, q)
    # roots of g are roots of the squarefree minpoly, and the only such
    # root in the (open) isolating interval is x itself
    if g.degree > 0 and count_roots_in(g, x.lo, x.hi) == 1:
        return 0
    while True:
        va, vb = q(x.lo), q(x.hi)
        if va != 0 and vb != 0 and (va > 0) == (vb > 0) and count_roots_in(q, x.lo, x.hi) == 0:
            return 1 if va > 0 else -1
        x.refine((x.hi - x.lo) / 4)
        if x.is_point():
            v = q(x.lo)
            return 0 if v == 0 else (1 if v > 0 else -1)


def algebraic_equal(x: AlgebraicReal, y: AlgebraicReal) -> bool:
    """Exact equality of two algebraic reals."""
    if x is y:
        return True
    g = gcd(x.minpoly, y.minpoly)
    if g.degree <= 0:
        return False
    while True:
        lo, hi = max(x.lo, y.lo), min(x.hi, y.hi)
        if lo > hi:
            return False
        if x.is_point() and y.is_point():
            return x.lo == y.lo
        if x.is_point():
            return y.lo <= x.lo <= y.hi and y.minpoly(x.lo) == 0
        if y.is_point():
            return x.lo <= y.lo <= x.hi and x.minpoly(y.lo) == 0
        if lo < hi and count_roots_in(g, lo, hi) == 1:
            # the common root lies in both isolating intervals, so it is
            # simultaneously x and y
            if count_roots_in(x.minpoly, lo, hi) == 1 and count_roots_in(y.minpoly, lo, hi) == 1:
                return True
        x.refine((x.hi - x.lo) / 4)
        y.refine((y.hi - y.lo) / 4)


def algebraic_compare(x: AlgebraicReal, y: AlgebraicReal) -> int:
    """-1, 0, +1 as x <, =, > y."""
    if algebraic_equal(x, y):
        return 0
    while True:
        if x.hi < y.lo:
            return -1
        if y.hi < x.lo:
            return 1
        x.refine((x.hi - x.lo) / 4)
        y.refine((y.hi - y.lo) / 4)


def interval_eval(p: RatPoly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Crude interval extension of p over [lo, hi] (Horner with interval
    arithmetic); sound, converges as the interval shrinks."""
    alo = ahi = Fraction(0)
    for c in reversed(p.coeffs):
        cands = [alo * lo, alo * hi, ahi * lo, ahi * hi]
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


# ---------------------------------------------------------------------------
# number field elements
# ---------------------------------------------------------------------------

class NumberFieldElem:
    """Element of QQ[w]/(m(w)) for a fixed monic modulus m."""

    __slots__ = ("modulus", "rep")

    def __init__(self, modulus: IntPoly, rep: RatPoly):
        if not modulus.is_monic():
            raise PolynomialDomainError("number field modulus must be monic")
        _, r = rep.divmod(modulus.to_rat())
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "rep", r)

    def __setattr__(self, *a):
        raise AttributeError("NumberFieldElem is immutable")

    def __reduce__(self):
        return (NumberFieldElem, (self.modulus, self.rep))

    @staticmethod
    def of(modulus: IntPoly, value) -> "NumberFieldElem":
        if isinstance(value, NumberFieldElem):
            return value
        if isinstance(value, RatPoly):
            return NumberFieldElem(modulus, value)
        if isinstance(value, IntPoly):
            return NumberFieldElem(modulus, value.to_rat())
        return NumberFieldElem(modulus, RatPoly([Fraction(value)]))

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __eq__(self, other) -> bool:
        return (isinstance(other, NumberFieldElem) and self.modulus == other.modulus
                and self.rep == other.rep)

    def __hash__(self):
        return hash((self.modulus, self.rep))

    def _coerce(self, other) -> "NumberFieldElem":
        return NumberFieldElem.of(self.modulus, other)

    def __add__(self, other):
        o = self._coerce(other)
        return NumberFieldElem(self.modulus, self.rep + o.rep)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NumberFieldElem(self.modulus, self.rep - o.rep)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return NumberFieldElem(self.modulus, -self.rep)

    def __mul__(self, other):
        o = self._coerce(other)
        return NumberFieldElem(self.modulus, self.rep * o.rep)

    __rmul__ = __mul__

    def inverse(self) -> "NumberFieldElem":
        """Inverse by the extended Euclidean algorithm in QQ[w]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # r0 = modulus, r1 = rep; maintain t with t * rep = r (mod modulus)
        r0, r1 = self.modulus.to_rat(), self.rep
        t0, t1 = RatPoly(), RatPoly([1])
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            t0, t1 = t1, t0 - q * t1
        if r0.degree != 0:
            raise ZeroDivisionError("element is a zero divisor (modulus not irreducible here)")
        inv = t0 * (Fraction(1) / r0.coeffs[0])
        return NumberFieldElem(self.modulus, inv)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __repr__(self):
        return f"NumberFieldElem({self.rep!r} mod {self.modulus.text()})"


# ---------------------------------------------------------------------------
# univariate rational functions
# ---------------------------------------------------------------------------

class RationalFunctionW:
    """A rational function num/den in one variable, normalized so that
    gcd(num, den) = 1 and den is monic.  Also used for functions of the
    eigenvalue variable delta; the variable name carries no semantics.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: RatPoly, den: RatPoly = RatPoly([1])):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = RatPoly(), RatPoly([1])
        else:
            # num/den = c n/d for primitive integer n, d; cancel their gcd in ZZ
            n, d = num.clear_denominators(), den.clear_denominators()
            c = num.leading() * d.leading() / (den.leading() * n.leading())
            g = gcd(n, d)
            if g.degree > 0:
                n, d = n // g, d // g
            lc = d.leading()
            num = RatPoly([x * c / lc for x in n.coeffs])
            den = RatPoly([Fraction(x, lc) for x in d.coeffs])
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
        if isinstance(value, RatPoly):
            return RationalFunctionW(value)
        if isinstance(value, IntPoly):
            return RationalFunctionW(value.to_rat())
        return RationalFunctionW(RatPoly([Fraction(value)]))

    @staticmethod
    def variable() -> "RationalFunctionW":
        return RationalFunctionW(RatPoly([0, 1]))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunctionW):
            other = RationalFunctionW.of(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        o = RationalFunctionW.of(other)
        return RationalFunctionW(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-RationalFunctionW.of(other))

    def __rsub__(self, other):
        return RationalFunctionW.of(other) - self

    def __neg__(self):
        return RationalFunctionW(-self.num, self.den)

    def __mul__(self, other):
        o = RationalFunctionW.of(other)
        return RationalFunctionW(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RationalFunctionW.of(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunctionW(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return RationalFunctionW.of(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return (RationalFunctionW.of(1) / self) ** (-n)
        result = RationalFunctionW.of(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: Fraction) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError("pole at evaluation point")
        return self.num(x) / d

    def substitute(self, inner: "RationalFunctionW") -> "RationalFunctionW":
        """Composition self(inner)."""
        num = RationalFunctionW.of(0)
        for c in reversed(self.num.coeffs):
            num = num * inner + Fraction(c)
        den = RationalFunctionW.of(0)
        for c in reversed(self.den.coeffs):
            den = den * inner + Fraction(c)
        return num / den

    def __repr__(self):
        return f"RationalFunctionW({self.num!r} / {self.den!r})"


def ratfunc_sign_at(f: RationalFunctionW, x: AlgebraicReal) -> int:
    """Exact sign of f(x); raises on a pole."""
    sden = sign_at(f.den, x)
    if sden == 0:
        raise ZeroDivisionError("pole at algebraic point")
    return sign_at(f.num, x) * sden


def ratfunc_compare(f: RationalFunctionW, c, x: AlgebraicReal) -> int:
    """Exact sign of f(x) - c at an algebraic point (c rational)."""
    shifted = f - RationalFunctionW.of(Fraction(c))
    return ratfunc_sign_at(shifted, x)


# ---------------------------------------------------------------------------
# minimal polynomials of values f(alpha)
# ---------------------------------------------------------------------------

def minpoly_of_value(f: RationalFunctionW, alpha: AlgebraicReal) -> IntPoly:
    """Minimal polynomial over QQ of f(alpha).

    Computed as the squarefree part of Res_w(m(w), x den(w) - num(w)),
    interpolated from rational specializations of x; primitive with
    positive leading coefficient.  Each specialization G is scaled to
    an integer polynomial G = c G_int, and Res(m, G) = c^deg(m)
    Res(m, G_int) because the scale only multiplies the values of G at
    the deg(m) roots of the monic m.  When m is irreducible (the case
    in every pipeline use: m is a Salem trace polynomial) the squarefree
    resultant is exactly the minimal polynomial, so no factor selection
    is needed; minimality requires m irreducible.
    """
    m = alpha.minpoly
    if f.num.degree <= 0 and f.den.degree <= 0:
        c = Fraction(0) if f.num.is_zero() else f.num.coeffs[0] / f.den.coeffs[0]
        return minpoly_of_rational(c)
    if sign_at(f.den, alpha) == 0:
        raise ZeroDivisionError("pole of f at alpha")
    deg = m.degree
    xs = [Fraction(k) for k in range(deg + 1)]
    ys = []
    for x0 in xs:
        g = f.den * x0 - f.num
        g_int = g.clear_denominators()
        ys.append((g.leading() / g_int.leading()) ** deg * resultant(m, g_int))
    r = interpolate(xs, ys).clear_denominators()
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

    Works in the quotient QQ(w)[delta]/(delta^2 - w delta + 1), where
    1/delta = w - delta; the input is symmetric iff the delta-component
    of the reduced value vanishes, which is asserted.  Substituting
    w = delta + 1/delta back recovers the input exactly.
    """
    w = RationalFunctionW.variable()

    def reduce_poly(p: RatPoly) -> tuple[RationalFunctionW, RationalFunctionW]:
        # evaluate p at delta by Horner in the quotient ring: (a + b*delta)
        a, b = RationalFunctionW.of(0), RationalFunctionW.of(0)
        for c in reversed(p.coeffs):
            # (a + b d) * d = b d^2 + a d = -b + (a + b w) d
            a, b = -b, a + b * w
            a = a + Fraction(c)
        return a, b

    def invert(a: RationalFunctionW, b: RationalFunctionW):
        # conjugate of a + b delta is (a + b w) - b delta; norm is rational in w
        norm = a * a + a * b * w + b * b
        if norm.is_zero():
            raise ZeroDivisionError("non-invertible denominator in symmetric descent")
        return (a + b * w) / norm, -b / norm

    na, nb = reduce_poly(r.num)
    da, db = reduce_poly(r.den)
    ia, ib = invert(da, db)
    # (na + nb d)(ia + ib d) = na*ia - nb*ib + (na*ib + nb*ia + nb*ib*w) d
    va = na * ia - nb * ib
    vb = na * ib + nb * ia + nb * ib * w
    if not vb.is_zero():
        raise PolynomialDomainError("input is not symmetric under delta -> 1/delta")
    return va


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
