"""Dense exact univariate polynomials over ZZ.

A polynomial is stored as a tuple of coefficients in ascending degree
order with no trailing zeros, so ``IntPoly([1, -1, -1, -1, 1])`` is
``z^4 - z^3 - z^2 - z + 1``.  Everything here is bit-exact: every
resultant and gcd reads one subresultant remainder sequence, generic
over the coefficient ring (ZZ here, Z[w] and Z[w]/(st) in ``picard2``),
interpolation is Newton's divided differences in integers, cyclotomic
polynomials come from exact division of ``z^n - 1``, and the
(anti-)palindromic trace-polynomial transform is verified by
back-substitution.  These polynomials are the common currency of the
whole package (Salem factors, cyclotomic factors, characteristic
polynomials, trace polynomials).  The one pseudo-remainder (``prem``)
serves both the subresultant PRS and the Sturm chains of ``algnum``.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable, Sequence


class PolynomialDomainError(ValueError):
    """Raised when an operation's domain precondition fails."""


def _strip(coeffs: Sequence) -> tuple:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def _product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficient list of the product of two ascending lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


class IntPoly:
    """Polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = _strip(tuple(map(int, coeffs)))
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("IntPoly is immutable")

    def __reduce__(self):
        return (IntPoly, (self.coeffs,))

    # -- basic structure ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def leading(self) -> int:
        if not self.coeffs:
            raise PolynomialDomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        return IntPoly(_product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise PolynomialDomainError("negative power")
        result, base = IntPoly([1]), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "IntPoly":
        """Multiply by z^k."""
        if not self.coeffs:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def __call__(self, x):
        """Evaluate by Horner; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, other: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Exact quotient/remainder; requires divisibility of leading terms
        at every step (always holds for monic divisors)."""
        if other.is_zero():
            raise PolynomialDomainError("division by zero polynomial")
        rem = list(self.coeffs)
        dv = other.coeffs
        dd = other.degree
        lc = other.leading()
        quo = [0] * max(len(rem) - dd, 0)
        for k in range(len(rem) - dd - 1, -1, -1):
            head = rem[k + dd]
            if head == 0:
                continue
            q, r = divmod(head, lc)
            if r != 0:
                raise PolynomialDomainError("inexact integer polynomial division")
            quo[k] = q
            for i, c in enumerate(dv):
                rem[k + i] -= q * c
        return IntPoly(quo), IntPoly(rem)

    def rem_monic(self, mod: "IntPoly") -> "IntPoly":
        """self mod a monic mod."""
        return _rem_monic(list(self.coeffs), mod.coeffs)

    def mul_mod(self, other: "IntPoly", mod: "IntPoly") -> "IntPoly":
        """self * other mod a monic mod, the product and its reduction in
        one pass over coefficient lists."""
        return _rem_monic(_product(self.coeffs, other.coeffs), mod.coeffs)

    def __floordiv__(self, other: "IntPoly") -> "IntPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise PolynomialDomainError("polynomial division is not exact")
        return q

    def divides(self, other: "IntPoly") -> bool:
        try:
            _, r = other.divmod(self)
        except PolynomialDomainError:
            return False
        return r.is_zero()

    def content(self) -> int:
        return math.gcd(*self.coeffs)

    def primitive(self) -> "IntPoly":
        """Primitive part with positive leading coefficient."""
        if self.is_zero():
            return self
        g = self.content()
        if self.leading() < 0:
            g = -g
        return IntPoly([c // g for c in self.coeffs])

    def signed_primitive(self) -> "IntPoly":
        """self over its (positive) content: primitive, with the sign of
        self at every point, so a negative leading coefficient stays."""
        if self.is_zero():
            return self
        g = self.content()
        return IntPoly([c // g for c in self.coeffs])

    def text(self) -> str:
        """Bracketed ascending coefficient list, e.g. "[1,-1,-1,-1,1]"."""
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    @staticmethod
    def from_text(s: str) -> "IntPoly":
        s = s.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise PolynomialDomainError(f"bad polynomial text {s!r}")
        body = s[1:-1].strip()
        if not body:
            return IntPoly()
        try:
            return IntPoly([int(t) for t in body.split(",")])
        except ValueError:
            raise PolynomialDomainError(f"bad polynomial text {s!r}") from None


def _rem_monic(r: list[int], mod: tuple) -> IntPoly:
    """The remainder of the ascending list r (consumed) modulo the monic
    coefficient tuple mod of degree n: each top coefficient c of r, of
    degree k from the highest down to n, subtracts c z^(k - n) mod, with
    no quotient kept."""
    n = len(mod) - 1
    low = mod[:-1]
    for k in range(len(r) - 1, n - 1, -1):
        c = r.pop()
        if c:
            for i, m in enumerate(low, k - n):
                if m:
                    r[i] -= c * m
    return IntPoly(r)


# ---------------------------------------------------------------------------
# reciprocal / palindromic structure
# ---------------------------------------------------------------------------

PALINDROMIC = "palindromic"
ANTI_PALINDROMIC = "anti-palindromic"
NEITHER = "neither"


def reciprocal(u: IntPoly) -> IntPoly:
    """The reciprocal z^deg(u) * u(1/z), i.e. coefficients reversed."""
    if u.is_zero():
        raise PolynomialDomainError("reciprocal of zero polynomial")
    return IntPoly(tuple(reversed(u.coeffs)))


def palindrome_kind(u: IntPoly) -> str:
    """Classify u as palindromic (u† = u), anti-palindromic (u† = -u) or neither."""
    r = reciprocal(u)
    if r == u:
        return PALINDROMIC
    if r == -u:
        return ANTI_PALINDROMIC
    return NEITHER


def trace_polynomial(u: IntPoly) -> IntPoly:
    """Trace polynomial U(w) of a (anti-)palindromic polynomial of even degree.

    For palindromic u of degree 2m this is the unique U of degree m with
    u(z) = z^m U(z + 1/z); for anti-palindromic u of degree 2m the unique
    U of degree m-1 with u(z) = (z-1)(z+1) z^(m-1) U(z + 1/z).  The result
    is verified by back-substitution.
    """
    kind = palindrome_kind(u)
    if u.degree % 2 != 0:
        raise PolynomialDomainError("trace polynomial needs even degree")
    if kind == ANTI_PALINDROMIC:
        v = u // IntPoly([-1, 0, 1])  # divide out (z-1)(z+1)
        return trace_polynomial(v)
    if kind != PALINDROMIC:
        raise PolynomialDomainError("polynomial is neither palindromic nor anti-palindromic")
    m = u.degree // 2
    rem = list(u.coeffs) + [0] * (2 * m + 1 - len(u.coeffs))
    out = [0] * (m + 1)
    # peel off U_k z^(m-k) (z^2+1)^k = U_k sum_i C(k, i) z^(m-k+2i) from
    # the top coefficient downwards
    for k in range(m, -1, -1):
        c = rem[m + k]
        out[k] = c
        if c:
            for i in range(k + 1):
                rem[m - k + 2 * i] -= c * math.comb(k, i)
    if any(rem):
        raise PolynomialDomainError("trace polynomial back-substitution failed")
    return IntPoly(out)


def from_trace_polynomial(tr: IntPoly) -> IntPoly:
    """Palindromic z^m U(z + 1/z) for U = tr of degree m."""
    m = tr.degree
    if m < 0:
        raise PolynomialDomainError("zero trace polynomial")
    zz1 = IntPoly([1, 0, 1])
    acc = IntPoly()
    for k, c in enumerate(tr.coeffs):
        if c:
            acc = acc + (zz1 ** k).shift(m - k) * c
    return acc


def unramified(u: IntPoly) -> bool:
    """True iff |u(1)| = |u(-1)| = 1 (for palindromic u).

    For palindromic even degree 2m this additionally checks the sign
    relation u(1) u(-1) = (-1)^m, a classical constraint on unramified
    palindromic polynomials.
    """
    if palindrome_kind(u) != PALINDROMIC:
        raise PolynomialDomainError("unramifiedness is defined for palindromic polynomials")
    v1, v2 = u(1), u(-1)
    ok = abs(v1) == 1 and abs(v2) == 1
    if ok and u.degree % 2 == 0:
        m = u.degree // 2
        if v1 * v2 != (-1) ** m:
            raise PolynomialDomainError("sign relation u(1)u(-1) = (-1)^m violated")
    return ok


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

def _divisors(n: int) -> list[int]:
    ds = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            ds.append(d)
            if d != n // d:
                ds.append(n // d)
        d += 1
    return sorted(ds)


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial C_n(z), classical convention
    (C_1 = z - 1, C_2 = z + 1)."""
    if n < 1:
        raise PolynomialDomainError("cyclotomic index must be >= 1")
    num = IntPoly([-1] + [0] * (n - 1) + [1])  # z^n - 1
    for d in _divisors(n)[:-1]:
        num = num // cyclotomic(d)
    return num


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    phi, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            phi -= phi // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        phi -= phi // m
    return phi


def cyclotomic_indices_up_to_degree(bound: int) -> list[int]:
    """All n >= 1 with euler_phi(n) <= bound.  Uses phi(n) >= sqrt(n/2)."""
    out = [n for n in range(1, 2 * bound * bound + 2) if euler_phi(n) <= bound]
    return out


def cyclotomic_salem_split(u: IntPoly) -> tuple[dict[int, int], IntPoly]:
    """Divide out every cyclotomic factor to maximal multiplicity.

    Returns ({index: multiplicity}, cyclotomic-free residual).  Candidate
    indices are the finitely many n with euler_phi(n) <= deg u.
    """
    if not u.is_monic():
        raise PolynomialDomainError("cyclotomic/Salem split needs a monic polynomial")
    part: dict[int, int] = {}
    residual = u
    for n in cyclotomic_indices_up_to_degree(u.degree):
        cn = cyclotomic(n)
        while cn.degree <= residual.degree and cn.divides(residual):
            part[n] = part.get(n, 0) + 1
            residual = residual // cn
    return part, residual


# ---------------------------------------------------------------------------
# the subresultant PRS, and the resultants and gcds read off it
# ---------------------------------------------------------------------------

class IntegerRing:
    """ZZ as a coefficient ring of ``subresultants``, which reads ``one``,
    ``reduce``, ``mul`` and ``divide``, an exact division of a list of
    values, checked."""

    one, mul, reduce = 1, staticmethod(operator.mul), staticmethod(operator.pos)

    @staticmethod
    def divide(values: list[int], c: int) -> list[int]:
        if any(v % c for v in values):
            raise PolynomialDomainError("inexact division in ZZ")
        return [v // c for v in values]


Z = IntegerRing()


def prem(ring, a: list, b: list) -> list:
    """The pseudo-remainder lc(b)^(len(a) - len(b) + 1) a mod b over a
    coefficient ring, on ascending coefficient lists with
    len(a) >= len(b) >= 1, trailing zeros stripped: r <- lc(b) r - head
    z^k b, once for each k from len(a) - len(b) down to 0."""
    mul, lc, r = ring.mul, b[-1], list(a)
    for k in range(len(a) - len(b), -1, -1):
        head = r.pop()  # lc(b) head - head lc(b) cancels at the top
        r = [mul(c, lc) for c in r]
        for i, c in enumerate(b[:-1]):
            r[k + i] = r[k + i] - mul(head, c)
    while r and not r[-1]:
        r.pop()
    return r


def subresultants(ring, a: list, b: list):
    """The subresultant PRS of a, b over an integral domain (Collins; Brown;
    Cohen, *A Course in Computational Algebraic Number Theory*, 3.3.1) on
    ascending coefficient lists, len(a) >= len(b) >= 1.

    Yields each consecutive pair (a, b) with the running h, the input
    pair first, and stops after a pair whose b is constant or leaves a
    zero pseudo-remainder (``prem``), so the last b is gcd(a, b) up to a
    nonzero factor of the ring.  The division of each pseudo-remainder by
    g h^delta is exact, and checked."""
    mul, g, h = ring.mul, ring.one, ring.one
    while True:
        yield a, b, h
        if len(b) == 1:
            return
        delta = len(a) - len(b)
        r = prem(ring, a, b)
        if not r:
            return
        a, b = b, ring.divide(r, mul(g, ring.reduce(h ** delta)))
        g = a[-1]
        if delta == 1:  # h = g^delta / h^(delta - 1) = g
            h = g
        elif delta:
            h = ring.divide([ring.reduce(g ** delta)], ring.reduce(h ** (delta - 1)))[0]


def last_subresultant(ring, a: list, b: list) -> list:
    """gcd(a, b) of nonzero a, b up to a nonzero factor of the ring: the
    last nonzero term of their subresultant PRS, constant if trivial."""
    if len(a) < len(b):
        a, b = b, a
    for _, b, _ in subresultants(ring, a, b):
        pass
    return b


def resultant(u: IntPoly, v: IntPoly) -> int:
    """Exact resultant Res(u, v) over ZZ via the subresultant PRS.

    Sign convention: Res(u, v) = lc(u)^deg(v) * prod v(alpha_i) over the
    roots of u, so Res(u, v) = (-1)^(deg u * deg v) Res(v, u).  All
    intermediate divisions are exact integer divisions; no floating
    point is involved anywhere.
    """
    if u.is_zero() or v.is_zero():
        raise PolynomialDomainError("resultant of zero polynomial")
    a, b, s = list(u.coeffs), list(v.coeffs), 1
    if len(a) < len(b):
        s = (-1) ** (u.degree * v.degree)
        a, b = b, a
    for a, b, h in subresultants(Z, a, b):
        if len(a) % 2 == 0 and len(b) % 2 == 0:  # both degrees odd
            s = -s
    if len(b) > 1:
        return 0
    da = len(a) - 1  # b = [b0] ends the PRS: Res = s b0^da / h^(da-1)
    return s * Z.divide([b[0] ** da], h ** max(da - 1, 0))[0]


def gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd in ZZ[z] (positive leading coefficient); gcd(a, 0) is
    a.primitive()."""
    if a.is_zero() or b.is_zero():
        return (a or b).primitive()
    return IntPoly(last_subresultant(Z, list(a.coeffs), list(b.coeffs))).primitive()


def squarefree_part(p: IntPoly) -> IntPoly:
    """p / gcd(p, p'), primitive with positive leading coefficient (the
    exact quotient of two such polynomials is one, by Gauss's lemma)."""
    if p.is_zero():
        raise PolynomialDomainError("zero polynomial")
    return p.primitive() // gcd(p, p.derivative())


def interpolate(ys: Sequence[int]) -> IntPoly:
    """The integer polynomial of degree < len(ys) whose value at x = i is
    ys[i], by Newton's divided differences at the nodes 0..n-1 in
    integers: the k-th order differences of an integer polynomial are
    k! times integers, so each order-k step divides exactly by k
    (Knuth, TAOCP vol. 2, 4.6.4).  A nonzero remainder means no integer
    polynomial takes these values, and raises."""
    dd = [int(y) for y in ys]
    n = len(dd)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            dd[i], r = divmod(dd[i] - dd[i - 1], k)
            if r:
                raise PolynomialDomainError("values of no integer polynomial")
    acc: list[int] = []
    for k in range(n - 1, -1, -1):
        # acc <- acc * (z - k) + dd[k], Horner on the Newton form
        acc = [dd[k]] + acc
        for i in range(len(acc) - 1):
            acc[i] -= k * acc[i + 1]
    return IntPoly(acc)


def series_quotient(num: IntPoly, den: IntPoly, count: int) -> list[int]:
    """The coefficients of z^0 .. z^(count-1) in the power series of
    num(z) / den(z) at zero.  den(0) = 1, so they are integers:
    q_k = num_k - sum_(j >= 1) den_j q_(k-j)."""
    if den[0] != 1:
        raise PolynomialDomainError("series_quotient needs den(0) = 1")
    d = den.coeffs
    q: list[int] = []
    for k in range(count):
        q.append(num[k] - sum(d[j] * q[k - j] for j in range(1, min(k, len(d) - 1) + 1)))
    return q


def newton_traces(phi: IntPoly, n_terms: int) -> list[int]:
    """Power sums sum(lambda_i^n) for n = 1..n_terms of the roots of a
    monic phi.

    Read off the logarithmic derivative of the reciprocal polynomial:
    -z d/dz log(phi†(z)) = sum_n Tr(F^n) z^n for the companion F of phi,
    and phi† has constant term 1.
    """
    rc = reciprocal(phi)
    return series_quotient(-rc.derivative(), rc, n_terms)
