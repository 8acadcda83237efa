"""Independent checks in sympy, written from the definitions, not from the program.

Polynomials are lists of integer coefficients in ascending order.
"""

from __future__ import annotations

from sympy import Poly, ZZ, cyclotomic_poly, symbols
from sympy.polys.matrices import DomainMatrix

Z = symbols("z")
X = symbols("x")
S4 = [1, -1, -1, -1, 1]          # the quartic Salem polynomial z^4 - z^3 - z^2 - z + 1
Z2 = [-1, 0, 1]                  # (z - 1)(z + 1)


def poly(coeffs) -> Poly:
    return Poly(list(reversed(list(coeffs))), Z, domain=ZZ)


def product(*factors: Poly) -> Poly:
    out = Poly(1, Z, domain=ZZ)
    for f in factors:
        out = out * f
    return out


def cyclotomic(n: int) -> Poly:
    return Poly(cyclotomic_poly(n, Z), Z, domain=ZZ)


def phi_setup2(cset) -> Poly:
    """(z^2 - 1) S4 prod C_j."""
    return product(poly(Z2), poly(S4), *(cyclotomic(j) for j in cset))


def census_psi(word) -> Poly:
    """The palindromic psi of a census word (c1, ..., c11)."""
    half = [1] + list(word)
    return poly(half + list(reversed(half[:-1])))


def salem_from_trace(trace_desc) -> Poly:
    """z^m T(z + 1/z) from the descending trace-polynomial coefficients."""
    m = len(trace_desc) - 1
    t = Poly(list(trace_desc), X, domain=ZZ)
    expr = (Z ** m * t.as_expr().subs(X, Z + 1 / Z)).expand()
    return Poly(expr, Z, domain=ZZ)


def resultant(a: Poly, b: Poly) -> int:
    return int(a.resultant(b))


def trace_roots_inside(psi: Poly) -> int:
    """Distinct real roots in the open interval (-2, 2) of the trace polynomial T
    of a palindromic psi of even degree 2m, where psi(z) = z^m T(z + 1/z)."""
    a = list(reversed(psi.all_coeffs()))           # ascending
    m = len(a) // 2
    v_prev, v = Poly(2, X, domain=ZZ), Poly(X, X, domain=ZZ)   # z^k + z^-k = V_k(x)
    t = Poly(a[m], X, domain=ZZ)
    for k in range(1, m + 1):
        t = t + a[m + k] * v
        v_prev, v = v, v.mul(Poly(X, X, domain=ZZ)) - v_prev
    inside = t.count_roots(-2, 2)
    return inside - (t.eval(2) == 0) - (t.eval(-2) == 0)


def gram(phi: Poly, psi: Poly) -> list[list[int]]:
    """The Toeplitz form xi_|i-j|, with xi_0 = 2 and psi/phi = 1 + sum xi_i z^-i
    expanded at infinity, for monic phi, psi of equal degree n."""
    n = phi.degree()
    p = phi.all_coeffs()        # descending = coefficients of the reciprocal, ascending
    q = psi.all_coeffs()
    series = [1]
    for k in range(1, n):
        s = q[k] - sum(p[j] * series[k - j] for j in range(1, k + 1))
        series.append(int(s))
    xs = [2] + series[1:]
    return [[xs[abs(i - j)] for j in range(n)] for i in range(n)]


def inertia(matrix: list[list[int]]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric integer
    matrix: its characteristic polynomial has only real roots, so Descartes'
    rule of signs counts them exactly."""
    cp = [int(c) for c in DomainMatrix.from_list(matrix, ZZ).charpoly()]  # descending
    zero = 0
    while cp and cp[-1] == 0:
        cp.pop()
        zero += 1

    def changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    n = len(cp) - 1
    neg_side = [c * (-1) ** (n - i) for i, c in enumerate(cp)]
    return changes(cp), changes(neg_side), zero


def renormalized_signature(phi: Poly, psi: Poly) -> tuple[int, int]:
    """The signature after negating a form whose positive index exceeds its negative one."""
    pos, neg, _ = inertia(gram(phi, psi))
    return (neg, pos) if pos > neg else (pos, neg)


def is_integrality_witness(coeffs) -> bool:
    """A primitive irreducible integer polynomial that is not monic: its roots
    are not algebraic integers."""
    p = poly(coeffs)
    return p.is_irreducible and p.is_primitive and abs(p.LC()) != 1
