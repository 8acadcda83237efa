"""Rank-22 hypergeometric lattices from polynomial pairs.

Given a coprime pair of a monic anti-palindromic phi and a monic
palindromic psi, both of degree 22, the lattice is the span of the
orbit of a cyclic vector r under the companion matrix A of phi, with
the even symmetric bilinear form (A^i r, A^j r) = xi_|i-j| read off the
expansion psi(z)/phi(z) = 1 + sum xi_i z^(-i) at infinity (xi_0 is set
to 2).  The lattice is unimodular exactly when Res(phi, psi) = +-1, and
after renormalization (negate if the index is positive) the accepted
pairs carry the intersection form of a K3 lattice, of signature (3,19).

Everything is integer arithmetic; rejection conditions are returned as
data rather than raised, so bulk searches can tally failure causes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .intpoly import (
    ANTI_PALINDROMIC,
    PALINDROMIC,
    IntPoly,
    gcd,
    palindrome_kind,
    resultant,
)
from . import linalg

RANK = 22


class LatticeBuildError(ValueError):
    """A (phi, psi) pair violating the build preconditions."""


def series_coefficients(psi: IntPoly, phi: IntPoly, count: int) -> list[int]:
    """Coefficients xi_1..xi_count of psi/phi = 1 + sum xi_i z^(-i).

    Both polynomials monic of equal degree; the expansion at infinity is
    the Taylor series of the reciprocal quotient at zero, which has
    integer coefficients because the denominator has constant term 1.
    """
    n = phi.degree
    pc = [phi[n - i] for i in range(n + 1)]   # reciprocal of phi
    qc = [psi[n - i] for i in range(n + 1)]   # reciprocal of psi
    out = []
    series = [1] + [0] * count
    for k in range(1, count + 1):
        s = qc[k] if k <= n else 0
        for j in range(1, min(k, n) + 1):
            s -= pc[j] * series[k - j]
        series[k] = s
        out.append(s)
    return out


@dataclass
class LatticeModel:
    """The lattice data for one pair, in the A-orbit basis r, Ar, ..."""

    phi: IntPoly
    psi: IntPoly
    a_mat: list            # companion of phi (A-basis coordinates)
    b_mat: list            # matrix of B in the A-basis (integral)
    gram: list             # xi_|i-j| Toeplitz form, possibly renormalized
    gram_b: list           # same form in the B-orbit basis
    signature: tuple[int, int] = (0, 0)
    renormalized: bool = False
    xi: list = field(default_factory=list)


def companion(p: IntPoly) -> list:
    """Companion matrix sending e_i -> e_(i+1), last column from p."""
    n = p.degree
    m = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        m[i + 1][i] = 1
    for i in range(n):
        m[i][n - 1] = -p[i]
    return m


def _b_matrix_in_a_basis(phi: IntPoly, psi: IntPoly) -> list:
    """Matrix of the companion B of psi on the A-orbit basis of r.

    In standard coordinates A and B are the two companion matrices and
    C = A^(-1) B is the reflection negating r = A^(-1) B e_n - e_n; the
    orbit r, Ar, ..., A^21 r is a basis of the common lattice, and B is
    expressed on it by exact rational solves (the result must be
    integral, which is asserted).
    """
    n = phi.degree
    a_std = companion(phi)
    b_std = companion(psi)
    e_last = [[0] for _ in range(n)]
    e_last[n - 1][0] = 1
    v = linalg.solve(a_std, linalg.mat_mul(b_std, e_last))
    r = [v[i][0] - (1 if i == n - 1 else 0) for i in range(n)]
    cols = []
    cur = [Fraction(x) for x in r]
    for _ in range(n):
        cols.append(cur)
        cur = linalg.mat_vec(a_std, cur)
    p_mat = [[cols[j][i] for j in range(n)] for i in range(n)]
    b_on_basis = linalg.solve(p_mat, linalg.mat_mul(b_std, p_mat))
    out = []
    for row in b_on_basis:
        irow = []
        for x in row:
            fx = Fraction(x)
            if fx.denominator != 1:
                raise LatticeBuildError("B does not stabilize the A-orbit lattice")
            irow.append(int(fx))
        out.append(irow)
    return out


def build(phi: IntPoly, psi: IntPoly) -> LatticeModel:
    """Construct the lattice model; raises LatticeBuildError on bad input."""
    if phi.degree != RANK or psi.degree != RANK:
        raise LatticeBuildError("both polynomials must have degree 22")
    if not (phi.is_monic() and psi.is_monic()):
        raise LatticeBuildError("both polynomials must be monic")
    if palindrome_kind(phi) != ANTI_PALINDROMIC:
        raise LatticeBuildError("phi must be anti-palindromic")
    if palindrome_kind(psi) != PALINDROMIC:
        raise LatticeBuildError("psi must be palindromic")
    if gcd(phi, psi).degree > 0:
        raise LatticeBuildError("phi and psi must be coprime")

    xi = series_coefficients(psi, phi, RANK - 1)
    xs = [2] + xi
    gram = [[xs[abs(i - j)] for j in range(RANK)] for i in range(RANK)]
    xi_b = series_coefficients(phi, psi, RANK - 1)
    xs_b = [2] + xi_b
    gram_b = [[xs_b[abs(i - j)] for j in range(RANK)] for i in range(RANK)]
    a_mat = companion(phi)
    b_mat = _b_matrix_in_a_basis(phi, psi)
    return LatticeModel(phi=phi, psi=psi, a_mat=a_mat, b_mat=b_mat,
                        gram=gram, gram_b=gram_b, xi=xs)


def unimodularity_gate(model: LatticeModel) -> bool:
    """Res(phi, psi) = +-1, cross-checked against |det gram| = 1."""
    res = resultant(model.phi, model.psi)
    if abs(res) != 1:
        return False
    if abs(linalg.bareiss_det(model.gram)) != 1:
        raise LatticeBuildError("unimodular resultant but non-unimodular Gram matrix")
    return True


def signature_and_renormalize(model: LatticeModel) -> LatticeModel:
    """Certify the inertia of the form; negate it when the index is positive.

    The renormalized bilinear form is the intersection form used by all
    downstream Picard-lattice computations.
    """
    pos, neg, zero = linalg.inertia(model.gram)
    if zero:
        raise LatticeBuildError("singular Gram matrix past the unimodularity gate")
    if pos - neg > 0:
        model.gram = linalg.mat_neg(model.gram)
        model.gram_b = linalg.mat_neg(model.gram_b)
        model.renormalized = True
        pos, neg = neg, pos
    model.signature = (pos, neg)
    return model


def reflection_factor(model: LatticeModel) -> list:
    """C = A^(-1) B on the A-basis; an involution with rank(C - I) = 1."""
    a_inv = linalg.inverse(model.a_mat)
    c = linalg.mat_mul(a_inv, model.b_mat)
    return [[int(x) for x in row] for row in c]


def basis_change_to_b(model: LatticeModel) -> list:
    """Integral T with columns the B-orbit basis vectors r, Br, ... in
    A-basis coordinates; satisfies T^t gram T = gram_b."""
    n = RANK
    cols = []
    cur = [0] * n
    cur[0] = 1
    for _ in range(n):
        cols.append(list(cur))
        cur = linalg.mat_vec(model.b_mat, cur)
    return [[cols[j][i] for j in range(n)] for i in range(n)]
