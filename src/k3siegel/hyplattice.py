"""Rank-22 hypergeometric lattices from polynomial pairs.

Given a coprime pair of a monic anti-palindromic phi and a monic
palindromic psi, both of degree 22, the lattice is the span of the
orbit of a cyclic vector r under the companion matrix A of phi, with
the even symmetric bilinear form (A^i r, A^j r) = xi_|i-j| read off the
expansion psi(z)/phi(z) = 1 + sum xi_i z^(-i) at infinity (xi_0 is set
to 2).  The lattice is unimodular exactly when Res(phi, psi) = +-1, and
after renormalization (negate if the index is positive) the accepted
pairs carry the intersection form of a K3 lattice, of signature (3,19).

The pipeline path (build, unimodularity gate, signature) is integer
arithmetic, with one symmetric elimination of the Gram matrix.  The
companion B of psi is built only on demand, by exact rational solves,
for the structural check that C = A^(-1) B is a reflection; no verdict
reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intpoly import (
    ANTI_PALINDROMIC,
    PALINDROMIC,
    IntPoly,
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
    """The lattice data for one pair, in the A-orbit basis r, Ar, ...

    Only what the pipeline reads; the matrix of B is computed on demand
    by reflection_factor, for the structural checks.
    """

    phi: IntPoly
    psi: IntPoly
    a_mat: list            # companion of phi (A-basis coordinates)
    gram: list             # xi_|i-j| Toeplitz form, possibly renormalized
    resultant: int         # Res(phi, psi), nonzero; the unimodularity gate reads it
    signature: tuple[int, int] = (0, 0)
    renormalized: bool = False
    elimination: tuple | None = None  # (inertia, det) of gram, see _eliminate


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
    expressed on it by exact rational solves.  The result must be
    integral; a fractional entry raises LatticeBuildError.  Past the
    build preconditions phi(0) = -1, so A^(-1), r and C are integral and
    B = AC preserves the lattice.
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
    res = resultant(phi, psi)
    if res == 0:
        raise LatticeBuildError("phi and psi must be coprime")

    xs = [2] + series_coefficients(psi, phi, RANK - 1)
    gram = [[xs[abs(i - j)] for j in range(RANK)] for i in range(RANK)]
    return LatticeModel(phi=phi, psi=psi, a_mat=companion(phi), gram=gram,
                        resultant=res)


def _eliminate(model: LatticeModel) -> tuple[tuple[int, int, int], int]:
    """Inertia and determinant of the Gram matrix, from the one symmetric
    elimination the unimodularity gate and the signature both read."""
    if model.elimination is None:
        model.elimination = linalg.inertia_and_det(model.gram)
    return model.elimination


def unimodularity_gate(model: LatticeModel) -> bool:
    """Res(phi, psi) = +-1, cross-checked against |det gram| = 1."""
    if abs(model.resultant) != 1:
        return False
    if abs(_eliminate(model)[1]) != 1:
        raise LatticeBuildError("unimodular resultant but non-unimodular Gram matrix")
    return True


def signature_and_renormalize(model: LatticeModel) -> LatticeModel:
    """Certify the inertia of the form; negate it when the index is positive.

    The renormalized bilinear form is the intersection form used by all
    downstream Picard-lattice computations.
    """
    (pos, neg, zero), det = _eliminate(model)
    if zero:
        raise LatticeBuildError("singular Gram matrix past the unimodularity gate")
    if pos - neg > 0:
        model.gram = linalg.mat_neg(model.gram)
        model.renormalized = True
        pos, neg = neg, pos
        model.elimination = (pos, neg, zero), det  # RANK is even
    model.signature = (pos, neg)
    return model


def reflection_factor(model: LatticeModel) -> list:
    """C = A^(-1) B on the A-basis; an involution with rank(C - I) = 1.

    B is built here, from the companion of psi, and not kept.
    """
    b_mat = _b_matrix_in_a_basis(model.phi, model.psi)
    c = linalg.mat_mul(linalg.inverse(model.a_mat), b_mat)
    return [[int(x) for x in row] for row in c]
