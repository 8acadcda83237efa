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
companion B of psi is built only for the structural check that
C = A^(-1) B is a reflection, in integers: B = A (I - e_0 g_0^T), tied
to psi by one integer matrix identity; no verdict reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _companion_inverse_apply(p: IntPoly, x: list) -> list:
    """A^(-1) x for the companion A of a monic p with p(0) = -1.

    A e_i = e_(i+1) and A e_(n-1) = -sum p_i e_i, so A^(-1) is the shift
    (A^(-1) x)_k = x_(k+1) + x_0 p_(k+1), with x_n = 0 and p_n = 1.
    """
    n = p.degree
    return [(x[k + 1] if k + 1 < n else 0) + x[0] * p[k + 1] for k in range(n)]


def _b_matrix_in_a_basis(phi: IntPoly, psi: IntPoly) -> list:
    """Matrix of the companion B of psi on the A-orbit basis of r.

    On that basis C = A^(-1) B is the reflection in r = e_0, so
    B = A (I - e_0 g_0^T) with g_0 = [2, xi_1, ..., xi_21] row 0 of the
    Gram matrix: A with g_0 taken off its row 1.  The tie to psi is
    independent of the series: in standard coordinates, with A and B_std
    the companions of phi and psi, r = A^(-1) B_std e_n - e_n and the
    integral P = [r, Ar, ..., A^21 r] must satisfy P B = B_std P with
    det P != 0, else LatticeBuildError.  phi(0) = -1 (true past the
    build preconditions) makes A^(-1) an integer shift.
    """
    n = phi.degree
    if phi[0] != -1:
        raise LatticeBuildError("phi(0) must be -1 for an integral A^(-1)")
    a_std, b_std = companion(phi), companion(psi)
    g0 = [2] + series_coefficients(psi, phi, n - 1)
    b_mat = [list(row) for row in a_std]
    b_mat[1] = [x - g for x, g in zip(b_mat[1], g0)]
    r = _companion_inverse_apply(phi, [row[n - 1] for row in b_std])
    r[n - 1] -= 1
    cols = [r]
    for _ in range(n - 1):
        cols.append(linalg.mat_vec(a_std, cols[-1]))
    p_mat = linalg.transpose(cols)
    if (not linalg.mat_eq(linalg.mat_mul(p_mat, b_mat), linalg.mat_mul(b_std, p_mat))
            or linalg.bareiss_det(p_mat) == 0):
        raise LatticeBuildError("B does not match the companion of psi on the A-orbit basis")
    return b_mat


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
        model.elimination = linalg.inertia(model.gram)
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

    B is built here, by _b_matrix_in_a_basis, and not kept; C is its
    columns pushed through the integer shift A^(-1).
    """
    b_cols = linalg.transpose(_b_matrix_in_a_basis(model.phi, model.psi))
    return linalg.transpose([_companion_inverse_apply(model.phi, col) for col in b_cols])
