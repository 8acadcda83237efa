"""Rank-22 hypergeometric lattices from polynomial pairs.

Given a coprime pair of a monic anti-palindromic phi and a monic
palindromic psi, both of degree 22, the lattice is the span of the
orbit of a cyclic vector r under the companion matrix A of phi, with
the even symmetric bilinear form (A^i r, A^j r) = xi_|i-j| read off the
expansion psi(z)/phi(z) = 1 + sum xi_i z^(-i) at infinity (xi_0 is set
to 2).  The lattice is unimodular exactly when Res(phi, psi) = +-1, and
after renormalization (negate if the index is positive) the accepted
pairs carry the intersection form of a K3 lattice, of signature (3,19).

The pipeline path (build, unimodularity gate, signature stage) is
integer arithmetic.  build derives the trace polynomials Phi, Psi of
phi, psi once, for the resultant, the signature and the trace-cluster
dissection; the Gram is built by its first reader (LatticeModel.gram).
The one signature stage, signature_and_renormalize, reads the signature
off a Cauchy index of Phi and Psi; only a pair whose index gives
(3, 19), or whose phi is not squarefree so that no index is read, reads
the Gram, for the one symmetric elimination that cross-checks the
index.  The companion B of psi is built only for the
structural check that C = A^(-1) B is a reflection, in integers:
B = A (I - e_0 g_0^T), tied to psi by one integer matrix identity; no
verdict reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algnum import TWO, _variations_at, signed_remainders, sturm_chain
from .intpoly import (
    ANTI_PALINDROMIC,
    PALINDROMIC,
    IntPoly,
    palindrome_kind,
    reciprocal,
    resultant,
    series_quotient,
    trace_polynomial,
)
from . import linalg

RANK = 22


class LatticeBuildError(ValueError):
    """A (phi, psi) pair violating the build preconditions."""


def series_coefficients(psi: IntPoly, phi: IntPoly, count: int) -> list[int]:
    """Coefficients xi_1..xi_count of psi/phi = 1 + sum xi_i z^(-i).

    Both polynomials monic of equal degree; the expansion at infinity is
    the Taylor series of the reciprocal quotient at zero.
    """
    return series_quotient(reciprocal(psi), reciprocal(phi), count + 1)[1:]


@dataclass
class LatticeModel:
    """The lattice data for one pair, in the A-orbit basis r, Ar, ...

    Only what the pipeline reads; the companion A of phi is
    companion(phi), and the matrix of B is computed on demand by
    reflection_factor, for the structural checks.  The Gram is a view,
    built on first read.
    """

    phi: IntPoly
    psi: IntPoly
    phi_trace: IntPoly     # Phi, with phi = (z^2 - 1) z^10 Phi(z + 1/z)
    psi_trace: IntPoly     # Psi, with psi = z^11 Psi(z + 1/z)
    resultant: int         # Res(phi, psi), nonzero; the unimodularity gate reads it
    signature: tuple[int, int] | None = None  # set by signature_and_renormalize
    renormalized: bool = False

    @cached_property
    def gram(self) -> list:
        """The xi_|i-j| Toeplitz form, negated when renormalized."""
        xs = [2] + series_coefficients(self.psi, self.phi, RANK - 1)
        if self.renormalized:
            xs = [-x for x in xs]
        return [[xs[abs(i - j)] for j in range(RANK)] for i in range(RANK)]


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
    """The lattice model, Res(phi, psi) read off Phi and Psi, no Gram;
    raises LatticeBuildError on bad input."""
    if phi.degree != RANK or psi.degree != RANK:
        raise LatticeBuildError("both polynomials must have degree 22")
    if not (phi.is_monic() and psi.is_monic()):
        raise LatticeBuildError("both polynomials must be monic")
    if palindrome_kind(phi) != ANTI_PALINDROMIC:
        raise LatticeBuildError("phi must be anti-palindromic")
    if palindrome_kind(psi) != PALINDROMIC:
        raise LatticeBuildError("psi must be palindromic")
    tr_phi, tr_psi = trace_polynomial(phi), trace_polynomial(psi)
    res = (-1) ** tr_psi.degree * tr_psi(2) * tr_psi(-2) * resultant(tr_phi, tr_psi) ** 2
    if res == 0:
        raise LatticeBuildError("phi and psi must be coprime")
    return LatticeModel(phi=phi, psi=psi, phi_trace=tr_phi, psi_trace=tr_psi, resultant=res)


def unimodularity_gate(model: LatticeModel) -> bool:
    """Res(phi, psi) = +-1; signature_and_renormalize cross-checks it
    against |det gram| = 1 whenever it eliminates the Gram.

    build reads Res(phi, psi) at half the degree.  For monic palindromic
    p, q of even degree with trace polynomials P, Q, Res(p, q) = Res(P, Q)^2
    (the roots of p pair as a, 1/a, and q(a) = a^m Q(a + 1/a)); and
    Res(z^2 - 1, psi) = psi(1) psi(-1) = (-1)^m Psi(2) Psi(-2) for
    deg psi = 2m.  So Res(phi, psi) = -Psi(2) Psi(-2) Res(Phi, Psi)^2."""
    return abs(model.resultant) == 1


def _index_signature(model: LatticeModel) -> tuple[int, int] | None:
    """The (pos, neg) of the form as built, from one Cauchy index of the
    trace polynomials and no elimination; None when phi is not
    squarefree.

    The form is diagonal over C on the eigenvectors of A, one per root
    lam of phi, with weight psi(lam) / (lam phi'(lam)) (Beukers-Heckman).
    With Phi, Psi the model's trace polynomials and t = lam + 1/lam:
    a root t of Phi in (-2, 2) is a conjugate pair on the unit circle
    spanning a definite plane of sign -sign(Psi(t) Phi'(t)); every other
    root of Phi, real outside [-2, 2] or not real, spans a split plane,
    (1, 1); and z = +-1 adds one line of sign psi(+-1) (+-1) phi'(+-1),
    which is 2 Phi(2) Psi(2) at 1 and -2 Phi(-2) Psi(-2) at -1.
    The Sturm-Sylvester theorem (``algnum.signed_remainders``) gives
    I = V(-2) - V(2) over the signed remainders of (Phi, Psi mod Phi) as
    the sum of sign(Psi(t) Phi'(t)) over the roots in (-2, 2), so the
    count of those roots cancels: pos = deg Phi - I + #{+1 lines} and
    neg = deg Phi + I + #{-1 lines}.  phi is squarefree exactly when Phi is
    and Phi(+-2) != 0, which one Sturm chain of Phi decides.
    """
    tr_phi, tr_psi = model.phi_trace, model.psi_trace
    if tr_phi(2) == 0 or tr_phi(-2) == 0 or len(sturm_chain(tr_phi)[-1]) > 1:
        return None
    chain = signed_remainders(tr_phi, tr_psi.rem_monic(tr_phi))
    if len(chain[-1]) != 1:
        raise LatticeBuildError("trace polynomials of a coprime pair share a root")
    index = _variations_at(chain, -TWO) - _variations_at(chain, TWO)
    lines = [2 * tr_phi(2) * tr_psi(2), -2 * tr_phi(-2) * tr_psi(-2)]
    if 0 in lines:
        raise LatticeBuildError("phi'(+-1) psi(+-1) vanishes past the resultant gate")
    return (tr_phi.degree - index + sum(v > 0 for v in lines),
            tr_phi.degree + index + sum(v < 0 for v in lines))


def signature_and_renormalize(model: LatticeModel) -> LatticeModel:
    """The signature stage: the signature of the form, negated when the
    index is positive.  Idempotent.

    The signature is read off _index_signature.  Only when that gives
    (3, 19) after renormalization, or gives nothing (phi not
    squarefree), does one symmetric elimination of the Gram matrix
    certify it, checked three ways: the Gram is not singular, a unit
    resultant gives |det gram| = 1, and its (pos, neg) is the index's
    when there is one.  Renormalizing sets the flag and drops a Gram
    already read, so the next read builds the negated form: the
    intersection form used by all downstream Picard-lattice computations.
    """
    if model.signature is not None:
        return model
    index = _index_signature(model)
    if index is None or sorted(index) == [3, 19]:
        (pos, neg, zero), det = linalg.inertia(model.gram)
        if zero:
            raise LatticeBuildError("singular Gram matrix past the unimodularity gate")
        if abs(model.resultant) == 1 and abs(det) != 1:
            raise LatticeBuildError("unimodular resultant but non-unimodular Gram matrix")
        if index not in (None, (pos, neg)):
            raise LatticeBuildError(f"signature {index} from the trace polynomials "
                                    f"but {(pos, neg)} from the Gram elimination")
    else:
        pos, neg = index
    if pos > neg:
        vars(model).pop("gram", None)
        model.renormalized = True
        pos, neg = neg, pos
    model.signature = (pos, neg)
    return model


def reflection_factor(model: LatticeModel) -> list:
    """C = A^(-1) B on the A-basis; an involution with rank(C - I) = 1.

    B is built here, by _b_matrix_in_a_basis, and not kept; C is its
    columns pushed through the integer shift A^(-1).
    """
    b_cols = linalg.transpose(_b_matrix_in_a_basis(model.phi, model.psi))
    return linalg.transpose([_companion_inverse_apply(model.phi, col) for col in b_cols])
