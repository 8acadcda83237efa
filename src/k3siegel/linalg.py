"""Exact linear algebra over ZZ and QQ used by the lattice machinery.

Matrices are plain lists of lists (row-major) of ints or Fractions.
Determinants use fraction-free Bareiss elimination.  Every symmetric
integer matrix goes through one fraction-free symmetric elimination,
whose integer minors give the inertia (Jacobi's sign rule and
Sylvester's law), drive the all-integer LLL reduction, and give the
LDL^T decomposition on which an exact Fincke-Pohst enumeration finds
short vectors of the LLL-reduced Gram matrix.  Nothing here ever
touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .intpoly import IntPoly, interpolate

Matrix = list  # list[list[int|Fraction]]


class MatrixDomainError(ValueError):
    """A matrix violating an operation's precondition or postcondition."""


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    bt = [[b[r][c] for r in range(k)] for c in range(m)]
    return [[sum(row[i] * col[i] for i in range(k)) for col in bt] for row in a]


def mat_vec(a: Matrix, v: list) -> list:
    return [sum(row[i] * v[i] for i in range(len(v))) for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a: Matrix) -> Matrix:
    return [[-x for x in row] for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def trace(a: Matrix):
    return sum(a[i][i] for i in range(len(a)))


def bareiss_det(m: Matrix) -> int:
    """Fraction-free determinant of an integer matrix."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve(a: Matrix, rhs: Matrix) -> Matrix:
    """Solve a X = rhs exactly over QQ (a square nonsingular)."""
    n = len(a)
    m = len(rhs[0])
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(rhs[i][j]) for j in range(m)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _symmetric_bareiss(m: Matrix) -> tuple[list[int], Matrix, int]:
    """Fraction-free symmetric elimination of a symmetric integer matrix.

    Right-looking Bareiss, a[i][j] = (a[i][j] p - a[i][k] a[k][j]) / prev,
    exact in ZZ.  Step k pivots on the first nonzero diagonal entry at or
    after k by a symmetric swap; when that whole diagonal is zero it adds
    row and column j to i, making a[i][i] = 2 a[i][j].  Both moves are
    unimodular congruences, so each pivot is a leading principal minor of
    an integer matrix congruent to m.  Returns (minors, lam, zero):
    minors[0] = 1 and minors[k] is the k-th such minor; zero is the size
    of the block left when the remaining entries all vanish; for i > j,
    lam[i][j] is the bordered minor lambda_ij = minors[j+1] mu_ij of the
    integral LLL (Cohen, section 2.6).  A positive definite m is never
    pivoted, so its minors and lam are m's own.
    """
    a = [list(row) for row in m]
    n = len(a)
    minors = [1]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i]), None)
        if piv is None:
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]), None)
            if off is None:
                return minors, a, n - k
            piv, j = off
            a[piv] = [x + y for x, y in zip(a[piv], a[j])]
            for row in a:
                row[piv] += row[j]
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a:
                row[k], row[piv] = row[piv], row[k]
        p, prev, row_k = a[k][k], minors[-1], a[k]
        for i in range(k + 1, n):
            row, f = a[i], a[i][k]
            row[k + 1:] = [(x * p - f * y) // prev for x, y in zip(row[k + 1:], row_k[k + 1:])]
        minors.append(p)
    return minors, a, 0


def inertia_and_det(m: Matrix) -> tuple[tuple[int, int, int], int]:
    """Signature (positive, negative, zero) and determinant of a symmetric
    integer matrix, from one symmetric elimination.

    Jacobi's sign rule on the minors: the k-th pivot of the congruent
    diagonal form has the sign of minors[k] / minors[k-1], so Sylvester's
    law of inertia certifies the counts.  The congruences are unimodular,
    so the last minor is det m, which is 0 when a zero block is left.
    """
    minors, _, zero = _symmetric_bareiss(m)
    neg = sum(1 for p, q in zip(minors, minors[1:]) if (p > 0) != (q > 0))
    return (len(minors) - 1 - neg, neg, zero), 0 if zero else minors[-1]


def inertia(m: Matrix) -> tuple[int, int, int]:
    """Signature (positive, negative, zero) of a symmetric integer matrix."""
    return inertia_and_det(m)[0]


def charpoly(m: Matrix) -> IntPoly:
    """Characteristic polynomial det(zI - M) of an integer matrix.

    Evaluated at n+1 integer points by Bareiss and interpolated over QQ;
    the result is checked to be integral and monic.
    """
    n = len(m)
    if n == 0:
        return IntPoly([1])
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        a = [[(x if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
        ys.append(bareiss_det(a))
    p = interpolate(xs, ys)
    if any(c.denominator != 1 for c in p.coeffs) or p.degree != n or p.leading() != 1:
        raise MatrixDomainError("interpolated characteristic polynomial is not integral and monic")
    return IntPoly(p.coeffs)


# ---------------------------------------------------------------------------
# lattice reduction and short vector enumeration
# ---------------------------------------------------------------------------

def lll_reduce(gram: Matrix) -> tuple[Matrix, Matrix]:
    """LLL-reduce a positive definite integer Gram matrix, with delta = 3/4.

    Returns (reduced Gram, U) with U unimodular and
    reduced = U * gram * U^T.  Gram-matrix formulation: the running Gram
    matrix is updated in place under the congruence row operations, so
    no basis vectors are ever needed.  All-integer (Cohen, section 2.6):
    size reduction and the Lovasz test read the minors d_i and bordered
    minors lambda_ij of the symmetric elimination, which is rerun after
    every swap.  Raises MatrixDomainError unless every minor is positive
    (Sylvester's criterion).
    """
    return _lll(gram)[:2]


def _lll(gram: Matrix) -> tuple[Matrix, Matrix, list[int], Matrix]:
    """``lll_reduce`` plus the minors and the bordered minors lambda_ij (i > j)
    of the reduced Gram, kept exact through size reduction (Cohen, 2.6)."""
    n = len(gram)
    u = identity(n)
    cur = [list(row) for row in gram]  # = U gram U^T

    def row_op(k, j, q):
        u[k] = [a - q * b for a, b in zip(u[k], u[j])]
        for c in range(n):
            cur[k][c] -= q * cur[j][c]
        for r_ in range(n):
            cur[r_][k] -= q * cur[r_][j]

    def swap(k):
        u[k], u[k - 1] = u[k - 1], u[k]
        cur[k], cur[k - 1] = cur[k - 1], cur[k]
        for r_ in range(n):
            cur[r_][k], cur[r_][k - 1] = cur[r_][k - 1], cur[r_][k]

    d, lam, zero = _symmetric_bareiss(cur)
    if zero or any(x <= 0 for x in d):
        raise MatrixDomainError("lll_reduce requires a positive definite Gram matrix")
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = _round_half(lam[k][j], d[j + 1])
            if q != 0:
                row_op(k, j, q)
                # size reduction leaves d fixed and shifts lambda row k
                for l in range(j):
                    lam[k][l] -= q * lam[j][l]
                lam[k][j] -= q * d[j + 1]
        if 4 * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) >= 3 * d[k] ** 2:
            k += 1
        else:
            swap(k)
            d, lam, _ = _symmetric_bareiss(cur)
            k = max(k - 1, 1)
    return cur, u, d, lam


def _round_half(num: int, den: int) -> int:
    # nearest integer to num/den (den > 0), ties toward zero
    q, r = divmod(abs(num), den)
    if 2 * r > den:
        q += 1
    return q if num >= 0 else -q


def _int_range_around(c: Fraction, radius_sq: Fraction) -> range:
    """Integers t with (t - c)^2 <= radius_sq, exactly."""
    if radius_sq < 0:
        return range(0)
    # t in [c - r, c + r]; bounds via integer sqrt of scaled quantities
    num, den = radius_sq.numerator, radius_sq.denominator
    # r = sqrt(num/den); floor((a/b) + r) etc. computed exactly
    lo = _ceil_minus(c, num, den)
    hi = _floor_plus(c, num, den)
    return range(lo, hi + 1)


def _floor_plus(c: Fraction, num: int, den: int) -> int:
    # floor(c + sqrt(num/den))
    a, b = c.numerator, c.denominator
    # floor((a*den + b*sqrt(num*den)) / (b*den))
    s = isqrt(num * den * b * b)
    return (a * den + s) // (b * den)


def _ceil_minus(c: Fraction, num: int, den: int) -> int:
    # ceil(c - sqrt(num/den)) = -floor(-c + sqrt(num/den))
    return -_floor_plus(-c, num, den)


def short_vectors(gram: Matrix, norm: int) -> list[tuple[int, ...]]:
    """All integer vectors x != 0 with x^T gram x == norm, up to sign.

    gram must be positive definite.  One representative per +-pair is
    returned (last nonzero coordinate positive); callers close under
    negation when they need the full set.  Exact Fincke-Pohst on the
    LDL^T decomposition of the LLL-reduced Gram matrix, read from the
    minors the reduction ends with; the reduction affects speed only,
    never results.
    """
    n = len(gram)
    if n == 0:
        return []
    red, u, minors, lam = _lll(gram)
    # red = R^T D R with d_i = D_(i+1)/D_i and r_ij = lambda_ji/D_(i+1)
    d = [Fraction(minors[i + 1], minors[i]) for i in range(n)]

    target = Fraction(norm)
    found: list[tuple[int, ...]] = []
    x = [0] * n

    def descend(i: int, remaining: Fraction):
        if i < 0:
            if any(x):
                found.append(tuple(x))
            return
        c = Fraction(-sum(lam[j][i] * x[j] for j in range(i + 1, n)), minors[i + 1])
        for t in _int_range_around(c, remaining / d[i]):
            x[i] = t
            used = d[i] * (t - c) ** 2
            if used <= remaining:
                descend(i - 1, remaining - used)
        x[i] = 0

    descend(n - 1, target)
    out = set()
    for v in found:
        w = mat_vec(transpose(u), list(v))
        if sum(wi * gram[i][j] * wj for i, wi in enumerate(w) for j, wj in enumerate(w)) != norm:
            continue
        # canonical sign: last nonzero coordinate positive
        for c in reversed(w):
            if c != 0:
                if c < 0:
                    w = [-t for t in w]
                break
        out.add(tuple(w))
    return sorted(out)
