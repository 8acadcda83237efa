"""Exact linear algebra over ZZ and QQ used by the lattice machinery.

Matrices are plain lists of lists (row-major) of ints or Fractions.
Determinants use fraction-free Bareiss elimination, inertia uses
symmetric pivoting over the rationals (Sylvester's law), short vectors
come from an exact Fincke-Pohst enumeration on a rational Cholesky
decomposition, optionally after an integral LLL reduction of the Gram
matrix.  Nothing here ever touches floating point.
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


def inverse(a: Matrix) -> Matrix:
    return solve(a, identity(len(a)))


def inertia(m: Matrix) -> tuple[int, int, int]:
    """Signature (positive, negative, zero) of a symmetric rational matrix.

    Exact symmetric Gaussian pivoting: congruence transformations only,
    so the counts are certified by Sylvester's law of inertia.
    """
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    pos = neg = zero = 0
    idx = list(range(n))
    k = 0
    while k < n:
        # find a nonzero diagonal pivot
        piv = next((i for i in range(k, n) if a[i][i] != 0), None)
        if piv is None:
            off = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j] != 0:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                zero += n - k
                break
            i, j = off
            # congruence: add row/col j to i, making a[i][i] = 2 a[i][j] != 0
            for c in range(k, n):
                a[i][c] += a[j][c]
            for r in range(k, n):
                a[r][i] += a[r][j]
            piv = i
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a:
                row[k], row[piv] = row[piv], row[k]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / d
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
        for i in range(k + 1, n):
            a[k][i] = Fraction(0)
            a[i][k] = Fraction(0)
        k += 1
    return pos, neg, zero


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
    no basis vectors are ever needed.  Exact rationals throughout.
    """
    n = len(gram)
    delta = Fraction(3, 4)
    u = identity(n)
    cur = [[Fraction(x) for x in row] for row in gram]  # = U gram U^T

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

    def gso():
        mu = [[Fraction(0)] * n for _ in range(n)]
        bstar = [Fraction(0)] * n
        for i in range(n):
            for j in range(i):
                mu[i][j] = (cur[i][j] - sum(mu[i][k] * mu[j][k] * bstar[k]
                                            for k in range(j))) / bstar[j]
            bstar[i] = cur[i][i] - sum(mu[i][k] ** 2 * bstar[k] for k in range(i))
        return mu, bstar

    mu, bstar = gso()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = _round_half(mu[k][j])
            if q != 0:
                row_op(k, j, q)
                # size reduction leaves bstar fixed and shifts mu row k
                for l in range(j):
                    mu[k][l] -= q * mu[j][l]
                mu[k][j] -= q
        if bstar[k] >= (delta - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            swap(k)
            mu, bstar = gso()
            k = max(k - 1, 1)
    red = [[int(x) for x in row] for row in cur]
    return red, u


def _round_half(x: Fraction) -> int:
    # nearest integer, ties toward zero
    n, d = x.numerator, x.denominator
    q, r = divmod(abs(n), d)
    if 2 * r > d:
        q += 1
    return q if n >= 0 else -q


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
    rational Cholesky decomposition of the LLL-reduced Gram matrix; the
    reduction affects speed only, never results.
    """
    n = len(gram)
    if n == 0:
        return []
    red, u = lll_reduce(gram)
    # rational Cholesky: red = R^T D R with R unit upper triangular
    d = [Fraction(0)] * n
    r = [[Fraction(0)] * n for _ in range(n)]
    a = [[Fraction(x) for x in row] for row in red]
    for i in range(n):
        for j in range(i, n):
            s = a[i][j] - sum(d[k] * r[k][i] * r[k][j] for k in range(i))
            if j == i:
                d[i] = s
                if s <= 0:
                    raise MatrixDomainError("short_vectors requires a positive definite Gram matrix")
            else:
                r[i][j] = s / d[i]

    target = Fraction(norm)
    found: list[tuple[int, ...]] = []
    x = [0] * n

    def descend(i: int, remaining: Fraction):
        if i < 0:
            if any(x):
                found.append(tuple(x))
            return
        c = -sum(r[i][j] * x[j] for j in range(i + 1, n))
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
        w = [int(c) for c in w]
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
