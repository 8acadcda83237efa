"""Exact linear algebra over ZZ and QQ used by the lattice machinery.

Matrices are plain lists of lists (row-major) of ints.  One forward
fraction-free (Bareiss) elimination gives determinants and the
Cramer-form solutions d x of linear systems over QQ, d the
determinant, by exact back substitution.  Every symmetric
integer matrix goes through one fraction-free symmetric elimination,
whose integer minors give the inertia (Jacobi's sign rule and
Sylvester's law) and drive the all-integer LLL reduction.  The
reduction updates those minors in place through size reduction and
swaps (Cohen's integral LLL), and ends with the LDL^T decomposition of
the reduced Gram matrix on which a Fincke-Pohst enumeration in scaled
integers finds its short vectors.  Nothing here ever touches floating
point.
"""

from __future__ import annotations

from math import isqrt, lcm
from operator import mul

from .intpoly import IntPoly, interpolate

Matrix = list  # list[list[int]]


class MatrixDomainError(ValueError):
    """A matrix violating an operation's precondition or postcondition."""


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    bt = [[b[r][c] for r in range(k)] for c in range(m)]
    return [[sum(row[i] * col[i] for i in range(k)) for col in bt] for row in a]


def mat_vec(a: Matrix, v: list) -> list:
    return [sum(map(mul, row, v)) for row in a]


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


def _bareiss(rows: Matrix, n: int) -> int:
    """Forward fraction-free (Bareiss) elimination, in place, on the first
    n columns of n >= 1 integer rows; columns past n ride along.

    Step k pivots on the first nonzero entry at or below row k of column
    k and sets a[i][j] = (a[i][j] p - a[i][k] a[k][j]) / prev for the
    rows below, exact in ZZ, so each pivot is a leading principal minor
    of the row-permuted matrix and the last one is +-det.  Returns the
    sign of the row permutation, or 0 when a column has no pivot.
    """
    sign, prev, width = 1, 1, len(rows[0])
    for k in range(n):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = rows[k]
        p = row_k[k]
        for i in range(k + 1, n):
            row = rows[i]
            f = row[k]
            for j in range(k + 1, width):
                row[j] = (row[j] * p - f * row_k[j]) // prev
            row[k] = 0
        prev = p
    return sign


def bareiss_det(m: Matrix) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    return _bareiss(a, n) * a[n - 1][n - 1]


def solve(a: Matrix, rhs: Matrix) -> tuple[list[list[int]], int]:
    """Solve a X = rhs over QQ in integers, in Cramer form.

    ``_bareiss`` on [a | rhs] leaves an upper triangular system with the
    same solutions; with d = det a, every d x_i is an integer, and back
    substitution d x_i = (d b_i - sum_(j>i) u_ij d x_j) / u_ii divides
    exactly (an inexact division raises MatrixDomainError).  Returns
    ([d x for each column x of X], d); raises ZeroDivisionError when a
    is singular.
    """
    n = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, rhs)]
    sign = _bareiss(rows, n)
    if not sign:
        raise ZeroDivisionError("singular matrix")
    det = sign * rows[n - 1][n - 1]
    out = []
    for c in range(n, len(rows[0])):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = rows[i]
            y[i] = _exact_div(det * row[c] - sum(row[j] * y[j] for j in range(i + 1, n)), row[i])
        out.append(y)
    return out, det


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


def inertia(m: Matrix) -> tuple[tuple[int, int, int], int]:
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


def charpoly(m: Matrix) -> IntPoly:
    """Characteristic polynomial det(zI - M) of an integer matrix.

    Evaluated at the n+1 integer points 0..n by Bareiss and interpolated
    in integers; the result is checked to be monic of degree n.
    """
    n = len(m)
    if n == 0:
        return IntPoly([1])
    p = interpolate([bareiss_det([[(x if i == j else 0) - m[i][j] for j in range(n)]
                                  for i in range(n)]) for x in range(n + 1)])
    if p.degree != n or p.leading() != 1:
        raise MatrixDomainError("interpolated characteristic polynomial is not monic of degree n")
    return p


# ---------------------------------------------------------------------------
# lattice reduction and short vector enumeration
# ---------------------------------------------------------------------------

def lll_reduce(gram: Matrix) -> tuple[Matrix, Matrix, list[int], Matrix]:
    """LLL-reduce a positive definite integer Gram matrix, with delta = 3/4.

    Returns (reduced Gram, U, minors, lambda) with U unimodular and
    reduced = U * gram * U^T.  Gram-matrix formulation: the running Gram
    matrix is updated in place under the congruence row operations, so
    no basis vectors are ever needed.  All-integer (Cohen, section 2.6):
    size reduction and the Lovasz test read the minors d_i and bordered
    minors lambda_ij (i > j) of one symmetric elimination, which size
    reduction and every swap then update in place by exact integer
    divisions (Cohen, Algorithm 2.6.7), so the minors and lambda
    returned are those of the reduced Gram.  Raises MatrixDomainError
    unless every minor is positive (Sylvester's criterion).
    """
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
            if 2 * abs(lam[k][j]) > d[j + 1]:
                q = _round_half(lam[k][j], d[j + 1])
                row_op(k, j, q)
                # size reduction leaves d fixed and shifts lambda row k
                for l in range(j):
                    lam[k][l] -= q * lam[j][l]
                lam[k][j] -= q * d[j + 1]
        if 4 * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) >= 3 * d[k] ** 2:
            k += 1
        else:
            swap(k)
            _swap_minors(d, lam, k)
            k = max(k - 1, 1)
    return cur, u, d, lam


def _swap_minors(d: list[int], lam: Matrix, k: int) -> None:
    """Update the minors d and the bordered minors lambda_ij (i > j) in
    place for the swap of basis vectors k - 1 and k (Cohen, Algorithm
    2.6.7, SWAPI).  Only d[k] and the lambda entries in rows and columns
    k - 1 and k change; every division is exact in ZZ, and a remainder
    raises MatrixDomainError.
    """
    lam[k][:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], lam[k][:k - 1]
    l = lam[k][k - 1]
    b = _exact_div(d[k - 1] * d[k + 1] + l * l, d[k])
    for row in lam[k + 1:]:
        t = row[k]
        row[k] = _exact_div(d[k + 1] * row[k - 1] - l * t, d[k])
        row[k - 1] = _exact_div(b * t + l * row[k], d[k + 1])
    d[k] = b


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise MatrixDomainError(f"inexact division {num} / {den}")
    return q


def _round_half(num: int, den: int) -> int:
    # nearest integer to num/den (den > 0), ties toward zero
    q, r = divmod(abs(num), den)
    if 2 * r > den:
        q += 1
    return q if num >= 0 else -q


def short_vectors(gram: Matrix, norm: int) -> list[tuple[int, ...]]:
    """All integer vectors x != 0 with x^T gram x == norm, up to sign.

    gram must be positive definite.  One representative per +-pair is
    returned (last nonzero coordinate positive), sorted; callers close
    under negation when they need the full set.  Exact Fincke-Pohst on
    the LLL-reduced Gram matrix, in integers: with D_i the minors the
    reduction ends with (D_0 = 1) and s_i = sum_{j>i} lambda_ji x_j,

        L x^T red x = sum_i w_i (D_(i+1) x_i + s_i)^2,
        w_i = L / (D_i D_(i+1)),  L = lcm_i(D_i D_(i+1)),

    so each coordinate's range is an integer square root of the budget
    norm * L that the coordinates above it leave.  The reduction affects
    speed only, never results.
    """
    n = len(gram)
    if n == 0:
        return []
    _, u, minors, lam = lll_reduce(gram)
    if norm <= 0:
        return []
    scale = lcm(*(p * q for p, q in zip(minors, minors[1:])))
    weight = [scale // (p * q) for p, q in zip(minors, minors[1:])]
    found: list[list[int]] = []
    x = [0] * n

    def descend(i: int, rem: int, top: bool):
        # top: every coordinate above i is zero, so x_i >= 0 fixes the sign
        if i < 0:
            if rem == 0:
                found.append(list(x))
            return
        p, w = minors[i + 1], weight[i]
        s = sum(lam[j][i] * x[j] for j in range(i + 1, n) if x[j])
        r = isqrt(rem // w)
        for t in range(0 if top else -((r + s) // p), (r - s) // p + 1):
            x[i] = t
            descend(i - 1, rem - w * (p * t + s) ** 2, top and not t)
        x[i] = 0

    descend(n - 1, norm * scale, True)
    ut = transpose(u)
    out = []
    for v in found:
        w = mat_vec(ut, v)
        if sum(wi * sum(map(mul, row, w)) for row, wi in zip(gram, w) if wi) != norm:
            raise MatrixDomainError("short vector off its norm: the reduction or the descent is broken")
        # canonical sign: last nonzero coordinate positive
        for c in reversed(w):
            if c != 0:
                if c < 0:
                    w = [-t for t in w]
                break
        out.append(tuple(w))
    return sorted(out)
