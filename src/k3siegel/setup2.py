"""Bulk enumeration of the degree-22 auxiliary polynomials.

The candidates are unramified palindromic polynomials
psi = z^22 + c1 z^21 + ... + c10 z^12 + c11 z^11 + c10 z^10 + ... + 1
with c1..c9 in {0, +-1, +-2}; unramifiedness forces
c10 = -1 - c2 - c4 - c6 - c8 and c11 = +-1 - 2(c1 + c3 + c5 + c7 + c9).
A word survives when the trace polynomial of psi has ten or eight roots
in (-2, 2) and the resultant with the quartic Salem polynomial
z^4 - z^3 - z^2 - z + 1 is +-1.

Two filters make the 3.9M-word sweep fast without giving up exactness:
the resultant is the field norm of psi reduced modulo the quartic,
evaluated modulo two 31-bit primes over numpy int64 lanes (anything
passing is re-verified in exact integer arithmetic), and the root count
is the package's one integer Sturm chain (``algnum.count_roots_in``) on
the trace polynomial, evaluated at -2 and 2 by integer Horner.
Survivors are sorted lexicographically by (c1, ..., c11) with the
numeric order -2 < -1 < 0 < 1 < 2 and numbered from 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .intpoly import IntPoly
from .algnum import count_roots_in, hn_poly

S4 = IntPoly([1, -1, -1, -1, 1])

_P1 = 2_147_483_647
_P2 = 2_147_483_629
_CHUNK = 1 << 18   # words per numpy sweep; bounds memory, not results


@dataclass(frozen=True)
class Setup2Candidate:
    """One solution word; id is its 1-based lexicographic rank."""

    id: int
    coeffs: tuple  # (c1, ..., c11)

    def psi(self) -> IntPoly:
        c = self.coeffs
        half = [1] + list(c)               # ascending: 1, c1, ..., c11
        return IntPoly(half + list(reversed(half[:-1])))


def _power_basis_mod_s4() -> list[list[int]]:
    """z^k mod S4 for k = 0..22, as length-4 integer vectors."""
    rows = []
    cur = [1, 0, 0, 0]
    for _ in range(23):
        rows.append(list(cur))
        # multiply by z and reduce with z^4 = z^3 + z^2 + z - 1
        top = cur[3]
        cur = [-top, cur[0] + top, cur[1] + top, cur[2] + top]
    return rows


def _norm_matrices() -> list[list[list[int]]]:
    """Multiplication-by-z^j maps (4x4) modulo S4, j = 0..3."""
    basis = _power_basis_mod_s4()
    mats = []
    for j in range(4):
        cols = [basis[i + j] for i in range(4)]
        mats.append([[cols[c][r] for c in range(4)] for r in range(4)])
    return mats


def norm_mod_s4(rvec) -> int:
    """Field norm of r0 + r1 a + r2 a^2 + r3 a^3 in ZZ[a]/(S4), exact."""
    mats = _norm_matrices()
    cols = [[sum(m[r][c] * rvec[c] for c in range(4)) for r in range(4)] for m in mats]
    a = [[cols[j][i] for j in range(4)] for i in range(4)]
    return _det4(a)


def _det4(a) -> int:
    m01 = {}
    for i in range(4):
        for j in range(i + 1, 4):
            m01[(i, j)] = a[0][i] * a[1][j] - a[0][j] * a[1][i]
    m23 = {}
    for i in range(4):
        for j in range(i + 1, 4):
            m23[(i, j)] = a[2][i] * a[3][j] - a[2][j] * a[3][i]
    return (m01[(0, 1)] * m23[(2, 3)] - m01[(0, 2)] * m23[(1, 3)]
            + m01[(0, 3)] * m23[(1, 2)] + m01[(1, 2)] * m23[(0, 3)]
            - m01[(1, 3)] * m23[(0, 2)] + m01[(2, 3)] * m23[(0, 1)])


def _trace_map() -> list[list[int]]:
    """Integer matrix taking (1, c1..c11) to the 12 coefficients of the
    trace polynomial: psi = sum c'_k (z^k + z^(22-k)) + c11 z^11 gives
    Psi = sum c'_k h_(11-k)(w) + c11."""
    rows = [[0] * 12 for _ in range(12)]  # rows: coefficient of w^m
    for k in range(11):                   # c'_k column (c'_0 = 1 fixed)
        h = hn_poly(11 - k)
        for m in range(h.degree + 1):
            rows[m][k] += h[m]
    rows[0][11] += 1                      # c11 contributes the constant
    return rows


def enumerate_setup2() -> list[Setup2Candidate]:
    """All solution words, sorted lexicographically, numbered from 1.

    The numpy sweep, in chunks of _CHUNK words, filters on the resultant
    condition modulo two primes; every hit is re-verified by exact
    integer recomputation of the norm, and the integer Sturm root count
    follows, so the final list is independent of the filter.
    """
    basis = np.array(_power_basis_mod_s4(), dtype=np.int64)  # 23 x 4
    mats = np.array(_norm_matrices(), dtype=np.int64)        # 4 x 4 x 4
    total = 5 ** 9
    exact_words = []
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = np.empty((idx.size, 9), dtype=np.int64)
        rest = idx.copy()
        for j in range(8, -1, -1):
            digits[:, j] = rest % 5 - 2
            rest //= 5
        c = digits  # columns c1..c9
        c10 = -1 - c[:, 1] - c[:, 3] - c[:, 5] - c[:, 7]
        sodd = c[:, 0] + c[:, 2] + c[:, 4] + c[:, 6] + c[:, 8]
        for sign in (1, -1):
            c11 = sign - 2 * sodd
            # r = sum over the 23 coefficients of psi of coeff * (z^k mod S4)
            r = np.zeros((idx.size, 4), dtype=np.int64)
            r += basis[0] + basis[22]
            for j in range(1, 10):
                r += c[:, j - 1, None] * (basis[j] + basis[22 - j])
            r += c10[:, None] * (basis[10] + basis[12])
            r += c11[:, None] * basis[11]
            keep = None
            for p in (_P1, _P2):
                cols = [(r @ mats[j].T) % p for j in range(4)]
                det = _det4_mod(cols, p)
                ok = (det == 1 % p) | (det == (p - 1))
                keep = ok if keep is None else (keep & ok)
            hits = np.nonzero(keep)[0]
            for h in hits:
                word = tuple(int(x) for x in c[h]) + (int(c10[h]), int(c11[h]))
                if abs(norm_mod_s4([int(x) for x in r[h]])) != 1:
                    continue
                exact_words.append(word)

    tmap = _trace_map()
    out = []
    for word in exact_words:
        vec = [1] + list(word)
        trace = [sum(tmap[m][k] * vec[k] for k in range(12)) for m in range(12)]
        if count_roots_in(IntPoly(trace), -2, 2) in (8, 10):
            out.append(word)
    out.sort()
    return [Setup2Candidate(i, w) for i, w in enumerate(out, start=1)]


def _det4_mod(cols, p):
    a = [[cols[j][:, i] for j in range(4)] for i in range(4)]
    m01 = {}
    for i in range(4):
        for j in range(i + 1, 4):
            m01[(i, j)] = (a[0][i] * a[1][j] - a[0][j] * a[1][i]) % p
    m23 = {}
    for i in range(4):
        for j in range(i + 1, 4):
            m23[(i, j)] = (a[2][i] * a[3][j] - a[2][j] * a[3][i]) % p
    det = (m01[(0, 1)] * m23[(2, 3)] % p - m01[(0, 2)] * m23[(1, 3)] % p
           + m01[(0, 3)] * m23[(1, 2)] % p + m01[(1, 2)] * m23[(0, 3)] % p
           - m01[(1, 3)] * m23[(0, 2)] % p + m01[(2, 3)] * m23[(0, 1)] % p) % p
    return det
