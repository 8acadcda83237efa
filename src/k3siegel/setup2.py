"""Bulk enumeration of the degree-22 auxiliary polynomials.

The candidates are unramified palindromic polynomials
psi = z^22 + c1 z^21 + ... + c10 z^12 + c11 z^11 + c10 z^10 + ... + 1
with c1..c9 in {0, +-1, +-2}; unramifiedness forces
c10 = -1 - c2 - c4 - c6 - c8 and c11 = +-1 - 2(c1 + c3 + c5 + c7 + c9).
A word survives when the trace polynomial of psi has ten or eight roots
in (-2, 2) and the resultant with the quartic Salem polynomial
z^4 - z^3 - z^2 - z + 1 is +-1.

Both conditions are read off the trace polynomial Psi of psi, which is
linear in the word.  For monic palindromic p and q of even degree with
trace polynomials P and Q, Res(p, q) = Res(P, Q)^2: the roots of p pair
as alpha, 1/alpha and q(alpha) = alpha^m Q(alpha + 1/alpha).  The trace
polynomial of the quartic is W = w^2 - w - 3, so the resultant is
N(Psi mod W)^2 with N(a + b w) = a^2 + ab - 3b^2, and (a, b) is one
2x12 integer map of the word.  The 3.9M-word sweep evaluates N over
numpy int64 lanes, exactly (``_norm_map`` bounds every lane), and the
root count is the package's one integer Sturm chain
(``algnum.count_roots_in``) on Psi, evaluated at -2 and 2 by integer
Horner.  Survivors are sorted lexicographically by (c1, ..., c11) with
the numeric order -2 < -1 < 0 < 1 < 2 and numbered from 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .intpoly import IntPoly, PolynomialDomainError
from .algnum import count_roots_in, hn_poly

S4 = IntPoly([1, -1, -1, -1, 1])

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


# |1|, |c1|..|c9|, |c10|, |c11|: the largest entry of each word column
_WORD_BOUNDS = (1,) + (2,) * 9 + (9, 21)


def _norm(a, b):
    """N(a + b w) = a^2 + ab - 3b^2, the norm of Z[w]/(W); Res(W, Psi) when
    Psi = a + b w mod W.  Integers or numpy arrays alike."""
    return a * a + a * b - 3 * b * b


def _norm_map() -> np.ndarray:
    """2x12 integer map taking (1, c1..c11) to (a, b), Psi = a + b w mod W.

    The trace map composed with the reduction of w^m modulo
    W = w^2 - w - 3, by w (a + b w) = 3b + (a + b) w.  The word ranges
    bound |a| and |b|; PolynomialDomainError is raised unless every term
    of N = a^2 + ab - 3b^2 then stays exact in int64.
    """
    tmap = _trace_map()
    red = [(1, 0)]
    for _ in range(11):
        a, b = red[-1]
        red.append((3 * b, a + b))
    nmap = [[sum(red[m][i] * tmap[m][k] for m in range(12)) for k in range(12)]
            for i in range(2)]
    a_max, b_max = (sum(abs(x) * r for x, r in zip(row, _WORD_BOUNDS)) for row in nmap)
    if a_max * a_max + a_max * b_max + 3 * b_max * b_max >= 1 << 63:
        raise PolynomialDomainError(f"norm bounds |a| <= {a_max}, |b| <= {b_max} "
                                    "overflow int64")
    return np.array(nmap, dtype=np.int64)


def enumerate_setup2() -> list[Setup2Candidate]:
    """All solution words, sorted lexicographically, numbered from 1.

    The numpy sweep, in chunks of _CHUNK words, keeps the words whose
    norm N(Psi mod W) is +-1, which is exact (see _norm_map); the
    integer Sturm root count on Psi follows.
    """
    nmap = _norm_map()
    total = 5 ** 9
    norm_words = []
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
        part = c @ nmap[:, 1:10].T + nmap[:, 0] + c10[:, None] * nmap[:, 10]
        for sign in (1, -1):
            c11 = sign - 2 * sodd
            ab = part + c11[:, None] * nmap[:, 11]
            norm = _norm(ab[:, 0], ab[:, 1])
            for h in np.nonzero((norm == 1) | (norm == -1))[0]:
                norm_words.append(tuple(int(x) for x in c[h]) + (int(c10[h]), int(c11[h])))

    tmap = _trace_map()
    out = []
    for word in norm_words:
        vec = [1] + list(word)
        trace = [sum(tmap[m][k] * vec[k] for k in range(12)) for m in range(12)]
        if count_roots_in(IntPoly(trace), -2, 2) in (8, 10):
            out.append(word)
    out.sort()
    return [Setup2Candidate(i, w) for i, w in enumerate(out, start=1)]
