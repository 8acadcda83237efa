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
2x12 integer map of the word.

The census runs in three integer steps over numpy int64 lanes, each
map's range checked against the word bounds before it runs:

1. The sweep.  (a, b) is linear in the digits, so the 3,125 words
   c1..c5 and the 625 words c6..c9 (with their shares of c10 and c11)
   each get their (a, b) once; the norm of all 3.9M words is an outer
   sum of the two, taken in blocks of ``_CHUNK`` words.
2. The trace coefficients of the norm hits, one int64 matrix product.
3. A Descartes bound on the roots of Psi in (-2, 2), on ``_PIECES``
   equal pieces (see ``_descartes_maps``).  It only rejects words it
   certifies to have fewer than eight roots; every other word is
   decided by the package's one integer Sturm chain
   (``algnum.count_roots_in``).

Survivors are sorted lexicographically by (c1, ..., c11) with the
numeric order -2 < -1 < 0 < 1 < 2 and numbered from 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .intpoly import IntPoly, PolynomialDomainError
from .algnum import count_roots_in, hn_poly

S4 = IntPoly([1, -1, -1, -1, 1])

_CHUNK = 1 << 18   # words per block of the sweep; bounds memory, not results
_PIECES = 8        # equal pieces of (-2, 2) for the Descartes bound
_ROOT_COUNTS = (8, 10)
_INT64 = 1 << 63


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


def _row_bounds(rows, bounds) -> list[int]:
    """The largest |row . x| over |x_k| <= bounds[k], for each row; it
    also bounds every partial sum of the product."""
    return [sum(abs(r) * b for r, b in zip(row, bounds)) for row in rows]


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
    a_max, b_max = _row_bounds(nmap, _WORD_BOUNDS)
    if a_max * a_max + a_max * b_max + 3 * b_max * b_max >= _INT64:
        raise PolynomialDomainError(f"norm bounds |a| <= {a_max}, |b| <= {b_max} "
                                    "overflow int64")
    return np.array(nmap, dtype=np.int64)


def _descartes_maps() -> tuple[np.ndarray, np.ndarray]:
    """The trace map (12x12) and the _PIECES Descartes maps (each 12x12),
    int64.

    Piece k of (-2, 2) is (p/d, (p + 1)/d) with d = _PIECES / 4 and
    p = k - 2d.  x -> (p x + p + 1) / (d (x + 1)) takes (0, oo) onto it,
    so the positive roots of
        Q_k(x) = (d x + d)^11 Psi((p x + p + 1) / (d x + d))
               = sum_m psi_m (p x + p + 1)^m (d x + d)^(11 - m)
    are the roots of Psi in the open piece, with multiplicity; the map
    takes Psi's ascending coefficients to Q_k's.  Q_k(0) is
    d^11 Psi((p + 1)/d), the value at the piece's right end.  The word
    ranges bound the trace coefficients and those of every Q_k;
    PolynomialDomainError is raised unless both stay below 2^63.
    """
    tmap = _trace_map()
    d = _PIECES // 4
    dmaps = []
    for k in range(_PIECES):
        p = k - 2 * d
        cols = [(IntPoly([p + 1, p]) ** m * IntPoly([d, d]) ** (11 - m)).coeffs
                for m in range(12)]
        dmaps.append([[col[j] if j < len(col) else 0 for col in cols]
                      for j in range(12)])
    t_max = _row_bounds(tmap, _WORD_BOUNDS)
    q_max = max(max(_row_bounds(dmap, t_max)) for dmap in dmaps)
    if max(t_max + [q_max]) >= _INT64:
        raise PolynomialDomainError(f"Descartes map bound {q_max} overflows int64")
    return np.array(tmap, dtype=np.int64), np.array(dmaps, dtype=np.int64)


def _sign_variations(q: np.ndarray) -> np.ndarray:
    """Sign changes along the last axis, zero entries skipped."""
    s = np.sign(q)
    last = s[..., 0]
    out = np.zeros(last.shape, dtype=np.int64)
    for j in range(1, s.shape[-1]):
        out += s[..., j] * last < 0
        last = np.where(s[..., j] != 0, s[..., j], last)
    return out


def _descartes_bound(trace: np.ndarray, dmaps: np.ndarray) -> np.ndarray:
    """An upper bound on the distinct roots in (-2, 2) of each row of
    ascending coefficients (degree <= 11, not all zero).

    Descartes' rule of signs bounds the roots in each open piece, with
    multiplicity, by the sign variations of Q_k; the roots at the
    _PIECES - 1 interior partition points are the pieces' zero Q_k(0).
    """
    q = np.matmul(trace, dmaps.transpose(0, 2, 1))   # pieces x rows x 12
    return _sign_variations(q).sum(axis=0) + (q[:-1, :, 0] == 0).sum(axis=0)


def _word_halves() -> tuple[np.ndarray, np.ndarray]:
    """The word vectors (1, c1..c11) split in two: every word is
    hi[i] + lo[j] + (0, ..., 0, +-1), lexicographic in (i, j).

    hi runs over c1..c5 with the constant, their shares of c10 and of
    c11 (-1 - c2 - c4 and -2(c1 + c3 + c5)); lo over c6..c9 with theirs.
    """
    def half(first: int, n: int) -> np.ndarray:
        v = np.zeros((5 ** n, 12), dtype=np.int64)
        v[:, first:first + n] = np.indices((5,) * n).reshape(n, -1).T - 2
        v[:, 10] = -v[:, 2:10:2].sum(axis=1)
        v[:, 11] = -2 * v[:, 1:10:2].sum(axis=1)
        return v

    hi, lo = half(1, 5), half(6, 4)
    hi[:, 0] = 1
    hi[:, 10] -= 1
    return hi, lo


def _norm_hits() -> np.ndarray:
    """The word vectors (1, c1..c11) whose norm N(Psi mod W) is +-1,
    unordered, as int64 rows; exact (see _norm_map).

    (a, b) is linear in the word, so each half's (a, b) is computed once
    and the norms of a block of hi rows against every lo row are an
    outer sum, for each sign of c11.
    """
    nmap = _norm_map()
    hi, lo = _word_halves()
    ab_hi, ab_lo = hi @ nmap.T, lo @ nmap.T
    rows = _CHUNK // len(lo)
    hits = []
    for sign in (1, -1):
        top = ab_hi + sign * nmap[:, 11]
        for start in range(0, len(hi), rows):
            block = top[start:start + rows]
            a = block[:, 0, None] + ab_lo[None, :, 0]
            b = block[:, 1, None] + ab_lo[None, :, 1]
            i, j = np.nonzero(np.abs(_norm(a, b)) == 1)
            words = hi[start + i] + lo[j]
            words[:, 11] += sign
            hits.append(words)
    return np.concatenate(hits)


def enumerate_setup2() -> list[Setup2Candidate]:
    """All solution words, sorted lexicographically, numbered from 1.

    The norm sweep keeps the words with N(Psi mod W) = +-1; the Descartes
    bound rejects those with fewer than eight roots of Psi in (-2, 2),
    and the integer Sturm count decides the rest.  Every step is exact.
    """
    tmap, dmaps = _descartes_maps()
    words = _norm_hits()
    trace = words @ tmap.T
    keep = _descartes_bound(trace, dmaps) >= min(_ROOT_COUNTS)
    out = sorted(tuple(word[1:].tolist())
                 for word, tr in zip(words[keep], trace[keep])
                 if count_roots_in(IntPoly(tr.tolist()), -2, 2) in _ROOT_COUNTS)
    return [Setup2Candidate(i, w) for i, w in enumerate(out, start=1)]
