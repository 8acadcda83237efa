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

1. The unit join.  Z[w] is the ring of integers of Q(sqrt 13), so
   N(a + b w) = +-1 exactly when a + b w is a unit +-(1 + w)^k, and the
   word bounds leave 24 of them (see ``_units``).  (a, b) is linear in
   the digits, so the 3,125 words c1..c5 and the 625 words c6..c9 (with
   their shares of c10 and c11) each get their (a, b) once, and for each
   sign of c11 and each unit a sorted integer key finds the pairs of
   halves whose (a, b) sum to it.
2. The trace coefficients of the norm hits, one int64 matrix product.
3. A Descartes bisection of the roots of Psi in (-2, 2), from
   ``_PIECES`` equal pieces (see ``_descartes_maps`` and
   ``_root_counts``).  It counts the roots exactly or rejects the word
   once its upper bound falls below eight; the few words it cannot
   split (a leaf too large for the next shift, or too deep) are decided
   by the package's one integer Sturm chain (``algnum.count_roots_in``).

Survivors are sorted lexicographically by (c1, ..., c11) with the
numeric order -2 < -1 < 0 < 1 < 2 and numbered from 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .intpoly import IntPoly, PolynomialDomainError
from .algnum import count_roots_in, hn_poly

S4 = IntPoly([1, -1, -1, -1, 1])

_PIECES = 8             # equal pieces of (-2, 2) that start the bisection
_LEAF_LIMIT = 1 << 48   # a leaf coefficient this large sends its word to Sturm
_MAX_DEPTH = 24         # bisection levels before a word goes to Sturm
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


def _norm_map() -> np.ndarray:
    """2x12 integer map taking (1, c1..c11) to (a, b), Psi = a + b w mod W.

    The trace map composed with the reduction of w^m modulo
    W = w^2 - w - 3, by w (a + b w) = 3b + (a + b) w; Res(W, Psi) is then
    the norm N(a + b w) = a^2 + ab - 3b^2.
    """
    tmap = _trace_map()
    red = [(1, 0)]
    for _ in range(11):
        a, b = red[-1]
        red.append((3 * b, a + b))
    return np.array([[sum(red[m][i] * tmap[m][k] for m in range(12)) for k in range(12)]
                     for i in range(2)], dtype=np.int64)


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
    def powers(f: IntPoly) -> list[IntPoly]:
        out = [IntPoly([1])]
        for _ in range(11):
            out.append(out[-1] * f)
        return out

    tmap = _trace_map()
    d = _PIECES // 4
    scale = powers(IntPoly([d, d]))     # (d x + d)^m, m = 0..11
    dmaps = []
    for k in range(_PIECES):
        p = k - 2 * d
        cols = [(f * g).coeffs for f, g in zip(powers(IntPoly([p + 1, p])), scale[::-1])]
        dmaps.append([[col[j] if j < len(col) else 0 for col in cols]
                      for j in range(12)])
    t_max = _row_bounds(tmap, _WORD_BOUNDS)
    q_max = max(max(_row_bounds(dmap, t_max)) for dmap in dmaps)
    if max(t_max + [q_max]) >= _INT64:
        raise PolynomialDomainError(f"Descartes map bound {q_max} overflows int64")
    return np.array(tmap, dtype=np.int64), np.array(dmaps, dtype=np.int64)


def _sign_variations(q: np.ndarray) -> np.ndarray:
    """Sign changes along each row, zero entries skipped."""
    s = np.sign(q).astype(np.int8).T.copy()
    last = s[0].copy()
    out = np.zeros(len(q), dtype=np.int8)
    for col in s[1:]:
        out += col * last < 0
        np.copyto(last, col, where=col != 0)
    return out


def _shift_map() -> np.ndarray:
    """The 12x12 binomial matrix S[j, i] = C(j, i): q @ S is Q(x + 1) for
    ascending coefficients q.  A row below _LEAF_LIMIT keeps every
    partial sum of q @ S below 2^63; PolynomialDomainError otherwise."""
    shift = [[comb(j, i) for i in range(12)] for j in range(12)]
    if _LEAF_LIMIT * max(_row_bounds(zip(*shift), (1,) * 12)) >= _INT64:
        raise PolynomialDomainError(f"leaf limit {_LEAF_LIMIT} overflows int64")
    return np.array(shift, dtype=np.int64)


def _root_counts(trace: np.ndarray, dmaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct roots in (-2, 2) of each row of ascending coefficients
    (degree <= 11, not all zero), by Descartes bisection: (count, exact).

    count[i] is row i's number of roots where exact[i], and an upper
    bound on it elsewhere.  Each leaf is a polynomial Q whose positive
    roots are the roots, with multiplicity, of the row in an open
    interval; the leaves start as the _PIECES maps' Q_k, and the roots
    at the pieces' interior ends are their zero Q_k(0).  By Descartes'
    rule a leaf with no sign variation holds no root and one with one
    variation exactly one.  A leaf with more splits at x = 1 into
    R(x) = Q(x + 1) and L(x) = (x + 1)^11 Q(1/(x + 1)), R's zero R(0)
    being a root at the cut.  A row is left, inexact, once its decided
    roots plus the variations of its open leaves fall below the smallest
    of _ROOT_COUNTS, once a leaf reaches _LEAF_LIMIT (the next shift
    could leave int64), or at depth _MAX_DEPTH (a multiple root never
    splits down to one variation).
    """
    shift = _shift_map()
    n = len(trace)
    q = np.matmul(trace, dmaps.transpose(0, 2, 1))   # pieces x rows x 12
    count = (q[:-1, :, 0] == 0).sum(axis=0)
    exact = np.ones(n, dtype=bool)
    leaves, row = q.reshape(-1, 12), np.tile(np.arange(n), len(q))
    for depth in range(_MAX_DEPTH + 1):
        v = _sign_variations(leaves)
        count += np.bincount(row[v == 1], minlength=n)
        split = v > 1
        leaves, row, v = leaves[split], row[split], v[split]
        upper = count + np.bincount(np.repeat(row, v), minlength=n)
        stop = upper < min(_ROOT_COUNTS)
        if depth == _MAX_DEPTH:
            stop[row] = True
        stop[row[np.abs(leaves).max(axis=1) >= _LEAF_LIMIT]] = True
        stop &= upper > count
        count[stop], exact[stop] = upper[stop], False
        keep = exact[row]
        leaves, row = leaves[keep], row[keep]
        if not len(row):
            break
        right = leaves @ shift
        count += np.bincount(row[right[:, 0] == 0], minlength=n)
        leaves = np.concatenate([right, leaves[:, ::-1] @ shift])
        row = np.concatenate([row, row])
    return count, exact


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


def _units(a_max: int, b_max: int) -> list[tuple[int, int]]:
    """Every (a, b) with |a| <= a_max, |b| <= b_max and N(a + b w) = +-1.

    Z[w] is the ring of integers of Q(sqrt 13) (13 = 1 mod 4), whose units
    are +-(1 + w)^k, and N(1 + w) = -1, so these are the units in the
    box.  Both real embeddings of a + b w there are below a_max + 3 b_max
    in absolute value, while 1 + w and (1 + w)^-1 = w - 2 each have an
    embedding above 3; so |k| <= K for the least K with
    3^K >= a_max + 3 b_max.
    """
    k_max = 0
    while 3 ** k_max < a_max + 3 * b_max:
        k_max += 1
    units = set()
    for c, d in ((1, 1), (-2, 1)):          # 1 + w and its inverse
        a, b = 1, 0
        for _ in range(k_max + 1):
            if abs(a) <= a_max and abs(b) <= b_max:
                units |= {(a, b), (-a, -b)}
            a, b = a * c + 3 * b * d, a * d + b * c + b * d
    return sorted(units)


def _norm_hits() -> np.ndarray:
    """The word vectors (1, c1..c11) whose norm N(Psi mod W) is +-1,
    unordered, as int64 rows.

    Every word is hi[i] + lo[j] + (0, ..., 0, +-1) (see _word_halves), so
    its (a, b) is the sum of the two halves' (a, b), and its norm is +-1
    exactly when that sum is one of the units in the word bounds' box.
    For each sign of c11 and each unit u, the lo rows with
    (a, b) = u - (a, b) of the hi row are found by a sorted integer key
    over |a| <= 2 a_max, |b| <= 2 b_max; PolynomialDomainError is raised
    unless that key stays below 2^63.
    """
    nmap = _norm_map()
    a_max, b_max = _row_bounds(nmap.tolist(), _WORD_BOUNDS)
    width = 4 * b_max + 1
    if (4 * a_max + 1) * width >= _INT64:
        raise PolynomialDomainError(f"join key over |a| <= {2 * a_max}, "
                                    f"|b| <= {2 * b_max} overflows int64")

    def key(ab: np.ndarray) -> np.ndarray:
        return (ab[..., 0] + 2 * a_max) * width + ab[..., 1] + 2 * b_max

    units = np.array(_units(a_max, b_max), dtype=np.int64)
    hi, lo = _word_halves()
    hi_keys = key(hi @ nmap.T)
    order = np.argsort(hi_keys, kind="stable")
    hi_keys = hi_keys[order]
    hits = []
    for sign in (1, -1):
        need = key(units - (lo @ nmap.T + sign * nmap[:, 11])[:, None, :]).ravel()
        first = np.searchsorted(hi_keys, need, side="left")
        many = np.searchsorted(hi_keys, need, side="right") - first
        i = order[np.arange(many.sum()) + np.repeat(first - np.cumsum(many) + many, many)]
        words = hi[i] + lo[np.repeat(np.arange(need.size) // len(units), many)]
        words[:, 11] += sign
        hits.append(words)
    return np.concatenate(hits)


def enumerate_setup2() -> list[Setup2Candidate]:
    """All solution words, sorted lexicographically, numbered from 1.

    The unit join keeps the words with N(Psi mod W) = +-1; the Descartes
    bisection counts the roots of Psi in (-2, 2) or rejects the word on
    its upper bound, and the integer Sturm count decides the few words it
    leaves.  Every step is exact.
    """
    tmap, dmaps = _descartes_maps()
    words = _norm_hits()
    trace = words @ tmap.T
    count, exact = _root_counts(trace, dmaps)
    sturm = ~exact & (count >= min(_ROOT_COUNTS))
    keep = exact & np.isin(count, _ROOT_COUNTS)
    keep[sturm] = [count_roots_in(IntPoly(tr.tolist()), -2, 2) in _ROOT_COUNTS
                   for tr in trace[sturm]]
    out = sorted(map(tuple, words[keep, 1:].tolist()))
    return [Setup2Candidate(i, w) for i, w in enumerate(out, start=1)]
