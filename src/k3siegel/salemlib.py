"""Salem polynomial recognition and the curated Salem data store.

A Salem polynomial is the minimal polynomial of a Salem number: a real
algebraic integer lambda > 1 conjugate to 1/lambda whose remaining
conjugates lie on the unit circle.  Recognition works entirely through
the trace polynomial: lambda and 1/lambda contribute the single real
trace root > 2, unit-circle pairs contribute simple trace roots in
(-2, 2), and irreducibility follows from cyclotomic-freeness by
Kronecker's theorem (any proper palindromic factor with all roots on
the unit circle would be a product of cyclotomics).

This module also owns a Salem polynomial's real roots: ``salem_lambda``
isolates lambda, and ``trace_conjugates`` numbers the trace roots in
(-2, 2) as tau_1 > tau_2 > ..., the one numbering of the special trace
that the cluster table and the Siegel verdicts share.

The embedded store carries the trace polynomials of every Salem factor
used by the searches in this package; further entries (for example the
large census lists available online) can be merged from a text file,
one entry per line::

    # comment
    d i : c_m c_(m-1) ... c_0

with descending trace-polynomial coefficients, m = d/2.  Every entry,
embedded or external, is re-validated on load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .intpoly import (
    IntPoly,
    PolynomialDomainError,
    cyclotomic,
    cyclotomic_indices_up_to_degree,
    cyclotomic_salem_split,
    from_trace_polynomial,
    palindrome_kind,
    trace_polynomial,
    unramified,
    PALINDROMIC,
)
from .algnum import (
    TWO,
    AlgebraicReal,
    _variations_at,
    count_roots_in,
    isolate_real_roots,
    root_bound,
    separate,
    sturm_chain,
)


class SalemDataError(ValueError):
    """Malformed or invalid Salem list data."""


def is_salem(u: IntPoly) -> bool:
    """True iff u is a Salem polynomial.

    Checks: monic; the trace root pattern of ``salem_trace_poly``; and u has
    no cyclotomic factor.
    """
    if not u.is_monic():
        raise PolynomialDomainError("is_salem expects a monic polynomial")
    return salem_trace_poly(u) is not None and not cyclotomic_salem_split(u)[0]


def salem_trace_poly(u: IntPoly) -> IntPoly | None:
    """The trace polynomial of a monic u with the trace root pattern of a
    Salem polynomial, else None.

    The pattern: u is palindromic of even degree >= 4, and its trace
    polynomial has exactly one simple real root > 2 and all its other
    roots simple in (-2, 2).  For a u with no cyclotomic factor (the
    residual of ``cyclotomic_salem_split``) this is ``is_salem`` with no
    second split.  Once -2 and 2 are not roots, one Sturm chain of tr
    decides the rest: its last term, gcd(tr, tr') up to a positive
    factor, is constant iff tr is squarefree, and its sign variations at
    -2, 2 and 2 + B (B the Cauchy bound) count the roots in each range.
    """
    if u.degree < 4 or u.degree % 2 != 0:
        return None
    if palindrome_kind(u) != PALINDROMIC:
        return None
    tr = trace_polynomial(u)
    if tr(2) == 0 or tr(-2) == 0:
        return None
    chain = sturm_chain(tr)
    if len(chain[-1]) > 1:
        return None
    low, mid, high = (_variations_at(chain, x) for x in (-TWO, TWO, TWO + root_bound(tr)))
    if low - mid != tr.degree - 1 or mid - high != 1:
        return None
    return tr


def salem_lambda(u: IntPoly) -> AlgebraicReal:
    """lambda, the one root > 1 of a Salem polynomial u, isolated by
    (1, B) with B the Cauchy bound of u."""
    bound = root_bound(u)
    if count_roots_in(u, Fraction(1), bound) != 1:
        raise SalemDataError("Salem polynomial must have a unique root > 1")
    return AlgebraicReal(u, Fraction(1), bound)


def trace_conjugates(st: IntPoly) -> list[AlgebraicReal]:
    """tau_1 > tau_2 > ... > tau_(m-1): the roots in (-2, 2) of a Salem
    trace polynomial st of degree m; index 0 of the list is tau_1."""
    roots = isolate_real_roots(st)
    inside = [r for r in roots if -TWO <= r.lo and r.hi <= TWO]
    if len(inside) != len(roots) - 1:
        raise SalemDataError("trace polynomial does not have the Salem root pattern")
    return inside


def is_unramified_salem(u: IntPoly) -> bool:
    """Salem and unramified (|u(1)| = |u(-1)| = 1); such polynomials
    necessarily have degree congruent to 2 mod 4, which is checked."""
    if u.degree < 4 or u.degree % 2 != 0 or palindrome_kind(u) != PALINDROMIC:
        return False
    if not is_salem(u):
        return False
    if not unramified(u):
        return False
    if u.degree % 4 != 2:
        raise SalemDataError("unramified Salem polynomial of degree not 2 mod 4")
    return True


def compute_L0(degree_bound: int = 16) -> set[int]:
    """Indices l >= 3 of unramified cyclotomic polynomials with
    euler_phi(l) <= degree_bound."""
    out = set()
    for l in cyclotomic_indices_up_to_degree(degree_bound):
        if l < 3:
            continue
        c = cyclotomic(l)
        if abs(c(1)) == 1 and abs(c(-1)) == 1:
            out.add(l)
    return out


@dataclass
class SalemEntry:
    """One Salem polynomial, keyed by (degree, index-within-degree)."""

    degree: int
    index: int
    trace_poly: IntPoly
    salem_poly: IntPoly = field(init=False)
    lam: AlgebraicReal = field(init=False)

    def __post_init__(self):
        if not self.trace_poly.is_monic():
            raise SalemDataError(
                f"entry ({self.degree},{self.index}): trace polynomial is not monic")
        self.salem_poly = from_trace_polynomial(self.trace_poly)
        if self.salem_poly.degree != self.degree:
            raise SalemDataError(
                f"entry ({self.degree},{self.index}): trace polynomial degree mismatch")
        if not is_salem(self.salem_poly):
            raise SalemDataError(
                f"entry ({self.degree},{self.index}): not a Salem polynomial")
        if trace_polynomial(self.salem_poly) != self.trace_poly:
            raise SalemDataError(
                f"entry ({self.degree},{self.index}): trace round-trip failed")
        self.lam = salem_lambda(self.salem_poly)

    @property
    def key(self) -> tuple[int, int]:
        return (self.degree, self.index)


# Trace polynomials ST_i^(d)(w), descending coefficients, of the Salem
# factors used explicitly by the searches (i is the rank of the Salem
# number among all Salem numbers of that degree, smallest first).
_EMBEDDED: dict[tuple[int, int], list[int]] = {
    (4, 1): [1, -1, -3],
    (6, 1): [1, 0, -4, -1],
    (8, 1): [1, 0, -4, -1, 1],
    (8, 2): [1, -1, -3, 1, 1],
    (8, 15): [1, -2, -4, 7, 1],
    (8, 16): [1, 0, -5, -2, 1],
    (10, 1): [1, 1, -5, -5, 4, 3],
    (12, 1): [1, -1, -5, 4, 5, -2, -1],
    (14, 1): [1, 0, -7, -1, 13, 4, -4, -1],
    (16, 1): [1, -1, -8, 7, 20, -14, -16, 7, 1],
    (16, 2): [1, 1, -8, -8, 19, 18, -13, -10, 1],
    (16, 3): [1, 0, -8, -1, 20, 4, -16, -3, 2],
    (16, 4): [1, -1, -8, 7, 20, -14, -17, 7, 4],
    (16, 5): [1, 0, -9, -1, 26, 5, -25, -5, 4],
    (18, 22): [1, 1, -10, -11, 32, 38, -33, -42, 4, 7],
    (20, 1): [1, -1, -10, 9, 35, -28, -49, 35, 21, -15, 1],
}


class SalemStore:
    """Validated collection of Salem entries keyed by (degree, index).

    Immutable after load.  Within each degree the indices must agree
    with the ordering of the Salem numbers themselves (index order =
    lambda order), which is enforced on the available subset.
    """

    def __init__(self, entries: list[SalemEntry]):
        self.entries: dict[tuple[int, int], SalemEntry] = {}
        for e in entries:
            if e.key in self.entries:
                if self.entries[e.key].trace_poly != e.trace_poly:
                    raise SalemDataError(f"conflicting data for entry {e.key}")
                continue
            self.entries[e.key] = e
        self._validate_order()

    def _validate_order(self):
        # lambda's minimal polynomial is its Salem polynomial, so two
        # entries tie only when they hold one polynomial; otherwise
        # refining both isolating intervals separates them
        by_degree: dict[int, list[SalemEntry]] = {}
        for e in self.entries.values():
            by_degree.setdefault(e.degree, []).append(e)
        for d, es in by_degree.items():
            es.sort(key=lambda e: e.index)
            for a, b in zip(es, es[1:]):
                if a.trace_poly == b.trace_poly:
                    raise SalemDataError(f"degree {d}: entries i={a.index} and i={b.index} "
                                         "hold one Salem polynomial")
                x, y = a.lam, b.lam
                separate(x, y)
                if y.hi <= x.lo:
                    raise SalemDataError(
                        f"degree {d}: lambda order disagrees with index order "
                        f"between i={a.index} and i={b.index}")

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self.entries

    def __getitem__(self, key: tuple[int, int]) -> SalemEntry:
        return self.entries[key]

    def __len__(self) -> int:
        return len(self.entries)

    def keys(self):
        return sorted(self.entries)

    def of_degree(self, d: int) -> list[SalemEntry]:
        return [self.entries[k] for k in sorted(self.entries) if k[0] == d]

    def unramified_entries(self) -> list[SalemEntry]:
        return [e for k, e in sorted(self.entries.items())
                if unramified(e.salem_poly)]


def parse_salem_file(text: str) -> list[SalemEntry]:
    """Parse the Salem list format: `d i : c_m c_(m-1) ... c_0`."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, _, tail = line.partition(":")
            d_s, i_s = head.split()
            d, i = int(d_s), int(i_s)
            coeffs_desc = [int(t) for t in tail.split()]
        except ValueError as exc:
            raise SalemDataError(f"line {lineno}: cannot parse {raw!r}") from exc
        if len(coeffs_desc) != d // 2 + 1:
            raise SalemDataError(
                f"line {lineno}: expected {d // 2 + 1} coefficients for degree {d}")
        tr = IntPoly(list(reversed(coeffs_desc)))
        entries.append(SalemEntry(d, i, tr))
    return entries


def load_store(external_path: str | None = None) -> SalemStore:
    """The embedded entries, optionally merged with an external list file."""
    entries = [SalemEntry(d, i, IntPoly(list(reversed(cs))))
               for (d, i), cs in sorted(_EMBEDDED.items())]
    if external_path is not None:
        with open(external_path, "r", encoding="utf-8") as fh:
            entries.extend(parse_salem_file(fh.read()))
    return SalemStore(entries)
