"""Differential tests of the exact polynomial core against sympy.

sympy is an independent implementation: these tests compare the one
integer Sturm chain (root counting, and isolation cut at -2 and 2),
the trace-cluster interleaving read off one bisection of Phi * Psi,
the resultant and the gcd read off the one subresultant PRS, the
census's Descartes bisection of the roots in (-2, 2), the coprime normal
form of rational functions, number field sums, products and inverses,
the resultant's halving on trace polynomials, the minimal polynomials
interpolated from it, the Newton interpolation in integers (and its
refusal of values that no integer polynomial takes), the characteristic
polynomial interpolated by it, the Newton power sums against traces of
companion powers, the inertia and determinant read off the
fraction-free symmetric elimination, the integer matrix of B on the
A-orbit basis and the PRS gcd of the rank-2 elimination over Z[w] with
it on random inputs.  Over Z[w]/(st) that
gcd is checked against Euclid's algorithm in the number field, and the
exact division against sympy's inverse there; the sign of a polynomial
at an algebraic number against sympy's real roots.  The symmetric
descent delta + 1/delta -> w is checked by substituting back in sympy,
and its refusal against sympy's test of r(1/delta) = r(delta).  The
jet recurrences, their closed forms and the type-II residue, as
polynomials over RationalFunctionW, are checked against sympy's own
iteration of the recurrences.
"""

import functools
import math
import operator
import random
from unittest import mock
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.subresultants_qq_zz import sylvester

from k3siegel import cli, linalg
from k3siegel.hodgeclass import dissect
from k3siegel.algnum import (
    NumberFieldElem,
    RationalFunctionW,
    count_roots_in,
    isolate_real_roots,
    minpoly_of_value,
    sign_at,
    symmetric_descent,
)
from k3siegel.fpfsiegel import (
    A01,
    B10,
    base_theta_4vars,
    exceptional_nu_typeII,
    jet_closed_forms,
    jet_oracle,
    theta_iterate_closed_form,
)
from k3siegel.hyplattice import _b_matrix_in_a_basis
from k3siegel.intpoly import (
    IntPoly,
    PolynomialDomainError,
    cyclotomic,
    from_trace_polynomial,
    gcd as zgcd,
    interpolate,
    last_subresultant,
    newton_traces,
    reciprocal,
    resultant,
    series_quotient,
    trace_polynomial,
)
from k3siegel.picard2 import (
    ST20_1,
    CertificationError,
    IntegralRing,
    fp_divmod,
    fp_monic,
    fp_mul,
    k_gcd,
)
from k3siegel.salemlib import load_store
from k3siegel import setup2
from k3siegel.setup2 import _descartes_maps, _root_counts

X = sympy.Symbol("x")
W = sympy.Symbol("w")
EXAMPLES = settings(max_examples=100, deadline=None)


def int_polys(min_degree=0, max_degree=8, bound=20):
    return st.lists(st.integers(-bound, bound), min_size=min_degree,
                    max_size=max_degree).flatmap(
        lambda low: st.integers(-bound, bound).filter(bool).map(
            lambda lead: IntPoly(low + [lead])))


def monic_polys(min_degree=1, max_degree=6, bound=9):
    return st.lists(st.integers(-bound, bound), min_size=min_degree,
                    max_size=max_degree).map(lambda low: IntPoly(low + [1]))


fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 6))


def to_sympy(p: IntPoly, var=X) -> sympy.Poly:
    return sympy.Poly(list(reversed(p.coeffs)), var)


def sylvester_resultant(u, v):
    """The resultant by definition: the Sylvester determinant.  (sympy's
    own ``resultant`` gets the sign wrong for some degree patterns, such
    as Res(x - 2, x^3 + 1) = 9, which it gives as -9.)"""
    return sylvester(to_sympy(u).as_expr(), to_sympy(v).as_expr(), X).det()


def sympy_roots_in_open(p: IntPoly, a: Fraction, b: Fraction) -> int:
    """sympy counts distinct roots on the closed interval; endpoint roots
    of the squarefree part are taken off."""
    sf = to_sympy(p).sqf_part()
    ra = sympy.Rational(a.numerator, a.denominator)
    rb = sympy.Rational(b.numerator, b.denominator)
    return sf.count_roots(ra, rb) - (sf.eval(ra) == 0) - (sf.eval(rb) == 0)


@EXAMPLES
@given(int_polys(), fractions, fractions)
def test_count_roots_in_matches_sympy(p, a, b):
    if a == b:
        return
    a, b = min(a, b), max(a, b)
    assert count_roots_in(p, a, b) == sympy_roots_in_open(p, a, b)


@EXAMPLES
@given(int_polys(min_degree=1).map(lambda p: p * p.derivative() if p.degree > 1 else p),
       fractions)
def test_count_roots_in_repeated_roots_and_endpoint_roots(p, a):
    # p times its derivative has repeated roots; the endpoint a is made a root
    p = p * IntPoly([-a.numerator, a.denominator])
    assert count_roots_in(p, a, a + 3) == sympy_roots_in_open(p, a, a + 3)
    assert count_roots_in(p, a - 3, a) == sympy_roots_in_open(p, a - 3, a)


# partition points of the census's eight pieces of (-2, 2), roots near
# the ends and the ends themselves, as (numerator, denominator)
PLANTED = [(p, 2) for p in range(-3, 4)] + [(15, 8), (-15, 8), (2, 1), (-2, 1)]
DESCARTES_MAPS = _descartes_maps()[1]


@st.composite
def planted_polys(draw):
    """Nonzero integer polynomials of degree <= 11: up to four planted
    roots (repeats allowed) times a random factor, squared or not.  The
    coefficients stay below 2^29, so Q_k stays exact in int64."""
    roots = draw(st.lists(st.sampled_from(PLANTED), max_size=4))
    p = draw(int_polys(max_degree=(11 - len(roots)) // 2, bound=9))
    if draw(st.booleans()):
        p = p * p
    for n, d in roots:
        p = p * IntPoly([-n, d])
    return p


def census_row(p: IntPoly) -> np.ndarray:
    return np.array([list(p.coeffs) + [0] * (12 - len(p.coeffs))], dtype=np.int64)


@EXAMPLES
@given(planted_polys())
@example(IntPoly([-1, 2]))          # a root at the partition point 1/2
@example(IntPoly([-1, 2, 0, 1]))    # a zero coefficient inside a Q_k
def test_descartes_bound_covers_distinct_roots(p):
    # on the census's threshold a decided count is the count, and a word
    # left undecided (rejected, or sent to Sturm) has an upper bound
    count, exact = _root_counts(census_row(p), DESCARTES_MAPS)
    roots = sympy_roots_in_open(p, Fraction(-2), Fraction(2))
    assert count[0] == roots if exact[0] else count[0] >= roots


# a double root inside a piece: both +-sqrt 2 never split down to one
# sign variation
DOUBLE_ROOTS = IntPoly([-2, 0, 1]) ** 2


@EXAMPLES
@given(planted_polys())
@example(IntPoly([-1, 2]))                        # a root at the piece end 1/2
@example(IntPoly([-1, 4]) * IntPoly([-1, 8]))     # a root at the first cut 1/4
@example(IntPoly([-3, 4]) * IntPoly([-7, 8]) ** 2)   # a double root on a later cut
@example(DOUBLE_ROOTS)
def test_descartes_bisection_matches_sympy(p):
    # with no rejection threshold the bisection decides every row it can
    # split; a row it leaves for Sturm keeps an upper bound
    with mock.patch.object(setup2, "_ROOT_COUNTS", (0,)):
        count, exact = _root_counts(census_row(p), DESCARTES_MAPS)
    roots = sympy_roots_in_open(p, Fraction(-2), Fraction(2))
    assert count[0] == roots if exact[0] else count[0] >= roots


def test_descartes_bisection_leaves_a_double_root_to_sturm():
    with mock.patch.object(setup2, "_ROOT_COUNTS", (0,)):
        count, exact = _root_counts(census_row(DOUBLE_ROOTS), DESCARTES_MAPS)
    assert not exact[0] and count[0] >= 2


@EXAMPLES
@given(int_polys(min_degree=1))
@example(IntPoly([-4, 0, 1]))       # roots at both cut points
@example(IntPoly([-5, 0, 1]))       # roots on both sides of both cut points
def test_isolate_real_roots_matches_sympy(p):
    roots = isolate_real_roots(p)
    sf = to_sympy(p).sqf_part()
    assert len(roots) == sf.count_roots()
    for r in roots:
        lo = sympy.Rational(r.lo.numerator, r.lo.denominator)
        hi = sympy.Rational(r.hi.numerator, r.hi.denominator)
        assert sf.count_roots(lo, hi) == 1
    for upper, lower in zip(roots, roots[1:]):
        assert lower.hi <= upper.lo and (lower.lo, lower.hi) != (upper.lo, upper.hi)
    # -2 and 2 are cut points: an interval straddles one only to isolate it
    for r in roots:
        for cut in (-2, 2):
            assert not r.lo < cut < r.hi or sf.eval(cut) == 0


# pairwise coprime irreducible trace factors: planted rational roots,
# none of them 0, +-1 or +-2, and the trace polynomials of cyclotomics
TRACE_FACTORS = ([IntPoly([-n, d]) for n, d in
                  [(3, 1), (-3, 1), (5, 2), (-7, 3), (1, 2), (-1, 2), (3, 2), (-4, 3), (7, 4)]]
                 + [trace_polynomial(cyclotomic(n)) for n in (3, 4, 5, 7, 9, 12, 15)])


@st.composite
def trace_pairs(draw):
    """(Phi, Psi) coprime and squarefree, split from distinct factors."""
    chosen = draw(st.lists(st.sampled_from(TRACE_FACTORS), unique_by=lambda f: f.coeffs,
                           min_size=2, max_size=7))
    k = draw(st.integers(1, len(chosen) - 1))
    return math.prod(chosen[:k], start=IntPoly([1])), math.prod(chosen[k:], start=IntPoly([1]))


@EXAMPLES
@given(trace_pairs())
def test_dissect_matches_sympy(pair):
    big_phi, big_psi = pair
    d = dissect(IntPoly([-1, 0, 1]) * from_trace_polynomial(big_phi),
                from_trace_polynomial(big_psi))
    assert not d.flags
    tagged = [(r, tag) for p, tag in ((big_phi, "A"), (big_psi, "B"))
              for r in sympy.real_roots(to_sympy(p).as_expr(), X)]
    inside = sorted(((r, t) for r, t in tagged if -2 < r < 2), key=lambda rt: rt[0], reverse=True)
    expected = "".join(t for _, t in inside)
    a_runs, b_runs = d.a_clusters, d.b_clusters
    got = "".join("A" * len(a) + "B" * len(b) for a, b in zip(a_runs, b_runs + [[]]))
    assert got == expected
    assert len(a_runs) == len(b_runs) + 1
    assert d.a_gt2_count == sum(1 for r, t in tagged if t == "A" and r > 2)
    assert d.b_off_count == big_psi.degree - expected.count("B")
    for r in d.a_on + d.b_on:
        lo = sympy.Rational(r.lo.numerator, r.lo.denominator)
        hi = sympy.Rational(r.hi.numerator, r.hi.denominator)
        assert to_sympy(r.minpoly).count_roots(lo, hi) == 1


@EXAMPLES
@given(int_polys(max_degree=6), int_polys(max_degree=6))
def test_resultant_matches_sylvester_determinant(u, v):
    assert resultant(u, v) == sylvester_resultant(u, v)


def sympy_coeffs(expr) -> list:
    """Ascending coefficients of a polynomial expression in x, [] for zero."""
    p = sympy.Poly(expr, X)
    return [] if p.is_zero else list(reversed(p.all_coeffs()))


def sympy_primitive(expr) -> list:
    """The primitive part with positive leading coefficient, ascending."""
    cs = sympy_coeffs(expr)
    if not cs:
        return []
    content = sympy.gcd_list(cs) * (1 if cs[-1] > 0 else -1)
    return [c / content for c in cs]


maybe_zero_polys = st.one_of(st.just(IntPoly()), int_polys(max_degree=5))
contents = st.integers(-6, 6).filter(bool)


@EXAMPLES
@given(maybe_zero_polys, maybe_zero_polys, int_polys(max_degree=3), contents, contents)
def test_gcd_matches_sympy(a, b, c, ka, kb):
    # a planted common factor c (constant when deg c = 0), nontrivial
    # contents ka, kb, negative leading coefficients, zero inputs
    f, g = a * c * ka, b * c * kb
    want = sympy.gcd(to_sympy(f).as_expr(), to_sympy(g).as_expr())
    assert list(zgcd(f, g).coeffs) == sympy_primitive(want)


def rational_poly(coeffs) -> sympy.Poly:
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                      X, domain="QQ")


@EXAMPLES
@given(st.lists(fractions, max_size=5), st.lists(fractions, min_size=1, max_size=5).filter(any),
       st.lists(fractions, min_size=1, max_size=3).filter(any))
def test_rational_function_normal_form_matches_sympy_cancel(num, den, common):
    # rational num/den with a planted common factor, handed over as the
    # integer pair (cd num c) / (cn den c) of its cleared denominators
    c = rational_poly(common)
    cn, n_int = (rational_poly(num) * c).clear_denoms(convert=True)
    cd, d_int = (rational_poly(den) * c).clear_denoms(convert=True)
    f = RationalFunctionW(IntPoly(reversed((n_int * int(cd)).all_coeffs())),
                          IntPoly(reversed((d_int * int(cn)).all_coeffs())))
    assert isinstance(f.num, IntPoly) and isinstance(f.den, IntPoly)
    want_n, want_d = sympy.fraction(sympy.cancel(rational_poly(num).as_expr()
                                                 / rational_poly(den).as_expr()))
    if f.num.is_zero():
        assert want_n == 0 and f.den == IntPoly([1])
        return
    # coprime in Z[w], content included, and lead(den) > 0
    assert zgcd(f.num, f.den) == IntPoly([1])
    assert math.gcd(f.num.content(), f.den.content()) == 1
    assert f.den.leading() > 0
    # the same function as sympy's cancelled quotient
    assert sympy.expand(to_sympy(f.num).as_expr() * want_d
                        - to_sympy(f.den).as_expr() * want_n) == 0


@EXAMPLES
@given(int_polys(max_degree=6), int_polys(max_degree=6),
       st.one_of(st.just(IntPoly([1])), int_polys(min_degree=1, max_degree=2)))
def test_resultant_vanishes_iff_gcd_is_nontrivial(a, b, c):
    # the two readers of the one subresultant PRS agree
    u, v = a * c, b * c
    assert (resultant(u, v) == 0) == (zgcd(u, v).degree > 0)


@EXAMPLES
@given(monic_polys(max_degree=5), monic_polys(max_degree=5))
def test_resultant_of_palindromic_pair_is_square_of_trace_resultant(tp, tq):
    # monic palindromic p, q of even degree with trace polynomials P, Q:
    # Res(p, q) = Res(P, Q)^2, the identity the census and the prefilter use
    p, q = from_trace_polynomial(tp), from_trace_polynomial(tq)
    assert resultant(tp, tq) ** 2 == sylvester_resultant(p, q)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([IntPoly([-3, -1, 1]), IntPoly([1, -3, 0, 1]), IntPoly([-2, 0, 0, 1]),
                        IntPoly([-3, 0, 2])]),
       st.lists(st.integers(-4, 4), min_size=1, max_size=4),
       st.lists(st.integers(-3, 3), min_size=1, max_size=2).filter(any))
@example(IntPoly([-3, 0, 2]), [0, 1], [1, 1])  # w/(w + 1): x den - num is 1 at x = 1
def test_minpoly_of_value_matches_sympy(m, num, den):
    # each m is irreducible of degree > deg den, so den(alpha) != 0; the
    # last is not monic, so a node where x den - num drops degree changes
    # the power of lc(m) in its resultant
    f = RationalFunctionW(IntPoly(num), IntPoly(den))
    got = minpoly_of_value(f, isolate_real_roots(m)[0])
    # independent route: the bivariate resultant, squarefree and primitive
    res = sylvester(to_sympy(m, W).as_expr(),
                    X * to_sympy(f.den, W).as_expr() - to_sympy(f.num, W).as_expr(), W).det()
    want = sympy.Poly(res, X).sqf_part()
    want = want.primitive()[1]
    if want.LC() < 0:
        want = -want
    assert [int(c) for c in reversed(got.coeffs)] == [int(c) for c in want.all_coeffs()]


def sympy_interpolate(ys) -> sympy.Poly:
    """The polynomial of degree < len(ys) taking the value ys[i] at x = i,
    by a Vandermonde solve over QQ."""
    n = len(ys)
    if not n:
        return sympy.Poly(0, X)
    vander = DomainMatrix([[QQ(i ** k) for k in range(n)] for i in range(n)], (n, n), QQ)
    coeffs = vander.lu_solve(DomainMatrix([[QQ(y)] for y in ys], (n, 1), QQ))
    return sympy.Poly(list(reversed(coeffs.to_Matrix())), X)


@EXAMPLES
@given(int_polys(max_degree=11, bound=10**6), st.integers(0, 3))
def test_interpolate_matches_sympy(p, extra):
    # the values of p at 0..n-1, n > deg p, give p back, in integers
    ys = [p(i) for i in range(p.degree + 1 + extra)]
    got = interpolate(ys)
    assert got == p
    assert to_sympy(got) == sympy_interpolate(ys)


@EXAMPLES
@given(st.lists(st.integers(-50, 50), max_size=8))
@example([0, 0, 1])  # x(x - 1)/2: integer at every integer, but not in Z[x]
def test_interpolate_raises_iff_no_integer_polynomial_fits(ys):
    want = sympy_interpolate(ys)
    if all(c.is_integer for c in want.all_coeffs()):
        assert to_sympy(interpolate(ys)) == want
    else:
        with pytest.raises(PolynomialDomainError):
            interpolate(ys)


@settings(max_examples=50, deadline=None)
@given(monic_polys(max_degree=6, bound=5), st.integers(1, 12))
def test_newton_traces_match_companion_powers(p, n):
    c = sympy.Matrix.companion(to_sympy(p))
    want, power = [], sympy.eye(p.degree)
    for _ in range(n):
        power = power * c
        want.append(power.trace())
    assert newton_traces(p, n) == want


@settings(max_examples=25, deadline=None)
@given(monic_polys(max_degree=5, bound=5), monic_polys(max_degree=5, bound=5),
       st.integers(1, 12))
def test_series_quotient_matches_sympy_series(u, v, count):
    # reversed monic polynomials have constant term 1
    num, den = reciprocal(u), reciprocal(v)
    expansion = sympy.series(to_sympy(num).as_expr() / to_sympy(den).as_expr(), X, 0, count)
    want = sympy.Poly(expansion.removeO(), X).all_coeffs()[::-1]
    assert series_quotient(num, den, count) == want + [0] * (count - len(want))


@EXAMPLES
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_charpoly_matches_sympy(m):
    want = sympy.Matrix(m).charpoly(X).all_coeffs()
    assert list(reversed(linalg.charpoly(m).coeffs)) == want


def sympy_salem_conjugates(phi: IntPoly) -> list:
    """The roots in (-2, 2) of the trace polynomial of phi's Salem factor
    S, largest first, by sympy alone: S is the irreducible factor of
    degree > 1 with a real root >= 1, and Res_z(S(z), z^2 - w z + 1) is
    its trace polynomial squared."""
    (s,) = [f for f, _ in to_sympy(phi).factor_list()[1]
            if f.degree() > 1 and f.count_roots(1, None)]
    st_poly = sympy.Poly(sympy.resultant(s.as_expr(), X ** 2 - W * X + 1, X), W).sqf_part()
    return sorted((r for r in st_poly.real_roots() if -2 < r < 2), reverse=True)


@pytest.mark.parametrize("search, reached, conjugate", [
    pytest.param(None, 156, 40, id="setup2"),  # the session's setup2_search
    pytest.param(lambda: cli.search_setup1(load_store(), 20, include_rejections=True),
                 None, None, id="setup1-20"),
    pytest.param(lambda: cli.search_setup1(load_store(), 18, include_rejections=True),
                 None, None, id="setup1-18"),
])
def test_special_trace_index_matches_sympy(request, salem_steps, search, reached, conjugate):
    # from dissect's rational interval (lo, hi) of tau alone, sympy decides
    # whether a root of the Salem trace polynomial lies in it, and its
    # rank among the roots in (-2, 2), largest first
    rows, records = (request.getfixturevalue("setup2_search") if search is None
                     else salem_steps(search))
    conjugates, want = {}, []
    for tau, phi, verdict in records:
        if phi not in conjugates:
            conjugates[phi] = sympy_salem_conjugates(phi)
        inside = conjugates[phi]
        lo, hi = (sympy.Rational(x.numerator, x.denominator) for x in (tau.lo, tau.hi))
        want.append(next((j for j, r in enumerate(inside, start=1) if lo < r < hi), None))
        assert verdict.accepted == (want[-1] is not None)
        assert verdict.special_trace_index == want[-1]
        if not verdict.accepted:
            assert verdict.rejection_reason == \
                "special trace is not conjugate to the Salem number"
    assert records and (reached is None or len(records) == reached)
    assert conjugate is None or len(want) - want.count(None) == conjugate
    assert sorted(r.st_index for r in rows if r.st_index is not None) == \
        sorted(j for j in want if j is not None)
    assert sum(r.rejection == "special trace is not conjugate to the Salem number"
               for r in rows) == want.count(None)


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices, n <= 7, often with a zero diagonal
    (so the elimination must pivot or add a row) or a repeated
    row and column (so it is singular)."""
    n = draw(st.integers(1, 7))
    m = [[0] * n for _ in range(n)]
    zero_diagonal = draw(st.booleans())
    for i in range(n):
        for j in range(i, n):
            if not (i == j and zero_diagonal):
                m[i][j] = m[j][i] = draw(st.integers(-4, 4))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        m[i] = list(m[j])
        for row in m:
            row[i] = row[j]
    return m


def descartes_inertia(m):
    """(positive, negative, zero) eigenvalue counts from sympy's
    characteristic polynomial: its roots are all real, so Descartes'
    rule of signs counts them exactly."""
    cp = [int(c) for c in sympy.Matrix(m).charpoly(X).all_coeffs()]
    zero = 0
    while cp[-1] == 0:
        cp.pop()
        zero += 1

    def changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    deg = len(cp) - 1
    return changes(cp), changes([c * (-1) ** (deg - i) for i, c in enumerate(cp)]), zero


@EXAMPLES
@given(symmetric_matrices())
def test_inertia_matches_sympy(m):
    assert linalg.inertia(m) == (descartes_inertia(m), sympy.Matrix(m).det())


B = sympy.Symbol("B")


def zw_polys(max_degree=2, w_degree=2, bound=3):
    """Nonzero polynomials in B over Z[w], as lists of IntPolys."""
    coeff = st.lists(st.integers(-bound, bound), max_size=w_degree + 1).map(IntPoly)
    return st.lists(coeff, min_size=1, max_size=max_degree + 1).map(
        lambda cs: cs[:-1] + [cs[-1] or IntPoly([1])])


def zw_to_sympy(p):
    return sum(to_sympy(c, W).as_expr() * B ** i for i, c in enumerate(p))


@EXAMPLES
@given(zw_polys(), zw_polys(), zw_polys())
def test_subresultant_gcd_over_zw_matches_sympy(a, b, c):
    # a planted common factor c, so most gcds are not trivial
    f, g = fp_mul(a, c), fp_mul(b, c)
    got = zw_to_sympy(last_subresultant(IntegralRing(), f, g))
    want = sympy.gcd(zw_to_sympy(f), zw_to_sympy(g))
    # equal up to an associate: a nonzero factor free of B
    ratio = sympy.cancel(got / want)
    assert ratio != 0 and not ratio.has(B)


def field_euclid(a, b):
    """The reference gcd over a field: Euclid's algorithm, made monic."""
    while b:
        a, b = b, fp_divmod(a, b)[1]
    return fp_monic(a)


def k_elems(mod):
    """Elements of K = QQ[w]/(mod) with small rational coefficients, as
    num/den over the lcm of the coefficient denominators."""
    def elem(cs):
        den = math.lcm(*(c.denominator for c in cs))
        return NumberFieldElem(mod, IntPoly(c * den for c in cs), den)

    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.lists(small, min_size=mod.degree, max_size=mod.degree).map(elem)


def k_polys(mod, max_degree=2):
    """Nonzero polynomials in B over K = QQ[w]/(mod)."""
    return st.lists(k_elems(mod), min_size=1, max_size=max_degree + 1).filter(
        lambda cs: not cs[-1].is_zero())


MODULI = pytest.mark.parametrize("mod", [IntPoly([-3, -1, 1]), ST20_1],
                                 ids=["w2-w-3", "ST20_1"])


def k_to_sympy(x: NumberFieldElem) -> sympy.Poly:
    return sympy.Poly(to_sympy(x.num, W).as_expr() / x.den, W, domain="QQ")


@MODULI
def test_number_field_arithmetic_matches_sympy(mod):
    m = sympy.Poly(to_sympy(mod, W).as_expr(), W, domain="QQ")

    @EXAMPLES
    @given(k_elems(mod), k_elems(mod))
    def check(a, b):
        x, y = k_to_sympy(a), k_to_sympy(b)
        for got, want in ((a + b, x + y), (a * b, (x * y).rem(m))):
            assert k_to_sympy(got) == want
            # the normal form: reduced mod m, den > 0, coprime to the content
            assert got.num.degree < mod.degree and got.den > 0
            assert math.gcd(got.num.content(), got.den) == 1
        if not b.is_zero():
            assert k_to_sympy(b.inverse()) == y.invert(m)

    check()


def test_number_field_inverse_of_a_zero_divisor():
    # w - 1 divides zero in QQ[w]/(w^2 - 1): (w - 1)(w + 1) = 0
    with pytest.raises(ZeroDivisionError):
        NumberFieldElem(IntPoly([-1, 0, 1]), IntPoly([-1, 1])).inverse()


@MODULI
def test_subresultant_gcd_over_zw_mod_st_matches_field_euclid(mod):
    @EXAMPLES
    @given(k_polys(mod), k_polys(mod), k_polys(mod))
    def check(a, b, c):
        # a planted common factor c, so most gcds are not trivial
        f, g = fp_mul(a, c), fp_mul(b, c)
        assert k_gcd(f, g) == field_euclid(f, g)

    check()


SIGN_FACTORS = {"ST20_1": [ST20_1],
                "reducible": [IntPoly([-3, -1, 1]), IntPoly([-2, 0, 1]), IntPoly([-1, 2])]}


@pytest.mark.parametrize("name", SIGN_FACTORS)
def test_sign_at_matches_sympy(name):
    # q random, or q = f r for an irreducible factor f of m, which plants
    # a zero at exactly the roots of f; the zero test divides q by the
    # sympy minimal polynomial of each root, exactly, and any other sign
    # is read off the root to 80 digits, far from zero
    factors = SIGN_FACTORS[name]
    m = functools.reduce(operator.mul, factors)
    roots = sorted(to_sympy(m).real_roots(), reverse=True)
    minimal = [sympy.Poly(sympy.minimal_polynomial(root, X), X) for root in roots]
    approx = [root.evalf(80) for root in roots]

    @settings(max_examples=40, deadline=None)
    @given(int_polys(max_degree=12), st.integers(-1, len(factors) - 1))
    def check(r, which):
        q = r if which < 0 else factors[which] * r
        xs = isolate_real_roots(m)
        assert len(xs) == len(roots)
        for x, mp, a in zip(xs, minimal, approx):
            if to_sympy(q).rem(mp).is_zero:
                want = 0
            else:
                value = functools.reduce(lambda acc, c: acc * a + c, reversed(q.coeffs), 0)
                assert abs(value) > sympy.Float("1e-40")
                want = 1 if value > 0 else -1
            assert sign_at(q, x) == want

    check()


def w_to_sympy(p: IntPoly) -> sympy.Poly:
    return sympy.Poly(to_sympy(p, W).as_expr(), W, domain="QQ")


@MODULI
def test_exact_division_in_zw_mod_st(mod):
    # the quotients v c^(-1) mod m by sympy's inverse in QQ[w]/(m): equal
    # when each is integral, else CertificationError; c runs over +-1,
    # multiples k c' with content k > 1, and several values share one c
    m = w_to_sympy(mod)
    coeffs = st.lists(st.integers(-9, 9), min_size=mod.degree, max_size=mod.degree)
    divisors = st.one_of(st.sampled_from([[1], [-1]]), coeffs.filter(any))

    @EXAMPLES
    @given(st.lists(coeffs, min_size=1, max_size=4), divisors, st.integers(1, 6),
           st.booleans(), coeffs)
    def check(qs, c, k, planted, noise):
        ring = IntegralRing(mod)
        c = IntPoly(c) * k
        values = [ring.mul(IntPoly(q), c) for q in qs]
        if not planted:
            values[-1] = values[-1] + IntPoly(noise)
        inverse = w_to_sympy(c).invert(m)
        want = [(w_to_sympy(v) * inverse).rem(m) for v in values]
        if all(sympy.Rational(x).q == 1 for q in want for x in q.all_coeffs()):
            assert [w_to_sympy(q) for q in ring.divide(values, c)] == want
            if planted:
                assert ring.divide(values, c) == [IntPoly(q) for q in qs]
        else:
            with pytest.raises(CertificationError):
                ring.divide(values, c)

    check()


def test_division_by_a_zero_divisor_of_a_reducible_modulus():
    # c = (w^2 - 2) r divides zero in Z[w]/((w^2 - 2)(w^2 - w - 3))
    mod = IntPoly([-2, 0, 1]) * IntPoly([-3, -1, 1])
    ring = IntegralRing(mod)

    @EXAMPLES
    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=2).filter(any),
           st.lists(st.integers(-9, 9), min_size=4, max_size=4))
    def check(r, v):
        c = ring.mul(IntPoly([-2, 0, 1]), IntPoly(r))
        assert sympy.gcd(w_to_sympy(c), w_to_sympy(mod)).degree() > 0
        with pytest.raises(CertificationError):
            ring.divide([IntPoly(v), c], c)

    check()


STORE = load_store()


def sympy_b_on_orbit_basis(phi, psi):
    """P^(-1) B_std P by sympy's rational solves: A and B_std the companions
    of phi and psi, r = A^(-1) B_std e_n - e_n, P = [r, Ar, ..., A^21 r]."""
    a = sympy.Matrix.companion(to_sympy(phi))
    b = sympy.Matrix.companion(to_sympy(psi))
    e = sympy.zeros(a.rows, 1)
    e[a.rows - 1] = 1
    cols = [a.LUsolve(b * e) - e]
    for _ in range(a.rows - 1):
        cols.append(a * cols[-1])
    p = sympy.Matrix.hstack(*cols)
    return p.LUsolve(b * p).tolist()


def coprime_pairs(count, seed):
    """Seeded coprime pairs phi = (z^2 - 1) S prod C_j, psi = T prod C_k of
    degree 22, with Salem factors S != T of degree >= 12 from the store."""
    rng = random.Random(seed)
    entries = [e for e in STORE.entries.values() if e.degree >= 12]
    pairs = []
    while len(pairs) < count:
        s, t = rng.sample(entries, 2)
        phi = cli.phi_of(s.salem_poly, rng.choice(cli.cyclotomic_sets(20 - s.degree)))
        psi = t.salem_poly
        for j in rng.choice(cli.cyclotomic_sets(22 - t.degree)):
            psi = psi * cyclotomic(j)
        if zgcd(phi, psi).degree == 0:
            pairs.append((phi, psi))
    return pairs


ROW1 = (IntPoly([-1, 0, 1]) * STORE[(20, 1)].salem_poly,
        STORE[(10, 1)].salem_poly * cyclotomic(21))


@pytest.mark.parametrize("phi, psi", [ROW1] + coprime_pairs(5, seed=8),
                         ids=["row1"] + [f"pair{i}" for i in range(5)])
def test_b_matrix_matches_sympy_basis_change(phi, psi):
    assert _b_matrix_in_a_basis(phi, psi) == sympy_b_on_orbit_basis(phi, psi)


DELTA, THETA_S, A01_S, B10_S, A20_S = JET_SYMBOLS = sympy.symbols("delta theta a01 b10 a20")


def jet_to_sympy(p):
    """A JetPoly, term by term, or a RationalFunctionW as a sympy
    expression in JET_SYMBOLS."""
    if isinstance(p, RationalFunctionW):
        return to_sympy(p.num, DELTA).as_expr() / to_sympy(p.den, DELTA).as_expr()
    return sum((jet_to_sympy(c) * sympy.prod([v ** k for v, k in zip(JET_SYMBOLS[1:], e)])
                for e, c in p.items()), sympy.Integer(0))


def test_jet_identities_match_sympy_iteration():
    # sympy iterates the jet_oracle recurrences on its own symbols; both
    # the iterated and the closed-form JetPolys must equal its fields, and
    # the type-II residue its closed form and its value through theta^(n)
    d = RationalFunctionW.variable()
    base = (1 - DELTA) * A20_S + DELTA * A01_S * B10_S
    x10, x01, xb10, x20 = 1, A01_S, B10_S, A20_S
    for n, st in enumerate(jet_oracle(6), start=1):
        cf = jet_closed_forms(n)
        dn = DELTA ** n
        for field, want in (("a10", x10), ("a01", x01), ("b10", xb10), ("a20", x20)):
            for got in (getattr(st, field), getattr(cf, field)):
                assert sympy.cancel(jet_to_sympy(got) - want) == 0, (n, field)
        theta_n = ((1 - dn) * x20 + dn * x01 * xb10) / x10 ** 2
        for got in (st.theta(), theta_iterate_closed_form(n, base_theta_4vars())):
            assert sympy.cancel(jet_to_sympy(got) - theta_n) == 0
        nu = jet_to_sympy(exceptional_nu_typeII(n))
        displayed = ((n - 1 + (n + 1) * dn + sum(DELTA ** k for k in range(n)) * THETA_S)
                     / (n * (1 - dn) ** 2))
        assert sympy.cancel(nu - displayed) == 0
        assert sympy.cancel(nu.subs(THETA_S, base) - (2 * dn + theta_n) / (1 - dn) ** 2) == 0
        # negative control: a wrong a20 differs, in JetPoly and in sympy
        wrong = cf.a20 + A01 * B10 * d ** 7
        assert (st.a20 == wrong) is False
        assert sympy.cancel(jet_to_sympy(wrong) - x20) != 0
        x10, x01, xb10, x20 = (x10 + 1, x01 + dn * A01_S, xb10 + B10_S / dn,
                               x20 + A20_S + 2 * x10 + dn * A01_S * xb10)


def palindromic_polys(max_half_degree=3, bound=9):
    """Palindromic polynomials z^m U(z + 1/z) of even degree 2m, content
    and sign drawn with U."""
    return int_polys(max_degree=max_half_degree, bound=bound).map(from_trace_polynomial)


@EXAMPLES
@given(palindromic_polys(), palindromic_polys(), st.integers(0, 3))
def test_symmetric_descent_matches_sympy(n, d, k):
    # r = delta^a N / (delta^b D) with b - a = (deg N - deg D) / 2 is
    # symmetric; its descent hat satisfies hat(delta + 1/delta) = r
    e = (n.degree - d.degree) // 2
    a = k + max(0, -e)
    r = RationalFunctionW(n.shift(a), d.shift(a + e))
    hat_s = jet_to_sympy(symmetric_descent(r)).subs(DELTA, DELTA + 1 / DELTA)
    assert sympy.cancel(hat_s - jet_to_sympy(r)) == 0


def descent_factors():
    """Factors that make symmetric quotients and all kinds of asymmetric
    ones: any polynomial, palindromic or anti-palindromic ones, each times
    a power of delta."""
    plain = int_polys(max_degree=5, bound=5)
    anti = palindromic_polys(max_half_degree=2, bound=5).map(lambda p: p * IntPoly([-1, 0, 1]))
    return st.tuples(st.one_of(plain, palindromic_polys(bound=5), anti),
                     st.integers(0, 3)).map(lambda pk: pk[0].shift(pk[1]))


@EXAMPLES
@given(descent_factors(), descent_factors())
def test_symmetric_descent_raises_iff_sympy_finds_asymmetry(num, den):
    r = RationalFunctionW(num, den)
    r_s = jet_to_sympy(r)
    symmetric = sympy.cancel(r_s.subs(DELTA, 1 / DELTA) - r_s) == 0
    if not symmetric:
        with pytest.raises(PolynomialDomainError):
            symmetric_descent(r)
        return
    hat_s = jet_to_sympy(symmetric_descent(r)).subs(DELTA, DELTA + 1 / DELTA)
    assert sympy.cancel(hat_s - r_s) == 0


def test_symmetric_descent_of_zero_is_zero():
    assert symmetric_descent(RationalFunctionW.of(0)) == RationalFunctionW.of(0)


def test_descent_and_powers_build_one_rational_function():
    # the descent reads trace_polynomial, with no arithmetic in
    # RationalFunctionW, and a power is one normal form of num^n / den^n
    d = RationalFunctionW.variable()
    sym = (1 + d + d ** 2) ** 3 / ((3 + d) * (1 + 3 * d) * d ** 2)
    built = []
    init = RationalFunctionW.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    with mock.patch.object(RationalFunctionW, "__init__", counting):
        hat = symmetric_descent(sym)
        assert len(built) <= 1
        built.clear()
        assert sym ** 5 == RationalFunctionW(sym.num ** 5, sym.den ** 5)
        assert len(built) == 2
    w = RationalFunctionW.variable()
    assert hat == (w + 1) ** 3 / (3 * w + 10)
