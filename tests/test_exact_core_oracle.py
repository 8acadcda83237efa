"""Differential tests of the exact polynomial core against sympy.

sympy is an independent implementation: these tests compare the one
integer Sturm chain (root counting and isolation), the resultant and
the gcd read off the one subresultant PRS, the coprime normal form of
rational functions, the resultant's halving on trace polynomials, the
minimal polynomials interpolated from it, the Newton interpolation and
the characteristic polynomial interpolated by it, the inertia and
determinant read off the fraction-free symmetric elimination, the
integer matrix of B on the A-orbit basis and the PRS gcd of the rank-2
elimination over Z[w] with it on random inputs.  Over Z[w]/(st) that
gcd is checked against Euclid's algorithm in the number field.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.subresultants_qq_zz import sylvester

from k3siegel import cli, linalg
from k3siegel.algnum import (
    NumberFieldElem,
    RationalFunctionW,
    count_roots_in,
    isolate_real_roots,
    minpoly_of_value,
)
from k3siegel.hyplattice import _b_matrix_in_a_basis
from k3siegel.intpoly import (
    IntPoly,
    RatPoly,
    cyclotomic,
    from_trace_polynomial,
    gcd as zgcd,
    interpolate,
    last_subresultant,
    resultant,
)
from k3siegel.picard2 import (
    ST20_1,
    IntegralRing,
    fp_divmod,
    fp_monic,
    fp_mul,
    k_gcd,
)
from k3siegel.salemlib import load_store

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


def to_sympy(p, var=X) -> sympy.Poly:
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       if isinstance(c, Fraction) else c
                       for c in reversed(p.coeffs)], var)


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


@EXAMPLES
@given(int_polys(min_degree=1))
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


def rational_coeffs(p: RatPoly) -> list:
    return [sympy.Rational(c.numerator, c.denominator) for c in p.coeffs]


@EXAMPLES
@given(st.lists(fractions, max_size=5), st.lists(fractions, min_size=1, max_size=5).filter(any),
       st.lists(fractions, min_size=1, max_size=3).filter(any))
def test_rational_function_normal_form_matches_sympy_cancel(num, den, common):
    # num/den with a planted common factor: coprime num and monic den
    c = RatPoly(common)
    f = RationalFunctionW(RatPoly(num) * c, RatPoly(den) * c)
    n, d = sympy.fraction(sympy.cancel(to_sympy(RatPoly(num) * c).as_expr()
                                       / to_sympy(RatPoly(den) * c).as_expr()))
    lc = sympy.Poly(d, X).LC()
    if sympy_coeffs(n):
        assert rational_coeffs(f.num) == sympy_coeffs(n / lc)
        assert rational_coeffs(f.den) == sympy_coeffs(d / lc)
    else:
        assert f.num.is_zero() and f.den == RatPoly([1])


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


@EXAMPLES
@given(monic_polys(), st.lists(fractions, min_size=1, max_size=6).filter(lambda cs: cs[-1] != 0))
def test_resultant_of_monic_and_scaled_rational_polynomial(m, coeffs):
    # minpoly_of_value's specialization: Res(m, G) for rational G from
    # the integer resultant of its cleared-denominator multiple
    g = RatPoly(coeffs)
    g_int = g.clear_denominators()
    scaled = (g.leading() / g_int.leading()) ** m.degree * resultant(m, g_int)
    assert scaled == sylvester_resultant(m, g)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([IntPoly([-3, -1, 1]), IntPoly([1, -3, 0, 1]), IntPoly([-2, 0, 0, 1])]),
       st.lists(st.integers(-4, 4), min_size=1, max_size=4),
       st.lists(st.integers(-3, 3), min_size=1, max_size=2).filter(any))
def test_minpoly_of_value_matches_sympy(m, num, den):
    # each m is irreducible of degree > deg den, so den(alpha) != 0
    f = RationalFunctionW(RatPoly(num), RatPoly(den))
    got = minpoly_of_value(f, isolate_real_roots(m)[0])
    # independent route: the bivariate resultant, squarefree and primitive
    res = sylvester(to_sympy(m, W).as_expr(),
                    X * to_sympy(f.den, W).as_expr() - to_sympy(f.num, W).as_expr(), W).det()
    want = sympy.Poly(res, X).sqf_part()
    want = want.primitive()[1]
    if want.LC() < 0:
        want = -want
    assert [int(c) for c in reversed(got.coeffs)] == [int(c) for c in want.all_coeffs()]


@EXAMPLES
@given(st.lists(st.one_of(st.integers(-10**6, 10**6), fractions), max_size=12))
def test_interpolate_matches_sympy(ys):
    xs = list(range(len(ys)))
    want = sympy.interpolate([(x, sympy.Rational(y.numerator, y.denominator))
                              for x, y in zip(xs, ys)], X) if ys else 0
    assert to_sympy(interpolate(xs, ys)) == sympy.Poly(want, X)


@EXAMPLES
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_charpoly_matches_sympy(m):
    want = sympy.Matrix(m).charpoly(X).all_coeffs()
    assert list(reversed(linalg.charpoly(m).coeffs)) == want


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
    assert linalg.inertia_and_det(m) == (descartes_inertia(m), sympy.Matrix(m).det())


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


def k_polys(mod, max_degree=2):
    """Nonzero polynomials in B over K = QQ[w]/(mod)."""
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    coeff = st.lists(small, min_size=mod.degree, max_size=mod.degree).map(
        lambda cs: NumberFieldElem.of(mod, RatPoly(cs)))
    return st.lists(coeff, min_size=1, max_size=max_degree + 1).filter(
        lambda cs: not cs[-1].is_zero())


MODULI = pytest.mark.parametrize("mod", [IntPoly([-3, -1, 1]), ST20_1],
                                 ids=["w2-w-3", "ST20_1"])


@MODULI
def test_subresultant_gcd_over_zw_mod_st_matches_field_euclid(mod):
    @EXAMPLES
    @given(k_polys(mod), k_polys(mod), k_polys(mod))
    def check(a, b, c):
        # a planted common factor c, so most gcds are not trivial
        f, g = fp_mul(a, c), fp_mul(b, c)
        assert k_gcd(f, g) == field_euclid(f, g)

    check()


@MODULI
def test_exact_division_in_zw_mod_st(mod):
    @EXAMPLES
    @given(st.lists(st.integers(-9, 9), min_size=mod.degree, max_size=mod.degree),
           st.lists(st.integers(-9, 9), min_size=mod.degree, max_size=mod.degree).filter(any))
    def check(q, c):
        ring = IntegralRing(mod)
        q, c = IntPoly(q), IntPoly(c)
        assert ring.divide([ring.mul(q, c)], c) == [q]

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
