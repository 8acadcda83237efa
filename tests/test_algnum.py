import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3siegel import algnum, fpfsiegel, intpoly, picard2
from k3siegel.intpoly import IntPoly, PolynomialDomainError, from_trace_polynomial
from k3siegel.algnum import (
    AlgebraicReal,
    NumberFieldElem,
    RationalFunctionW,
    count_roots_in,
    hn_poly,
    is_algebraic_integer,
    isolate_real_roots,
    minpoly_of_value,
    sign_at,
    symmetric_descent,
)

ST4_1 = IntPoly([-3, -1, 1])  # w^2 - w - 3
ST20_1 = IntPoly([1, -15, 21, 35, -49, -28, 35, 9, -10, -1, 1])


def test_isolate_quadratic():
    roots = isolate_real_roots(ST4_1)
    assert len(roots) == 2
    assert abs(roots[0].approx() - 2.302775) < 1e-5
    assert abs(roots[1].approx() - (-1.302775)) < 1e-5


def test_isolate_no_real_roots():
    assert isolate_real_roots(IntPoly([1, 0, 1])) == []


def test_isolate_st20():
    roots = isolate_real_roots(ST20_1)
    assert len(roots) == 10
    assert count_roots_in(ST20_1, 2, 1000) == 1
    assert count_roots_in(ST20_1, -2, 2) == 9
    assert sign_at(IntPoly([0, 1]), roots[0]) == 1 and roots[0].approx() > 2
    for r in roots[1:]:
        assert -2 < r.approx() < 2


def test_isolate_descending_order():
    rng = random.Random(4)
    for _ in range(25):
        p = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 8))] + [1])
        roots = isolate_real_roots(p)
        vals = [r.approx() for r in roots]
        assert vals == sorted(vals, reverse=True)
        for a, b in zip(roots, roots[1:]):
            assert a.lo >= b.hi


def test_count_roots_examples():
    assert count_roots_in(ST4_1, -2, 2) == 1
    assert count_roots_in(IntPoly([-5, 0, 1]), -2, 2) == 0
    # endpoint roots are divided out before counting
    assert count_roots_in(IntPoly([-4, 0, 1]), -2, 2) == 0
    assert count_roots_in(IntPoly([-4, 0, 1]), -3, 2) == 1


def test_sign_at_examples():
    t0, t1 = isolate_real_roots(ST4_1)
    assert sign_at(IntPoly([-2, 1]), t0) == 1       # tau0 > 2
    assert sign_at(ST4_1, t0) == 0
    assert sign_at(IntPoly([2, 1]), t1) == 1        # tau1 > -2
    assert sign_at(IntPoly([0, 1]), t1) == -1       # tau1 < 0


def test_sign_at_takes_a_gcd_only_when_the_endpoints_cannot_decide(monkeypatch):
    calls = []
    gcd = algnum.gcd

    def counting(a, b):
        calls.append(b)
        return gcd(a, b)

    monkeypatch.setattr(algnum, "gcd", counting)
    t0, t1 = isolate_real_roots(ST4_1)
    # w + 10 and w - 3 keep one sign on every isolating interval
    assert sign_at(IntPoly([10, 1]), t1) == 1
    assert sign_at(IntPoly([-3, 1]), t1) == -1
    assert calls == []
    # a zero leaves the endpoint test undecided, and the gcd decides it
    assert sign_at(ST4_1 * IntPoly([1, 1]), t0) == 0
    assert len(calls) == 1


def test_sign_at_rational_points():
    x = AlgebraicReal(IntPoly([-1, 2]), Fraction(0), Fraction(1))  # 1/2
    assert x.is_point() or sign_at(IntPoly([-1, 2]), x) == 0
    assert sign_at(IntPoly([-1, 0, 4]), x) == 0  # (2x-1)(2x+1)


def test_number_field_arithmetic():
    k = ST4_1  # QQ(tau) with tau^2 = tau + 3
    tau = NumberFieldElem(k, IntPoly([0, 1]))
    assert tau * tau == tau + 3
    x = tau * Fraction(2, 3) - 5
    y = x.inverse()
    assert x * y == NumberFieldElem.of(k, 1)
    with pytest.raises(ZeroDivisionError):
        NumberFieldElem.of(k, 0).inverse()


def test_rational_function_normalization():
    w = RationalFunctionW.variable()
    f = (w * w - 1) / (w - 1)
    assert f == w + 1
    assert f.den == IntPoly([1])
    g = (w + 1) / (w + 2)
    assert g.den.leading() == 1
    assert (g - g).is_zero()


def test_rational_function_refuses_foreign_operands():
    # NotImplemented for a type RationalFunctionW.of does not read exactly,
    # so == is False, not an error, and a string is not parsed as a number
    one = RationalFunctionW.of(1)
    assert (one == None) is False  # noqa: E711
    assert one != None  # noqa: E711
    assert (one == "1") is False
    assert (one == "x") is False
    assert [one] != [None]
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__eq__"):
        assert getattr(one, op)("1") is NotImplemented
        assert getattr(one, op)(1.0) is NotImplemented
    with pytest.raises(TypeError):
        one + "1"
    with pytest.raises(TypeError):
        "1" * one
    # int, Fraction and IntPoly operands stay exact
    w = RationalFunctionW.variable()
    assert one == 1 and 2 * w == w + w and Fraction(1, 2) * (2 * w) == w
    assert 1 - w == RationalFunctionW(IntPoly([1, -1])) and w * IntPoly([0, 1]) == w ** 2
    assert 1 / (w / 2) == 2 / w


def test_minpoly_of_value_entry9():
    # P for the Picard-number-18 Siegel example, evaluated at the root
    # tau1 of w^2 - w - 3 in (-2, 2): minimal polynomial 27w^2 - 11w + 1
    w = RationalFunctionW.variable()
    num = (w + 2) * (w ** 3 - 4 * w - 2) ** 2 * (w ** 3 - w ** 2 - 2 * w + 1) ** 2
    den = (w ** 2 - 2) ** 2 * (w ** 4 - 4 * w ** 2 - w + 1) ** 2
    p = num / den
    tau1 = isolate_real_roots(ST4_1)[1]
    mp = minpoly_of_value(p, tau1)
    assert mp == IntPoly([1, -11, 27])
    assert not is_algebraic_integer(mp)


def test_minpoly_of_value_identity_and_shift():
    tau1 = isolate_real_roots(ST4_1)[1]
    w = RationalFunctionW.variable()
    assert minpoly_of_value(w, tau1) == ST4_1
    sqrt2 = isolate_real_roots(IntPoly([-2, 0, 1]))[0]
    assert minpoly_of_value(w + 1, sqrt2) == IntPoly([-1, -2, 1])
    assert is_algebraic_integer(minpoly_of_value(w, sqrt2))
    half = AlgebraicReal(IntPoly([-1, 2]), Fraction(1, 2), Fraction(1, 2))
    assert not is_algebraic_integer(minpoly_of_value(w, half))


def test_minpoly_value_vanishes_at_the_value():
    # mp(f(alpha)) = 0 exactly: the numerator of mp o f vanishes at alpha
    w = RationalFunctionW.variable()
    f = (w * w + 1) / (w + 3)
    alpha = isolate_real_roots(IntPoly([-2, 0, 1]))[0]  # sqrt(2)
    mp = minpoly_of_value(f, alpha)
    composed = RationalFunctionW.of(mp).substitute(f)
    assert sign_at(composed.num, alpha) == 0
    assert sign_at(composed.den, alpha) != 0


def test_symmetric_descent_basics():
    d = RationalFunctionW.variable()
    one = RationalFunctionW.of(1)
    assert symmetric_descent(d + one / d) == RationalFunctionW.variable()
    w = RationalFunctionW.variable()
    assert symmetric_descent(d ** 3 + one / d ** 3) == w ** 3 - 3 * w
    assert symmetric_descent((1 + d) ** 2 / d) == w + 2


def test_symmetric_descent_rejects_asymmetric():
    d = RationalFunctionW.variable()
    with pytest.raises(PolynomialDomainError):
        symmetric_descent(d)


def test_symmetric_descent_hn_identity():
    d = RationalFunctionW.variable()
    one = RationalFunctionW.of(1)
    for n in range(11):
        lhs = d ** n + one / d ** n
        hw = hn_poly(n)
        assert symmetric_descent(lhs) == RationalFunctionW.of(hw)


def test_symmetric_descent_roundtrip():
    # substituting w = d + 1/d back recovers the input exactly
    rng = random.Random(12)
    d = RationalFunctionW.variable()
    one = RationalFunctionW.of(1)
    for _ in range(10):
        coeffs = [rng.randint(-3, 3) for _ in range(4)]
        sym = sum((d ** k + one / d ** k) * c for k, c in enumerate(coeffs, start=1))
        sym = sym + rng.randint(-3, 3)
        hat = symmetric_descent(sym)
        back = hat.substitute(d + one / d)
        assert back == sym


def test_hn_recurrence():
    w = IntPoly([0, 1])
    assert hn_poly(0) == IntPoly([2])
    assert hn_poly(1) == w
    for n in range(2, 9):
        assert hn_poly(n) == w * hn_poly(n - 1) - hn_poly(n - 2)
    assert hn_poly(7) == IntPoly([0, -7, 0, 14, 0, -7, 0, 1])


@given(st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_hn_multiplicativity(a, b):
    # h_a(h_b(w)) corresponds to (z^b)^a + (z^b)^-a = h_(ab)(w)
    w = RationalFunctionW.variable()
    ha = RationalFunctionW.of(hn_poly(a))
    composed = ha.substitute(RationalFunctionW.of(hn_poly(b)))
    assert composed == RationalFunctionW.of(hn_poly(a * b))


def test_elimination_and_descent_build_no_ratpoly():
    # RationalFunctionW and NumberFieldElem compute in integers only, and
    # the package has no rational polynomial type left to build
    assert not hasattr(intpoly, "RatPoly")
    assert not hasattr(IntPoly, "to_rat")
    e8 = fpfsiegel.component_contribution("E", 8, "trivial")
    fpfsiegel.derive_P([e8], 1)
    d = RationalFunctionW.variable()
    symmetric_descent((1 + d) ** 2 / d)
    picard2.solve_B_and_P()
