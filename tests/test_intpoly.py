import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3siegel.intpoly import (
    ANTI_PALINDROMIC,
    NEITHER,
    PALINDROMIC,
    IntPoly,
    PolynomialDomainError,
    cyclotomic,
    cyclotomic_salem_split,
    euler_phi,
    from_trace_polynomial,
    gcd,
    newton_traces,
    palindrome_kind,
    reciprocal,
    resultant,
    squarefree_part,
    trace_polynomial,
    unramified,
)
from k3siegel import intpoly, picard2
from k3siegel.algnum import RationalFunctionW
from k3siegel.linalg import bareiss_det

Z4 = IntPoly([1, -1, -1, -1, 1])          # z^4 - z^3 - z^2 - z + 1
ST20_1 = IntPoly([1, -15, 21, 35, -49, -28, 35, 9, -10, -1, 1])


def sylvester_resultant(u, v):
    """Independent oracle: determinant of the Sylvester matrix."""
    n, m = u.degree, v.degree
    size = n + m
    rows = []
    uc = list(reversed(u.coeffs))
    vc = list(reversed(v.coeffs))
    for i in range(m):
        rows.append([0] * i + uc + [0] * (m - 1 - i))
    for i in range(n):
        rows.append([0] * i + vc + [0] * (n - 1 - i))
    return bareiss_det(rows)


def random_poly(rng, degree, lo=-5, hi=5):
    coeffs = [rng.randint(lo, hi) for _ in range(degree)]
    coeffs.append(rng.choice([c for c in range(lo, hi + 1) if c != 0]))
    return IntPoly(coeffs)


def test_basic_arithmetic():
    p = IntPoly([1, 2, 3])
    q = IntPoly([0, 1])
    assert (p * q).coeffs == (0, 1, 2, 3)
    assert (p + q).coeffs == (1, 3, 3)
    assert p(2) == 1 + 4 + 12
    assert IntPoly([0, 0]).is_zero()
    assert IntPoly.from_text("[1,-1,-1,-1,1]") == Z4
    assert Z4.text() == "[1,-1,-1,-1,1]"


@pytest.mark.parametrize("text", ["[1,2,]", "[1,x]", "1,2", "[1.5]", "[,]"])
def test_from_text_rejects_non_integer_tokens(text):
    with pytest.raises(PolynomialDomainError):
        IntPoly.from_text(text)


def test_intpoly_imports_nothing_from_fractions():
    # the polynomial core is integral: no rational type rides along
    tree = ast.parse(Path(intpoly.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "fractions"
        elif isinstance(node, ast.Import):
            assert all(a.name != "fractions" for a in node.names)


def test_reciprocal_examples():
    assert reciprocal(IntPoly([-1, 1])) == -IntPoly([-1, 1])
    assert reciprocal(Z4) == Z4
    assert reciprocal(IntPoly([2, 3, 1])) == IntPoly([1, 3, 2])
    with pytest.raises(PolynomialDomainError):
        reciprocal(IntPoly())


def test_palindrome_kind_examples():
    assert palindrome_kind(Z4) == PALINDROMIC
    assert palindrome_kind(IntPoly([-1, 0, 1])) == ANTI_PALINDROMIC
    assert palindrome_kind(IntPoly([0, 1, 1])) == NEITHER


def test_trace_polynomial_examples():
    assert trace_polynomial(Z4) == IntPoly([-3, -1, 1])
    assert trace_polynomial(IntPoly([1, 0, 1])) == IntPoly([0, 1])
    # degree-20 Salem polynomial of the smallest degree-20 Salem number
    s20 = IntPoly([1, -1, 0, 0, 0, -1, 1, 0, 0, -1, 1, -1, 0, 0, 1, -1, 0, 0, 0, -1, 1])
    assert trace_polynomial(s20) == ST20_1


def test_trace_polynomial_rejects_wrong_symmetry():
    with pytest.raises(PolynomialDomainError):
        trace_polynomial(IntPoly([1, 2, 3]))  # neither kind
    with pytest.raises(PolynomialDomainError):
        trace_polynomial(IntPoly([1, 1]))  # odd degree palindromic
    with pytest.raises(PolynomialDomainError):
        trace_polynomial(IntPoly([0, 1, 1]))  # zero constant term


def test_trace_polynomial_antipalindromic():
    v = IntPoly([-1, 0, 1]) * from_trace_polynomial(IntPoly([1, 2, 1]))
    assert palindrome_kind(v) == ANTI_PALINDROMIC
    assert trace_polynomial(v) == IntPoly([1, 2, 1])


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=9))
@settings(max_examples=60, deadline=None)
def test_trace_roundtrip_random_palindromic(half):
    if all(c == 0 for c in half):
        half[-1] = 1
    tr = IntPoly(half)
    u = from_trace_polynomial(tr)
    assert palindrome_kind(u) in (PALINDROMIC, ANTI_PALINDROMIC)
    if palindrome_kind(u) == PALINDROMIC and u.degree % 2 == 0:
        assert trace_polynomial(u) == tr


def test_reciprocal_involution_random():
    rng = random.Random(7)
    for _ in range(50):
        p = random_poly(rng, rng.randint(0, 12))
        if p[0] == 0:
            continue
        assert reciprocal(reciprocal(p)) == p


def test_cyclotomic_small():
    assert cyclotomic(1) == IntPoly([-1, 1])
    assert cyclotomic(2) == IntPoly([1, 1])
    assert cyclotomic(12) == IntPoly([1, 0, -1, 0, 1])
    c21 = cyclotomic(21)
    assert c21.degree == euler_phi(21) == 12
    assert c21(1) == 1
    # oracle: recursive division of z^n - 1 by the lower-order factors
    for n in (12, 21, 30):
        num = IntPoly([-1] + [0] * (n - 1) + [1])
        for d in range(1, n):
            if n % d == 0:
                num = num // cyclotomic(d)
        assert num == cyclotomic(n)


def test_cyclotomic_product_identity():
    for n in (1, 2, 6, 12, 20, 36):
        prod = IntPoly([1])
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == IntPoly([-1] + [0] * (n - 1) + [1])


def test_resultant_examples():
    assert resultant(IntPoly([-1, 1]), IntPoly([1, 1])) == 2
    u = IntPoly([1, 2, 3, 1])
    assert resultant(u, u) == 0


def test_resultant_against_sylvester_oracle():
    rng = random.Random(20240817)
    for _ in range(120):
        u = random_poly(rng, rng.randint(1, 7), -4, 4)
        v = random_poly(rng, rng.randint(1, 7), -4, 4)
        assert resultant(u, v) == sylvester_resultant(u, v)


def test_resultant_swap_sign():
    rng = random.Random(5)
    for _ in range(40):
        u = random_poly(rng, rng.randint(1, 6))
        v = random_poly(rng, rng.randint(1, 6))
        assert resultant(u, v) == (-1) ** (u.degree * v.degree) * resultant(v, u)


def test_resultant_multiplicative_in_first_argument():
    rng = random.Random(33)
    for _ in range(30):
        u = random_poly(rng, rng.randint(1, 4))
        v = random_poly(rng, rng.randint(1, 4))
        w = random_poly(rng, rng.randint(1, 4))
        assert resultant(u * v, w) == resultant(u, w) * resultant(v, w)


def test_trace_polynomial_multiplicative():
    # the trace transform turns products of palindromics into products
    rng = random.Random(44)
    for _ in range(25):
        t1 = IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))] + [1])
        t2 = IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))] + [1])
        u1, u2 = from_trace_polynomial(t1), from_trace_polynomial(t2)
        assert trace_polynomial(u1 * u2) == t1 * t2


def test_resultant_vanishes_iff_common_factor():
    rng = random.Random(14)
    for _ in range(30):
        g = random_poly(rng, rng.randint(1, 3))
        u = random_poly(rng, rng.randint(1, 4)) * g
        v = random_poly(rng, rng.randint(1, 4)) * g
        assert resultant(u, v) == 0
        assert gcd(u, v).degree >= g.degree  # g divides the gcd
    for _ in range(30):
        u = random_poly(rng, rng.randint(1, 5))
        v = random_poly(rng, rng.randint(1, 5))
        if gcd(u, v).degree == 0:
            assert resultant(u, v) != 0


def test_newton_traces_examples():
    phi = IntPoly([-1, 0, 1]) * from_trace_polynomial(ST20_1)
    assert newton_traces(phi, 8) == [1, 3, 1, 3, 6, 3, 1, 3]
    assert newton_traces(IntPoly([-1, 1]), 5) == [1, 1, 1, 1, 1]
    assert newton_traces(IntPoly([-1, 0, 1]), 6) == [0, 2, 0, 2, 0, 2]


def test_newton_traces_additive():
    rng = random.Random(99)
    for _ in range(20):
        u = random_poly(rng, rng.randint(1, 5))
        v = random_poly(rng, rng.randint(1, 5))
        u = IntPoly(list(u.coeffs[:-1]) + [1])
        v = IntPoly(list(v.coeffs[:-1]) + [1])
        tu = newton_traces(u, 6)
        tv = newton_traces(v, 6)
        tuv = newton_traces(u * v, 6)
        assert tuv == [a + b for a, b in zip(tu, tv)]


def test_unramified_examples():
    assert unramified(cyclotomic(12))
    assert not unramified(IntPoly([1, 2, 1]))
    psi523 = IntPoly([1, -1, -2, 0, 2, 1, 0, -1, -2, 0, 1, 1, 1, 0, -2, -1, 0, 1, 2, 0, -2, -1, 1])
    assert unramified(psi523)


def test_cyclotomic_salem_split_examples():
    s20 = from_trace_polynomial(ST20_1)
    phi = IntPoly([-1, 0, 1]) * s20
    part, residual = cyclotomic_salem_split(phi)
    assert part == {1: 1, 2: 1}
    assert residual == s20

    part, residual = cyclotomic_salem_split(cyclotomic(1) ** 2 * cyclotomic(2))
    assert part == {1: 2, 2: 1}
    assert residual == IntPoly([1])

    s4 = Z4
    u = s4 * cyclotomic(8) * cyclotomic(12) * cyclotomic(30)
    part, residual = cyclotomic_salem_split(u)
    assert part == {8: 1, 12: 1, 30: 1}
    assert residual == s4


def test_gcd_and_squarefree():
    a = IntPoly([1, 1]) * IntPoly([2, 3])
    b = IntPoly([1, 1]) * IntPoly([1, 0, 1])
    assert gcd(a, b) == IntPoly([1, 1])
    p = IntPoly([1, 1]) ** 3 * IntPoly([-2, 1])
    assert squarefree_part(p) == IntPoly([1, 1]) * IntPoly([-2, 1])


def test_every_resultant_and_gcd_reads_the_one_subresultant_loop(monkeypatch):
    rings = []
    loop = intpoly.subresultants

    def counting(ring, a, b):
        rings.append(ring)
        return loop(ring, a, b)

    monkeypatch.setattr(intpoly, "subresultants", counting)
    u, v = IntPoly([1, 0, 1]), IntPoly([-1, 1]) * IntPoly([1, 1])
    readers = {
        "resultant": lambda: resultant(u, v),
        "gcd": lambda: gcd(u * v, v),
        "RationalFunctionW": lambda: RationalFunctionW(u, v),
        "eliminant": lambda: picard2.eliminant(3, picard2.IntegralRing(ST20_1)),
    }
    for name, read in readers.items():
        rings.clear()
        read()
        assert rings, name
    assert isinstance(rings[0], picard2.IntegralRing)
    for gone in ("rat_gcd", "_prem"):
        assert not hasattr(intpoly, gone)
    assert not hasattr(picard2, "subresultant_gcd")


def test_divmod_and_rat():
    q, r = IntPoly([2, 3, 1]).divmod(IntPoly([1, 1]))
    assert q == IntPoly([2, 1]) and r.is_zero()
