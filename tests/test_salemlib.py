from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from k3siegel import algnum, intpoly, salemlib
from k3siegel.intpoly import IntPoly, cyclotomic, from_trace_polynomial, trace_polynomial
from k3siegel.salemlib import (
    SalemDataError,
    SalemEntry,
    compute_L0,
    is_salem,
    is_unramified_salem,
    load_store,
    parse_salem_file,
    salem_lambda,
    salem_trace_poly,
    trace_conjugates,
)

PSI_523 = IntPoly([1, -1, -2, 0, 2, 1, 0, -1, -2, 0, 1, 1, 1, 0, -2, -1, 0, 1, 2, 0, -2, -1, 1])
LEHMER = IntPoly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
LEHMER_KEY = (10, 1)  # Lehmer's polynomial, the smallest Salem number of degree 10


def test_is_salem_examples():
    assert is_salem(PSI_523)
    assert is_salem(IntPoly([1, -1, -1, -1, 1]))
    assert not is_salem(cyclotomic(12))
    assert is_salem(LEHMER)


def test_is_salem_rejects_products():
    s4 = IntPoly([1, -1, -1, -1, 1])
    assert not is_salem(s4 * cyclotomic(12))
    assert not is_salem(s4 * s4)


def test_is_unramified_salem():
    assert is_unramified_salem(PSI_523)
    assert is_unramified_salem(LEHMER)
    assert not is_unramified_salem(IntPoly([1, -1, -1, -1, 1]))  # degree 4 != 2 mod 4


def test_compute_L0():
    assert compute_L0(16) == {12, 15, 20, 21, 24, 28, 30, 36, 40, 42, 48, 60}
    assert compute_L0(2) == set()
    assert {l for l in compute_L0(4)} == {12}


def test_embedded_store():
    store = load_store()
    assert len(store) == 16
    assert store.keys() == [
        (4, 1), (6, 1), (8, 1), (8, 2), (8, 15), (8, 16), (10, 1), (12, 1),
        (14, 1), (16, 1), (16, 2), (16, 3), (16, 4), (16, 5), (18, 22), (20, 1),
    ]
    # Lehmer's polynomial is the degree-10 entry
    assert store[LEHMER_KEY].salem_poly == LEHMER
    s20 = store[(20, 1)].salem_poly
    assert s20 == IntPoly([1, -1, 0, 0, 0, -1, 1, 0, 0, -1, 1, -1, 0, 0, 1, -1, 0, 0, 0, -1, 1])


def test_store_entry_invariants():
    store = load_store()
    for key in store.keys():
        e = store[key]
        assert from_trace_polynomial(e.trace_poly) == e.salem_poly
        lam = e.lam
        lam.refine(type(lam.lo)(1, 10 ** 6))
        assert 1 < lam.lo < lam.hi < 3


def test_store_lambda_values():
    store = load_store()
    lam4 = store[(4, 1)].lam
    assert abs(lam4.approx() - 1.7220838) < 1e-6
    laml = store[LEHMER_KEY].lam
    assert abs(laml.approx() - 1.17628) < 1e-5
    lam20 = store[(20, 1)].lam
    assert abs(lam20.approx() - 1.2326135) < 1e-6


def test_parse_and_merge_external():
    # synthetic but genuine Salem data: z^4 - 2z^3 - 2z + 1 has trace
    # polynomial w^2 - 2w - 2 and a larger Salem number than (4, 1)
    assert is_salem(from_trace_polynomial(IntPoly([-2, -2, 1])))
    text = """
    # extra degree-4 entry
    4 2 : 1 -2 -2
    """
    entries = parse_salem_file(text)
    assert len(entries) == 1 and entries[0].key == (4, 2)
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
        fh.write(text)
        path = fh.name
    try:
        store = load_store(path)
        assert len(store) == 17
        assert (4, 2) in store
        assert store[(4, 2)].trace_poly == IntPoly([-2, -2, 1])
    finally:
        os.unlink(path)


def test_parse_rejects_bad_lines():
    with pytest.raises(SalemDataError):
        parse_salem_file("10 2 : 1 0 -5\n")  # wrong coefficient count
    with pytest.raises(SalemDataError):
        parse_salem_file("banana\n")
    with pytest.raises(SalemDataError, match="not monic"):
        parse_salem_file("10 1 : 2 1 -5 -5 4 3\n")  # leading coefficient 2


def test_reject_non_salem_entry():
    # w^2 - 5 has both roots outside [-2,2]: not a Salem trace polynomial
    with pytest.raises(SalemDataError):
        SalemEntry(4, 9, IntPoly([-5, 0, 1]))


def test_reject_wrong_lambda_order():
    # index order must agree with lambda order within a degree, and one
    # Salem polynomial under two indices has no order at all
    from k3siegel.salemlib import SalemStore

    text = "4 1 : 1 -2 -2\n4 2 : 1 -1 -3\n"
    with pytest.raises(SalemDataError, match="lambda order disagrees"):
        SalemStore(parse_salem_file(text))
    text = "4 1 : 1 -1 -3\n4 2 : 1 -1 -3\n"
    with pytest.raises(SalemDataError, match="hold one Salem polynomial"):
        SalemStore(parse_salem_file(text))


def test_L0_members_have_degree_divisible_by_4():
    from k3siegel.intpoly import euler_phi

    for l in compute_L0(16):
        assert euler_phi(l) % 4 == 0


def test_store_root_pattern():
    # exactly one root beyond 1 in absolute value (lambda) and exactly
    # one in (0, 1) (its reciprocal); everything else on the circle
    from fractions import Fraction
    from k3siegel.algnum import count_roots_in

    store = load_store()
    for key in store.keys():
        p = store[key].salem_poly
        bound = Fraction(max(abs(c) for c in p.coeffs) + 1)
        assert count_roots_in(p, Fraction(1), bound) == 1
        assert count_roots_in(p, Fraction(0), Fraction(1)) == 1
        assert count_roots_in(p, -bound, Fraction(-1)) == 0
        assert count_roots_in(p, Fraction(-1), Fraction(0)) == 0
        assert p(1) != 0 and p(-1) != 0


def test_lambda_and_trace_conjugates_match_sympy():
    # every store entry and census psi 523: lambda is the one real root
    # above 1 that sympy finds, and the trace conjugates are sympy's real
    # trace roots in (-2, 2), descending
    import sympy

    x = sympy.Symbol("x")
    store = load_store()
    for u in [store[k].salem_poly for k in store.keys()] + [PSI_523]:
        above = [r for r in sympy.Poly(list(reversed(u.coeffs)), x).real_roots() if r > 1]
        lam = salem_lambda(u)
        lam.refine(Fraction(1, 10 ** 8))
        assert len(above) == 1 and lam.lo < above[0] < lam.hi
        st = trace_polynomial(u)
        inside = sorted((r for r in sympy.Poly(list(reversed(st.coeffs)), x).real_roots()
                         if -2 < r < 2), reverse=True)
        taus = trace_conjugates(st)
        assert len(taus) == len(inside) == st.degree - 1
        # each interval isolates one root of st, so holding r it holds only r
        assert all(tau.lo < r < tau.hi for tau, r in zip(taus, inside))


def test_trace_conjugates_rejects_a_non_salem_pattern():
    with pytest.raises(SalemDataError, match="Salem root pattern"):
        trace_conjugates(IntPoly([-5, 0, 1]))   # both roots outside [-2, 2]


def test_load_store_isolates_no_roots(monkeypatch):
    # lambda comes from one Sturm count on (1, B): the store never runs
    # a full isolation of any entry
    calls = []
    isolate = algnum.isolate_real_roots

    def counting(p):
        calls.append(p)
        return isolate(p)

    monkeypatch.setattr(algnum, "isolate_real_roots", counting)
    monkeypatch.setattr(salemlib, "isolate_real_roots", counting)
    assert len(load_store()) == 16
    assert calls == []


def test_salem_trace_poly_builds_one_sturm_chain_and_no_gcd(monkeypatch):
    # squarefreeness and both root counts come from one chain of tr
    entry = load_store()[(20, 1)]
    chains = []
    chain = algnum.sturm_chain
    for module in (algnum, salemlib):
        monkeypatch.setattr(module, "sturm_chain", lambda p: chains.append(p) or chain(p),
                            raising=False)

    def no_gcd(*args):
        raise AssertionError("gcd called")

    for module in (intpoly, algnum, salemlib):
        monkeypatch.setattr(module, "gcd", no_gcd, raising=False)
    assert salem_trace_poly(entry.salem_poly) == entry.trace_poly
    assert chains == [entry.trace_poly]


X, W = sympy.symbols("x w")


def sympy_salem_pattern(u: IntPoly) -> bool:
    """The trace root pattern by sympy: the trace polynomial tr of the
    palindromic u (checked against Res_z(u, z^2 - w z + 1) = tr^2) is
    squarefree, with one real root above 2 and all others in (-2, 2)."""
    tr = sympy.Poly(list(reversed(trace_polynomial(u).coeffs)), W)
    res = sympy.resultant(sympy.Poly(list(reversed(u.coeffs)), X).as_expr(),
                          X ** 2 - W * X + 1, X)
    assert sympy.Poly(res, W) == tr ** 2
    if not tr.is_sqf:
        return False
    roots = tr.real_roots()
    above = [r for r in roots if r > 2]
    inside = [r for r in roots if -2 < r < 2]
    return len(roots) == tr.degree() and len(above) == 1 and len(inside) == tr.degree() - 1


def _planted():
    store = load_store()
    salems = {key: store[key].salem_poly for key in store.keys()}
    s4, s6 = salems[(4, 1)], salems[(6, 1)]
    cases = [(f"S{i}^({d})", u) for (d, i), u in salems.items()]
    cases += [(f"S{i}^({d})^2", u * u) for (d, i), u in salems.items() if d <= 10]
    cases += [(f"S1^(4) C{n}", s4 * cyclotomic(n)) for n in (3, 4, 5, 7, 8, 12)]
    cases += [("S1^(10) C5", salems[(10, 1)] * cyclotomic(5))]
    cases += [(f"{name} (z{sign}1)^2", s * IntPoly([c, 1]) ** 2)
              for name, s in (("S1^(4)", s4), ("S1^(6)", s6))
              for sign, c in (("-", -1), ("+", 1))]
    return cases


@pytest.mark.parametrize("u", [u for _, u in _planted()], ids=[name for name, _ in _planted()])
def test_salem_trace_poly_matches_sympy_on_planted_cases(u):
    # store entries; S*S, never squarefree; S*C_n, the pattern with a
    # cyclotomic factor; (z -+ 1)^2, a trace root at +-2
    assert (salem_trace_poly(u) is not None) == sympy_salem_pattern(u)


@st.composite
def palindromic_polys(draw):
    """Monic palindromic polynomials of degree 4 to 12."""
    m = draw(st.integers(2, 6))
    half = [1] + draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
    return IntPoly(half + half[-2::-1])


@settings(max_examples=60, deadline=None)
@given(palindromic_polys())
def test_salem_trace_poly_matches_sympy(u):
    assert (salem_trace_poly(u) is not None) == sympy_salem_pattern(u)
