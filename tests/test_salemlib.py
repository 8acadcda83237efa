from fractions import Fraction

import pytest

from k3siegel import algnum, salemlib
from k3siegel.intpoly import IntPoly, cyclotomic, from_trace_polynomial, trace_polynomial
from k3siegel.salemlib import (
    LEHMER_KEY,
    SalemDataError,
    SalemEntry,
    compute_L0,
    is_salem,
    is_unramified_salem,
    load_store,
    parse_salem_file,
    salem_lambda,
    trace_conjugates,
)

PSI_523 = IntPoly([1, -1, -2, 0, 2, 1, 0, -1, -2, 0, 1, 1, 1, 0, -2, -1, 0, 1, 2, 0, -2, -1, 1])
LEHMER = IntPoly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])


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
        assert store[(4, 2)].provenance == "user-supplied"
    finally:
        os.unlink(path)


def test_parse_rejects_bad_lines():
    with pytest.raises(SalemDataError):
        parse_salem_file("10 2 : 1 0 -5\n")  # wrong coefficient count
    with pytest.raises(SalemDataError):
        parse_salem_file("banana\n")


def test_reject_non_salem_entry():
    # w^2 - 5 has both roots outside [-2,2]: not a Salem trace polynomial
    with pytest.raises(SalemDataError):
        SalemEntry(4, 9, IntPoly([-5, 0, 1]))


def test_reject_wrong_lambda_order():
    # index order must agree with lambda order within a degree
    text = "4 1 : 1 -2 -2\n4 2 : 1 -1 -3\n"
    with pytest.raises(SalemDataError):
        from k3siegel.salemlib import SalemStore
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
