import random

import pytest
import sympy
from sympy.polys.subresultants_qq_zz import sylvester

from k3siegel import setup2
from k3siegel.intpoly import IntPoly, PolynomialDomainError, resultant
from k3siegel.algnum import count_roots_in
from k3siegel.salemlib import is_unramified_salem
from k3siegel.setup2 import (
    S4,
    Setup2Candidate,
    _norm,
    _norm_map,
    enumerate_setup2,
)

CANDS = enumerate_setup2()
X = sympy.Symbol("x")
NORM_MAP = _norm_map().tolist()


def word_norm(word) -> int:
    """N(Psi mod W) of a word, from the census's norm map, in Python ints."""
    vec = (1,) + tuple(word)
    a, b = (sum(m * v for m, v in zip(row, vec)) for row in NORM_MAP)
    return _norm(a, b)


def sylvester_resultant(u: IntPoly, v: IntPoly) -> int:
    """Res(u, v) as the Sylvester determinant, computed by sympy."""
    expr = [sympy.Poly(list(reversed(p.coeffs)), X).as_expr() for p in (u, v)]
    return int(sylvester(*expr, X).det())


def sympy_roots_in_open(p: IntPoly, a: int, b: int) -> int:
    """Distinct real roots of p in (a, b), counted by sympy: its interval
    is closed, so endpoint roots are taken off."""
    sf = sympy.Poly(list(reversed(p.coeffs)), X).sqf_part()
    return sf.count_roots(a, b) - (sf.eval(a) == 0) - (sf.eval(b) == 0)


def test_census_count():
    assert len(CANDS) == 1019


def test_ids_are_lexicographic():
    words = [c.coeffs for c in CANDS]
    assert words == sorted(words)
    assert [c.id for c in CANDS] == list(range(1, 1020))


def test_candidate_523():
    c = CANDS[522]
    assert c.id == 523
    assert c.coeffs == (-1, -2, 0, 2, 1, 0, -1, -2, 0, 1, 1)
    psi = c.psi()
    assert psi == IntPoly([1, -1, -2, 0, 2, 1, 0, -1, -2, 0, 1,
                           1, 1, 0, -2, -1, 0, 1, 2, 0, -2, -1, 1])
    assert is_unramified_salem(psi)


def test_all_candidates_satisfy_conditions():
    rng = random.Random(6)
    sample = rng.sample(CANDS, 25)
    for cand in sample:
        psi = cand.psi()
        c = cand.coeffs
        assert all(abs(x) <= 2 for x in c[:9])
        assert c[9] == -1 - c[1] - c[3] - c[5] - c[7]
        assert c[10] in (1 - 2 * sum(c[0:9:2]), -1 - 2 * sum(c[0:9:2]))
        assert psi(1) * psi(-1) == -1
        assert abs(resultant(S4, psi)) == 1
        from k3siegel.intpoly import trace_polynomial
        tr = trace_polynomial(psi)
        assert sympy_roots_in_open(tr, -2, 2) in (8, 10)


def test_rejected_words_fail_a_condition():
    # sparse cross-check of completeness: words not in the output break
    # the root-count or the resultant condition
    accepted = {c.coeffs for c in CANDS}
    rng = random.Random(9)
    checked = 0
    while checked < 40:
        c19 = [rng.randint(-2, 2) for _ in range(9)]
        c10 = -1 - c19[1] - c19[3] - c19[5] - c19[7]
        c11 = rng.choice([1, -1]) - 2 * sum(c19[0:9:2])
        word = tuple(c19) + (c10, c11)
        if word in accepted:
            continue
        psi = Setup2Candidate(0, word).psi()
        from k3siegel.intpoly import trace_polynomial
        tr = trace_polynomial(psi)
        ok_roots = sympy_roots_in_open(tr, -2, 2) in (8, 10)
        ok_res = abs(resultant(S4, psi)) == 1
        assert not (ok_roots and ok_res)
        assert word_norm(word) ** 2 == resultant(S4, psi)
        assert (abs(word_norm(word)) == 1) == ok_res
        checked += 1


def test_norm_equals_resultant():
    rng = random.Random(3)
    for cand in rng.sample(CANDS, 10):
        assert word_norm(cand.coeffs) ** 2 == sylvester_resultant(S4, cand.psi())


def test_norm_map_keeps_every_lane_exact(monkeypatch):
    # over the word ranges the map's (a, b) keep N exact in int64; a map
    # that outgrows int64 raises a typed error, not a wrapped census
    assert int(abs(_norm_map()).max()) == 144
    monkeypatch.setattr(setup2, "_WORD_BOUNDS", (1 << 31,) * 12)
    with pytest.raises(PolynomialDomainError):
        _norm_map()


def test_integer_sturm_matches_rational():
    rng = random.Random(81)
    for _ in range(100):
        p = IntPoly([rng.randint(-7, 7) for _ in range(rng.randint(1, 11))]
                    + [rng.choice([1, -1, 2, -3])])
        if p(2) == 0 or p(-2) == 0:
            continue
        assert count_roots_in(p, -2, 2) == sympy_roots_in_open(p, -2, 2)
