import math
import random

import numpy as np
import pytest
import sympy
from sympy.polys.subresultants_qq_zz import sylvester

from k3siegel import setup2
from k3siegel.intpoly import IntPoly, PolynomialDomainError, resultant, trace_polynomial
from k3siegel.algnum import count_roots_in
from k3siegel.salemlib import is_unramified_salem
from k3siegel.setup2 import (
    S4,
    Setup2Candidate,
    _descartes_maps,
    _first_leaves,
    _norm_hits,
    _norm_map,
    _root_counts,
    _row_bounds,
    _shift_map,
    _units,
    enumerate_setup2,
)

CANDS = enumerate_setup2()
X = sympy.Symbol("x")
NORM_MAP = _norm_map().tolist()


def norm(a, b):
    """N(a + b w) = a^2 + ab - 3b^2, the norm of Z[w]/(W); Res(W, Psi) when
    Psi = a + b w mod W.  Integers or numpy arrays alike."""
    return a * a + a * b - 3 * b * b


def int64_norm_bounds(nmap) -> tuple[int, int]:
    """The bounds |a| <= a_max, |b| <= b_max of the map's lanes over the
    word ranges; OverflowError unless every term of N then stays exact in
    int64, as the numpy sweeps below need (the census never evaluates N)."""
    a_max, b_max = _row_bounds(nmap, setup2._WORD_BOUNDS)
    if a_max * a_max + a_max * b_max + 3 * b_max * b_max >= 1 << 63:
        raise OverflowError(f"norm bounds |a| <= {a_max}, |b| <= {b_max} overflow int64")
    return a_max, b_max


def word_norm(word) -> int:
    """N(Psi mod W) of a word, from the census's norm map, in Python ints."""
    vec = (1,) + tuple(word)
    a, b = (sum(m * v for m, v in zip(row, vec)) for row in NORM_MAP)
    return norm(a, b)


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
    # over the word ranges the map's (a, b) keep N exact in int64; bounds
    # that outgrow it make the sweeps' guard raise, not wrap
    assert int(abs(_norm_map()).max()) == 144
    assert int64_norm_bounds(NORM_MAP) == (557, 420)
    monkeypatch.setattr(setup2, "_WORD_BOUNDS", (1 << 31,) * 12)
    with pytest.raises(OverflowError):
        int64_norm_bounds(NORM_MAP)


def test_integer_sturm_matches_rational():
    rng = random.Random(81)
    for _ in range(100):
        p = IntPoly([rng.randint(-7, 7) for _ in range(rng.randint(1, 11))]
                    + [rng.choice([1, -1, 2, -3])])
        if p(2) == 0 or p(-2) == 0:
            continue
        assert count_roots_in(p, -2, 2) == sympy_roots_in_open(p, -2, 2)


def digit_sweep_hits() -> set:
    """The norm hits by decoding every base-5 word index into its digit
    columns, chunk by chunk: the census sweep before it split the words
    into two halves."""
    nmap = _norm_map()
    int64_norm_bounds(nmap.tolist())
    total, chunk = 5 ** 9, 1 << 18
    hits = set()
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        c = np.empty((idx.size, 9), dtype=np.int64)
        for j in range(8, -1, -1):
            c[:, j] = idx % 5 - 2
            idx //= 5
        c10 = -1 - c[:, 1] - c[:, 3] - c[:, 5] - c[:, 7]
        sodd = c[:, 0] + c[:, 2] + c[:, 4] + c[:, 6] + c[:, 8]
        part = c @ nmap[:, 1:10].T + nmap[:, 0] + c10[:, None] * nmap[:, 10]
        for sign in (1, -1):
            c11 = sign - 2 * sodd
            ab = part + c11[:, None] * nmap[:, 11]
            for h in np.nonzero(np.abs(norm(ab[:, 0], ab[:, 1])) == 1)[0]:
                hits.add(tuple(c[h].tolist()) + (int(c10[h]), int(c11[h])))
    return hits


def test_broadcast_sweep_finds_the_digit_sweep_hits():
    words = _norm_hits()
    hits = {tuple(w[1:].tolist()) for w in words}
    assert (words[:, 0] == 1).all()
    assert len(hits) == len(words) == 6902
    assert hits == digit_sweep_hits()
    tmap = _descartes_maps()[0]
    rng = random.Random(10)
    for w in rng.sample(list(words), 40):
        psi = Setup2Candidate(0, tuple(w[1:].tolist())).psi()
        assert (w @ tmap.T).tolist() == list(trace_polynomial(psi).coeffs)


def sturm_calls(monkeypatch) -> list:
    calls = []

    def counting(p, a, b):
        calls.append(p)
        return count_roots_in(p, a, b)

    monkeypatch.setattr(setup2, "count_roots_in", counting)
    return calls


def test_descartes_gate_leaves_few_words_to_sturm(monkeypatch):
    calls = sturm_calls(monkeypatch)
    assert enumerate_setup2() == CANDS
    assert len(calls) <= 10


def test_bisection_falls_back_to_sturm(monkeypatch):
    # a low leaf limit and a depth cap of one level send many more words
    # to Sturm, and the census stays the same
    calls = sturm_calls(monkeypatch)
    enumerate_setup2()
    default = len(calls)
    monkeypatch.setattr(setup2, "_LEAF_LIMIT", 1 << 20)
    monkeypatch.setattr(setup2, "_MAX_DEPTH", 1)
    assert enumerate_setup2() == CANDS
    assert len(calls) - default > 10 * default


def test_bisection_counts_match_sturm_on_every_norm_hit():
    tmap, dmaps = _descartes_maps()
    trace = _norm_hits() @ tmap.T
    count, exact = _root_counts(trace, dmaps)
    assert exact.sum() > 2000
    for tr, n in zip(trace[exact], count[exact]):
        assert n == count_roots_in(IntPoly(tr.tolist()), -2, 2)


def test_units_are_the_norm_one_points_of_the_box():
    a_max, b_max = int64_norm_bounds(NORM_MAP)
    a, b = np.meshgrid(np.arange(-a_max, a_max + 1), np.arange(-b_max, b_max + 1),
                       indexing="ij")
    ones = np.abs(norm(a, b)) == 1
    assert ones.size == 1115 * 841
    assert _units(a_max, b_max) == sorted(zip(a[ones].tolist(), b[ones].tolist()))
    assert len(_units(a_max, b_max)) == 24


def test_unit_join_key_stays_in_int64(monkeypatch):
    # bounds whose norms still fit int64 but whose join key does not
    monkeypatch.setattr(setup2, "_WORD_BOUNDS", (1 << 22,) * 12)
    int64_norm_bounds(_norm_map().tolist())
    with pytest.raises(PolynomialDomainError):
        _norm_hits()


def test_shift_map_keeps_every_lane_exact(monkeypatch):
    # a leaf below the limit shifts within int64; a limit that lets the
    # shift outgrow it raises a typed error
    assert _shift_map()[11].tolist() == [math.comb(11, i) for i in range(12)]
    monkeypatch.setattr(setup2, "_LEAF_LIMIT", 1 << 60)
    with pytest.raises(PolynomialDomainError):
        _shift_map()


def test_descartes_maps_keep_every_lane_exact(monkeypatch):
    # the trace coefficients and every piece's Q stay far inside int64;
    # maps that outgrow it raise a typed error
    tmap, dmaps = _descartes_maps()
    assert dmaps.shape == (setup2._PIECES, 12, 12)
    assert int(abs(dmaps).max()) == 459841536
    monkeypatch.setattr(setup2, "_WORD_BOUNDS", (1 << 31,) * 12)
    with pytest.raises(PolynomialDomainError):
        _descartes_maps()


def test_first_leaves_in_float_lanes_are_the_int64_product():
    # over the whole census the float64 product is exact, term for term
    tmap, dmaps = _descartes_maps()
    trace = _norm_hits() @ tmap.T
    q = _first_leaves(trace, dmaps)
    assert q.dtype == np.int64
    assert np.array_equal(q, np.matmul(trace, dmaps.transpose(0, 2, 1)))


def test_first_leaves_check_the_rows_they_are_given():
    # rows up to the float bound are exact; one row past it, a typed error
    tmap, dmaps = _descartes_maps()
    row_sum = int(abs(dmaps).sum(axis=2).max())
    top = setup2._FLOAT_EXACT // row_sum
    trace = np.array([[top] + [-1] * 11], dtype=np.int64)
    assert np.array_equal(_first_leaves(trace, dmaps),
                          np.matmul(trace, dmaps.transpose(0, 2, 1)))
    with pytest.raises(PolynomialDomainError, match="not exact in float64"):
        _first_leaves(np.array([[top + 1] + [-1] * 11]), dmaps)
    assert _first_leaves(np.zeros((0, 12), dtype=np.int64), dmaps).shape == (8, 0, 12)
