import pytest

from k3siegel import algnum, fpfsiegel, salemlib
from k3siegel.intpoly import IntPoly, gcd as zgcd
from k3siegel.algnum import RationalFunctionW
from k3siegel.picard2 import (
    CASE_II_SEPTIC,
    CASE_IV_FACTOR,
    S20_1,
    ST20_1,
    CertificationError,
    IntegralRing,
    classify_grid,
    eliminate,
    exclude_case_iv,
    exclude_cases_ii_iii,
    expected_P,
    expected_Q,
    fp_divmod,
    full_analysis,
    k_gcd,
    solve_B_and_P,
    trace_check,
)
from k3siegel.fpfsiegel import siegel_verdict_P, siegel_verdict_Q

EXPECTED_PM = ["S", "S", "H", "S", "S", "S", "H", "H", "S"]
EXPECTED_P = ["S", "S", "S", "S", "S", "S", "S", "S", "H"]


# every test reads the same eliminations
@pytest.fixture(scope="module")
def eliminants():
    return eliminate(3), eliminate(7)


@pytest.fixture(scope="module")
def solved():
    return solve_B_and_P()


def test_trace_check():
    assert trace_check()
    # the degree-4 Salem polynomial has Tr(F^3) > 1: different pattern
    assert not trace_check(IntPoly([1, -1, -1, -1, 1]))


def test_eliminant_degrees(eliminants):
    e3, e7 = eliminants
    assert len(e3) - 1 == 4      # (B - Q) times a cubic
    assert len(e7) - 1 == 12     # (B - Q) times a degree-11 factor
    g = k_gcd(e3, e7)
    assert len(g) - 1 == 1


def test_remaining_factors_coprime(eliminants):
    e3, e7 = eliminants
    g = k_gcd(e3, e7)
    r3, rem3 = fp_divmod(e3, g)
    r7, rem7 = fp_divmod(e7, g)
    assert not rem3 and not rem7
    assert len(r3) - 1 == 3 and len(r7) - 1 == 11
    assert len(k_gcd(r3, r7)) - 1 == 0  # no common roots


def test_solve_matches_closed_forms(solved):
    report = solved
    assert report.q_func == expected_Q()
    assert report.p_func == expected_P()
    assert report.certificates["h3_separation"]
    assert report.certificates["h7_separation"]


def test_exclusion_case_iv():
    numerator = exclude_case_iv()
    assert (IntPoly([1, 1]) * CASE_IV_FACTOR).divides(numerator)
    assert zgcd(numerator, S20_1).degree == 0
    assert zgcd(IntPoly([1, 1]) * CASE_IV_FACTOR, S20_1).degree == 0


def test_exclusion_cases_ii_iii():
    numerator = exclude_cases_ii_iii()
    assert CASE_II_SEPTIC.divides(numerator)
    assert zgcd(numerator, ST20_1).degree == 0
    assert zgcd(CASE_II_SEPTIC, ST20_1).degree == 0
    assert zgcd(ST20_1, ST20_1) == ST20_1


def test_verdict_grid(solved):
    report = classify_grid(solved)
    pm = [str(report.grid[("p_pm", j)]) for j in range(1, 10)]
    p = [str(report.grid[("p", j)]) for j in range(1, 10)]
    assert pm == EXPECTED_PM
    assert p == EXPECTED_P
    # every Siegel verdict on the p_pm row has a conjugate witness
    for j in range(1, 10):
        v = report.grid[("p_pm", j)]
        if v.kind == "S":
            assert v.rule == "1-i"


def test_full_analysis_certificates():
    report = full_analysis()
    assert "case_iv_numerator" in report.certificates
    assert "case_ii_iii_numerator" in report.certificates
    assert report.e3_degree == 4 and report.e7_degree == 12


def test_full_analysis_isolates_the_salem_conjugates_once(monkeypatch):
    # the verdict grid reads one list of trace conjugates for all 18 cells
    calls = []
    isolate = salemlib.isolate_real_roots

    def counting(p):
        calls.append(p)
        return isolate(p)

    monkeypatch.setattr(salemlib, "isolate_real_roots", counting)
    full_analysis()
    assert calls == [ST20_1]


def test_grid_decides_each_sign_once(solved, monkeypatch):
    # off and undecided once per conjugate and function: no (q, tau)
    # reaches sign_at twice, q a denominator or q num - p den for a
    # threshold p/q; past the denominators, at most two comparisons of Q
    # (against 2 and -2) and two of P (against 4 and 0) per conjugate.
    # The verdicts, rule and witness included, are those of one fresh
    # verdict per cell
    calls = []
    sign_at = fpfsiegel.sign_at

    def counting(q, x):
        calls.append((q, x))
        return sign_at(q, x)

    monkeypatch.setattr(fpfsiegel, "sign_at", counting)
    report = classify_grid(solved)
    taus = salemlib.trace_conjugates(ST20_1)
    assert len(set(calls)) == len(calls)
    dens = {solved.q_func.den, solved.p_func.den}
    assert 0 < len([q for q, _ in calls if q not in dens]) <= 4 * len(taus) == 36
    monkeypatch.setattr(fpfsiegel, "sign_at", sign_at)
    for j in range(1, len(taus) + 1):
        for row, verdict, f in (("p_pm", siegel_verdict_Q, solved.q_func),
                                ("p", siegel_verdict_P, solved.p_func)):
            want, got = verdict(f, taus, j), report.grid[(row, j)]
            assert (got.kind, got.rule, got.witness) == (want.kind, want.rule, want.witness)


def test_divisions_by_constants_take_no_inverse(monkeypatch):
    # 1 is skipped, -1 negates, any other constant divides coefficientwise
    def no_solve(*args):
        raise AssertionError("linalg.solve called for a constant divisor")

    monkeypatch.setattr(algnum, "solve", no_solve)
    ring = IntegralRing(ST20_1)
    values = [IntPoly([6, -4, 2]), IntPoly([0, 0, 0, 8])]
    assert ring.divide(values, IntPoly([1])) is values
    assert ring.divide(values, IntPoly([-1])) == [-v for v in values]
    assert ring.divide(values, IntPoly([-2])) == [IntPoly([-3, 2, -1]), IntPoly([0, 0, 0, -4])]


def test_elimination_takes_one_solve_per_inverse(monkeypatch):
    # each nonconstant divisor and each field inverse of a nonconstant
    # element pays one linalg.solve, of one column; 20 in all
    calls = []
    solve = algnum.solve

    def counting(a, rhs):
        calls.append(len(rhs[0]))
        return solve(a, rhs)

    monkeypatch.setattr(algnum, "solve", counting)
    full_analysis()
    assert calls and set(calls) == {1}
    assert len(calls) <= 20


def test_grid_reproduces_rank2_search_patterns(solved):
    # the S/H letters of the fifteen rank-2 search rows are the grid
    # columns at each row's special trace index
    report = classify_grid(solved)
    rows = [(7, "HS"), (6, "SS"), (9, "SH"), (6, "SS"), (5, "SS"),
            (3, "HS"), (4, "SS"), (7, "HS"), (1, "SS"), (6, "SS"),
            (3, "HS"), (3, "HS"), (5, "SS"), (1, "SS"), (3, "HS")]
    for j, letters in rows:
        got = f"{report.grid[('p_pm', j)]}{report.grid[('p', j)]}"
        assert got == letters


@pytest.mark.parametrize("ring, value, divisor", [
    (IntegralRing(IntPoly([-3, -1, 1])), IntPoly([1]), IntPoly([2])),   # 1 / 2 in Z[w]/(st)
    (IntegralRing(ST20_1), IntPoly([1]), IntPoly([2])),
    (IntegralRing(IntPoly([-1, 0, 1])), IntPoly([1]), IntPoly([-1, 1])),  # w - 1 divides zero
    (IntegralRing(), IntPoly([1, 1]), IntPoly([2])),                      # (w + 1) / 2 in Z[w]
    (IntegralRing(), IntPoly([0, 1]), IntPoly([1, 1])),                   # w / (w + 1)
    (IntegralRing(ST20_1), IntPoly([2, 4]), IntPoly([4, 2])),             # (1 + 2w) / (w + 2) after content 2
    (IntegralRing(ST20_1), IntPoly([1, 2]), IntPoly([2, 4])),             # content 2 divides no 1
    (IntegralRing(ST20_1), IntPoly([1]), IntPoly()),                       # division by zero
])
def test_inexact_division_is_a_typed_error(ring, value, divisor):
    with pytest.raises(CertificationError):
        ring.divide([value], divisor)
