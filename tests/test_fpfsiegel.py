from fractions import Fraction

import pytest
import sympy

from k3siegel.intpoly import IntPoly
from k3siegel.algnum import RationalFunctionW, isolate_real_roots
from k3siegel.salemlib import trace_conjugates
from k3siegel.fpfsiegel import (
    A01,
    HYPERBOLIC,
    SIEGEL,
    THETA,
    UNDECIDED,
    ComponentContribution,
    ConjugateSigns,
    FpfInconsistency,
    NeedsManualAnalysis,
    base_theta_4vars,
    component_contribution,
    derive_P,
    exceptional_nu_typeII,
    fixed_curve_index,
    jet_closed_forms,
    jet_oracle,
    lambda_minus,
    lambda_minus_sum,
    lambda_plus,
    lambda_plus_sum,
    saito_budget,
    siegel_verdict_P,
    siegel_verdict_Q,
    theta_iterate_closed_form,
    typeII_iterate_identity,
)

ST4_1 = IntPoly([-3, -1, 1])
ST20_1 = IntPoly([1, -15, 21, 35, -49, -28, 35, 9, -10, -1, 1])

D = RationalFunctionW.variable()
ONE = RationalFunctionW.of(1)


def W(*coeffs):
    return RationalFunctionW(IntPoly(coeffs))


def exceptional_nu_typeI(n: int) -> RationalFunctionW:
    """Residue of a type-I exceptional point under the n-th iterate:
    (1 + delta^n)/(1 - delta^n)^2, with multiplicity 2."""
    dn = D ** n
    return (1 + dn) / ((1 - dn) * (1 - dn))


# the truncated-jet multiplicity check: z1 has weight 1 and z2 weight 2,
# and these are the monomials of weight <= 3
_MONOMIALS = [(0, 0), (1, 0), (2, 0), (0, 1), (3, 0), (1, 1)]


def residue_quotient_dimension(g1: dict, g2: dict) -> int:
    """Dimension of C{z}/(g1, g2) in the weighted truncation, for g1, g2
    the {(i, j): coefficient} generators z1 - f1 and z2 - f2: 6 less the
    rank of g1, z1 g1, g2, z1 g2 on the monomials of weight <= 3.  Exact
    for the multiplicity-2 configurations below (the ideal then contains
    z1^2 and z2 up to units)."""
    rows = []
    for g in (g1, g2):
        for k in (0, 1):
            shifted = {(i + k, j): c for (i, j), c in g.items()}
            rows.append([shifted.get(m, 0) for m in _MONOMIALS])
    return len(_MONOMIALS) - sympy.Matrix(rows).rank()


def typeII_generators(delta: Fraction, a10, a01, b10, a20) -> tuple[dict, dict]:
    """Truncated generators for the type-II normal form
    f1 = z1(1 + a10 z1 + a01 z2 + a20 z1^2 + ...),
    f2 = delta(z2 + z1 (b10 z1 + b01 z1 z2 ...)) with b01 = -2."""
    b01 = Fraction(-2)
    g1 = {(2, 0): -Fraction(a10), (1, 1): -Fraction(a01), (3, 0): -Fraction(a20)}
    g2 = {(0, 1): 1 - Fraction(delta), (2, 0): -Fraction(delta) * Fraction(b10),
          (1, 1): -Fraction(delta) * b01}
    return g1, g2


def typeI_generators(delta: Fraction, c11: Fraction = Fraction(1)) -> tuple[dict, dict]:
    """Truncated generators for the type-I normal form
    f1 = z1/(1+z1) + z2 g1, f2 = z2 (delta + g2):
    z1 - f1 = z1^2 - z1^3 + ... - z2 (c11 z1 + ...)."""
    g1 = {(2, 0): Fraction(1), (3, 0): Fraction(-1), (1, 1): -Fraction(c11)}
    g2 = {(0, 1): 1 - Fraction(delta), (1, 1): Fraction(-1)}
    return g1, g2


def test_lambda_identities():
    assert lambda_plus(1) == -D / ((1 - D) ** 2 * (1 + D))
    for k in range(1, 9):
        assert lambda_plus(k) == lambda_plus_sum(k)
    for k in range(0, 9):
        assert lambda_minus(k) == lambda_minus_sum(k)
    assert lambda_minus(0) == ONE / (1 + D)


def test_component_contribution_e8_trivial():
    c = component_contribution("E", 8, "trivial")
    assert (c.n_fixed_curves, c.mu_sum) == (1, 7)
    expected = -D / (1 - D) ** 2 * (
        ONE / (1 + D)
        + (1 + D) / W(1, 1, 1)
        + W(1, 1, 1, 1) / W(1, 1, 1, 1, 1))
    assert c.nu_sum == expected


def test_component_contribution_e6_nontrivial():
    c = component_contribution("E", 6, "nontrivial")
    assert (c.n_fixed_curves, c.mu_sum) == (0, 3)
    assert c.nu_sum == ONE / (2 * (1 + D)) + (1 + D) / (2 * (1 + D * D))


def test_component_contribution_moved_and_errors():
    c = component_contribution("A", 1, "moved")
    assert (c.n_fixed_curves, c.mu_sum) == (0, 0)
    assert c.nu_sum.is_zero()
    with pytest.raises(NeedsManualAnalysis):
        component_contribution("A", 2, "trivial")
    with pytest.raises(NeedsManualAnalysis):
        component_contribution("D", 4, "nontrivial")
    with pytest.raises(ValueError):
        component_contribution("E", 8, "nontrivial")


def test_saito_budget_entries():
    e8 = component_contribution("E", 8, "trivial")
    assert saito_budget(8, [e8]).free_multiplicity == 1          # entry 4
    a1a = component_contribution("A", 1, "moved")
    a1b = component_contribution("A", 1, "moved")
    assert saito_budget(-1, [a1a, a1b]).free_multiplicity == 1   # entry 2
    e6 = component_contribution("E", 6, "nontrivial")
    assert saito_budget(11, [a1a, a1b, e6, e8]).free_multiplicity == 1  # entry 9
    d9 = component_contribution("D", 9, "nontrivial")
    assert saito_budget(7, [d9]).free_multiplicity == 1          # entry 5
    d16 = component_contribution("D", 16, "trivial")
    assert saito_budget(16, [d16]).free_multiplicity == 1        # entry 8
    with pytest.raises(FpfInconsistency):
        saito_budget(-4, [])


def test_derive_P_generic():
    p = derive_P([], 0)
    assert p == W(1, 2, 1) / W(2, 1)  # (w+1)^2/(w+2)


def test_derive_P_entry4():
    e8 = component_contribution("E", 8, "trivial")
    p = derive_P([e8], 1)
    num = W(2, 1) * W(1, 5, -1, -5, 0, 1) ** 2
    den = W(3, 4, -5, -5, 1, 1) ** 2
    assert p == num / den


def test_derive_P_entry5():
    d9 = component_contribution("D", 9, "nontrivial")
    p = derive_P([d9], 0)
    num = W(2, 1) * W(1, 1, -3, -1, 1) ** 2
    den = W(-2, 1) ** 2 * W(1, 1) ** 2 * W(-1, 1, 1) ** 2
    assert p == num / den


def test_derive_P_entry8():
    d16 = component_contribution("D", 16, "trivial")
    p = derive_P([d16], 1)
    num = W(2, 1) * W(1, 5, -7, -16, 11, 11, -6, -2, 1) ** 2
    den = W(-1, -3, 0, 1) ** 2 * W(-3, 5, 4, -5, -1, 1) ** 2
    assert p == num / den


def test_derive_P_entry9():
    e6 = component_contribution("E", 6, "nontrivial")
    e8 = component_contribution("E", 8, "trivial")
    p = derive_P([e6, e8], 1)
    num = W(2, 1) * W(-2, -4, 0, 1) ** 2 * W(1, -2, -1, 1) ** 2
    den = W(-2, 0, 1) ** 2 * W(1, -1, -4, 0, 1) ** 2
    assert p == num / den


def test_entry4_rhs_assembly():
    # the index budget of entry 4: one fixed curve plus the E8 arm sums
    e8 = component_contribution("E", 8, "trivial")
    rhs = e8.nu_sum + fixed_curve_index()
    explicit = (-D / (1 - D) ** 2 * (ONE / (1 + D) + (1 + D) / W(1, 1, 1)
                                     + W(1, 1, 1, 1) / W(1, 1, 1, 1, 1))
                + (1 + D) / (1 - D) ** 2)
    assert rhs == explicit


def test_verdicts_grid_spot():
    w = RationalFunctionW.variable()
    p = (w + 1) ** 2 / (w + 2)
    # generic P on ST20: tau9 hyperbolic, tau1..tau8 Siegel by rule 1-i
    v9 = siegel_verdict_P(p, trace_conjugates(ST20_1), 9)
    assert v9.kind == HYPERBOLIC
    v1 = siegel_verdict_P(p, trace_conjugates(ST20_1), 1)
    assert v1.kind == SIEGEL and v1.rule == "1-i" and v1.witness == 9


def test_conjugate_signs_compare_at_algebraic():
    w = RationalFunctionW.variable()
    p = (w + 1) ** 2 / (w + 2)
    tau1 = isolate_real_roots(ST20_1)[7]  # tau7 of ST20, approx -0.95
    # verdict-style threshold comparisons
    assert ConjugateSigns().compare(p, 0, tau1) == 1
    assert ConjugateSigns().compare(p, 4, tau1) == -1


def test_published_verdict_patterns():
    from k3siegel.salemlib import load_store

    store = load_store()

    def taus(st):
        return isolate_real_roots(st)[1:]  # tau_1 > tau_2 > ...

    # E8 trivial on the degree-14 trace data: Siegel at tau_1, P > 4 at tau_4
    e8 = component_contribution("E", 8, "trivial")
    p4 = derive_P([e8], 1)
    st14 = store[(14, 1)].trace_poly
    v = siegel_verdict_P(p4, trace_conjugates(st14), 1)
    assert v.kind == SIEGEL and v.rule == "1-i"
    assert ConjugateSigns().compare(p4, 4, taus(st14)[3]) > 0   # tau_4 witness

    # D9 nontrivial on the degree-12 trace data: Siegel at tau_5, P > 4 at tau_2
    d9 = component_contribution("D", 9, "nontrivial")
    p5 = derive_P([d9], 0)
    st12 = store[(12, 1)].trace_poly
    v = siegel_verdict_P(p5, trace_conjugates(st12), 5)
    assert v.kind == SIEGEL and v.rule == "1-i"
    assert ConjugateSigns().compare(p5, 4, taus(st12)[1]) > 0   # tau_2 witness

    # D16 trivial on the degree-6 trace data: Siegel at tau_1, P > 4 at tau_2
    d16 = component_contribution("D", 16, "trivial")
    p8 = derive_P([d16], 1)
    st6 = store[(6, 1)].trace_poly
    v = siegel_verdict_P(p8, trace_conjugates(st6), 1)
    assert v.kind == SIEGEL and v.rule == "1-i" and v.witness == 2


def test_verdict_entry9_rule_1ii():
    w = RationalFunctionW.variable()
    num = (w + 2) * (w ** 3 - 4 * w - 2) ** 2 * (w ** 3 - w ** 2 - 2 * w + 1) ** 2
    den = (w ** 2 - 2) ** 2 * (w ** 4 - 4 * w ** 2 - w + 1) ** 2
    p = num / den
    v = siegel_verdict_P(p, trace_conjugates(ST4_1), 1)
    assert v.kind == SIEGEL and v.rule == "1-ii"
    assert v.witness == IntPoly([1, -11, 27])


def test_verdict_Q_examples():
    w = RationalFunctionW.variable()
    q = RationalFunctionW.of(-1) * (w + 1) * (w - 2) * (w ** 3 - 3 * w + 1)
    assert siegel_verdict_Q(q, trace_conjugates(ST20_1), 1).kind == SIEGEL
    assert siegel_verdict_Q(q, trace_conjugates(ST20_1), 3).kind == HYPERBOLIC


def test_pole_at_a_trace_conjugate_is_inconsistent():
    # 1/ST4 has its pole at tau_1 itself, for both dichotomies
    pole = ONE / W(-3, -1, 1)
    for verdict in (siegel_verdict_P, siegel_verdict_Q):
        with pytest.raises(FpfInconsistency, match="pole at a trace conjugate"):
            verdict(pole, trace_conjugates(ST4_1), 1)


def test_negative_P_at_the_special_trace_is_undecided():
    # 10w on ST20 (tau_1..tau_9 ~ 1.87, 1.61, 0.89, 0.54, 0.08, -0.95,
    # -1.39, -1.78, -1.91): as P it is above 4 at tau_1..tau_4, on the
    # circle at tau_5 with tau_1 as witness, and negative (undecided) at
    # tau_6..tau_9; as Q, |Q| > 2 everywhere but at tau_5
    hyperbolic, siegel = (HYPERBOLIC, "2", None), (SIEGEL, "1-i", 1)
    got = {verdict: [(v.kind, v.rule, v.witness) for v in
                     (verdict(W(0, 10), trace_conjugates(ST20_1), j) for j in range(1, 10))]
           for verdict in (siegel_verdict_P, siegel_verdict_Q)}
    assert got[siegel_verdict_P] == [hyperbolic] * 4 + [siegel] + [(UNDECIDED, None, None)] * 4
    assert got[siegel_verdict_Q] == [hyperbolic] * 4 + [siegel] + [hyperbolic] * 4


def test_exceptional_nu_typeI():
    assert exceptional_nu_typeI(1) == fixed_curve_index()
    d = D
    assert exceptional_nu_typeI(2) == (1 + d ** 2) / (1 - d ** 2) ** 2


def test_exceptional_nu_typeII_small():
    d = D
    nu1 = exceptional_nu_typeII(1)
    assert nu1 == (THETA + 2 * d) / (1 - d) ** 2
    nu3 = exceptional_nu_typeII(3)
    expected = ((THETA * (1 + d + d ** 2) + 2 + 4 * d ** 3)
                / (3 * (1 - d ** 3) ** 2))
    assert nu3 == expected


def test_typeII_iterate_identity():
    for n in range(1, 7):
        assert typeII_iterate_identity(n)


def test_jet_oracle_against_closed_forms():
    states = jet_oracle(6)
    for st in states:
        n = st.n
        cf = jet_closed_forms(n)
        assert st.a10 == cf.a10
        assert st.a01 == cf.a01
        assert st.b10 == cf.b10
        assert st.a20 == cf.a20
        assert st.theta() == theta_iterate_closed_form(n, base_theta_4vars())


def test_jet_poly_takes_a_rational_function_on_either_side():
    # RationalFunctionW returns NotImplemented, so JetPoly's reflected
    # operators take over
    dn = D ** 3
    assert dn * A01 == A01 * dn
    assert dn + THETA == THETA + dn
    assert 2 * A01 == A01 * 2 and 1 + THETA == THETA + 1
    assert A01 != D and D != A01


def test_jet_oracle_n1_identity():
    st = jet_oracle(1)[0]
    assert st.a10 == 1
    assert st.a01 == A01
    assert st.theta() == base_theta_4vars()


def test_residue_quotient_dimensions():
    delta = Fraction(2, 3)
    # type II: multiplicity 2 exactly when a10 != 0
    g1, g2 = typeII_generators(delta, a10=1, a01=1, b10=-1, a20=2)
    assert residue_quotient_dimension(g1, g2) == 2
    g1, g2 = typeII_generators(delta, a10=0, a01=1, b10=-1, a20=2)
    assert residue_quotient_dimension(g1, g2) > 2
    g1, g2 = typeII_generators(delta, a10=0, a01=1, b10=0, a20=2)
    assert residue_quotient_dimension(g1, g2) > 2
    # type I: the ideal is (z1^2, z2) regardless of the tail coefficients
    g1, g2 = typeI_generators(delta)
    assert residue_quotient_dimension(g1, g2) == 2
    g1, g2 = typeI_generators(delta, c11=Fraction(5))
    assert residue_quotient_dimension(g1, g2) == 2
