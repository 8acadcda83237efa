"""Fixed point budgets and Siegel disk certification.

Two Lefschetz-type formulas constrain the fixed points of the lifted
automorphism.  Counting multiplicities leaves, in the cases automated
here, exactly one transverse fixed point off the exceptional curves;
summing holomorphic residues then pins its eigenvalue data down to
(alpha + 1/alpha)^2 = P(tau) for an explicit rational function P of the
special trace.  Exact sign tests of P at tau and its conjugates decide
between a Siegel disk and a hyperbolic point, with an algebraic
non-integrality test as the fallback witness.
"""

from k3siegel.algnum import RationalFunctionW
from k3siegel.fpfsiegel import (
    component_contribution,
    derive_P,
    lambda_minus,
    lambda_plus,
    saito_budget,
    siegel_verdict_P,
)
from k3siegel.salemlib import load_store

store = load_store()

print("arm index sums (formal variable delta):")
print("  fixed arms    :", [str(lambda_plus(k).num.coeffs) for k in (1, 2)][0], "...")
print("  swapped arms  : Lambda_1^- =", lambda_minus(1).num.coeffs, "/", lambda_minus(1).den.coeffs)

# an E8 component fixed pointwise at the trivalent curve
e8 = component_contribution("E", 8, "trivial")
print("\nE8, trivial action: fixed curves =", e8.n_fixed_curves, " mu =", e8.mu_sum)

# with Tr = 8 the budget leaves one free transverse point
budget = saito_budget(8, [e8])
print("free multiplicity:", budget.free_multiplicity)
p = derive_P([e8], budget.n_f_total)
print("P numerator  :", p.num.signed_primitive().text())
print("P denominator:", p.den.signed_primitive().text())

# the degree-14 Salem factor: P(tau_1) in (0,4) with a conjugate witness
st = store[(14, 1)].trace_poly
v = siegel_verdict_P(p, st, 1)
print("verdict at tau_1:", v.kind, " rule:", v.rule, " witness conjugate:", v.witness)

# the generic no-component case
p0 = derive_P([], 0)
w = RationalFunctionW.variable()
assert p0 == (w + 1) ** 2 / (w + 2)
print("\nno components: P(w) = (w+1)^2/(w+2)")
st20 = store[(20, 1)].trace_poly
print("verdicts across the degree-20 conjugates:",
      "".join(str(siegel_verdict_P(p0, st20, j)) for j in range(1, 10)))
