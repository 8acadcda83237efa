"""From a polynomial pair to a K3 lattice with a hyperbolic isometry.

Take phi anti-palindromic and psi palindromic, both monic of degree 22
and coprime.  The companion matrix A of phi acts on the lattice spanned
by the orbit of a cyclic vector r, with the symmetric form read off the
series psi/phi = 1 + sum xi_i z^-i (and xi_0 := 2).  When the resultant
of the pair is a unit the lattice is unimodular, and after flipping the
sign if needed it has signature (3, 19) exactly when the roots of the
two trace polynomials interlace in one of nine admissible patterns.
"""

from k3siegel.intpoly import IntPoly, cyclotomic
from k3siegel import linalg
from k3siegel.hyplattice import build, companion, signature_and_renormalize, unimodularity_gate
from k3siegel.hodgeclass import classify, dissect
from k3siegel.salemlib import load_store

store = load_store()
z2 = IntPoly([-1, 0, 1])

# the smallest degree-20 Salem polynomial against Lehmer times C21
phi = z2 * store[(20, 1)].salem_poly
psi = store[(10, 1)].salem_poly * cyclotomic(21)

model = build(phi, psi)
print("first Gram row:", model.gram[0][:8], "...")
print("unimodular:", unimodularity_gate(model))
model = signature_and_renormalize(model)
print("signature:", model.signature, " renormalized:", model.renormalized)

# A preserves the form
a, g = companion(model.phi), model.gram
assert linalg.mat_eq(linalg.mat_mul(linalg.mat_mul(linalg.transpose(a), g), a), g)
print("A^t G A = G holds")

# the trace-cluster dissection and the admissible-pattern gate
d = dissect(model.phi_trace, model.psi_trace)
print("\ncluster data: s =", len(d.b_clusters),
      " [A_on] =", d.a_signature(), " [B_on] =", d.b_signature(),
      " |A_>2| =", d.a_gt2_count, " |B_off| =", d.b_off_count)
verdict = classify(d, phi)
print("accepted:", verdict.accepted, " case:", verdict.case_number)
print("special trace index: tau_%d" % verdict.special_trace_index,
      "~", verdict.special_trace.approx())
print("Salem factor:", verdict.salem_factor.text())
