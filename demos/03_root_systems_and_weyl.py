"""Root system of the Picard lattice and the Weyl-corrected isometry.

For an accepted pair the Picard lattice is negative definite of rank
22 - deg S.  Its (-2)-vectors form a finite ADE root system; the
isometry A need not preserve the Weyl chamber picked by the positive
roots, but a unique Weyl element w_A corrects it.  The corrected
isometry Atilde lifts to the automorphism, and its permutation of the
simple roots says how the automorphism moves the (-2)-curves.

This walkthrough runs the richest example: a rank-18 Picard lattice
with root system A2 + A2 + E6 + E8 (324 roots).
"""

from k3siegel import cli
from k3siegel.intpoly import IntPoly, cyclotomic
from k3siegel.hodgeclass import dissect_and_classify
from k3siegel.hyplattice import build, signature_and_renormalize, unimodularity_gate
from k3siegel.picardweyl import analyze_root_system
from k3siegel.salemlib import load_store
from k3siegel.setup2 import enumerate_setup2

store = load_store()
z2 = IntPoly([-1, 0, 1])

phi = z2 * store[(4, 1)].salem_poly * cyclotomic(8) * cyclotomic(12) * cyclotomic(30)
psi = enumerate_setup2()[522].psi()   # candidate number 523

model = signature_and_renormalize(build(phi, psi))
assert unimodularity_gate(model)
verdict = dissect_and_classify(model)
assert verdict.accepted

pic, report = analyze_root_system(model, verdict)
print("Picard rank:", pic.rho)
print("positive roots:", len(report.delta_plus))
print("simple roots:", len(report.simple_roots))
print("Dynkin type:", report.dynkin_name())
print("chamber walk length:", len(report.w_word))
print("char poly of Atilde on Pic:", cli.cyclo_label(report.phi1_tilde_factors))
print("Tr Atilde =", report.trace_a_tilde)
for act in report.component_actions:
    partner = f" -> component {act.partner}" if act.partner is not None else ""
    print(f"  {act.component.name}: {act.kind}{partner}")
