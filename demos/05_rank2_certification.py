"""The rank-2 analysis: one exceptional curve, three fixed points.

With Picard rank 2, a single A1 curve E and f*|Pic of order two, the
automorphism has fixed points p+- on E and one point p off E.  The
fixed point formulas at the iterates n = 1, 3, 7 overdetermine the
eigenvalue data; eliminating over the number field K = QQ(tau) of the
degree-20 Salem trace polynomial leaves a unique common root
B = Q(tau), and back-substitution gives A^2 = P(tau) in closed form.
Exact sign tests at the nine conjugates tau_1 > ... > tau_9 classify
every fixed point.  Takes a few seconds.
"""

from k3siegel import picard2

report = picard2.full_analysis()

print("eliminant degrees:", report.e3_degree, "and", report.e7_degree)
written = report.to_json()
print("B = Q(tau), Q =", written["Q_num"])
print("A^2 = P(tau):")
print("  num:", written["P_num"])
print("  den:", written["P_den"])

print("\nverdict grid over tau_1 .. tau_9 (S = Siegel disk, H = hyperbolic):")
pm = " ".join(str(report.grid[("p_pm", j)]) for j in range(1, 10))
pp = " ".join(str(report.grid[("p", j)]) for j in range(1, 10))
print("  on-curve pair p+- :", pm)
print("  free point p      :", pp)

print("\ncase-exclusion certificates (trivial gcd against the minimal polynomials):")
for key in ("case_iv_numerator", "case_ii_iii_numerator"):
    print(" ", key, "degree", report.certificates[key].degree)
