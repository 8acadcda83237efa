"""The bulk searches: the 1019-word census and the pair pipeline.

Enumerates the auxiliary degree-22 polynomials (a 3.9M-word census with
exact filters, about 0.04 s), then pushes a handful of pairs through the
analysis pipeline.  The complete rank-18 search (all cyclotomic products
against all 1019 candidates) is the command `k3siegel search --setup2`.
"""

from k3siegel import cli
from k3siegel.intpoly import IntPoly, cyclotomic
from k3siegel.salemlib import load_store
from k3siegel.setup2 import enumerate_setup2

store = load_store()
z2 = IntPoly([-1, 0, 1])

cands = enumerate_setup2()
print("census size:", len(cands))
print("candidate 523:", cands[522].coeffs)

# analyze a few explicit pairs against candidate 523
psi = cands[522].psi()
for cset in [(8, 12, 30), (17,), (4, 10, 11)]:
    phi = z2 * store[(4, 1)].salem_poly
    for j in cset:
        phi = phi * cyclotomic(j)
    row = cli.analyze_pair(phi, psi, s_label="S1^(4)",
                           c_label=cli.cyclo_label(list(cset)), aux_c_label="523")
    status = row.sd or row.note or f"rejected: {row.rejection}"
    print(f"C = {row.c_label:12s} -> {status}")

print("\nthe full rank-18 search: k3siegel search --setup2")
