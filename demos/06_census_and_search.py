"""The bulk searches: the 1019-word census and the pair pipeline.

Enumerates the auxiliary degree-22 polynomials (a 3.9M-word census with
exact filters, about 0.04 s), then pushes a handful of pairs through the
analysis pipeline.  Set K3SIEGEL_DEMO_FULL=1 to run the complete rank-18
search (all cyclotomic products against all 1019 candidates; about 11 s
with K3SIEGEL_WORKERS=1 on a 2-CPU machine with Python 3.11).
"""

import os

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

if os.environ.get("K3SIEGEL_DEMO_FULL") == "1":
    rows = cli.search_setup2(workers=int(os.environ.get("K3SIEGEL_WORKERS", "2")))
    print(f"\nfull rank-18 search: {len(rows)} solution rows")
    print(cli.emit(rows, "csv"))
else:
    print("\n(set K3SIEGEL_DEMO_FULL=1 for the full rank-18 search)")
