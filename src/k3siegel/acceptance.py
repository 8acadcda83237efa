"""The acceptance suite: every published value the package must reproduce.

Each criterion is a function returning (ok, detail); ``run_all`` prints
one PASS/FAIL line per criterion with its runtime.  The two search
criteria (the 1019-word census feeding the Picard-number-18 table, and
the rank-2 certification) dominate the runtime; everything else is
seconds.  All comparisons are exact.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction

from .intpoly import (
    IntPoly,
    cyclotomic,
    from_trace_polynomial,
    gcd as zgcd,
    newton_traces,
    palindrome_kind,
    reciprocal,
    trace_polynomial,
    PALINDROMIC,
)
from .algnum import RationalFunctionW, symmetric_descent
from . import linalg
from .hyplattice import build, reflection_factor, signature_and_renormalize, unimodularity_gate
from .salemlib import compute_L0, is_unramified_salem, load_store, salem_lambda
from .setup2 import enumerate_setup2
from . import cli
from . import picard2 as p2
from .fpfsiegel import (
    component_contribution,
    derive_P,
    fixed_curve_index,
    jet_closed_forms,
    jet_oracle,
    lambda_minus,
    lambda_minus_sum,
    lambda_plus,
    lambda_plus_sum,
    theta_closed_form_4vars,
    typeII_iterate_identity,
)

PSI_523_COEFFS = (-1, -2, 0, 2, 1, 0, -1, -2, 0, 1, 1)

# The forty solution rows of the Picard-number-18 search:
# (cyclotomic index set of C, psi id, special trace index, Dynkin type,
#  char poly of the corrected isometry on Pic, trace of the isometry).
# The char poly on Pic always carries the (z-1)(z+1) factor of phi1, so
# it has degree 18 = rho on every row, including the empty-Dynkin ones.
RHO18_TABLE = [
    ((17,), 579, 1, "0", "C1 C2 C17", 0),
    ((32,), 289, 1, "0", "C1 C2 C32", 1),
    ((32,), 576, 1, "0", "C1 C2 C32", 1),
    ((32,), 692, 1, "0", "C1 C2 C32", 1),
    ((32,), 711, 1, "0", "C1 C2 C32", 1),
    ((40,), 40, 1, "A2", "C1 C2 C40", 1),
    ((40,), 58, 1, "A2", "C1 C2 C40", 1),
    ((40,), 515, 1, "A2", "C1 C2 C40", 1),
    ((40,), 579, 1, "A2", "C1 C2 C40", 1),
    ((40,), 873, 1, "A2", "C1 C2 C40", 1),
    ((48,), 692, 1, "A2", "C1 C2 C48", 1),
    ((48,), 699, 1, "A2", "C1 C2 C48", 1),
    ((60,), 457, 1, "A2", "C1 C2 C60", 1),
    ((60,), 699, 1, "A2", "C1 C2 C60", 1),
    ((60,), 744, 1, "A2", "C1 C2 C60", 1),
    ((60,), 961, 1, "A2", "C1 C2 C60", 1),
    ((5, 26), 664, 1, "A1^5", "C1 C2 C5 C26", 1),
    ((5, 26), 679, 1, "A1^5", "C1 C2 C5 C26", 1),
    ((5, 26), 792, 1, "A1^5", "C1 C2 C5 C26", 1),
    ((5, 26), 893, 1, "A1^5", "C1 C2 C5 C26", 1),
    ((5, 26), 961, 1, "A1^5", "C1 C2 C5 C26", 1),
    ((5, 36), 873, 1, "A1^5+E6^2", "C1^5 C2^5 C4^2 C5", 0),
    ((5, 36), 901, 1, "A1^5+E6^2", "C1^5 C2^5 C4^2 C5", 0),
    ((5, 36), 961, 1, "A1^5+E6^2", "C1^5 C2^5 C4^2 C5", 0),
    ((8, 36), 457, 1, "E6^3", "C1^8 C2^6 C4^2", 3),
    ((8, 36), 515, 1, "E6^3", "C1^8 C2^6 C4^2", 3),
    ((8, 36), 699, 1, "E6^3", "C1^8 C2^6 C4^2", 3),
    ((8, 36), 712, 1, "E6^3", "C1^8 C2^6 C4^2", 3),
    ((3, 4, 28), 515, 1, "A3", "C1^3 C2 C4 C28", 3),
    ((3, 4, 28), 870, 1, "A3", "C1^3 C2 C4 C28", 3),
    ((3, 9, 15), 870, 1, "0", "C1 C2 C3 C9 C15", 1),
    ((3, 9, 24), 692, 1, "0", "C1 C2 C3 C9 C24", 0),
    ((4, 10, 11), 692, 1, "D11", "C1^11 C2 C4 C10", 12),
    ((8, 12, 30), 523, 1, "A2^2+E6+E8", "C1^13 C2^3 C4", 11),
    ((9, 10, 18), 711, 1, "0", "C1 C2 C9 C10 C18", 2),
    ((10, 12, 16), 259, 1, "A2^2", "C1^2 C2^2 C4 C10 C16", 2),
    ((3, 4, 6, 11), 279, 1, "A11", "C1^11 C2 C3 C4 C6", 11),
    ((3, 4, 8, 15), 515, 1, "A2^4", "C1^2 C2^2 C3 C4^2 C15", 1),
    ((3, 4, 8, 15), 870, 1, "A2^4", "C1^2 C2^2 C3 C4^2 C15", 1),
    ((3, 4, 8, 16), 699, 1, "A2", "C1^3 C2 C4 C8 C16", 3),
]

# Rank-2 spot rows runnable from the embedded Salem data alone:
# (aux Salem key, aux cyclotomic index, special trace index, S/H letters).
RHO2_SPOT_ROWS = [
    ((10, 1), 21, 7, "HS"),
    ((14, 1), 20, 5, "SS"),
]

LEHMER_DATA_LINE = "10 1 : 1 1 -5 -5 4 3\n"

EXPECTED_L0 = {12, 15, 20, 21, 24, 28, 30, 36, 40, 42, 48, 60}
EXPECTED_GRID_PM = ["S", "S", "H", "S", "S", "S", "H", "H", "S"]
EXPECTED_GRID_P = ["S", "S", "S", "S", "S", "S", "S", "S", "H"]

_SETUP2_CACHE: list | None = None


def _setup2():
    global _SETUP2_CACHE
    if _SETUP2_CACHE is None:
        _SETUP2_CACHE = enumerate_setup2()
    return _SETUP2_CACHE


def criterion_setup2_census():
    cands = _setup2()
    ok = len(cands) == 1019
    return ok, f"{len(cands)} candidates (expected 1019)"


def criterion_setup2_id523():
    cands = _setup2()
    if len(cands) < 523:
        return False, "fewer than 523 candidates"
    c = cands[522]
    if c.coeffs != PSI_523_COEFFS:
        return False, f"candidate 523 is {c.coeffs}"
    psi = c.psi()
    if not is_unramified_salem(psi):
        return False, "candidate 523 is not an unramified Salem polynomial"
    lam = salem_lambda(psi)
    lam.refine(Fraction(1, 10 ** 7))
    ok = Fraction(17265, 10000) < lam.lo and lam.hi < Fraction(17266, 10000)
    return ok, f"lambda in ({float(lam.lo):.6f}, {float(lam.hi):.6f})"


def criterion_L0():
    got = compute_L0(16)
    return got == EXPECTED_L0, f"{sorted(got)}"


def criterion_trace_sequence():
    store = load_store()
    phi = cli.phi_of(store[(20, 1)].salem_poly, ())
    got = newton_traces(phi, 8)
    return got == [1, 3, 1, 3, 6, 3, 1, 3], f"{got}"


def criterion_rho18_pipeline():
    store = load_store()
    phi = cli.phi_of(store[(4, 1)].salem_poly, (8, 12, 30))
    psi = _setup2()[522].psi()
    model = build(phi, psi)
    if not unimodularity_gate(model):
        return False, "pair is not unimodular"
    row = cli.analyze_pair(phi, psi)
    checks = {
        "st": row.st_index == 1,
        "dynkin": row.dynkin == "A2^2+E6+E8",
        "phi1": row.phi1_tilde == "C1^13 C2^3 C4",
        "trace": row.trace_a_tilde == 11,
        "sd": row.sd == "S",
        "rule": bool(row.verdicts) and row.verdicts[0].rule == "1-ii",
        "witness": bool(row.verdicts) and row.verdicts[0].witness == IntPoly([1, -11, 27]),
    }
    # action pattern: the two A2 components swapped, E6 nontrivial, E8 trivial
    from .hodgeclass import dissect_and_classify
    from .picardweyl import analyze_root_system

    verdict = dissect_and_classify(phi, psi)
    model = signature_and_renormalize(model)
    _, report = analyze_root_system(model, verdict)
    kinds = {}
    for act in report.component_actions:
        kinds.setdefault(act.component.name, []).append(act.kind)
    checks["actions"] = (sorted(kinds.get("A2", [])) == ["moved", "moved"]
                         and kinds.get("E6") == ["nontrivial"]
                         and kinds.get("E8") == ["trivial"])
    failed = [k for k, v in checks.items() if not v]
    return not failed, ("all checks passed" if not failed else f"failed: {failed}")


def criterion_rho18_table(workers: int = 1):
    rows = cli.search_setup2(workers=workers, candidates=_setup2())
    got = sorted((tuple(sorted(_cset_from_label(r.c_label))), int(r.aux_c_label),
                  r.st_index, r.dynkin, r.phi1_tilde, r.trace_a_tilde)
                 for r in rows)
    want = sorted((tuple(sorted(cset)), pid, st, dyn, phi1, tr)
                  for cset, pid, st, dyn, phi1, tr in RHO18_TABLE)
    if got != want:
        missing = [w for w in want if w not in got]
        extra = [g for g in got if g not in want]
        return False, f"missing {missing[:3]}... extra {extra[:3]}..."
    marked = [r for r in rows if r.sd == "S"]
    ok = len(marked) == 1 and marked[0].aux_c_label == "523"
    return ok, f"{len(rows)} rows, Siegel-marked: {[r.aux_c_label for r in marked]}"


def _cset_from_label(label: str):
    if label == "1":
        return ()
    return tuple(int(tok[1:]) for tok in label.split())


def criterion_closed_form_P():
    w = RationalFunctionW.variable()

    def poly(*cs):
        return RationalFunctionW(IntPoly(cs))

    cases = []
    cases.append((derive_P([], 0), poly(1, 2, 1) / poly(2, 1)))
    e8 = component_contribution("E", 8, "trivial")
    cases.append((derive_P([e8], 1),
                  poly(2, 1) * poly(1, 5, -1, -5, 0, 1) ** 2 / poly(3, 4, -5, -5, 1, 1) ** 2))
    d9 = component_contribution("D", 9, "nontrivial")
    cases.append((derive_P([d9], 0),
                  poly(2, 1) * poly(1, 1, -3, -1, 1) ** 2
                  / (poly(-2, 1) ** 2 * poly(1, 1) ** 2 * poly(-1, 1, 1) ** 2)))
    d16 = component_contribution("D", 16, "trivial")
    cases.append((derive_P([d16], 1),
                  poly(2, 1) * poly(1, 5, -7, -16, 11, 11, -6, -2, 1) ** 2
                  / (poly(-1, -3, 0, 1) ** 2 * poly(-3, 5, 4, -5, -1, 1) ** 2)))
    e6 = component_contribution("E", 6, "nontrivial")
    cases.append((derive_P([e6, e8], 1),
                  poly(2, 1) * poly(-2, -4, 0, 1) ** 2 * poly(1, -2, -1, 1) ** 2
                  / (poly(-2, 0, 1) ** 2 * poly(1, -1, -4, 0, 1) ** 2)))
    bad = [i for i, (got, want) in enumerate(cases) if got != want]
    return not bad, ("5/5 closed forms match" if not bad else f"mismatch at {bad}")


def criterion_index_sum_identities():
    for k in range(1, 9):
        if lambda_plus(k) != lambda_plus_sum(k):
            return False, f"lambda_plus({k})"
    for k in range(0, 9):
        if lambda_minus(k) != lambda_minus_sum(k):
            return False, f"lambda_minus({k})"
    e8 = component_contribution("E", 8, "trivial")
    d = RationalFunctionW.variable()
    one = RationalFunctionW.of(1)

    def poly(*cs):
        return RationalFunctionW(IntPoly(cs))

    explicit = (-d / (1 - d) ** 2 * (one / (1 + d) + (1 + d) / poly(1, 1, 1)
                                     + poly(1, 1, 1, 1) / poly(1, 1, 1, 1, 1))
                + (1 + d) / (1 - d) ** 2)
    ok = (e8.nu_sum + fixed_curve_index()) == explicit
    return ok, "Lambda identities and the E8 assembly hold" if ok else "E8 assembly differs"


def criterion_jet_oracle():
    from .symbolic import MRat

    states = jet_oracle(6)
    for st in states:
        cf = jet_closed_forms(st.n)
        if not (MRat(st.a10) == cf.a10 and MRat(st.a01) == cf.a01
                and MRat(st.b10) == cf.b10 and MRat(st.a20) == cf.a20):
            return False, f"jet closed form differs at n={st.n}"
        if st.theta() != theta_closed_form_4vars(st.n):
            return False, f"theta closed form differs at n={st.n}"
        if not typeII_iterate_identity(st.n):
            return False, f"iterate identity differs at n={st.n}"
    return True, "recurrences match closed forms for n <= 6"


def criterion_picard2():
    report = p2.full_analysis()
    if report.e3_degree != 4 or report.e7_degree != 12:
        return False, f"eliminant degrees {report.e3_degree}, {report.e7_degree}"
    if report.q_func != p2.expected_Q():
        return False, "Q differs from the closed form"
    if report.p_func != p2.expected_P():
        return False, "P differs from the closed form"
    pm = [str(report.grid[("p_pm", j)]) for j in range(1, 10)]
    pp = [str(report.grid[("p", j)]) for j in range(1, 10)]
    if pm != EXPECTED_GRID_PM or pp != EXPECTED_GRID_P:
        return False, f"grid differs: {pm} / {pp}"
    return True, "elimination, closed forms, exclusions and grid all certified"


def criterion_rho2_spot_rows(workers: int = 1):
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
        fh.write("# Lehmer's polynomial, as user-supplied data\n")
        fh.write(LEHMER_DATA_LINE)
        path = fh.name
    try:
        store = load_store(path)
    finally:
        os.unlink(path)
    rows = cli.search_setup1(store, 20, workers=workers)
    accepted = [(r.aux_s_label, r.aux_c_label, r.st_index, r.dynkin,
                 r.phi1_tilde, r.trace_a_tilde, r.sd) for r in rows]
    want = sorted(
        (cli.salem_label(*key), cli.cyclo_label([l]), st, "A1", "C1 C2", 1, sd)
        for key, l, st, sd in RHO2_SPOT_ROWS)
    got = sorted(accepted)
    ok = got == want
    return ok, f"accepted rows: {got}"


def criterion_structural_properties(n_pairs: int = 200):
    rng = random.Random(20260810)
    store = load_store()
    cands = _setup2()
    entries = list(store.entries.values())
    unram = store.unramified_entries()
    l0 = sorted(compute_L0(16))
    checked = 0
    tried = 0
    while checked < n_pairs and tried < 20 * n_pairs:
        tried += 1
        s = rng.choice(entries)
        phi = cli.phi_of(s.salem_poly, rng.choice(cli.cyclotomic_sets(20 - s.degree)))
        if rng.random() < 0.5:
            psi = rng.choice(cands).psi()
        else:
            e = rng.choice(unram)
            need = 22 - e.degree
            subsets = cli.cyclotomic_sets(need, allowed=l0)
            if not subsets:
                continue
            psi = e.salem_poly
            for l in rng.choice(subsets):
                psi = psi * cyclotomic(l)
        if zgcd(phi, psi).degree > 0:
            continue
        model = build(phi, psi)
        g = model.gram
        a = model.a_mat
        if not all(g[i][j] == g[j][i] for i in range(22) for j in range(22)):
            return False, "gram not symmetric"
        if not all(g[i][i] % 2 == 0 for i in range(22)):
            return False, "gram not even"
        ata = linalg.mat_mul(linalg.mat_mul(linalg.transpose(a), g), a)
        if not linalg.mat_eq(ata, g):
            return False, "A is not an isometry"
        c = reflection_factor(model)
        if not linalg.mat_eq(linalg.mat_mul(c, c), linalg.identity(22)):
            return False, "C is not an involution"
        ci = linalg.mat_sub(c, linalg.identity(22))
        nz = [j for j in range(22) if any(ci[i][j] for i in range(22))]
        col0 = [ci[i][nz[0]] for i in range(22)]
        for j in nz[1:]:
            colj = [ci[i][j] for i in range(22)]
            if any(col0[i] * colj[k] - col0[k] * colj[i] for i in range(22) for k in range(22)):
                return False, "rank(C - I) > 1"
        if abs(linalg.bareiss_det(g)) != abs(model.resultant):
            return False, "det gram differs from the resultant"
        checked += 1

    # polynomial-level properties on fresh random data
    for _ in range(60):
        coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 10))]
        coeffs.append(rng.choice([1, 2, -1, -2]))
        p = IntPoly(coeffs)
        if p[0] != 0 and reciprocal(reciprocal(p)) != p:
            return False, "reciprocal is not an involution"
        tr = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 6))] + [1])
        u = from_trace_polynomial(tr)
        if palindrome_kind(u) == PALINDROMIC and trace_polynomial(u) != tr:
            return False, "trace polynomial round-trip failed"
    d = RationalFunctionW.variable()
    one = RationalFunctionW.of(1)
    for _ in range(15):
        ks = [rng.randint(-3, 3) for _ in range(4)]
        sym = sum((d ** k + one / d ** k) * c for k, c in enumerate(ks, start=1))
        sym = sym + rng.randint(-3, 3)
        hat = symmetric_descent(sym)
        if hat.substitute(d + one / d) != sym:
            return False, "symmetric descent round-trip failed"
    return True, f"{checked} lattice pairs plus polynomial identities verified"


CRITERIA = [
    ("setup2-census", criterion_setup2_census, False),
    ("setup2-id523", criterion_setup2_id523, False),
    ("unramified-cyclotomic-set", criterion_L0, False),
    ("trace-sequence", criterion_trace_sequence, False),
    ("rho18-pipeline", criterion_rho18_pipeline, False),
    ("rho18-table", criterion_rho18_table, True),
    ("closed-form-P", criterion_closed_form_P, False),
    ("index-sum-identities", criterion_index_sum_identities, False),
    ("jet-oracle", criterion_jet_oracle, False),
    ("picard2-certification", criterion_picard2, False),
    ("rho2-spot-rows", criterion_rho2_spot_rows, True),
    ("structural-properties", criterion_structural_properties, False),
]

SLOW = {"rho18-table", "rho2-spot-rows"}


def run_all(fast: bool = False, workers: int = 1) -> bool:
    all_ok = True
    for name, fn, takes_workers in CRITERIA:
        if fast and name in SLOW:
            print(f"SKIP {name} (fast mode)")
            continue
        t0 = time.time()
        try:
            ok, detail = fn(workers) if takes_workers else fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        dt = time.time() - t0
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} [{dt:.1f}s]")
    return all_ok
