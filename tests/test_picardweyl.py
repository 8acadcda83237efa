import itertools

import pytest
import sympy

from k3siegel.acceptance import RHO18_TABLE, _setup2
from k3siegel.cli import phi_of
from k3siegel.intpoly import IntPoly, cyclotomic
from k3siegel import cli, linalg, picardweyl
from k3siegel.hodgeclass import dissect_and_classify
from k3siegel.hyplattice import build, signature_and_renormalize, unimodularity_gate
from k3siegel.picardweyl import (
    PicardData,
    RootSystemReport,
    analyze_root_system,
    enumerate_roots,
    picard_lattice,
)
from k3siegel.salemlib import load_store

STORE = load_store()
Z2 = IntPoly([-1, 0, 1])
PSI_523 = IntPoly([1, -1, -2, 0, 2, 1, 0, -1, -2, 0, 1, 1, 1, 0, -2, -1, 0, 1, 2, 0, -2, -1, 1])
ROWS = {
    "row1": (Z2 * STORE[(20, 1)].salem_poly, STORE[(10, 1)].salem_poly * cyclotomic(21)),
    "entry2": (Z2 * STORE[(18, 22)].salem_poly * cyclotomic(4),
               STORE[(6, 1)].salem_poly * cyclotomic(48)),
    "entry6": (Z2 * STORE[(10, 1)].salem_poly * cyclotomic(4) * cyclotomic(16),
               STORE[(6, 1)].salem_poly * cyclotomic(40)),
    "entry9": (Z2 * STORE[(4, 1)].salem_poly * cyclotomic(8) * cyclotomic(12) * cyclotomic(30),
               PSI_523),
}


def run_pipeline(phi, psi):
    model = build(phi, psi)
    assert unimodularity_gate(model)
    model = signature_and_renormalize(model)
    verdict = dissect_and_classify(phi, psi)
    assert verdict.accepted
    pic, report = analyze_root_system(model, verdict)
    return model, verdict, pic, report


def test_row1_weyl():
    model, verdict, pic, report = run_pipeline(*ROWS["row1"])
    assert pic.rho == 2
    assert report.dynkin_name() == "A1"
    assert report.phi1_tilde_factors == {1: 1, 2: 1}
    assert report.trace_a_tilde == 1
    assert len(report.component_actions) == 1


def test_entry9_weyl():
    model, verdict, pic, report = run_pipeline(*ROWS["entry9"])
    assert pic.rho == 18
    assert report.dynkin_name() == "A2^2+E6+E8"
    assert report.phi1_tilde_factors == {1: 13, 2: 3, 4: 1}
    assert report.trace_a_tilde == 11
    kinds = {}
    for act in report.component_actions:
        kinds.setdefault(act.component.name, []).append(act.kind)
    assert sorted(kinds["A2"]) == ["moved", "moved"]
    assert kinds["E6"] == ["nontrivial"]
    assert kinds["E8"] == ["trivial"]


def test_entry2_weyl():
    model, verdict, pic, report = run_pipeline(*ROWS["entry2"])
    assert pic.rho == 4
    assert report.dynkin_name() == "A1^2"
    assert report.phi1_tilde_factors == {1: 1, 2: 1, 4: 1}
    assert report.trace_a_tilde == -1
    assert all(a.kind == "moved" for a in report.component_actions)


def test_entry6_weyl():
    model, verdict, pic, report = run_pipeline(*ROWS["entry6"])
    assert pic.rho == 12
    assert report.dynkin_name() == "E6^2"
    assert report.phi1_tilde_factors == {1: 4, 2: 4, 4: 2}
    assert report.trace_a_tilde == -1
    assert all(a.kind == "moved" for a in report.component_actions)


def test_invariants_entry9():
    model, verdict, pic, report = run_pipeline(*ROWS["entry9"])
    # Atilde is an isometry of the intersection form
    at = report.a_tilde_l
    g = model.gram
    assert linalg.mat_eq(linalg.mat_mul(linalg.mat_mul(linalg.transpose(at), g), at), g)
    # char(Atilde) = S * phi1_tilde with the same Salem factor as phi
    cp = linalg.charpoly(at)
    assert cp == verdict.salem_factor * report.phi1_tilde
    assert report.phi1_tilde.degree == pic.rho
    # every positive root is a nonnegative integer combination of simple
    # roots; len(simple roots) == rho, so sympy solves one square system
    # with a column per root
    simple = sympy.Matrix(report.simple_roots).T
    coords = simple.LUsolve(sympy.Matrix(report.delta_plus[:25]).T)
    assert all(c.is_integer for c in coords)
    assert all(c >= 0 for c in coords)


def test_root_counts_match_dynkin():
    model, verdict, pic, report = run_pipeline(*ROWS["entry9"])
    # A2^2 + E6 + E8: 6 + 6 + 72 + 240 = 324 roots = 162 positive
    assert len(report.delta_plus) == 162
    assert len(report.simple_roots) == 18


def test_rho_zero_degenerate():
    pic = PicardData(rho=0, basis_l=[], gram_pic=[], a_pic=[])
    report = enumerate_roots(pic)
    assert report.delta_plus == [] and report.simple_roots == []
    assert report.dynkin_name() == "0"


def test_brute_force_equivalence_small_rank():
    # rank <= 4 lattices: exhaustive box search agrees with Fincke-Pohst
    model, verdict, pic, report = run_pipeline(*ROWS["entry2"])
    assert pic.rho == 4
    neg = [[-x for x in row] for row in pic.gram_pic]
    found = set(linalg.short_vectors(neg, 2))
    box = set()
    bound = 8
    for v in itertools.product(range(-bound, bound + 1), repeat=4):
        if any(v) and sum(v[i] * neg[i][j] * v[j] for i in range(4) for j in range(4)) == 2:
            w = list(v)
            for c in reversed(w):
                if c != 0:
                    if c < 0:
                        w = [-t for t in w]
                    break
            box.add(tuple(w))
    assert found == box


def reference_walk(model, pic, report):
    """The walk on the whole image set A(Delta+), with every reflection
    multiplied out as a full matrix on Pic and on L."""
    def refl(gram, u):
        gu = linalg.mat_vec(gram, list(u))
        return [[(i == j) + u[i] * gu[j] for j in range(len(u))] for i in range(len(u))]

    plus_set = set(report.delta_plus)
    sigma = {tuple(linalg.mat_vec(pic.a_pic, list(v))) for v in report.delta_plus}
    word, w_pic, w_l = [], linalg.identity(pic.rho), linalg.identity(22)
    while sigma != plus_set:
        u = next(u for u in sorted(report.simple_roots) if tuple(-c for c in u) in sigma)
        s_pic = refl(pic.gram_pic, u)
        sigma = {tuple(linalg.mat_vec(s_pic, list(x))) for x in sigma}
        u_l = [sum(u[i] * pic.basis_l[i][k] for i in range(pic.rho)) for k in range(22)]
        word.append(u)
        w_pic = linalg.mat_mul(s_pic, w_pic)
        w_l = linalg.mat_mul(refl(model.gram, u_l), w_l)
    return word, linalg.mat_mul(w_pic, pic.a_pic), linalg.mat_mul(w_l, model.a_mat)


# published rho = 18 rows (cyclotomic set, psi id), with 73, 52 and 1 walk steps
TABLE_ROWS = [((8, 36), 457), ((5, 36), 961), ((3, 4, 8, 15), 515)]


@pytest.mark.parametrize("case", [*ROWS, *TABLE_ROWS], ids=str)
def test_walk_matches_set_based_reference(case):
    if case in ROWS:
        phi, psi = ROWS[case]
    else:
        cset, pid = case
        assert any(row[:2] == case for row in RHO18_TABLE)
        phi, psi = phi_of(STORE[(4, 1)].salem_poly, cset), _setup2()[pid - 1].psi()
    model, verdict, pic, report = run_pipeline(phi, psi)
    word, a_tilde_pic, a_tilde_l = reference_walk(model, pic, report)
    assert report.w_word == word
    assert report.a_tilde_pic == a_tilde_pic
    assert report.a_tilde_l == a_tilde_l


def test_id523_runs_one_inertia_and_lll_certifies_the_picard_form(monkeypatch):
    # the Gram inertia of the lattice is the only one; the Picard form's
    # definiteness is certified by the LLL reduction inside enumerate_roots
    phi, psi = ROWS["entry9"]
    calls = []
    inertia = linalg.inertia
    monkeypatch.setattr(linalg, "inertia", lambda m: calls.append(len(m)) or inertia(m))
    assert cli.analyze_pair(phi, psi).accepted()
    assert calls == [22]

    def indefinite(model, verdict):
        pic = picard_lattice(model, verdict)
        pic.gram_pic[0][0] = -pic.gram_pic[0][0]
        return pic

    monkeypatch.setattr(picardweyl, "picard_lattice", indefinite)
    row = cli.analyze_pair(phi, psi)
    assert row.rejection == "internal: lll_reduce requires a positive definite Gram matrix"
