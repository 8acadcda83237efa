import itertools

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from k3siegel.acceptance import RHO18_TABLE, _setup2
from k3siegel.cli import phi_of
from k3siegel.intpoly import IntPoly, cyclotomic
from k3siegel import cli, linalg, picardweyl
from k3siegel.hodgeclass import dissect_and_classify
from k3siegel.hyplattice import build, signature_and_renormalize, unimodularity_gate
from k3siegel.picardweyl import (
    Component,
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


def reference_simple_roots(delta_plus):
    """The positive roots that are not a sum of two positive roots: u is
    simple unless u - v lies in Delta+ for some other positive root v."""
    plus_set = set(delta_plus)
    return [u for u in delta_plus
            if not any(tuple(a - b for a, b in zip(u, v)) in plus_set
                       for v in plus_set if v != u)]


def test_simple_roots_match_the_decomposition_rule_on_the_rho18_table():
    # every published rho = 18 row: the height-one roots are the
    # indecomposable ones, and they span the published Dynkin type
    for cset, pid, _, dynkin, _, _ in RHO18_TABLE:
        phi, psi = phi_of(STORE[(4, 1)].salem_poly, cset), _setup2()[pid - 1].psi()
        model = signature_and_renormalize(build(phi, psi))
        report = enumerate_roots(picard_lattice(model, dissect_and_classify(phi, psi)))
        assert report.simple_roots == reference_simple_roots(report.delta_plus)
        assert report.dynkin_name() == dynkin


def cartan(label, n):
    """The Cartan matrix of A_n, D_n or E_n: a chain of n nodes for A;
    for D and E a chain of n - 1 nodes with node n - 1 hung on the
    chain's next-to-last node (D) or on its third node (E)."""
    edges = [(i, i + 1) for i in range(n - 1)]
    if label == "D":
        edges[-1] = (n - 3, n - 1)
    elif label == "E":
        edges[-1] = (2, n - 1)
    m = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        m[i][j] = m[j][i] = -1
    return m


@st.composite
def root_lattices(draw):
    """(blocks, Gram): the negated Cartan matrix of a direct sum of
    A_n, D_n and E_6..E_8 blocks of rank <= 12, in a basis changed by a
    random unimodular matrix."""
    blocks, rank = [], 0
    while not blocks or (rank < 12 and draw(st.booleans())):
        label = draw(st.sampled_from("ADE"))
        low = {"A": 1, "D": 4, "E": 6}[label]
        high = min(12 - rank, 8 if label == "E" else 12)
        if high < low:
            break
        n = draw(st.integers(low, high))
        blocks.append((label, n))
        rank += n
    gram = [[0] * rank for _ in range(rank)]
    at = 0
    for label, n in blocks:
        for i, row in enumerate(cartan(label, n)):
            gram[at + i][at:at + n] = [-x for x in row]
        at += n
    # U = a permutation times elementary column operations; G -> U^T G U
    perm = draw(st.permutations(range(rank)))
    u = [[int(i == j) for j in perm] for i in range(rank)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1),
                                           st.sampled_from([-2, -1, 1, 2])), max_size=12)):
        if i != j:
            for row in u:
                row[i] += c * row[j]
    gram = linalg.mat_mul(linalg.mat_mul(linalg.transpose(u), gram), u)
    return blocks, gram


@settings(max_examples=30, deadline=None)
@given(root_lattices())
def test_simple_roots_match_the_decomposition_rule_on_root_lattices(lattice):
    blocks, gram = lattice
    pic = PicardData(rho=len(gram), basis_l=[], gram_pic=gram, a_pic=[])
    report = enumerate_roots(pic)
    assert report.simple_roots == reference_simple_roots(report.delta_plus)
    assert len(report.simple_roots) == len(gram)
    want = RootSystemReport(components=[Component(label, n, []) for label, n in blocks])
    assert report.dynkin_name() == want.dynkin_name()
