import itertools

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.matrices import DomainMatrix

from k3siegel.acceptance import RHO18_TABLE, _setup2
from k3siegel.cli import phi_of
from k3siegel.intpoly import IntPoly, cyclotomic
from k3siegel import cli, linalg, picardweyl
from k3siegel.hodgeclass import PipelineError, dissect_and_classify
from k3siegel.hyplattice import build, companion, signature_and_renormalize, unimodularity_gate
from k3siegel.picardweyl import (
    Component,
    PicardData,
    RootSystemReport,
    action_analysis,
    analyze_root_system,
    assemble_full_isometry,
    chamber_walk,
    dynkin_label,
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
    verdict = dissect_and_classify(model)
    assert verdict.accepted
    pic, report = analyze_root_system(model, verdict)
    return model, verdict, pic, report


def sympy_charpoly(m) -> IntPoly:
    n = len(m)
    cp = DomainMatrix([[ZZ(x) for x in row] for row in m], (n, n), ZZ).charpoly()
    return IntPoly(reversed([int(c) for c in cp]))


def assert_isometry_lift(model, verdict, report, trace):
    """Atilde on all of L preserves the form, has char poly S * phi1~
    (by sympy) and has the trace TrA."""
    at = assemble_full_isometry(model, report, verdict.salem_factor)
    g = model.gram
    assert linalg.mat_eq(linalg.mat_mul(linalg.mat_mul(linalg.transpose(at), g), at), g)
    assert sympy_charpoly(at) == verdict.salem_factor * report.phi1_tilde
    assert linalg.trace(at) == trace


def row_pair(row):
    """(phi, psi) of a search row, rebuilt from its labels; a setup2 row
    names its psi by census id."""
    def salem(label):
        index, degree = label[1:-1].split("^(")
        return STORE[(int(degree), int(index))].salem_poly

    def cset(label):
        return () if label == "1" else tuple(int(tok[1:]) for tok in label.split())

    phi = phi_of(salem(row.s_label), cset(row.c_label))
    if not row.aux_s_label:
        return phi, _setup2()[int(row.aux_c_label) - 1].psi()
    psi = salem(row.aux_s_label)
    for j in cset(row.aux_c_label):
        psi = psi * cyclotomic(j)
    return phi, psi


def assert_lifts_on_rows(records, rows):
    """The isometry lift of every accepted row's pair, against the row's TrA."""
    by_pair = {(model.phi, model.psi): (model, verdict, report)
               for model, verdict, report in records}
    accepted = [row for row in rows if row.accepted()]
    assert accepted and len(by_pair) == len(records) == len(accepted)
    for row in accepted:
        assert_isometry_lift(*by_pair[row_pair(row)], row.trace_a_tilde)


def test_full_isometry_lifts_on_the_rho18_table(setup2_search):
    rows, _, records = setup2_search
    assert len(records) == 40
    assert_lifts_on_rows(records, rows)


def test_phi1_tilde_matches_sympy_on_the_rho18_table(setup2_search):
    # the 18 x 18 Atilde|Pic of each accepted pair, against an independent
    # characteristic polynomial
    _, _, records = setup2_search
    assert len(records) == 40
    for _, _, report in records:
        want = sympy_charpoly(report.a_tilde_pic)
        assert want.degree == 18
        assert linalg.charpoly(report.a_tilde_pic) == report.phi1_tilde == want


@pytest.mark.parametrize("degree", [20, 18])
def test_full_isometry_lifts_on_setup1_rows(accepted_pairs, degree):
    assert_lifts_on_rows(accepted_pairs, cli.search_setup1(STORE, degree))


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


def test_analyze_pair_builds_no_full_isometry(monkeypatch):
    # TrA, the Siegel verdict, the component actions and the rank-2
    # routing all come from Atilde|Pic; the 22 x 22 Atilde is never built
    def refuse(*args):
        raise RuntimeError("the pipeline built Atilde on L")

    monkeypatch.setattr(picardweyl, "assemble_full_isometry", refuse)
    row = cli.analyze_pair(*ROWS["entry9"])
    assert row.rejection is None
    assert (row.trace_a_tilde, row.sd) == (11, "S")
    assert sorted(row.actions) == [("A2", "moved"), ("A2", "moved"),
                                   ("E6", "nontrivial"), ("E8", "trivial")]
    row = cli.analyze_pair(*ROWS["row1"])
    assert row.rejection is None
    assert row.rank2_salem == STORE[(20, 1)].salem_poly
    assert row.trace_a_tilde == 1


def test_invariants_entry9():
    model, verdict, pic, report = run_pipeline(*ROWS["entry9"])
    # Atilde is an isometry of the intersection form
    at = assemble_full_isometry(model, report, verdict.salem_factor)
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
    pic = PicardData(rho=0, gram_pic=[], a_pic=[])
    report = enumerate_roots(pic)
    assert report.delta_plus == [] and report.simple_roots == []
    assert report.dynkin_name() == "0"
    # the walk and the action analysis leave an empty Pic at the defaults:
    # no word, Atilde|Pic empty with char poly 1, no component actions
    assert action_analysis(chamber_walk(pic, report)) == RootSystemReport()


def test_delta_plus_is_the_enumeration(setup2_search):
    # Delta+ is short_vectors' own list, each root's first nonzero
    # coordinate positive, and equals the construction that flips each
    # last-nonzero-positive representative to lexicographically positive
    # and sorts
    def sign_by(v, c):
        return v if c > 0 else tuple(-x for x in v)

    _, _, records = setup2_search
    assert len(records) == 40
    for model, verdict, report in records:
        neg = [[-x for x in row] for row in picard_lattice(model, verdict).gram_pic]
        roots = linalg.short_vectors(neg, 2)
        assert report.delta_plus == roots
        assert all(next(c for c in v if c) > 0 for v in report.delta_plus)
        last_positive = [sign_by(v, next(c for c in reversed(v) if c)) for v in roots]
        reference = sorted(sign_by(v, next(c for c in v if c)) for v in last_positive)
        assert report.delta_plus == reference


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
            for c in w:
                if c != 0:
                    if c < 0:
                        w = [-t for t in w]
                    break
            box.add(tuple(w))
    assert found == box


def reference_walk(model, pic, report, salem_factor):
    """The walk on the whole image set A(Delta+), with every reflection
    multiplied out as a full matrix on Pic and on L.  Basis vector i of
    Pic is S(A) A^i r, so a root u lifts to L as the coefficients of
    u(z) S(z)."""
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
        u_l = list((IntPoly(u) * salem_factor).coeffs)
        u_l += [0] * (22 - len(u_l))
        word.append(u)
        w_pic = linalg.mat_mul(s_pic, w_pic)
        w_l = linalg.mat_mul(refl(model.gram, u_l), w_l)
    return word, linalg.mat_mul(w_pic, pic.a_pic), linalg.mat_mul(w_l, companion(model.phi))


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
    word, a_tilde_pic, a_tilde_l = reference_walk(model, pic, report, verdict.salem_factor)
    assert report.w_word == word
    assert report.a_tilde_pic == a_tilde_pic
    assert assemble_full_isometry(model, report, verdict.salem_factor) == a_tilde_l
    assert_isometry_lift(model, verdict, report, report.trace_a_tilde)


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
        report = enumerate_roots(picard_lattice(model, dissect_and_classify(model)))
        assert report.simple_roots == reference_simple_roots(report.delta_plus)
        assert report.dynkin_name() == dynkin


def graph_cartan(n, edges):
    """The Cartan matrix of the simply-laced diagram on n nodes with the given edges."""
    m = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        m[i][j] = m[j][i] = -1
    return m


def cartan(label, n):
    """The Cartan matrix of A_n, D_n or E_n: a chain of n nodes for A;
    for D and E a chain of n - 1 nodes with node n - 1 hung on the
    chain's next-to-last node (D) or on its third node (E)."""
    edges = [(i, i + 1) for i in range(n - 1)]
    if label == "D":
        edges[-1] = (n - 3, n - 1)
    elif label == "E":
        edges[-1] = (2, n - 1)
    return graph_cartan(n, edges)


ADE_UP_TO_22 = ([("A", n) for n in range(1, 23)] + [("D", n) for n in range(4, 23)]
                + [("E", n) for n in (6, 7, 8)])


@pytest.mark.parametrize("label, n", ADE_UP_TO_22)
def test_dynkin_label_names_every_ade_cartan_matrix(label, n):
    assert dynkin_label(cartan(label, n)) == label


# connected diagrams of no A, D or E type: the cycles (affine A_(n-1),
# det 0), the star with four arms of length one (affine D4, det 0) and
# T(2, 3, 7), the tree with arms of 1, 2 and 6 nodes off its centre
# (E10, det -1)
NON_ADE = {
    **{f"cycle{n}": graph_cartan(n, [(i, (i + 1) % n) for i in range(n)]) for n in (3, 4, 9, 22)},
    "star4": graph_cartan(5, [(0, j) for j in range(1, 5)]),
    "T237": graph_cartan(10, [(0, 1), (0, 2), (2, 3), (0, 4), *((i, i + 1) for i in range(4, 9))]),
}


@pytest.mark.parametrize("name", NON_ADE)
def test_dynkin_label_rejects_connected_non_ade_diagrams(name):
    with pytest.raises(PipelineError):
        dynkin_label(NON_ADE[name])


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
    pic = PicardData(rho=len(gram), gram_pic=gram, a_pic=[])
    report = enumerate_roots(pic)
    assert report.simple_roots == reference_simple_roots(report.delta_plus)
    assert len(report.simple_roots) == len(gram)
    want = RootSystemReport(components=[Component(label, n, []) for label, n in blocks])
    assert report.dynkin_name() == want.dynkin_name()
