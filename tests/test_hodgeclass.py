import pytest

from k3siegel import algnum, hodgeclass
from k3siegel.intpoly import IntPoly, cyclotomic
from k3siegel.hodgeclass import (
    ClusterDissection,
    PipelineError,
    classify,
    dissect,
    dissect_and_classify,
)
from k3siegel.salemlib import load_store, trace_conjugates

STORE = load_store()
Z2 = IntPoly([-1, 0, 1])

PSI_523 = IntPoly([1, -1, -2, 0, 2, 1, 0, -1, -2, 0, 1, 1, 1, 0, -2, -1, 0, 1, 2, 0, -2, -1, 1])


def test_row1_classification():
    phi = Z2 * STORE[(20, 1)].salem_poly
    psi = STORE[(10, 1)].salem_poly * cyclotomic(21)
    d = dissect(phi, psi)
    assert not d.flags
    assert d.a_gt2_count == 1
    assert len(d.a_on) == 9
    assert len(d.b_on) in (8, 10)
    v = classify(d, phi)
    assert v.accepted
    assert v.special_trace_index == 7
    assert v.salem_factor == STORE[(20, 1)].salem_poly
    assert v.cyclo_indices == {}


def test_entry9_classification():
    phi = Z2 * STORE[(4, 1)].salem_poly * cyclotomic(8) * cyclotomic(12) * cyclotomic(30)
    v = dissect_and_classify(phi, PSI_523)
    assert v.accepted
    assert v.special_trace_index == 1
    assert v.cyclo_indices == {8: 1, 12: 1, 30: 1}
    assert v.salem_trace == IntPoly([-3, -1, 1])


def test_entry2_classification():
    # degree-18 Salem factor with C_4, psi = S_1^(6) C_48
    phi = Z2 * STORE[(18, 22)].salem_poly * cyclotomic(4)
    psi = STORE[(6, 1)].salem_poly * cyclotomic(48)
    v = dissect_and_classify(phi, psi)
    assert v.accepted
    assert v.special_trace_index == 4


def test_entry6_classification():
    phi = Z2 * STORE[(10, 1)].salem_poly * cyclotomic(4) * cyclotomic(16)
    psi = STORE[(6, 1)].salem_poly * cyclotomic(40)
    v = dissect_and_classify(phi, psi)
    assert v.accepted
    assert v.special_trace_index == 2


def test_phi_at_pm2_flagged():
    # phi = (z^2-1)(z-1)^2 S_22^(18): anti-palindromic of degree 22 with
    # Phi(2) = 0 (and a double trace root), so the dissection is flagged
    phi = Z2 * (cyclotomic(1) ** 2) * STORE[(18, 22)].salem_poly
    assert phi.degree == 22
    d = dissect(phi, PSI_523)
    assert d.flags
    v = classify(d, phi)
    assert not v.accepted


def test_repeated_cyclotomic_factor_flagged():
    # a repeated factor gives the trace polynomial a multiple root
    phi = Z2 * STORE[(16, 1)].salem_poly * cyclotomic(3) * cyclotomic(3)
    assert phi.degree == 22
    d = dissect(phi, PSI_523)
    assert any("multiple root" in f for f in d.flags)
    assert not classify(d, phi).accepted


def test_wrong_cluster_count_rejected():
    # psi a pure cyclotomic product: Psi has eleven roots in (-2,2), so
    # b_off = 0 and no admissible row matches
    psi = cyclotomic(3) * cyclotomic(5) * cyclotomic(7) * cyclotomic(11)
    assert psi.degree == 22
    phi = Z2 * STORE[(20, 1)].salem_poly
    v = dissect_and_classify(phi, psi)
    assert not v.accepted


def test_dissect_builds_one_sturm_chain(monkeypatch):
    # Phi * Psi is bisected once; no per-factor isolation, no refinement
    calls = []
    chain = algnum.sturm_chain

    def counting(p):
        calls.append(p)
        return chain(p)

    monkeypatch.setattr(algnum, "sturm_chain", counting)
    d = dissect(Z2 * STORE[(20, 1)].salem_poly, STORE[(10, 1)].salem_poly * cyclotomic(21))
    assert calls == [d.phi_trace * d.psi_trace]


def test_shared_root_is_a_typed_error():
    # Phi and Psi share the Salem trace roots: Phi * Psi is not squarefree
    s20 = STORE[(20, 1)].salem_poly
    phi, psi = Z2 * s20, s20 * cyclotomic(3)
    with pytest.raises(PipelineError, match="Phi and Psi share a root"):
        dissect(phi, psi)
    with pytest.raises(PipelineError, match="Phi and Psi share a root"):
        dissect_and_classify(phi, psi)


# Hand-built dissections for the nine admissible rows.  phi = (z^2-1) S20
# has the nine trace conjugates tau_1 > ... > tau_9 of ST20, dealt in
# order into the A-clusters of a layout, so the special-trace index a
# row's selector gives names the element it picked.
PHI20 = Z2 * STORE[(20, 1)].salem_poly
TAUS20 = trace_conjugates(STORE[(20, 1)].trace_poly)


def hand_dissection(a_sizes, b_sizes, b_off):
    taus = iter(TAUS20)
    return ClusterDissection(
        phi_trace=None, psi_trace=None, a_gt2_count=1, b_off_count=b_off,
        a_clusters=[[next(taus) for _ in range(n)] for n in a_sizes],
        b_clusters=[[object() for _ in range(n)] for n in b_sizes],
        s=len(b_sizes))


B8, B8_TRIPLE = [1] * 8, [1, 1, 3, 1, 1, 1, 1, 1]
A_TRIPLE = [0, 1, 1, 3, 1, 1, 1, 1, 0]
A_FIRST_DOUBLE, A_LAST_DOUBLE = [2] + [1] * 7 + [0], [0] + [1] * 7 + [2]
A_DOUBLE_AT_3 = [0, 1, 1, 2, 1, 1, 1, 1, 1, 0]


def b9_double_at(j):
    return [2 if k == j else 1 for k in range(9)]


@pytest.mark.parametrize("a_sizes, b_sizes, b_off, case, index", [
    (A_TRIPLE, B8, 3, 1, 4),                                  # middle of the triple
    (A_TRIPLE, B8_TRIPLE, 1, 2, 4),
    (A_FIRST_DOUBLE, B8, 3, 3, 1),                            # larger of the first A
    (A_LAST_DOUBLE, B8, 3, 4, 9),                             # smaller of the last A
    (A_FIRST_DOUBLE, B8_TRIPLE, 1, 5, 1),
    (A_LAST_DOUBLE, B8_TRIPLE, 1, 6, 9),
    (A_DOUBLE_AT_3, b9_double_at(2), 1, 7, 3),                # B-double above: upper
    (A_DOUBLE_AT_3, b9_double_at(3), 1, 7, 4),                # B-double below: lower
    ([1] * 9 + [0], b9_double_at(0), 1, 8, 1),                # the single first A
    ([0] + [1] * 9, b9_double_at(8), 1, 9, 9),                # the single last A
])
def test_each_admissible_row_selects_its_special_trace(a_sizes, b_sizes, b_off, case, index):
    v = classify(hand_dissection(a_sizes, b_sizes, b_off), PHI20)
    assert v.accepted, v.rejection_reason
    assert (v.case_number, v.special_trace_index) == (case, index)
    assert v.special_trace is TAUS20[index - 1]


@pytest.mark.parametrize("a_sizes, b_sizes, b_off", [
    ([1, 2] + [1] * 6 + [0], B8, 3),                  # rows 3, 4: the double is inside
    ([0] + [1] * 6 + [2, 1], B8_TRIPLE, 1),           # rows 5, 6: likewise
    (A_DOUBLE_AT_3, b9_double_at(5), 1),              # row 7: doubles not adjacent
    ([1] * 9 + [0], b9_double_at(4), 1),              # row 8: B_1 is single
    ([0] + [1] * 9, b9_double_at(4), 1),              # row 9: B_9 is single
    ([1] * 9 + [0], b9_double_at(8), 1),              # rows 8, 9: end A and B-double apart
])
def test_near_misses_match_no_row(a_sizes, b_sizes, b_off):
    v = classify(hand_dissection(a_sizes, b_sizes, b_off), PHI20)
    assert not v.accepted
    assert v.rejection_reason == "no admissible cluster configuration"


def test_overlapping_rows_are_ambiguous(monkeypatch):
    # the nine rows exclude each other, so a second copy of row 1 is
    # the only way to make two rows match
    rows = hodgeclass._TABLE_ROWS
    monkeypatch.setattr(hodgeclass, "_TABLE_ROWS", rows + [(10,) + rows[0][1:]])
    v = classify(hand_dissection(A_TRIPLE, B8, 3), PHI20)
    assert not v.accepted
    assert v.rejection_reason == "ambiguous cluster configuration (cases [1, 10])"
