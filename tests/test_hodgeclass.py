import pytest

from k3siegel import algnum
from k3siegel.intpoly import IntPoly, cyclotomic
from k3siegel.hodgeclass import PipelineError, dissect, classify, dissect_and_classify
from k3siegel.salemlib import load_store

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
