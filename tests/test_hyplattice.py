import random

import pytest

from k3siegel.intpoly import IntPoly, cyclotomic, from_trace_polynomial, resultant
from k3siegel import hyplattice, linalg
from k3siegel.hyplattice import (
    LatticeBuildError,
    _b_matrix_in_a_basis,
    build,
    reflection_factor,
    series_coefficients,
    signature_and_renormalize,
    unimodularity_gate,
)
from k3siegel.salemlib import load_store

STORE = load_store()
Z2 = IntPoly([-1, 0, 1])  # (z-1)(z+1)

S20 = STORE[(20, 1)].salem_poly
LEHMER = STORE[(10, 1)].salem_poly
PHI_ROW1 = Z2 * S20
PSI_ROW1 = LEHMER * cyclotomic(21)

S4 = STORE[(4, 1)].salem_poly
PSI_523 = IntPoly([1, -1, -2, 0, 2, 1, 0, -1, -2, 0, 1, 1, 1, 0, -2, -1, 0, 1, 2, 0, -2, -1, 1])
PHI_E9 = Z2 * S4 * cyclotomic(8) * cyclotomic(12) * cyclotomic(30)


def test_series_consistency():
    # multiplying the truncated series by phi reproduces psi through z^-21
    xi = series_coefficients(PSI_ROW1, PHI_ROW1, 21)
    n = 22
    # psi(z) - phi(z) * (1 + sum xi_i z^-i) must vanish in degrees n..n-21
    diff = [PSI_ROW1[k] - PHI_ROW1[k] for k in range(n + 1)]
    acc = list(diff)
    for i, x in enumerate(xi, start=1):
        for k in range(n - i + 1):
            acc[k] -= x * PHI_ROW1[k + i]
    assert all(acc[k] == 0 for k in range(1, n + 1))


def test_build_row1():
    model = build(PHI_ROW1, PSI_ROW1)
    assert all(model.gram[i][i] == 2 for i in range(22))
    assert all(model.gram[i][j] == model.gram[j][i] for i in range(22) for j in range(22))
    assert unimodularity_gate(model)
    assert abs(linalg.bareiss_det(model.gram)) == 1


def test_build_entry9():
    model = build(PHI_E9, PSI_523)
    assert unimodularity_gate(model)
    model = signature_and_renormalize(model)
    assert model.signature == (3, 19)


def test_signature_row1():
    model = signature_and_renormalize(build(PHI_ROW1, PSI_ROW1))
    assert model.signature == (3, 19)


def test_rejections():
    with pytest.raises(LatticeBuildError):
        build(PHI_ROW1, PHI_ROW1)  # psi not palindromic
    with pytest.raises(LatticeBuildError):
        build(Z2 * S4 * cyclotomic(8) * cyclotomic(12) * cyclotomic(30) ,
              S4 * cyclotomic(8) * cyclotomic(12) * cyclotomic(30) * Z2 * IntPoly([1]))  # common factors
    with pytest.raises(LatticeBuildError):
        build(IntPoly([-1, 1]), PSI_ROW1)  # wrong degree


def test_gate_fails_on_bad_resultant():
    # ramified psi: psi(1) = -70, so the resultant cannot be a unit
    psi = LEHMER * cyclotomic(4) * cyclotomic(5) * cyclotomic(7)
    assert psi.degree == 22
    assert psi(1) == -70
    model = build(PHI_ROW1, psi)
    assert not unimodularity_gate(model)
    assert model.resultant == resultant(PHI_ROW1, psi)
    assert abs(model.resultant) != 1


def test_resultant_computed_once_per_pair(monkeypatch):
    # build keeps Res(phi, psi) for the gate instead of recomputing it
    calls = []

    def counting(u, v):
        calls.append((u, v))
        return resultant(u, v)

    monkeypatch.setattr(hyplattice, "resultant", counting)
    assert unimodularity_gate(build(PHI_ROW1, PSI_ROW1))
    assert len(calls) == 1


@pytest.mark.parametrize("order", ["gate first", "signature first"])
def test_gram_eliminated_once_per_pair(monkeypatch, order):
    # the gate's |det| = 1 cross-check and the signature read one symmetric
    # elimination, in either call order (the pipeline's and demo 03's)
    calls = []
    eliminate = linalg._symmetric_bareiss

    def counting(m):
        calls.append(m)
        return eliminate(m)

    def refuse(m):
        raise RuntimeError("second elimination of the Gram matrix")

    monkeypatch.setattr(linalg, "_symmetric_bareiss", counting)
    monkeypatch.setattr(linalg, "bareiss_det", refuse)
    model = build(PHI_E9, PSI_523)
    if order == "gate first":
        assert unimodularity_gate(model)
        model = signature_and_renormalize(model)
    else:
        model = signature_and_renormalize(model)
        assert unimodularity_gate(model)
    assert model.signature == (3, 19) and model.renormalized
    gram = model.gram
    assert signature_and_renormalize(model).signature == (3, 19)  # idempotent
    assert model.gram is gram
    assert len(calls) == 1


def test_gram_checks_keep_their_texts():
    # a unit resultant read against a Gram whose determinant is not a unit,
    # and a singular Gram reaching the signature
    model = build(PHI_ROW1, PSI_ROW1)
    model.resultant, model.gram = 1, [[2, 1], [1, 2]]
    with pytest.raises(LatticeBuildError, match="non-unimodular Gram matrix"):
        unimodularity_gate(model)
    model = build(PHI_ROW1, PSI_ROW1)
    model.gram = [[2, 2], [2, 2]]
    with pytest.raises(LatticeBuildError, match="singular Gram matrix past the unimodularity gate"):
        signature_and_renormalize(model)


def test_isometry_invariants_row1():
    model = signature_and_renormalize(build(PHI_ROW1, PSI_ROW1))
    a, g = model.a_mat, model.gram
    b = _b_matrix_in_a_basis(model.phi, model.psi)
    at_g_a = linalg.mat_mul(linalg.mat_mul(linalg.transpose(a), g), a)
    assert linalg.mat_eq(at_g_a, g)
    bt_g_b = linalg.mat_mul(linalg.mat_mul(linalg.transpose(b), g), b)
    assert linalg.mat_eq(bt_g_b, g)


def test_reflection_factor_row1():
    model = build(PHI_ROW1, PSI_ROW1)
    c = reflection_factor(model)
    c2 = linalg.mat_mul(c, c)
    assert linalg.mat_eq(c2, linalg.identity(22))
    ci = linalg.mat_sub(c, linalg.identity(22))
    # rank(C - I) = 1: all 2x2 minors of the nonzero columns vanish
    nz_cols = [j for j in range(22) if any(ci[i][j] for i in range(22))]
    assert len(nz_cols) >= 1
    rank1 = all(
        ci[i1][j1] * ci[i2][j2] - ci[i1][j2] * ci[i2][j1] == 0
        for i1 in range(22) for i2 in range(i1 + 1, 22)
        for j1 in nz_cols for j2 in nz_cols if j1 < j2
    ) if len(nz_cols) > 1 else True
    assert rank1
    # C negates r = e_1 in the A-basis
    col0 = [c[i][0] for i in range(22)]
    assert col0 == [-1] + [0] * 21
    # C is the orthogonal reflection in r: C = I - e_1 (r, .), with the
    # form of the un-renormalized Gram matrix; ties B (from the companion
    # of psi) to the Gram matrix (from the series psi/phi)
    refl = linalg.identity(22)
    refl[0] = [refl[0][j] - model.gram[0][j] for j in range(22)]
    assert linalg.mat_eq(c, refl)


def test_b_matrix_tie_to_psi_is_a_typed_error(monkeypatch):
    # B is read off the series psi/phi; P B = B_std P ties it to psi itself
    model = build(PHI_ROW1, PSI_ROW1)

    def perturbed(psi, phi, count):
        xs = series_coefficients(psi, phi, count)
        xs[3] += 1
        return xs

    monkeypatch.setattr(hyplattice, "series_coefficients", perturbed)
    for call in (lambda: _b_matrix_in_a_basis(PHI_ROW1, PSI_ROW1),
                 lambda: reflection_factor(model)):
        with pytest.raises(LatticeBuildError, match="B does not match the companion of psi"):
            call()
    with pytest.raises(LatticeBuildError, match=r"phi\(0\) must be -1"):
        _b_matrix_in_a_basis(PSI_ROW1, PHI_ROW1)


def test_basis_change_congruence():
    # T has columns r, Br, ..., B^21 r in A-basis coordinates; it carries
    # the form onto the Toeplitz form of the series phi/psi
    model = build(PHI_ROW1, PSI_ROW1)
    b = _b_matrix_in_a_basis(model.phi, model.psi)
    cols = [[1] + [0] * 21]
    for _ in range(21):
        cols.append(linalg.mat_vec(b, cols[-1]))
    t = linalg.transpose(cols)
    xs = [2] + series_coefficients(PHI_ROW1, PSI_ROW1, 21)
    gram_b = [[xs[abs(i - j)] for j in range(22)] for i in range(22)]
    tt = linalg.mat_mul(linalg.mat_mul(linalg.transpose(t), model.gram), t)
    assert linalg.mat_eq(tt, gram_b)


def test_det_equals_resultant_various():
    rng = random.Random(2024)
    cyclo_pool = [3, 4, 5, 6, 7, 8, 9, 10, 12]
    s_entries = [STORE[(4, 1)], STORE[(8, 2)], STORE[(12, 1)]]
    tried = 0
    for entry in s_entries:
        s = entry.salem_poly
        need = 20 - s.degree
        # pad with cyclotomic factors to reach degree 20
        for _ in range(40):
            picks, deg = [], 0
            pool = cyclo_pool[:]
            rng.shuffle(pool)
            for j in pool:
                d = cyclotomic(j).degree
                if deg + d <= need and j not in picks:
                    picks.append(j)
                    deg += d
                if deg == need:
                    break
            if deg != need:
                continue
            phi = Z2 * s
            for j in picks:
                phi = phi * cyclotomic(j)
            psi = PSI_523
            from k3siegel.intpoly import gcd as pgcd
            if pgcd(phi, psi).degree > 0:
                continue
            model = build(phi, psi)
            assert abs(linalg.bareiss_det(model.gram)) == abs(resultant(phi, psi))
            tried += 1
            break
    assert tried >= 2


def test_renormalize_trivial_examples():
    assert linalg.inertia([[2, 0], [0, -2]])[0] == (1, 1, 0)
    assert linalg.inertia([[2, 0], [0, 2]])[0] == (2, 0, 0)
