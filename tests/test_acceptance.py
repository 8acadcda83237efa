"""The acceptance suite as pytest: one test per published criterion.

Each test prints its PASS/FAIL line (run with -s to see them inline)
and asserts exact success.  The rho18-table criterion reads the
session's one setup2 search (``conftest.setup2_search``); the rank-2
spot rows run their search on two workers.
"""

import dataclasses
import time

import pytest

from k3siegel import acceptance, cli, picardweyl, salemlib
from k3siegel.intpoly import IntPoly
from k3siegel.setup2 import S4

WORKERS = 2


def _run(name, fn, *args):
    t0 = time.time()
    ok, detail = fn(*args)
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} [{time.time() - t0:.1f}s]")
    assert ok, f"{name}: {detail}"


def test_criterion_1_setup2_census():
    _run("setup2-census", acceptance.criterion_setup2_census)


def test_criterion_2_setup2_id523():
    _run("setup2-id523", acceptance.criterion_setup2_id523)


def test_criterion_3_unramified_cyclotomic_set():
    _run("unramified-cyclotomic-set", acceptance.criterion_L0)


def test_criterion_4_trace_sequence():
    _run("trace-sequence", acceptance.criterion_trace_sequence)


def test_criterion_5_rho18_pipeline():
    _run("rho18-pipeline", acceptance.criterion_rho18_pipeline)


def test_criterion_6_rho18_table(monkeypatch, setup2_search):
    # the session's one setup2 search stands in for the criterion's own:
    # it keeps the accepted and faulted rows, as a search without
    # rejections does
    rows, _, _ = setup2_search
    kept = [r for r in rows if r.accepted() or r.faulted()]
    monkeypatch.setattr(cli, "search_setup2", lambda workers, candidates: kept)
    _run("rho18-table", acceptance.criterion_rho18_table, WORKERS)


def test_criterion_7_closed_form_P():
    _run("closed-form-P", acceptance.criterion_closed_form_P)


def test_criterion_8_index_sum_identities():
    _run("index-sum-identities", acceptance.criterion_index_sum_identities)


def test_criterion_9_jet_oracle():
    _run("jet-oracle", acceptance.criterion_jet_oracle)


def test_criterion_10_picard2_certification():
    _run("picard2-certification", acceptance.criterion_picard2)


def test_criterion_11_rho2_spot_rows():
    _run("rho2-spot-rows", acceptance.criterion_rho2_spot_rows, WORKERS)


def test_criterion_12_structural_properties():
    _run("structural-properties", acceptance.criterion_structural_properties)


def test_rho18_pipeline_runs_its_pair_once(monkeypatch):
    # one analyze_pair gives every checked fact, the component actions
    # included; S4 comes from setup2, not from the Salem store
    calls = {"roots": 0, "store": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    roots = counted("roots", picardweyl.analyze_root_system)
    store = counted("store", salemlib.load_store)
    for module in (picardweyl, cli):
        monkeypatch.setattr(module, "analyze_root_system", roots)
    for module in (salemlib, acceptance):
        monkeypatch.setattr(module, "load_store", store)
    ok, detail = acceptance.criterion_rho18_pipeline()
    assert ok, detail
    assert calls == {"roots": 1, "store": 0}


def test_store_s4_is_the_setup2_factor():
    assert salemlib.load_store()[(4, 1)].salem_poly == S4


def test_structural_properties_fails_short_of_its_pairs(monkeypatch):
    # every pair looks non-coprime, so no lattice pair is checked
    monkeypatch.setattr(acceptance, "zgcd", lambda phi, psi: IntPoly([0, 1]))
    ok, detail = acceptance.criterion_structural_properties(5)
    assert not ok
    assert detail == "only 0 of 5 lattice pairs were coprime"


def _scaled_identity(c):
    return lambda model, report, salem_factor: [[c * (i == j) for j in range(22)]
                                                for i in range(22)]


ASSEMBLE = picardweyl.assemble_full_isometry


def _last_reflection_dropped(model, report, salem_factor):
    short = dataclasses.replace(report, w_word=report.w_word[:-1])
    return ASSEMBLE(model, short, salem_factor)


@pytest.mark.parametrize("lift, detail", [
    pytest.param(_scaled_identity(2), "Atilde on L is not an isometry", id="not-isometry"),
    # -I preserves the form, but its trace is -22
    pytest.param(_scaled_identity(-1),
                 "trace of Atilde on L differs from tr(Atilde|Pic) - s_(deg S - 1)",
                 id="wrong-trace"),
    # w_A short of its last reflection: an isometry whose trace, on the
    # criterion's pair, is still TrA
    pytest.param(_last_reflection_dropped, "Atilde on L does not restrict to Atilde|Pic",
                 id="short-word"),
])
def test_structural_properties_checks_the_isometry_lift(monkeypatch, lift, detail):
    monkeypatch.setattr(picardweyl, "assemble_full_isometry", lift)
    assert acceptance.criterion_structural_properties(1) == (False, detail)
