"""Fixtures shared by the test modules.

The full Picard-number-18 search (``search --setup2``) is the suite's
most expensive computation, so it runs once per session: serially, with
its rejections, with every ``hodgeclass.classify`` call that reached
the Salem step recorded, and with (model, verdict, report) recorded for
each accepted pair.  The special-trace oracle reads the classify
records, the isometry-lift oracle the accepted pairs, and the
rho18-table criterion the rows; worker independence is checked on a
census slice in ``test_cli``.
"""

import pytest

from k3siegel import cli, hodgeclass


def salem_step_records(monkeypatch, search):
    """The search's rows, and (tau, phi, verdict) for each pair whose
    classify reached the Salem step: one table row matched and picked tau."""
    picked, records = [], []

    def recording(special):
        return lambda d: picked.append(special(d)) or picked[-1]

    def recording_classify(d, phi):
        picked.clear()
        verdict = classify(d, phi)
        if picked:
            records.append((picked[0], phi, verdict))
        return verdict

    classify = hodgeclass.classify
    monkeypatch.setattr(hodgeclass, "_TABLE_ROWS",
                        [(*row[:-1], recording(row[-1])) for row in hodgeclass._TABLE_ROWS])
    monkeypatch.setattr(hodgeclass, "classify", recording_classify)
    return search(), records


def root_system_records(monkeypatch) -> list:
    """A list that collects (model, verdict, report) from each
    ``cli.analyze_root_system`` call, that is from each accepted pair of
    a serial search."""
    records = []

    def recording(model, verdict):
        pic, report = analyze(model, verdict)
        records.append((model, verdict, report))
        return pic, report

    analyze = cli.analyze_root_system
    monkeypatch.setattr(cli, "analyze_root_system", recording)
    return records


@pytest.fixture
def salem_steps(monkeypatch):
    """salem_step_records for one search, undone after the test."""
    return lambda search: salem_step_records(monkeypatch, search)


@pytest.fixture
def accepted_pairs(monkeypatch):
    """root_system_records, undone after the test."""
    return root_system_records(monkeypatch)


@pytest.fixture(scope="session")
def setup2_search():
    """(rows, classify records, accepted-pair records) of one serial
    ``search_setup2`` with rejections."""
    with pytest.MonkeyPatch.context() as mp:
        accepted = root_system_records(mp)
        rows, records = salem_step_records(
            mp, lambda: cli.search_setup2(workers=1, include_rejections=True))
        return rows, records, accepted
