import hashlib
import json
import multiprocessing
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from k3siegel.intpoly import IntPoly, cyclotomic
from k3siegel import algnum, cli, hyplattice, picard2, salemlib
from k3siegel.picardweyl import PipelineError
from k3siegel.salemlib import load_store
from k3siegel.setup2 import S4, enumerate_setup2

STORE = load_store()
Z2 = IntPoly([-1, 0, 1])
CANDS = enumerate_setup2()


def test_cyclotomic_sets():
    assert cli.cyclotomic_sets(0) == [()]
    sets2 = cli.cyclotomic_sets(2)
    assert sets2 == [(3,), (4,), (6,)]
    for cs in cli.cyclotomic_sets(16)[:10]:
        from k3siegel.intpoly import euler_phi
        assert sum(euler_phi(j) for j in cs) == 16
        assert all(j >= 3 for j in cs)
        assert len(set(cs)) == len(cs)


def test_analyze_rejected_pair():
    phi = Z2 * STORE[(20, 1)].salem_poly
    psi = STORE[(10, 1)].salem_poly * cyclotomic(4) * cyclotomic(5) * cyclotomic(7)
    row = cli.analyze_pair(phi, psi)
    assert not row.accepted()
    assert "resultant" in row.rejection


def test_analyze_entry2():
    phi = Z2 * STORE[(18, 22)].salem_poly * cyclotomic(4)
    psi = STORE[(6, 1)].salem_poly * cyclotomic(48)
    row = cli.analyze_pair(phi, psi, s_label="S22^(18)", c_label="C4")
    assert row.accepted()
    assert (row.st_index, row.dynkin, row.phi1_tilde, row.trace_a_tilde) == \
        (4, "A1^2", "C1 C2 C4", -1)
    assert row.sd == "S"
    assert row.verdicts[0].rule == "1-i"


@pytest.mark.parametrize("cset, pid, note, sd, calls", [
    ((3, 4, 8, 15), 515, "needs manual analysis: free multiplicity 3", "", 0),
    ((8, 12, 30), 523, "", "S", 1),
], ids=["free-multiplicity", "id523"])
def test_conjugates_isolated_only_for_a_verdict(monkeypatch, cset, pid, note, sd, calls):
    # the Salem trace conjugates are isolated only where the closed-form P
    # is signed: never for a row the budget leaves to manual analysis,
    # once for the id-523 pair
    isolated = []
    for module in (algnum, salemlib):
        monkeypatch.setattr(module, "isolate_real_roots",
                            lambda p, isolate=module.isolate_real_roots:
                            isolated.append(p) or isolate(p))
    row = cli.analyze_pair(cli.phi_of(S4, cset), CANDS[pid - 1].psi())
    assert (row.accepted(), row.note, row.sd) == (True, note, sd)
    assert len(isolated) == calls


def test_analyze_entry6():
    phi = Z2 * STORE[(10, 1)].salem_poly * cyclotomic(4) * cyclotomic(16)
    psi = STORE[(6, 1)].salem_poly * cyclotomic(40)
    row = cli.analyze_pair(phi, psi)
    assert row.accepted()
    assert (row.st_index, row.dynkin, row.phi1_tilde, row.trace_a_tilde) == \
        (2, "E6^2", "C1^4 C2^4 C4^2", -1)
    assert row.sd == "S"


def test_pipeline_never_builds_b(monkeypatch):
    # no verdict reads the B-matrix, so the pipeline never builds it
    def refuse(*args, **kwargs):
        raise RuntimeError("B-matrix built on the pipeline path")

    monkeypatch.setattr(hyplattice, "_b_matrix_in_a_basis", refuse)
    monkeypatch.setattr(hyplattice, "reflection_factor", refuse)
    phi = Z2 * STORE[(18, 22)].salem_poly * cyclotomic(3)
    psi = STORE[(10, 1)].salem_poly * cyclotomic(36)
    row = cli.analyze_pair(phi, psi)
    assert row.rejection == "signature (11, 11) after renormalization"
    phi = Z2 * STORE[(10, 1)].salem_poly * cyclotomic(4) * cyclotomic(16)
    psi = STORE[(6, 1)].salem_poly * cyclotomic(40)
    row = cli.analyze_pair(phi, psi)
    assert (row.st_index, row.dynkin, row.phi1_tilde, row.trace_a_tilde, row.sd) == \
        (2, "E6^2", "C1^4 C2^4 C4^2", -1, "S")


def test_fault_in_a_stage_becomes_an_internal_row(monkeypatch, capsys):
    def broken(phi, psi):
        raise PipelineError("cluster stage failed")

    monkeypatch.setattr(cli, "dissect_and_classify", broken)
    phi = Z2 * STORE[(18, 22)].salem_poly * cyclotomic(4)
    psi = STORE[(6, 1)].salem_poly * cyclotomic(48)
    row = cli.analyze_pair(phi, psi)
    assert row.rejection == "internal: cluster stage failed"
    rc = cli.main(["analyze", "--phi", phi.text(), "--psi", psi.text()])
    assert rc == 1
    assert "rejected: internal: cluster stage failed" in capsys.readouterr().out


def test_search_keeps_internal_rows_and_fails(monkeypatch, tmp_path):
    # a fault is never filtered out with the rejections, so it fails the run
    def broken(phi, psi):
        raise PipelineError("cluster stage failed")

    monkeypatch.setattr(cli, "dissect_and_classify", broken)
    out = tmp_path / "rows.csv"
    rc = cli.main(["search", "--setup1", "--degree", "20", "--workers", "1",
                   "--out", str(out)])
    assert rc == 1
    assert "internal: cluster stage failed" in out.read_text()
    rows = cli.search_setup1(STORE, 20)
    assert rows and all(r.faulted() for r in rows)


def test_failed_rank2_analysis_faults_its_rows(monkeypatch, tmp_path):
    # the search driver runs the rank-2 analysis; a fault there reaches
    # every row of that Salem factor as the per-pair boundary would write it
    def broken(salem_poly):
        raise picard2.CertificationError("elimination failed")

    monkeypatch.setattr(picard2, "full_analysis", broken)
    rows = cli.search_setup1(STORE, 20)
    assert sorted((r.aux_s_label, r.aux_c_label, r.rejection) for r in rows) == [
        ("S1^(10)", "C21", "internal: elimination failed"),
        ("S1^(14)", "C20", "internal: elimination failed")]
    out = tmp_path / "rows.csv"
    assert cli.main(["search", "--setup1", "--degree", "20", "--workers", "1",
                     "--out", str(out)]) == 1
    assert out.read_text().count("rejected: internal: elimination failed") == 2


def test_rank2_analysis_runs_once_in_the_parent(monkeypatch):
    # the analysis depends on the Salem factor alone, so the driver runs
    # it once for both degree-20 rank-2 rows, and never in a worker
    parent, calls = os.getpid(), []
    analysis = picard2.full_analysis

    def counted(salem_poly):
        if os.getpid() != parent:
            raise RuntimeError("rank-2 analysis in a worker")
        calls.append(salem_poly)
        return analysis(salem_poly)

    monkeypatch.setattr(picard2, "full_analysis", counted)
    rows = cli.search_setup1(STORE, 20, workers=2)
    assert calls == [STORE[(20, 1)].salem_poly]
    assert not any(r.faulted() for r in rows)
    assert sorted(r.sd for r in rows) == ["HS", "SS"]


def test_emit_roundtrip():
    phi = Z2 * STORE[(18, 22)].salem_poly * cyclotomic(4)
    psi = STORE[(6, 1)].salem_poly * cyclotomic(48)
    rows = [cli.analyze_pair(phi, psi, s_label="S22^(18)", c_label="C4",
                             aux_s_label="S1^(6)", aux_c_label="C48")]
    assert json.loads(cli.emit(rows, "json")) == [r.to_json() for r in rows]
    csv_text = cli.emit(rows, "csv")
    lines = csv_text.strip().split("\n")
    assert lines[0] == "S,C,s,c_or_psi,ST,Dynkin,phi1,TrA,SD"
    assert lines[1] == "S22^(18),C4,S1^(6),C48,tau4,A1^2,C1 C2 C4,-1,S"


@pytest.mark.parametrize("search, marker", [
    pytest.param(lambda workers: cli.search_setup2(workers=workers, candidates=CANDS[500:560]),
                 "523", id="setup2"),
    pytest.param(lambda workers: cli.search_setup1(STORE, 18, include_rejections=True,
                                                   workers=workers),
                 "C48", id="setup1-18"),
    pytest.param(lambda workers: cli.search_setup1(STORE, 20, include_rejections=True,
                                                   workers=workers),
                 "C21", id="setup1-20"),
])
def test_search_setup2_worker_independence(search, marker):
    rows1 = search(1)
    rows2 = search(2)
    assert cli.emit(rows1, "csv") == cli.emit(rows2, "csv")
    ids = [r.aux_c_label for r in rows1 if r.accepted()]
    assert marker in ids


def _cset(label):
    return () if label == "1" else tuple(int(tok[1:]) for tok in label.split())


def _salem(label):
    index, degree = label[1:-1].split("^(")
    return STORE[(int(degree), int(index))].salem_poly


def _setup1_pair(row):
    psi = _salem(row.aux_s_label)
    for l in _cset(row.aux_c_label):
        psi = psi * cyclotomic(l)
    return cli.phi_of(_salem(row.s_label), _cset(row.c_label)), psi


def test_setup1_prefilter_is_exact(monkeypatch):
    # the factor prefilter decides pairs in setup1, and only as the
    # pipeline would decide them
    analyzed = []
    pipeline = cli.analyze_pair

    def record(phi, psi, *labels):
        analyzed.append(labels)
        return pipeline(phi, psi, *labels)

    monkeypatch.setattr(cli, "analyze_pair", record)
    rows = cli.search_setup1(STORE, 18, include_rejections=True)
    assert len(rows) == 78 and len(analyzed) == 11
    for row in rows:
        want = pipeline(*_setup1_pair(row), row.s_label, row.c_label,
                        row.aux_s_label, row.aux_c_label)
        assert row.to_json() == want.to_json()
    # Res(C3, psi) = 4, but psi shares S22^(18) with phi: a zero factor
    # resultant leaves the pair to analyze_pair
    shared = ("S22^(18)", "C3", "S22^(18)", "C12")
    assert shared in analyzed
    assert [r.rejection for r in rows if (r.s_label, r.c_label, r.aux_s_label,
                                          r.aux_c_label) == shared] == \
        ["phi and psi must be coprime"]


def test_prefilter_table_matches_full_degree_resultants():
    # the table decides each Res(C_j, psi) on trace polynomials; each pool
    # column must give the full-degree flag, None included where C_j
    # divides psi
    pool = sorted({j for cs in cli.cyclotomic_sets(16) for j in cs})
    sample = random.Random(17).sample(CANDS, 100)
    sample += [c for c in CANDS if c.id in (69, 510) and c not in sample]
    table = cli._resultant_unit_table(sample, pool)
    for j in pool:
        assert table[j] == [cli._factor_unit(cyclotomic(j), c.psi()) for c in sample]
    assert table == cli._resultant_unit_table([c.psi() for c in sample], pool)
    assert {c.id for c, flag in zip(sample, table[30]) if flag is None} >= {69, 510}


def test_base_factor_split_matches_full_degree_resultant():
    # Res((z^2-1) S, psi) = Res(z^2-1, psi) Res(S, psi), the z^2 - 1 column
    # as w^2 - 4: for a Salem factor of every store degree, against units,
    # a ramified psi, a psi sharing S and a psi vanishing at -1
    lehmer = STORE[(10, 1)].salem_poly
    degrees = sorted({key[0] for key in STORE.keys()})
    salems = [STORE.of_degree(d)[0].salem_poly for d in degrees]
    vanishing = IntPoly([1, 2, 1]) * STORE[(20, 1)].salem_poly
    psis = [c.psi() for c in CANDS[::101]]
    psis += [lehmer * cyclotomic(4) * cyclotomic(5) * cyclotomic(7), vanishing]
    psis += [s_poly * lehmer for s_poly in salems]
    table = cli._resultant_unit_table(psis, [Z2, *salems])
    assert table[Z2] == [cli._factor_unit(Z2, psi) for psi in psis]
    assert table[Z2][psis.index(vanishing)] is None
    for s_poly in salems:
        assert table[s_poly] == [cli._factor_unit(s_poly, psi) for psi in psis]
        for psi, z2_flag, s_flag in zip(psis, table[Z2], table[s_poly]):
            split = None if None in (z2_flag, s_flag) else z2_flag and s_flag
            assert split == cli._factor_unit(Z2 * s_poly, psi)


def test_setup2_shared_cyclotomic_factor_is_not_coprime():
    cand = CANDS[68]
    assert cand.id == 69 and cyclotomic(30).divides(cand.psi())
    rows = cli.search_setup2(include_rejections=True, candidates=[cand])
    with_c30 = [r for r in rows if 30 in _cset(r.c_label)]
    assert with_c30
    for row in with_c30:
        assert row.rejection == "phi and psi must be coprime"
        want = cli.analyze_pair(cli.phi_of(S4, _cset(row.c_label)), cand.psi(),
                                row.s_label, row.c_label, "", "69")
        assert row.to_json() == want.to_json()


def test_cli_main_analyze(capsys):
    phi = Z2 * STORE[(18, 22)].salem_poly * cyclotomic(4)
    psi = STORE[(6, 1)].salem_poly * cyclotomic(48)
    rc = cli.main(["analyze", "--phi", phi.text(), "--psi", psi.text()])
    out = capsys.readouterr().out
    assert rc == 0
    assert "tau4" in out and "A1^2" in out


def test_cli_main_analyze_rank2_pair(capsys):
    # analyze runs the rank-2 analysis for its one row, as the searches do
    phi = Z2 * STORE[(20, 1)].salem_poly
    psi = STORE[(10, 1)].salem_poly * cyclotomic(21)
    assert cli.main(["analyze", "--phi", phi.text(), "--psi", psi.text()]) == 0
    assert "tau7,A1,C1 C2,1,HS" in capsys.readouterr().out


def test_cli_main_setup2_search_reads_no_salem_store(monkeypatch, capsys):
    # only --setup1 reads the Salem store; --setup2, and --degree 4
    # without a family flag, never load it
    def refuse(*args, **kwargs):
        raise RuntimeError("Salem store loaded for --setup2")

    monkeypatch.setattr(cli, "search_setup2", lambda **kwargs: [])
    monkeypatch.setattr(cli, "load_store", refuse)
    for argv in (["search", "--setup2"], ["search", "--degree", "4"]):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == cli.emit([])


def test_cli_main_setup2_enum(tmp_path, capsys):
    out = tmp_path / "cands.json"
    rc = cli.main(["setup2-enum", "--format", "json", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data) == 1019
    assert data[522]["id"] == 523
    assert data[522]["coeffs"] == [-1, -2, 0, 2, 1, 0, -1, -2, 0, 1, 1]
    # the census CSV, byte for byte
    out = tmp_path / "cands.csv"
    assert cli.main(["setup2-enum", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "81b0ef4078f9a222196f7beeab97a6e084da95d0d3908ce5c1d527de5b86a570"


@pytest.mark.parametrize("fmt, digest", [
    ("json", "1930261ddbed9e11c9300eecb872a81030957f475ab27980d37bba5338941b1a"),
    ("text", "2fd502567ae5d34bfb902d8d4b519eac0864665b2f57e3f4a12d7410d49cec57"),
])
def test_cli_main_picard2_bytes(tmp_path, fmt, digest):
    # the rank-2 report, byte for byte; the JSON also holds both case
    # exclusion numerators, so it covers the elimination over Z[w] too
    out = tmp_path / f"picard2.{fmt}"
    assert cli.main(["picard2", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_main_picard2_st_names_the_salem_number(tmp_path):
    # --st alone names the Salem number; the builtin trace polynomial
    # given as text reproduces the builtin report
    builtin, given = tmp_path / "builtin.json", tmp_path / "given.json"
    assert cli.main(["picard2", "--format", "json", "--out", str(builtin)]) == 0
    assert cli.main(["picard2", "--st", picard2.ST20_1.text(), "--format", "json",
                     "--out", str(given)]) == 0
    assert given.read_bytes() == builtin.read_bytes()


def test_cli_module_runs_without_runtime_warning():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "k3siegel.cli",
                           "--help"], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_empty_emit():
    text = cli.emit([], "csv")
    assert text == "S,C,s,c_or_psi,ST,Dynkin,phi1,TrA,SD\n"


def test_search_setup1_data_unavailable_marker():
    rows = cli.search_setup1(STORE, 20, index_range=(5, 9))
    assert len(rows) == 1
    assert rows[0].rejection.startswith("data unavailable")


@pytest.mark.parametrize("bounds, expected", [
    (["--index-max", "0"], ["S?^(20),,,,,,,,rejected: data unavailable: "
                            "no Salem entries of degree 20 with index at most 0 in the store"]),
    (["--index-min", "1", "--index-max", "1"], ["S1^(20),1,S1^(10),C21,tau7,A1,C1 C2,1,HS",
                                                "S1^(20),1,S1^(14),C20,tau5,A1,C1 C2,1,SS"]),
    (["--index-min", "2", "--index-max", "3"], ["S?^(20),,,,,,,,rejected: data unavailable: "
                                                "no Salem entries of degree 20 with index "
                                                "at least 2 and at most 3 in the store"]),
    (["--index-min", "2"], ["S?^(20),,,,,,,,rejected: data unavailable: "
                            "no Salem entries of degree 20 with index at least 2 in the store"]),
])
def test_search_index_bounds_select_entries(capsys, bounds, expected):
    # an index bound of 0 bounds the search like any other; an empty
    # range names the bounds given, since the store does hold S1^(20)
    assert cli.main(["search", "--setup1", "--degree", "20", "--workers", "1", *bounds]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == expected


def test_poly_arg_accepts_files(tmp_path):
    p = tmp_path / "st.txt"
    p.write_text("[-3,-1,1]\n")
    assert cli._poly_arg(str(p)) == IntPoly([-3, -1, 1])
    assert cli._poly_arg("[-3,-1,1]") == IntPoly([-3, -1, 1])


@pytest.mark.parametrize("argv, workers", [
    (["analyze", "--phi", "[1,2,]", "--psi", "[1]"], None),
    (["picard2", "--st", "[1,x]"], None),
    (["analyze", "--phi", "1,2", "--psi", "[1]"], None),
    (["search", "--setup1"], "abc"),
    (["search", "--setup1", "--workers", "0"], None),
    (["search", "--setup2", "--workers", "-2"], None),
    (["search", "--setup1"], "0"),
    (["verify-tables", "--fast"], "-1"),
    (["picard2", "--salem", "[1,-1,1]"], None),
    (["search", "--setup1", "--setup2"], None),
    (["search", "--setup2", "--salem-data", "/nonexistent", "--index-min", "5"], None),
    (["search", "--degree", "4", "--index-max", "3"], None),
    (["search", "--setup2", "--degree", "20"], None),
    (["search", "--setup1", "--salem-data", "missing.salem"], None),
    (["search", "--setup1", "--salem-data", "count.salem"], None),
    (["search", "--setup1", "--salem-data", "non_monic.salem"], None),
    (["picard2", "--st", "[-3,-1,1]"], None),
    (["picard2", "--st", "[1,0,-4,-1]"], None),
    (["search", "--setup1", "--degree", "7"], None),
    (["search", "--setup1", "--degree", "0"], None),
    (["search", "--setup1", "--degree", "-2"], None),
    (["search", "--setup1", "--degree", "2"], None),
    (["search", "--setup1", "--degree", "22"], None),
    (["search", "--degree", "7"], None),
    (["search", "--setup1", "--index-min", "5", "--index-max", "3"], None),
])
def test_cli_input_errors_exit_2(monkeypatch, capsys, tmp_path, argv, workers):
    # a malformed argument is a usage error (2), not a faulted row (1);
    # workers, when given, is the --workers text; the Salem data files
    # hold a wrong coefficient count and a non-monic trace polynomial,
    # and S4's trace polynomial fails the rank-2 check
    monkeypatch.chdir(tmp_path)
    (tmp_path / "count.salem").write_text("10 2 : 1 0 -5\n")
    (tmp_path / "non_monic.salem").write_text("10 1 : 2 1 -5 -5 4 3\n")
    if workers is not None:
        argv = [*argv, "--workers", workers]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["setup2-enum"],
    ["search", "--setup2"],
    ["search", "--setup1", "--degree", "18"],
    ["analyze", "--phi", "[1]", "--psi", "[1]"],
    ["picard2"],
])
def test_unwritable_out_is_a_usage_error_before_any_work(monkeypatch, capsys, tmp_path, argv):
    # the file is opened before the work: the census (enumerate_setup2,
    # which search --setup2 runs first), a search, a pair or picard2
    def refuse(*args, **kwargs):
        raise AssertionError("work started before --out was opened")

    for name in ("enumerate_setup2", "search_setup2", "search_setup1", "analyze_pair"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(picard2, "full_analysis", refuse)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "missing" / "x.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--out" in err and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_map_tasks_asks_for_no_more_processes_than_tasks(monkeypatch):
    # a recorder stands in for the pool, so no process starts
    sizes = []

    class Recorder:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", Recorder)
    assert cli._map_tasks(abs, [-1, -2, -3], 64) == [1, 2, 3]
    assert cli._map_tasks(abs, [-1, -2, -3], 2) == [1, 2, 3]
    assert cli._map_tasks(abs, [-1], 64) == [1]
    assert sizes == [3, 2]
