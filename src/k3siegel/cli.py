"""Search drivers, the per-pair analysis pipeline, and the command line.

A pair (phi, psi) runs through: lattice build -> unimodularity gate ->
trace-cluster classification -> Picard/Weyl analysis -> fixed-point
verdicts.  Failures at any stage become structured rejection rows, so
bulk searches can tally causes.  Verdict routing: a rank-2 Picard
lattice with a single A1 curve and f*|Pic of order two waits for
rank2_verdicts, one number-field elimination per Salem factor; otherwise
the Lefschetz budget must leave exactly one transverse fixed point off
the exceptional set (D/E-type components only), and the closed-form P decides.

Subcommands:
  setup2-enum   enumerate the 1019 auxiliary polynomials (CSV/JSON)
  search        run the principal search for a given Salem degree
  analyze       analyze one explicit (phi, psi) pair
  picard2       print the rank-2 certification and verdict grid
  verify-tables run the whole acceptance suite

Worker count for searches comes from --workers or K3SIEGEL_WORKERS;
results are canonically sorted, so output is identical for any count.
Malformed input (polynomial text that is not a bracketed list of
integers, a worker count that is not an integer of at least 1) exits
2 like any usage error; exit 1 means a row faulted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field

from .intpoly import (
    IntPoly,
    PolynomialDomainError,
    cyclotomic,
    euler_phi,
    from_trace_polynomial,
    resultant,
    trace_polynomial,
)
from . import picard2 as p2
from .fpfsiegel import (
    NeedsManualAnalysis,
    component_contribution,
    derive_P,
    saito_budget,
    siegel_verdict_P,
)
from .hodgeclass import dissect_and_classify
from .hyplattice import LatticeBuildError, build, signature_and_renormalize, unimodularity_gate
from .picardweyl import analyze_root_system
from .salemlib import SalemStore, load_store
from .setup2 import S4, Setup2Candidate, enumerate_setup2

Z2 = IntPoly([-1, 0, 1])

CSV_COLUMNS = ["S", "C", "s", "c_or_psi", "ST", "Dynkin", "phi1", "TrA", "SD"]


@dataclass
class AnalysisRow:
    """One output record, mirroring the table columns of the searches."""

    s_label: str = ""
    c_label: str = ""
    aux_s_label: str = ""
    aux_c_label: str = ""
    st_index: int | None = None
    dynkin: str = ""
    phi1_tilde: str = ""
    trace_a_tilde: int | None = None
    sd: str = ""
    verdicts: list = field(default_factory=list)
    note: str = ""
    rejection: str | None = None
    rank2_salem: IntPoly | None = None  # a rank-2 row's Salem factor, not emitted

    def accepted(self) -> bool:
        return self.rejection is None

    def faulted(self) -> bool:
        """An exception past the build; searches never filter these out."""
        return (self.rejection or "").startswith("internal")

    def to_csv(self) -> list[str]:
        return [
            self.s_label,
            self.c_label,
            self.aux_s_label,
            self.aux_c_label,
            "" if self.st_index is None else f"tau{self.st_index}",
            self.dynkin,
            self.phi1_tilde,
            "" if self.trace_a_tilde is None else str(self.trace_a_tilde),
            self.sd if self.rejection is None else f"rejected: {self.rejection}",
        ]

    def to_json(self) -> dict:
        return {
            "S": self.s_label, "C": self.c_label, "s": self.aux_s_label,
            "c_or_psi": self.aux_c_label, "ST": self.st_index,
            "Dynkin": self.dynkin, "phi1": self.phi1_tilde,
            "TrA": self.trace_a_tilde, "SD": self.sd,
            "note": self.note, "rejection": self.rejection,
        }


def cyclo_label(indices: dict[int, int] | list[int]) -> str:
    if isinstance(indices, dict):
        items = sorted(indices.items())
    else:
        items = [(n, 1) for n in sorted(indices)]
    if not items:
        return "1"
    return " ".join(f"C{n}" if m == 1 else f"C{n}^{m}" for n, m in items)


def salem_label(degree: int, index: int) -> str:
    return f"S{index}^({degree})"


# ---------------------------------------------------------------------------
# the per-pair pipeline
# ---------------------------------------------------------------------------

def analyze_pair(phi: IntPoly, psi: IntPoly,
                 s_label: str = "", c_label: str = "",
                 aux_s_label: str = "", aux_c_label: str = "") -> AnalysisRow:
    """Full pipeline for one explicit pair; never raises on bad pairs.

    A failed build precondition is the rejection; any other exception
    past the build becomes an "internal:" rejection, so one bad pair
    cannot abort a search; the searches keep that row and the CLI then
    exits 1.  A rank-2 row's S/H letters are left to rank2_verdicts.
    """
    row = AnalysisRow(s_label=s_label, c_label=c_label,
                      aux_s_label=aux_s_label, aux_c_label=aux_c_label)
    try:
        model = build(phi, psi)
    except LatticeBuildError as exc:
        row.rejection = str(exc)
        return row
    try:
        if not unimodularity_gate(model):
            row.rejection = "resultant is not a unit"
            return row
        model = signature_and_renormalize(model)
        if model.signature != (3, 19):
            row.rejection = f"signature {model.signature} after renormalization"
            return row
        verdict = dissect_and_classify(phi, psi)
        if not verdict.accepted:
            row.rejection = verdict.rejection_reason
            return row
        if not row.s_label:
            row.s_label = verdict.salem_factor.text()
        if not row.c_label:
            row.c_label = cyclo_label(verdict.cyclo_indices)
        row.st_index = verdict.special_trace_index
        pic, report = analyze_root_system(model, verdict)
        row.dynkin = report.dynkin_name()
        row.phi1_tilde = report.phi1_tilde_name()
        row.trace_a_tilde = report.trace_a_tilde

        # verdict routing
        if (pic.rho == 2 and row.dynkin == "A1"
                and report.phi1_tilde_factors == {1: 1, 2: 1}):
            if p2.trace_check(verdict.salem_factor):
                row.rank2_salem = verdict.salem_factor
            else:
                row.note = "needs manual analysis: rank-2 trace pattern"
            return row
        contribs = [component_contribution(a.component.label, a.component.rank, a.kind)
                    for a in report.component_actions]
        budget = saito_budget(report.trace_a_tilde, contribs)
        if budget.free_multiplicity != 1:
            row.note = (f"needs manual analysis: free multiplicity "
                        f"{budget.free_multiplicity}")
            return row
        p_func = derive_P(contribs, budget.n_f_total)
        v = siegel_verdict_P(p_func, verdict.salem_conjugates, row.st_index)
        row.verdicts = [v]
        row.sd = str(v)
    except NeedsManualAnalysis as exc:  # raised by component_contribution
        row.note = f"needs manual analysis: {exc}"
    except Exception as exc:  # the per-pair fault boundary
        row.rejection = f"internal: {exc}"
    return row


def rank2_verdicts(rows: list[AnalysisRow]) -> None:
    """One picard2.full_analysis per Salem factor sets its rows' verdicts, or faults them."""
    for salem in dict.fromkeys(row.rank2_salem for row in rows if row.rank2_salem is not None):
        group = [row for row in rows if row.rank2_salem == salem]
        try:
            grid = p2.full_analysis(salem).grid
            for row in group:
                row.verdicts = [grid[("p_pm", row.st_index)], grid[("p", row.st_index)]]
                row.sd = "".join(map(str, row.verdicts))
        except Exception as exc:  # the per-pair fault boundary, for the group
            for row in group:
                row.rejection = f"internal: {exc}"


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------

def cyclotomic_sets(total_degree: int,
                    allowed: list[int] | None = None) -> list[tuple[int, ...]]:
    """All sets of distinct cyclotomic indices >= 3 whose degrees sum to
    total_degree, sorted."""
    if allowed is None:
        allowed = [j for j in range(3, 2 * total_degree * total_degree + 2)
                   if euler_phi(j) <= total_degree]
    allowed = sorted(set(allowed))
    out: list[tuple[int, ...]] = []

    def rec(pos: int, left: int, acc: list[int]):
        if left == 0:
            out.append(tuple(acc))
            return
        for q in range(pos, len(allowed)):
            d = euler_phi(allowed[q])
            if d <= left:
                acc.append(allowed[q])
                rec(q + 1, left - d, acc)
                acc.pop()

    rec(0, total_degree, [])
    return sorted(out)


def phi_of(s_poly: IntPoly, cset) -> IntPoly:
    """phi = (z^2 - 1) S prod C_j over the cyclotomic indices j in cset."""
    phi = Z2 * s_poly
    for j in cset:
        phi = phi * cyclotomic(j)
    return phi


@dataclass(frozen=True)
class Setup1Psi:
    """A setup1 psi, read through .psi() as a census word is."""

    poly: IntPoly

    def psi(self) -> IntPoly:
        return self.poly


def psi_candidates_setup1(store: SalemStore) -> list[tuple[Setup1Psi, str, str]]:
    """(psi, s label, c label) for every unramified Salem entry times an
    admissible unramified cyclotomic tail from L0."""
    from .salemlib import compute_L0

    l0 = sorted(compute_L0(16))
    out = []
    for entry in store.unramified_entries():
        for ls in cyclotomic_sets(22 - entry.degree, allowed=l0):
            psi = entry.salem_poly
            for l in ls:
                psi = psi * cyclotomic(l)
            out.append((Setup1Psi(psi), salem_label(*entry.key), cyclo_label(list(ls))))
    return out


def search_setup1(store: SalemStore, degree: int,
                  index_range: tuple[int, int] | None = None,
                  include_rejections: bool = False,
                  workers: int = 1) -> list[AnalysisRow]:
    """The principal search: S of the given degree from the store, C over
    cyclotomic sets of degree 20 - degree (indices >= 3), psi from the
    unramified Salem entries with unramified cyclotomic tails."""
    psis = psi_candidates_setup1(store)
    entries = [e for e in store.of_degree(degree)
               if not index_range or index_range[0] <= e.index <= index_range[1]]
    if not entries:
        return [AnalysisRow(s_label=f"S?^({degree})",
                            rejection="data unavailable: no Salem entries of "
                                      f"degree {degree} in the store")]
    if not psis:
        return [AnalysisRow(rejection="data unavailable: no unramified Salem "
                                      "entries in the store")]
    return _search([(e.salem_poly, salem_label(*e.key)) for e in entries], psis,
                   include_rejections, workers)


def search_setup2(workers: int = 1, include_rejections: bool = False,
                  candidates: list[Setup2Candidate] | None = None) -> list[AnalysisRow]:
    """The Picard-number-18 search: phi = (z^2-1) S4 C with deg C = 16,
    psi over the enumerated auxiliary polynomials."""
    if candidates is None:
        candidates = enumerate_setup2()
    return _search([(S4, salem_label(4, 1))],
                   [(c, "", str(c.id)) for c in candidates],
                   include_rejections, workers)


def _search(salems: list[tuple[IntPoly, str]], psis: list[tuple],
            include_rejections: bool, workers: int) -> list[AnalysisRow]:
    """Pair phi = (z^2-1) S prod C_j, for each (S, label) and each cyclotomic
    set of degree 20 - deg S, with every (item with .psi(), s label, c label).

    Res is multiplicative, so a pair is unimodular exactly when each factor
    resultant, Res(Z2 S, psi) and every Res(C_j, psi), is +-1.  When none
    is 0 and one is not +-1, the pair is rejected here with the row
    analyze_pair would give; a zero one leaves the pair to analyze_pair,
    the one place that rejects it as not coprime.  S and every psi are
    monic palindromic of even degree, so the factors are decided on trace
    polynomials.  Rows are sorted by their labels, psi ids numerically.
    """
    polys = [rec.psi() for rec, _, _ in psis]
    traces = [trace_polynomial(psi) for psi in polys]
    csets = {s.degree: cyclotomic_sets(20 - s.degree) for s, _ in salems}
    pool = sorted({j for sets in csets.values() for cs in sets for j in cs})
    units = _resultant_unit_table([rec for rec, _, _ in psis], pool)
    rows, tasks = [], []
    for s_poly, s_lab in salems:
        s_trace = trace_polynomial(s_poly)
        base_units = [_base_unit(s_trace, psi, tr) for psi, tr in zip(polys, traces)]
        for cset in csets[s_poly.degree]:
            phi = phi_of(s_poly, cset)
            c_lab = cyclo_label(list(cset))
            for pos, (psi, (_, s_aux, c_aux)) in enumerate(zip(polys, psis)):
                flags = [base_units[pos]] + [units[j][pos] for j in cset]
                if all(flags) or None in flags:
                    tasks.append((phi, psi, s_lab, c_lab, s_aux, c_aux))
                elif include_rejections:
                    rows.append(AnalysisRow(s_label=s_lab, c_label=c_lab,
                                            aux_s_label=s_aux, aux_c_label=c_aux,
                                            rejection="resultant is not a unit"))
    results = _map_tasks(_run_analysis_task, tasks, workers)
    rank2_verdicts(results)
    rows += [r for r in results if r.accepted() or r.faulted() or include_rejections]
    rows.sort(key=lambda r: (r.s_label, r.c_label, r.aux_s_label,
                             (0, int(r.aux_c_label)) if r.aux_c_label.isdigit()
                             else (1, r.aux_c_label)))
    return rows


def _run_analysis_task(task):
    return analyze_pair(*task)


def _map_tasks(fn, tasks, workers: int):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    import multiprocessing as mp

    with mp.Pool(min(workers, len(tasks))) as pool:
        return pool.map(fn, tasks, chunksize=1)


def _factor_unit(f: IntPoly, psi: IntPoly) -> bool | None:
    """|Res(f, psi)| == 1 for a monic f, None when it is 0; psi is reduced
    modulo f first, so the resultant is small."""
    _, r = psi.divmod(f)
    res = 0 if r.is_zero() else resultant(f, r)
    return None if res == 0 else abs(res) == 1


def _base_unit(s_trace: IntPoly, psi: IntPoly, psi_trace: IntPoly) -> bool | None:
    """_factor_unit((z^2 - 1) S, psi) for a palindromic S with trace
    polynomial s_trace: the resultant is psi(1) psi(-1) Res(S, psi), and
    Res(S, psi) is halved as in _resultant_unit_table."""
    ends = psi(1) * psi(-1)
    flag = _factor_unit(s_trace, psi_trace)
    return None if ends == 0 or flag is None else flag and abs(ends) == 1


def _resultant_unit_table(candidates: list, pool: list[int]) -> dict[int, list]:
    """_factor_unit(C_j, psi) for every cyclotomic index j >= 3 in the pool
    and every candidate (an item with .psi()); flags are positional,
    parallel to the candidate list, and None where C_j divides psi.

    Each flag is decided at half the degree: for monic palindromic p and
    q of even degree with trace polynomials P and Q, Res(p, q) =
    Res(P, Q)^2, since the roots of p pair as a, 1/a and
    q(a) = a^m Q(a + 1/a).
    """
    traces = [trace_polynomial(cand.psi()) for cand in candidates]
    table = {}
    for j in pool:
        t_j = trace_polynomial(cyclotomic(j))
        table[j] = [_factor_unit(t_j, tr) for tr in traces]
    return table


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit(rows: list[AnalysisRow], fmt: str = "csv") -> str:
    """Serialize rows; deterministic order is the caller's order."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow(r.to_csv())
        return buf.getvalue()
    if fmt == "json":
        return json.dumps([r.to_json() for r in rows], indent=1) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _workers_arg(ap: argparse.ArgumentParser, args) -> int:
    source, value = "--workers", args.workers
    if value is None:
        source, text = "K3SIEGEL_WORKERS", os.environ.get("K3SIEGEL_WORKERS", "1")
        try:
            value = int(text)
        except ValueError:
            ap.error(f"K3SIEGEL_WORKERS must be an integer, not {text!r}")
    if value < 1:
        ap.error(f"{source} must be at least 1, not {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="k3siegel", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("setup2-enum", help="enumerate the 1019 auxiliary polynomials")
    p_enum.add_argument("--format", choices=["csv", "json"], default="csv")
    p_enum.add_argument("--out", default=None)

    p_search = sub.add_parser("search", help="principal search for one Salem degree")
    p_search.add_argument("--setup1", action="store_true",
                          help="use the Salem-times-cyclotomic auxiliary family")
    p_search.add_argument("--setup2", action="store_true",
                          help="use the enumerated degree-22 auxiliary family (degree 4)")
    p_search.add_argument("--degree", type=int, default=20)
    p_search.add_argument("--index-min", type=int, default=None)
    p_search.add_argument("--index-max", type=int, default=None)
    p_search.add_argument("--salem-data", default=None,
                          help="extra Salem entries file (d i : coefficients), for --setup1")
    p_search.add_argument("--include-rejections", action="store_true")
    p_search.add_argument("--format", choices=["csv", "json"], default="csv")
    p_search.add_argument("--out", default=None)
    p_search.add_argument("--workers", type=int, default=None)

    p_an = sub.add_parser("analyze", help="analyze one explicit pair")
    p_an.add_argument("--phi", required=True,
                      help='ascending coefficients, e.g. "[1,0,...,1]"')
    p_an.add_argument("--psi", required=True)
    p_an.add_argument("--format", choices=["csv", "json"], default="csv")
    p_an.add_argument("--out", default=None)

    p_p2 = sub.add_parser("picard2", help="rank-2 certification and verdict grid")
    p_p2.add_argument("--st", default="builtin",
                      help='"builtin" or ascending trace-polynomial coefficients')
    p_p2.add_argument("--format", choices=["text", "json"], default="text")
    p_p2.add_argument("--out", default=None)

    p_v = sub.add_parser("verify-tables", help="run the full acceptance suite")
    p_v.add_argument("--fast", action="store_true",
                     help="skip the two long-running search criteria")
    p_v.add_argument("--workers", type=int, default=None)

    args = ap.parse_args(argv)

    if args.command == "setup2-enum":
        cands = enumerate_setup2()
        if args.format == "json":
            text = json.dumps([{"id": c.id, "coeffs": list(c.coeffs),
                                "psi": c.psi().text()} for c in cands], indent=1) + "\n"
        else:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["id"] + [f"c{i}" for i in range(1, 12)] + ["psi"])
            for c in cands:
                writer.writerow([c.id, *c.coeffs, c.psi().text()])
            text = buf.getvalue()
        _write_out(text, args.out)
        print(f"enumerated {len(cands)} candidates", file=sys.stderr)
        return 0

    if args.command == "search":
        workers = _workers_arg(ap, args)
        if args.setup2 or args.degree == 4 and not args.setup1:
            rows = search_setup2(workers=workers,
                                 include_rejections=args.include_rejections)
        else:
            rng = None
            if args.index_min is not None or args.index_max is not None:
                rng = (args.index_min or 0, args.index_max or 10 ** 9)
            rows = search_setup1(load_store(args.salem_data), args.degree, rng,
                                 include_rejections=args.include_rejections,
                                 workers=workers)
        _write_out(emit(rows, args.format), args.out)
        return 1 if any(r.faulted() for r in rows) else 0

    if args.command == "analyze":
        try:
            phi, psi = IntPoly.from_text(args.phi), IntPoly.from_text(args.psi)
        except PolynomialDomainError as exc:
            ap.error(str(exc))
        row = analyze_pair(phi, psi)
        rank2_verdicts([row])
        _write_out(emit([row], args.format), args.out)
        return 1 if row.faulted() else 0

    if args.command == "picard2":
        try:
            salem = p2.S20_1 if args.st == "builtin" else from_trace_polynomial(_poly_arg(args.st))
        except PolynomialDomainError as exc:
            ap.error(str(exc))
        report = p2.full_analysis(salem).to_json()
        if args.format == "json":
            text = json.dumps(report, indent=1) + "\n"
        else:
            text = (f"Q(w) num = {report['Q_num']}\n"
                    f"P(w) num = {report['P_num']}\n"
                    f"P(w) den = {report['P_den']}\n"
                    f"E3 degree = {report['E3_degree']}, E7 degree = {report['E7_degree']}\n"
                    f"p+- : {' '.join(report['grid']['p_pm'])}\n"
                    f"p   : {' '.join(report['grid']['p'])}\n")
        _write_out(text, args.out)
        return 0

    if args.command == "verify-tables":
        from .acceptance import run_all

        ok = run_all(fast=args.fast, workers=_workers_arg(ap, args))
        return 0 if ok else 1

    return 2


def _poly_arg(value: str) -> IntPoly:
    """A polynomial argument: bracketed coefficient text, or the path of
    a file containing it."""
    if os.path.exists(value):
        with open(value, "r", encoding="utf-8") as fh:
            value = fh.read().strip()
    return IntPoly.from_text(value)


def _write_out(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
