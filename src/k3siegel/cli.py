"""Search drivers, the per-pair analysis pipeline, and the command line.

A pair (phi, psi) runs through: lattice build -> unimodularity gate ->
signature stage (a Cauchy index of the trace polynomials; only the
pairs it passes pay the Gram elimination) -> trace-cluster
classification -> Picard/Weyl analysis -> fixed-point verdicts.
Failures at any stage become structured rejection rows, so bulk
searches can tally causes.  Verdict routing: a rank-2 Picard
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

Worker count for searches comes from --workers (default 1); results
are canonically sorted, so output is identical for any count.
Malformed input (polynomial text that is not a bracketed list of
integers, a worker count that is not an integer of at least 1, a
--setup1 degree that is not even from 4 to 20, an --index-min above
--index-max, a --salem-data file that cannot be read or holds a bad
entry, an --st file that cannot be read or text that names no Salem
number passing the rank-2 trace check, an --out file that cannot be
opened for writing) exits 2 like any usage error, before any search
runs; exit 1 means a row faulted.
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
    cyclotomic_indices_up_to_degree,
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
from .salemlib import SalemDataError, SalemStore, is_salem, load_store, trace_conjugates
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
    verdicts: list = field(default_factory=list)
    note: str = ""
    rejection: str | None = None
    rank2_salem: IntPoly | None = None  # a rank-2 row's Salem factor, not emitted
    actions: list = field(default_factory=list)  # (component name, kind), not emitted

    @property
    def sd(self) -> str:
        """The SD column: the verdicts' S/H letters."""
        return "".join(map(str, self.verdicts))

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
        if signature_and_renormalize(model).signature != (3, 19):
            row.rejection = f"signature {model.signature} after renormalization"
            return row
        verdict = dissect_and_classify(model)
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
        row.phi1_tilde = cyclo_label(report.phi1_tilde_factors)
        row.trace_a_tilde = report.trace_a_tilde
        row.actions = [(a.component.name, a.kind) for a in report.component_actions]

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
        taus = trace_conjugates(verdict.salem_trace)
        row.verdicts = [siegel_verdict_P(p_func, taus, row.st_index)]
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
        allowed = [j for j in cyclotomic_indices_up_to_degree(total_degree) if j >= 3]
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


def psi_candidates_setup1(store: SalemStore) -> list[tuple[IntPoly, str, str]]:
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
            out.append((psi, salem_label(*entry.key), cyclo_label(list(ls))))
    return out


def search_setup1(store: SalemStore, degree: int,
                  index_range: tuple[int | None, int | None] | None = None,
                  include_rejections: bool = False,
                  workers: int = 1) -> list[AnalysisRow]:
    """The principal search: S of the given degree from the store, C over
    cyclotomic sets of degree 20 - degree (indices >= 3), psi from the
    unramified Salem entries with unramified cyclotomic tails; index_range
    (lo, hi) bounds the entries' index, None leaving a side open."""
    psis = psi_candidates_setup1(store)
    lo, hi = index_range or (None, None)
    entries = [e for e in store.of_degree(degree)
               if (lo is None or lo <= e.index) and (hi is None or e.index <= hi)]
    if not entries:
        bounds = [f"{word} {b}" for word, b in (("at least", lo), ("at most", hi))
                  if b is not None]
        index = f" with index {' and '.join(bounds)}" if bounds else ""
        return [AnalysisRow(s_label=f"S?^({degree})",
                            rejection="data unavailable: no Salem entries of "
                                      f"degree {degree}{index} in the store")]
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
                   [(c.psi(), "", str(c.id)) for c in candidates],
                   include_rejections, workers)


def _search(salems: list[tuple[IntPoly, str]], psis: list[tuple[IntPoly, str, str]],
            include_rejections: bool, workers: int) -> list[AnalysisRow]:
    """Pair phi = (z^2-1) S prod C_j, for each (S, label) and each cyclotomic
    set of degree 20 - deg S, with every (psi, s label, c label).

    Res is multiplicative, so a pair is unimodular exactly when each factor
    resultant, Res(z^2-1, psi) = psi(1) psi(-1), Res(S, psi) and every
    Res(C_j, psi), is +-1.  The flags of S and the C_j are the columns of
    _resultant_unit_table; z^2 - 1 is flagged only where psi(1) psi(-1)
    is 0, as a ramified psi gets the same row from analyze_pair's
    unimodularity gate.  When no flag is 0 and one is not +-1, the pair is
    rejected here with the row analyze_pair would give; a zero one leaves
    the pair to analyze_pair, the one place that rejects it as not
    coprime.  The pool gets one task per cyclotomic set with a pair left:
    (phi, s label, c label, [(psi, s label, c label), ...]).  Rows are
    sorted by their labels, psi ids numerically.
    """
    csets = {s.degree: cyclotomic_sets(20 - s.degree) for s, _ in salems}
    pool = sorted({j for sets in csets.values() for cs in sets for j in cs})
    units = _resultant_unit_table([psi for psi, _, _ in psis],
                                  [*(s_poly for s_poly, _ in salems), *pool])
    z2_flags = [psi(1) * psi(-1) != 0 or None for psi, _, _ in psis]
    rows, tasks = [], []
    for s_poly, s_lab in salems:
        for cset in csets[s_poly.degree]:
            c_lab = cyclo_label(list(cset))
            columns = [z2_flags, units[s_poly]] + [units[j] for j in cset]
            block = []
            for (psi, s_aux, c_aux), flags in zip(psis, zip(*columns)):
                if all(flags) or None in flags:
                    block.append((psi, s_aux, c_aux))
                elif include_rejections:
                    rows.append(AnalysisRow(s_label=s_lab, c_label=c_lab,
                                            aux_s_label=s_aux, aux_c_label=c_aux,
                                            rejection="resultant is not a unit"))
            if block:
                tasks.append((phi_of(s_poly, cset), s_lab, c_lab, block))
    results = [row for block in _map_tasks(_run_analysis_task, tasks, workers)
               for row in block]
    rank2_verdicts(results)
    rows += [r for r in results if r.accepted() or r.faulted() or include_rejections]
    rows.sort(key=lambda r: (r.s_label, r.c_label, r.aux_s_label,
                             (0, int(r.aux_c_label)) if r.aux_c_label.isdigit()
                             else (1, r.aux_c_label)))
    return rows


def _run_analysis_task(task):
    phi, s_lab, c_lab, block = task
    return [analyze_pair(phi, psi, s_lab, c_lab, s_aux, c_aux) for psi, s_aux, c_aux in block]


def _map_tasks(fn, tasks, workers: int):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    import multiprocessing as mp

    with mp.Pool(min(workers, len(tasks))) as pool:
        return pool.map(fn, tasks, chunksize=1)


def _factor_unit(f: IntPoly, psi: IntPoly) -> bool | None:
    """|Res(f, psi)| == 1 for a monic f, None when it is 0; psi is reduced
    modulo f first, so the resultant is small."""
    r = psi.rem_monic(f)
    res = 0 if r.is_zero() else resultant(f, r)
    return None if res == 0 else abs(res) == 1


def _resultant_unit_table(psis: list, factors: list) -> dict:
    """{f: [flag of factor f against each psi]} for the palindromic
    factors f of phi: the prefilter's grid, one column per factor,
    positional in the psi list; a flag is _factor_unit(f, psi), None where
    f divides psi.  A factor is a Salem polynomial S, or a cyclotomic
    index j standing for C_j; a psi is an IntPoly or a census word, read
    through .psi().

    Each flag is decided at half the degree, as _factor_unit on the trace
    polynomials, by Res(f, psi) = Res(F, Psi)^2 (stated at
    ``hyplattice.unimodularity_gate``), and each psi's trace polynomial
    is taken once.
    """
    traces = [trace_polynomial(p.psi() if isinstance(p, Setup2Candidate) else p)
              for p in psis]
    table = {}
    for f in factors:
        t = trace_polynomial(cyclotomic(f) if isinstance(f, int) else f)
        table[f] = [_factor_unit(t, q) for q in traces]
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
    if args.workers < 1:
        ap.error(f"--workers must be at least 1, not {args.workers}")
    return args.workers


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="k3siegel", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("setup2-enum", help="enumerate the 1019 auxiliary polynomials")
    p_enum.add_argument("--format", choices=["csv", "json"], default="csv")
    p_enum.add_argument("--out", default=None)

    p_search = sub.add_parser("search", help="principal search for one Salem degree")
    family = p_search.add_mutually_exclusive_group()
    family.add_argument("--setup1", action="store_true",
                        help="use the Salem-times-cyclotomic auxiliary family")
    family.add_argument("--setup2", action="store_true",
                        help="use the enumerated degree-22 auxiliary family (degree 4)")
    p_search.add_argument("--degree", type=int, default=None,
                          help="Salem degree: 20 by default for --setup1, only 4 for --setup2")
    p_search.add_argument("--index-min", type=int, default=None)
    p_search.add_argument("--index-max", type=int, default=None)
    p_search.add_argument("--salem-data", default=None,
                          help="extra Salem entries file (d i : coefficients), for --setup1")
    p_search.add_argument("--include-rejections", action="store_true")
    p_search.add_argument("--format", choices=["csv", "json"], default="csv")
    p_search.add_argument("--out", default=None)
    p_search.add_argument("--workers", type=int, default=1)

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
    p_v.add_argument("--workers", type=int, default=1)

    args = ap.parse_args(argv)

    if args.command == "setup2-enum":
        out = _open_out(ap, args.out)
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
        _write_out(text, out)
        print(f"enumerated {len(cands)} candidates", file=sys.stderr)
        return 0

    if args.command == "search":
        workers = _workers_arg(ap, args)
        if args.setup2 or args.degree == 4 and not args.setup1:
            if args.degree not in (None, 4):
                ap.error(f"--setup2 searches Salem degree 4, not {args.degree}")
            if (args.index_min, args.index_max, args.salem_data) != (None, None, None):
                ap.error("--index-min, --index-max and --salem-data need --setup1")
            out = _open_out(ap, args.out)
            rows = search_setup2(workers=workers,
                                 include_rejections=args.include_rejections)
        else:
            degree = 20 if args.degree is None else args.degree
            if degree % 2 or not 4 <= degree <= 20:
                ap.error(f"--setup1 searches an even Salem degree from 4 to 20, not {degree}")
            rng = (args.index_min, args.index_max)
            if None not in rng and rng[0] > rng[1]:
                ap.error(f"--index-min {rng[0]} exceeds --index-max {rng[1]}")
            try:
                store = load_store(args.salem_data)
            except (OSError, UnicodeDecodeError, SalemDataError) as exc:
                ap.error(f"--salem-data: {exc}")
            out = _open_out(ap, args.out)
            rows = search_setup1(store, degree, rng,
                                 include_rejections=args.include_rejections,
                                 workers=workers)
        _write_out(emit(rows, args.format), out)
        return 1 if any(r.faulted() for r in rows) else 0

    if args.command == "analyze":
        try:
            phi, psi = IntPoly.from_text(args.phi), IntPoly.from_text(args.psi)
        except PolynomialDomainError as exc:
            ap.error(str(exc))
        out = _open_out(ap, args.out)
        row = analyze_pair(phi, psi)
        rank2_verdicts([row])
        _write_out(emit([row], args.format), out)
        return 1 if row.faulted() else 0

    if args.command == "picard2":
        try:
            salem = p2.S20_1 if args.st == "builtin" else from_trace_polynomial(_poly_arg(args.st))
            if not (is_salem(salem) and p2.trace_check(salem)):
                ap.error("--st: not the trace polynomial of a Salem number "
                         "that passes the rank-2 trace check")
        except (OSError, UnicodeDecodeError, PolynomialDomainError) as exc:
            ap.error(f"--st: {exc}")
        out = _open_out(ap, args.out)
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
        _write_out(text, out)
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


def _open_out(ap: argparse.ArgumentParser, path: str | None):
    """The --out file opened for writing, or None for stdout.  Each command
    opens it after checking its other arguments and before its work, so
    a path that cannot be written is a usage error that costs nothing."""
    if path is None:
        return None
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        ap.error(f"--out: {exc}")


def _write_out(text: str, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with out:
            out.write(text)


if __name__ == "__main__":
    sys.exit(main())
