"""The benchmark's workloads: set-up, the timed region, and the output checks.

Each workload runs once per fresh process (see worker.py) and calls the
program only through its public functions, with workers=1.  It returns a
Round: set-up and timed seconds, the (phi, psi) pairs covered, the rows
produced, and the operations that failed a check.  Checks run after the
timed region and compare against sympy (oracle.py), the paper's published
tables, or properties the method must have.
"""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass, field
from math import gcd

import numpy as np

import k3siegel  # noqa: F401  (loads every layer module before tracing installs)
from k3siegel import acceptance, cli, salemlib, setup2
from k3siegel.intpoly import IntPoly, cyclotomic

from speedprobe import PROBE

# rho18-search: a census slice with the census's balance of prefilter work
# (pairs) and gate work (prefilter-passing pairs, "tasks"), the same for every
# seed.  The census words are sorted by their tasks and cut into SLICE_WORDS
# bins of equal size; for each bin the seed picks a word whose task count is
# the bin's mean, rounded.  Words with published rows are left out: the
# accepted-pair path is what rho18-table measures.
SLICE_WORDS = 8
REJECTION_SAMPLE = 200           # prefilter rejections re-checked in sympy

# rho18-table: every tenth published row in descending (root count, psi id)
# order, which starts at the Siegel row (psi id 523).  The seed shuffles the
# order in which they run.  Four rows keep a round short enough that a run
# holds two or three, census included.
TABLE_STRIDE = 10

# setup1-search: the two store degrees whose rows the paper publishes.
SETUP1_DEGREES = (20, 18)
# The published degree-18 row: S22^(18) with C4 against S1^(6) with C48.
SETUP1_DEG18_ROW = ("S22^(18)", "C4", "S1^(6)", "C48", 4, "A1^2", "C1 C2 C4", -1, "S")

# acceptance-fast: the criteria `verify-tables --fast` runs, with
# structural-properties on STRUCTURAL_PAIRS lattice pairs instead of 200, and
# without the rank-2 certification: its elimination is the one setup1-search
# already times, and the two together overran the run budget.
STRUCTURAL_PAIRS = 20
ACCEPTANCE_SKIP = {"picard2-certification"}
ACCEPTANCE_CRITERIA = [name for name, _, _ in acceptance.CRITERIA
                       if name not in acceptance.SLOW and name not in ACCEPTANCE_SKIP]

Z2S4 = IntPoly([-1, 0, 1]) * IntPoly([1, -1, -1, -1, 1])
# Rule 1-ii certifies a Siegel point by a minimal polynomial of P(tau) that is
# not monic; for psi id 523 it is 27 z^2 - 11 z + 1 (ascending coefficients).
WITNESS_523 = IntPoly([1, -11, 27])


@dataclass
class Round:
    setup_s: float = 0.0       # set-up seconds, corrected for the host's speed
    wall_s: float = 0.0        # timed seconds, corrected for the host's speed
    raw_wall_s: float = 0.0    # timed seconds as the clock read them
    pairs: int = 0
    peak_rss_mb: float = 0.0
    rows: list = field(default_factory=list)      # output rows, for stage counts
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # operation -> reason

    def fail(self, op, reason: str):
        self.failures.setdefault(op, reason)

    def measured(self, clock: "Clock"):
        """Close the timed region: record its seconds and the peak memory so far."""
        self.wall_s = clock.corrected()
        self.raw_wall_s = clock.seconds()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Clock:
    """Keeps the intervals of its `with` blocks.  Their seconds leave out the
    speed probe's own (speedprobe.py)."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.intervals.append((self._t0, time.perf_counter()))

    def seconds(self) -> float:
        return sum(b - a - PROBE.probe_seconds(a, b) for a, b in self.intervals)

    def corrected(self) -> float:
        """The seconds at the quiet host's speed."""
        return sum(PROBE.corrected(a, b) for a, b in self.intervals)


class PairRows:
    """Keeps the rows cli.analyze_pair returns, for the checks."""

    def __init__(self):
        self.rows: list = []
        inner = cli.analyze_pair

        def recorded(*args, **kwargs):
            row = inner(*args, **kwargs)
            self.rows.append(row)
            return row

        cli.analyze_pair = recorded


def _cset(label: str) -> tuple[int, ...]:
    return () if label == "1" else tuple(sorted(int(tok[1:]) for tok in label.split()))


def _phi_setup2(cset) -> IntPoly:
    phi = Z2S4
    for j in cset:
        phi = phi * cyclotomic(j)
    return phi


def _multiset_diff(a: list, b: list) -> list:
    rest = list(b)
    out = []
    for x in a:
        if x in rest:
            rest.remove(x)
        else:
            out.append(x)
    return out


def check_row(rnd: Round, op, row, phi, psi):
    """Confirm in sympy the gate verdicts a row states or implies."""
    import oracle

    text = row.rejection or ""
    res = oracle.resultant(phi, psi)
    if text.startswith("internal"):
        rnd.fail(op, text)
    elif text == "phi and psi must be coprime":
        if res != 0:
            rnd.fail(op, f"'{text}' but sympy Res = {res}")
    elif text == "resultant is not a unit":      # the gate runs on coprime pairs only
        if abs(res) in (0, 1):
            rnd.fail(op, f"'{text}' but sympy Res = {res}")
    elif abs(res) != 1:
        rnd.fail(op, f"passed the unimodularity gate but sympy Res = {res}")
    else:
        sig = oracle.renormalized_signature(phi, psi)
        if text.startswith("signature"):
            stated = tuple(int(x) for x in text.split("(")[1].split(")")[0].split(","))
            if sig != stated or sig == (3, 19):
                rnd.fail(op, f"'{text}' but sympy gives {sig}")
        elif sig != (3, 19):
            rnd.fail(op, f"passed the signature gate but sympy gives {sig}")


# ---------------------------------------------------------------------------
# rho18-search: census, prefilter and the reject gates
# ---------------------------------------------------------------------------

def prefilter_estimate(words: list[tuple], pool: list[int]) -> np.ndarray:
    """unit[w, q]: |Res(C_pool[q], psi_w)| == 1, estimated in floating point as
    the product of |psi(zeta)| over the primitive roots of unity zeta.  It
    only shapes the slice; no check reads it."""
    coeffs = np.array([[1, *w, *reversed(w[:-1]), 1] for w in words], dtype=float)
    powers = np.arange(coeffs.shape[1])
    unit = np.zeros((len(words), len(pool)), dtype=bool)
    for q, j in enumerate(pool):
        ks = np.array([k for k in range(1, j) if gcd(k, j) == 1])
        absval = np.abs(coeffs @ np.exp(2j * np.pi * np.outer(powers, ks) / j))
        log_res = np.log(np.maximum(absval, 1e-300)).sum(axis=1)
        unit[:, q] = (absval.min(axis=1) > 1e-6) & (np.abs(log_res) < 0.2)
    return unit


def word_tasks(cands) -> list[int]:
    """Estimated prefilter-passing pairs of each census word."""
    csets = cli.cyclotomic_sets(16)
    pool = sorted({j for cs in csets for j in cs})
    col = {j: q for q, j in enumerate(pool)}
    unit = prefilter_estimate([c.coeffs for c in cands], pool)
    tasks = sum(unit[:, [col[j] for j in cs]].all(axis=1).astype(int) for cs in csets)
    return tasks.tolist()


def choose_slice(cands, seed: int) -> list:
    """One seeded word per bin of the census sorted by tasks, with the bin's
    mean task count."""
    tasks = word_tasks(cands)
    ranked = sorted(tasks)
    published = {pid for _, pid, *_ in acceptance.RHO18_TABLE}
    rng = random.Random(seed)
    pick: list[int] = []
    for i in range(SLICE_WORDS):
        part = ranked[i * len(ranked) // SLICE_WORDS:(i + 1) * len(ranked) // SLICE_WORDS]
        want = round(sum(part) / len(part))
        pick.append(rng.choice([w for w, t in enumerate(tasks) if t == want and w not in pick
                                and cands[w].id not in published]))
    return sorted((cands[w] for w in pick), key=lambda c: c.id)


def rho18_search(seed: int, recorder: PairRows, tracer=None) -> Round:
    rnd = Round()
    clock = Clock()
    with clock:
        salemlib.load_store()
        cands = setup2.enumerate_setup2()
    setup = Clock()
    with setup:
        chosen = choose_slice(cands, seed)
    rnd.setup_s = setup.corrected()
    with clock:
        rows = cli.search_setup2(workers=1, include_rejections=True, candidates=chosen)
        cli.emit(rows)
    rnd.measured(clock)
    csets = [tuple(sorted(cs)) for cs in cli.cyclotomic_sets(16)]
    rnd.pairs = rnd.attempted = len(csets) * len(chosen)
    rnd.rows = rows
    _check_rho18_search(rnd, seed, chosen, csets, rows, recorder)
    return rnd


def _check_rho18_search(rnd, seed, chosen, csets, rows, recorder):
    import oracle

    ids = {c.id for c in chosen}
    by_op: dict[tuple, object] = {}
    for row in rows:
        op = (_cset(row.c_label), int(row.aux_c_label))
        if op in by_op or op[1] not in ids:
            rnd.fail(op, "duplicate or unexpected output row")
        by_op[op] = row
    for cs in csets:
        for pid in ids:
            if (cs, pid) not in by_op:
                rnd.fail((cs, pid), "no output row")

    # every census word of the slice, re-derived in sympy
    s4 = oracle.poly(oracle.S4)
    psis = {}
    for cand in chosen:
        psi = psis[cand.id] = oracle.census_psi(cand.coeffs)
        reason = None
        if list(cand.psi().coeffs) != list(reversed(psi.all_coeffs())):
            reason = "psi() differs from its word"
        elif abs(oracle.resultant(psi, s4)) != 1:
            reason = "Res(psi, S4) is not a unit"
        elif oracle.trace_roots_inside(psi) not in (8, 10):
            reason = "trace polynomial lacks 8 or 10 roots in (-2, 2)"
        if reason:
            for cs in csets:
                rnd.fail((cs, cand.id), f"census word {cand.id}: {reason}")

    # accepted rows against the paper's table; the Siegel mark only on 523
    got = sorted(_table_key(r) for r in rows if r.accepted())
    want = sorted(k for k in _published_setup2() if k[1] in ids)
    for key in _multiset_diff(want, got):
        rnd.fail(key[:2], f"published row {key} missing")
    for key in _multiset_diff(got, want):
        rnd.fail(key[:2], f"row {key} is not in the published table")
    for r in rows:
        if r.accepted() and (r.sd == "S") != (r.aux_c_label == "523"):
            rnd.fail((_cset(r.c_label), int(r.aux_c_label)),
                     f"Siegel mark {r.sd!r} on psi id {r.aux_c_label}")

    # rejections: every pipeline-decided one, and a seeded sample of the prefilter's
    analyzed = {(_cset(r.c_label), int(r.aux_c_label)) for r in recorder.rows}
    phis = {}

    def phi_of(cset):
        if cset not in phis:
            phis[cset] = oracle.phi_setup2(cset)
        return phis[cset]

    prefiltered = []
    for op, row in sorted(by_op.items()):
        if row.accepted():
            continue
        if op in analyzed:
            check_row(rnd, op, row, phi_of(op[0]), psis[op[1]])
        else:
            prefiltered.append((op, row))
    rng = random.Random(seed)
    for op, row in rng.sample(prefiltered, min(REJECTION_SAMPLE, len(prefiltered))):
        res = oracle.resultant(phi_of(op[0]), psis[op[1]])
        if row.rejection != "resultant is not a unit" or abs(res) == 1:
            rnd.fail(op, f"prefilter row {row.rejection!r} but sympy Res = {res}")


def _published_setup2() -> list[tuple]:
    return sorted((tuple(sorted(cset)), pid, st, dyn, phi1, tr)
                  for cset, pid, st, dyn, phi1, tr in acceptance.RHO18_TABLE)


def _table_key(row) -> tuple:
    return (_cset(row.c_label), int(row.aux_c_label), row.st_index, row.dynkin,
            row.phi1_tilde, row.trace_a_tilde)


# ---------------------------------------------------------------------------
# rho18-table: the accepted-pair pipeline
# ---------------------------------------------------------------------------

def positive_roots(dynkin: str) -> int:
    """|Delta+| of a Dynkin type such as "A1^5+E6^2"; "0" is the empty system."""
    if dynkin == "0":
        return 0
    total = 0
    for part in dynkin.split("+"):
        name, _, mult = part.partition("^")
        kind, rank = name[0], int(name[1:])
        roots = {"A": rank * (rank + 1) // 2, "D": rank * (rank - 1),
                 "E": {6: 36, 7: 63, 8: 120}.get(rank, 0)}[kind]
        total += roots * int(mult or 1)
    return total


def table_rows() -> list[tuple]:
    ordered = sorted(acceptance.RHO18_TABLE, key=lambda r: (positive_roots(r[3]), r[1], r[0]),
                     reverse=True)
    return ordered[::TABLE_STRIDE]


def rho18_table(seed: int, recorder: PairRows, tracer=None) -> Round:
    rnd = Round()
    setup = Clock()
    with setup:
        cands = setup2.enumerate_setup2()
        published = table_rows()
        random.Random(seed).shuffle(published)
        pairs = [(_phi_setup2(cset), cands[pid - 1].psi()) for cset, pid, *_ in published]
    rnd.setup_s = setup.corrected()
    clock = Clock()
    out = []
    with clock:
        for phi, psi in pairs:
            row = cli.analyze_pair(phi, psi)
            cli.emit([row])
            out.append(row)
    rnd.measured(clock)
    rnd.pairs = rnd.attempted = len(out)
    rnd.rows = out

    import oracle

    for (cset, pid, st, dyn, phi1, tr), row in zip(published, out):
        op = (tuple(sorted(cset)), pid)
        got = (row.st_index, row.dynkin, row.phi1_tilde, row.trace_a_tilde)
        if got != (st, dyn, phi1, tr):
            rnd.fail(op, f"row {op}: {got} != published {(st, dyn, phi1, tr)}")
        if pid == 523:
            v = row.verdicts[0] if row.verdicts else None
            if not (row.sd == "S" and v and v.rule == "1-ii" and v.witness == WITNESS_523
                    and oracle.is_integrality_witness(v.witness.coeffs)):
                rnd.fail(op, f"row 523: SD {row.sd!r}, rule {v and v.rule}, "
                             f"witness {v and v.witness}")
        elif row.sd == "S":
            rnd.fail(op, f"row {op} is Siegel-marked")
        psi = oracle.census_psi(cands[pid - 1].coeffs)
        if abs(oracle.resultant(oracle.phi_setup2(cset), psi)) != 1:
            rnd.fail(op, f"row {op}: sympy Res is not a unit")
    return rnd


# ---------------------------------------------------------------------------
# setup1-search: Salem times cyclotomic, no prefilter, the rank-2 elimination
# ---------------------------------------------------------------------------

def setup1_search(seed: int, recorder: PairRows, tracer=None) -> Round:
    rnd = Round()
    clock = Clock()
    by_degree = {}
    with clock:
        store = salemlib.load_store()
        for degree in SETUP1_DEGREES:
            by_degree[degree] = cli.search_setup1(store, degree, include_rejections=True,
                                                  workers=1)
            cli.emit(by_degree[degree])
    rnd.measured(clock)
    rnd.rows = [r for rows in by_degree.values() for r in rows]
    rnd.pairs = rnd.attempted = len(rnd.rows)

    import oracle

    def ops(rows):
        return [(r.s_label, r.c_label, r.aux_s_label, r.aux_c_label) for r in rows]

    spot = sorted((cli.salem_label(*key), f"C{l}", st, "A1", "C1 C2", 1, sd)
                  for key, l, st, sd in acceptance.RHO2_SPOT_ROWS)
    got20 = sorted((r.aux_s_label, r.aux_c_label, r.st_index, r.dynkin, r.phi1_tilde,
                    r.trace_a_tilde, r.sd) for r in by_degree[20] if r.accepted())
    if got20 != spot:
        for op in ops(by_degree[20]):
            rnd.fail(op, f"degree-20 rows {got20} != published {spot}")
    got18 = [(*op, r.st_index, r.dynkin, r.phi1_tilde, r.trace_a_tilde, r.sd)
             for op, r in zip(ops(by_degree[18]), by_degree[18]) if r.accepted()]
    if got18 != [SETUP1_DEG18_ROW]:
        for op in ops(by_degree[18]):
            rnd.fail(op, f"degree-18 rows {got18} != published {SETUP1_DEG18_ROW}")

    def label_poly(salem: str, cyclo: str):
        index, degree = salem[1:].rstrip(")").split("^(")
        trace = store[(int(degree), int(index))].trace_poly
        return oracle.product(oracle.salem_from_trace(list(reversed(trace.coeffs))),
                              *(oracle.cyclotomic(j) for j in _cset(cyclo)))

    seen = set()
    for op, row in zip(ops(rnd.rows), rnd.rows):
        if op in seen:
            rnd.fail(op, "duplicate output row")
        seen.add(op)
        phi = oracle.product(oracle.poly(oracle.Z2), label_poly(op[0], op[1]))
        check_row(rnd, op, row, phi, label_poly(op[2], op[3]))
    return rnd


# ---------------------------------------------------------------------------
# acceptance-fast: the acceptance suite's fast criteria
# ---------------------------------------------------------------------------

def acceptance_fast(seed: int, recorder: PairRows, tracer=None) -> Round:
    rnd = Round()
    clock = Clock()
    results = {}
    with clock:
        for name, fn, takes_workers in acceptance.CRITERIA:
            if name not in ACCEPTANCE_CRITERIA:
                continue
            if name == "structural-properties":
                args = (STRUCTURAL_PAIRS,)
            else:
                args = (1,) if takes_workers else ()
            try:
                if tracer is not None:
                    results[name] = tracer.span(f"acceptance.{name}", fn, *args)
                else:
                    results[name] = fn(*args)
            except Exception as exc:  # a crash is a failed criterion, as in run_all
                results[name] = (False, f"exception: {exc!r}")
    rnd.measured(clock)
    rnd.attempted = len(ACCEPTANCE_CRITERIA)
    rnd.pairs = STRUCTURAL_PAIRS + 1      # structural-properties' pairs, and rho18-pipeline's
    rnd.rows = recorder.rows
    for name in ACCEPTANCE_CRITERIA:
        ok, detail = results.get(name, (False, "did not run"))
        if not ok:
            rnd.fail(name, f"criterion {name}: {detail}")
    return rnd


WORKLOADS = {
    "rho18-search": rho18_search,
    "rho18-table": rho18_table,
    "setup1-search": setup1_search,
    "acceptance-fast": acceptance_fast,
}
