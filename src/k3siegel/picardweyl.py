"""Picard lattice, root system, and the Weyl-normalized isometry.

For an accepted pair the Picard lattice has rank rho = 22 - deg S and
standard basis s, As, ..., A^(rho-1) s with s = S(A) r; the intersection
form is negative definite there.  The root system is
Delta = {u in Pic : (u,u) = -2}, split into positive/negative roots by
lexicographic order in the standard basis.  A need not preserve the
Weyl chamber picked out by Delta+, but a unique Weyl group element w_A
does correct it: the chamber walk reflects the one regular vector
A(2 rho_W) in simple roots until it lies in the chamber of Delta+, and
each reflection is an integer rank-one update of the columns of A.
The corrected isometry Atilde = w_A o A is the one that lifts
to an automorphism; its characteristic polynomial is S(z) times a
product of cyclotomic polynomials, and its action on the simple roots
reads off how the automorphism permutes the (-2)-curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from .intpoly import IntPoly, cyclotomic_salem_split
from .hodgeclass import HodgeVerdict, PipelineError
from .hyplattice import RANK, LatticeModel, companion
from . import linalg


@dataclass
class PicardData:
    rho: int
    basis_l: list            # rho vectors, L-coordinates (A-basis of L)
    gram_pic: list           # rho x rho, negative definite
    a_pic: list              # action of A on Pic: companion of phi / S = (z-1)(z+1) C(z)


def picard_lattice(model: LatticeModel, verdict: HodgeVerdict) -> PicardData:
    """Standard basis and Gram matrix of the Picard lattice.

    The form is negative definite on an accepted pair; enumerate_roots
    certifies it, since the LLL reduction of the negated Gram raises
    MatrixDomainError unless every leading minor is positive.
    """
    if not verdict.accepted:
        raise PipelineError("picard_lattice on a rejected pair")
    s_poly = verdict.salem_factor
    rho = RANK - s_poly.degree
    basis = []
    for i in range(rho):
        vec = [0] * RANK
        for k, c in enumerate(s_poly.coeffs):
            vec[i + k] = c
        basis.append(vec)
    gram_basis = [linalg.mat_vec(model.gram, v) for v in basis]
    gram_pic = [[sum(map(mul, u, gv)) for gv in gram_basis] for u in basis]
    if any(gram_pic[i][i] % 2 for i in range(rho)):
        raise PipelineError("Picard form is not even")
    return PicardData(rho=rho, basis_l=basis, gram_pic=gram_pic,
                      a_pic=companion(model.phi // s_poly))


# ---------------------------------------------------------------------------
# root system
# ---------------------------------------------------------------------------

@dataclass
class Component:
    label: str                 # "A", "D" or "E"
    rank: int
    members: list              # indices into simple_roots

    @property
    def name(self) -> str:
        return f"{self.label}{self.rank}"


@dataclass
class RootSystemReport:
    delta_plus: list = field(default_factory=list)    # tuples, Pic coords
    simple_roots: list = field(default_factory=list)  # tuples, Pic coords
    components: list = field(default_factory=list)    # list[Component]
    w_word: list = field(default_factory=list)        # chronological reflections
    a_tilde_pic: list = field(default_factory=list)   # rho x rho
    a_tilde_l: list = field(default_factory=list)     # 22 x 22
    phi1_tilde: IntPoly = IntPoly([1])
    phi1_tilde_factors: dict = field(default_factory=dict)
    trace_a_tilde: int = 0
    component_actions: list = field(default_factory=list)

    def dynkin_name(self) -> str:
        """Canonical serialization like "A1^2+D4"; empty system is "0"."""
        if not self.components:
            return "0"
        counts: dict[str, int] = {}
        for c in self.components:
            counts[c.name] = counts.get(c.name, 0) + 1

        def key(name):
            return (name[0], int(name[1:]))

        parts = []
        for name in sorted(counts, key=key):
            m = counts[name]
            parts.append(name if m == 1 else f"{name}^{m}")
        return "+".join(parts)


def _lex_positive(v: tuple) -> bool:
    for c in v:
        if c:
            return c > 0
    return False


ROOT_COUNTS = {"A": lambda n: n * (n + 1), "D": lambda n: 2 * n * (n - 1),
               "E": lambda n: {6: 72, 7: 126, 8: 240}[n]}


def enumerate_roots(pic: PicardData) -> RootSystemReport:
    """Delta, Delta+, simple roots and Dynkin components of Pic.

    The lexicographic Delta+ is a positive system; its simple roots are
    its roots of height one, picked out by one Gram image of 2 rho =
    sum Delta+: the form is negative definite, so s_i(rho) = rho - alpha_i
    gives (2 rho, alpha_i) = -2, and a positive root of height h pairs
    to -2h (Humphreys, Introduction to Lie Algebras and Representation
    Theory, 10.2).
    """
    report = RootSystemReport()
    if pic.rho == 0:
        return report
    neg_gram = [[-x for x in row] for row in pic.gram_pic]
    reps = linalg.short_vectors(neg_gram, 2)
    delta_plus = []
    for v in reps:
        delta_plus.append(v if _lex_positive(v) else tuple(-c for c in v))
    delta_plus.sort()
    report.delta_plus = delta_plus

    g_rho = linalg.mat_vec(pic.gram_pic, [sum(col) for col in zip(*delta_plus)])
    simple = [u for u in delta_plus if sum(map(mul, g_rho, u)) == -2]
    report.simple_roots = simple

    # components of the graph with edges (u, v) = 1
    n = len(simple)
    g_simple = [linalg.mat_vec(pic.gram_pic, u) for u in simple]
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            val = sum(map(mul, g_simple[i], simple[j]))
            if val == 1:
                adj[i].append(j)
                adj[j].append(i)
            elif val not in (0, 1):
                raise PipelineError("simple roots with pairing outside {0, 1}")
    seen = [False] * n
    comps = []
    for i in range(n):
        if seen[i]:
            continue
        stack, members = [i], []
        seen[i] = True
        while stack:
            k = stack.pop()
            members.append(k)
            for j in adj[k]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(members))
    report.components = [_label_component(adj, members) for members in comps]

    expected = sum(ROOT_COUNTS[c.label](c.rank) for c in report.components)
    if expected != 2 * len(delta_plus):
        raise PipelineError("root count disagrees with the Dynkin type")
    if sum(c.rank for c in report.components) != n:
        raise PipelineError("simple root count disagrees with component ranks")
    return report


def _label_component(adj, members) -> Component:
    """Classify a connected simply-laced diagram by its arm structure."""
    degs = {m: sum(1 for j in adj[m] if j in set(members)) for m in members}
    n = len(members)
    tri = [m for m in members if degs[m] == 3]
    if any(degs[m] > 3 for m in members):
        raise PipelineError("diagram vertex of degree > 3")
    if not tri:
        # a chain: two endpoints of degree 1 (none for a single vertex)
        endpoints = sum(1 for m in members if degs[m] == 1)
        if n > 1 and endpoints != 2:
            raise PipelineError("cyclic or broken A-chain")
        return Component("A", n, members)
    if len(tri) > 1:
        raise PipelineError("more than one trivalent node")
    node = tri[0]
    mem = set(members)
    arms = []
    for start in adj[node]:
        if start not in mem:
            continue
        length, prev, cur = 1, node, start
        while True:
            nxt = [j for j in adj[cur] if j != prev and j in mem]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return Component("D", n, members)
    if arms[0] == 1 and arms[1] == 2 and n in (6, 7, 8):
        return Component("E", n, members)
    raise PipelineError(f"unrecognized arm pattern {arms}")


# ---------------------------------------------------------------------------
# chamber walk
# ---------------------------------------------------------------------------

def _reflect_columns(m: list, word: list, gram: list) -> list:
    """w o M for w = s_(u_k) ... s_(u_1), the word listed u_1 first.

    Each reflection s_u(x) = x + (x, u) u, (u, u) = -2, is a rank-one
    update of every column of M, in place on a copy: O(n^2) a step.
    """
    cols = linalg.transpose(m)
    for u in word:
        gu = linalg.mat_vec(gram, u)
        for col in cols:
            c = sum(g * x for g, x in zip(gu, col))
            if c:
                col[:] = [x + c * y for x, y in zip(col, u)]
    return linalg.transpose(cols)


def chamber_walk(pic: PicardData, report: RootSystemReport) -> RootSystemReport:
    """Find w_A with (w_A o A)(Delta+) = Delta+ and assemble Atilde.

    Walk one regular vector v = A(2 rho_W), 2 rho_W the sum of Delta+,
    whose chamber is the one of A(Delta+).  The form is negative
    definite, so a simple root u is negated in the current chamber
    exactly when (u, v) > 0; reflect v in the least such u until none
    is left.  Each step reduces the number of negated positive roots by
    one, so the walk ends after at most |Delta+| steps.
    """
    gram = pic.gram_pic
    g_simple = [(u, linalg.mat_vec(gram, u)) for u in sorted(report.simple_roots)]
    v = linalg.mat_vec(pic.a_pic, [sum(col) for col in zip(*report.delta_plus)])
    word = []
    guard = len(report.delta_plus) + 1
    while True:
        for u, gu in g_simple:
            c = sum(g * x for g, x in zip(gu, v))
            if c > 0:
                break
        else:
            break  # v is in the chamber of Delta+
        v = [x + c * y for x, y in zip(v, u)]
        word.append(u)
        if len(word) > guard:
            raise PipelineError("chamber walk exceeded the Weyl bound")
    report.w_word = word
    a_tilde_pic = _reflect_columns(pic.a_pic, word, gram)
    report.a_tilde_pic = a_tilde_pic

    # postcondition: Atilde preserves Delta+
    image = {tuple(linalg.mat_vec(a_tilde_pic, x)) for x in report.delta_plus}
    if image != set(report.delta_plus):
        raise PipelineError("Atilde does not preserve Delta+")

    report.phi1_tilde = linalg.charpoly(a_tilde_pic)
    factors, residual = cyclotomic_salem_split(report.phi1_tilde)
    if not residual.is_one():
        raise PipelineError("char poly of Atilde|Pic is not a cyclotomic product")
    report.phi1_tilde_factors = factors
    return report


def assemble_full_isometry(model: LatticeModel, pic: PicardData,
                           report: RootSystemReport, salem_factor: IntPoly) -> RootSystemReport:
    """Atilde on all of L, its trace, and the factored char polynomial."""
    word_l = [[sum(u[i] * pic.basis_l[i][k] for i in range(pic.rho)) for k in range(RANK)]
              for u in report.w_word]
    a_tilde_l = _reflect_columns(model.a_mat, word_l, model.gram)
    report.a_tilde_l = a_tilde_l
    report.trace_a_tilde = int(linalg.trace(a_tilde_l))
    # cross-check: trace = trace on Pic + trace of the Salem companion
    tr_pic = int(linalg.trace(report.a_tilde_pic)) if pic.rho else 0
    tr_salem = -salem_factor[salem_factor.degree - 1]
    if report.trace_a_tilde != tr_pic + tr_salem:
        raise PipelineError("trace bookkeeping mismatch between L and Pic")
    return report


# ---------------------------------------------------------------------------
# action on the simple roots
# ---------------------------------------------------------------------------

@dataclass
class ComponentAction:
    component: Component
    kind: str                  # "trivial" | "nontrivial" | "moved"
    partner: int | None = None # index of the image component when moved


def action_analysis(pic: PicardData, report: RootSystemReport) -> RootSystemReport:
    """Permutation of the simple roots under Atilde, per component."""
    if pic.rho == 0 or not report.simple_roots:
        report.component_actions = []
        return report
    index = {v: i for i, v in enumerate(report.simple_roots)}
    perm = []
    for v in report.simple_roots:
        img = tuple(linalg.mat_vec(report.a_tilde_pic, list(v)))
        if img not in index:
            raise PipelineError("image of a simple root is not simple")
        perm.append(index[img])

    comp_of = {}
    for ci, comp in enumerate(report.components):
        for m in comp.members:
            comp_of[m] = ci
    actions = []
    for ci, comp in enumerate(report.components):
        images = {comp_of[perm[m]] for m in comp.members}
        if len(images) != 1:
            raise PipelineError("component image is not a single component")
        target = images.pop()
        if target != ci:
            actions.append(ComponentAction(comp, "moved", target))
        elif all(perm[m] == m for m in comp.members):
            actions.append(ComponentAction(comp, "trivial"))
        else:
            if comp.label == "E" and comp.rank in (7, 8):
                raise PipelineError("nontrivial diagram action on E7/E8")
            actions.append(ComponentAction(comp, "nontrivial"))
    report.component_actions = actions
    return report


def analyze_root_system(model: LatticeModel, verdict: HodgeVerdict) -> tuple[PicardData, RootSystemReport]:
    """Full Picard/Weyl pipeline for an accepted pair."""
    pic = picard_lattice(model, verdict)
    report = enumerate_roots(pic)
    if pic.rho:
        report = chamber_walk(pic, report)
    else:
        report.a_tilde_pic = []
        report.phi1_tilde = IntPoly([1])
    report = assemble_full_isometry(model, pic, report, verdict.salem_factor)
    report = action_analysis(pic, report)
    return pic, report
