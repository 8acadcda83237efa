"""Picard lattice, root system, and the Weyl-normalized isometry.

For an accepted pair the Picard lattice has rank rho = 22 - deg S and
standard basis s, As, ..., A^(rho-1) s with s = S(A) r; the intersection
form is negative definite there.  The root system is
Delta = {u in Pic : (u,u) = -2}, split into positive/negative roots by
lexicographic order in the standard basis.  The Cartan matrix of the
simple roots splits into connected blocks, the Dynkin components, and
each block's type is named by its rank and determinant (n + 1 for A_n,
4 for D_n, 9 - n for E_n).  A need not preserve the Weyl chamber
picked out by Delta+, but a unique Weyl group element w_A does correct
it: the chamber walk reflects the one regular vector
A(2 rho_W) in simple roots until it lies in the chamber of Delta+, and
each reflection is an integer rank-one update of the columns of A|Pic.
The corrected isometry Atilde = w_A o A is the one that lifts to an
automorphism.  The reflections fix Pic^perp = ker S(A) pointwise, so
the pipeline keeps Atilde on Pic: its characteristic polynomial is S(z)
times a product of cyclotomic polynomials, its trace on H^2 is
tr(Atilde|Pic) - s_(deg S - 1), and its action on the simple roots
reads off how the automorphism permutes the (-2)-curves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import mul

from .intpoly import IntPoly, cyclotomic_salem_split
from .hodgeclass import HodgeVerdict, PipelineError
from .hyplattice import RANK, LatticeModel, companion
from . import linalg


@dataclass
class PicardData:
    rho: int
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
    basis = pic_basis(s_poly)
    gram_basis = [linalg.mat_vec(model.gram, v) for v in basis]
    gram_pic = [[sum(map(mul, u, gv)) for gv in gram_basis] for u in basis]
    if any(row[i] % 2 for i, row in enumerate(gram_pic)):
        raise PipelineError("Picard form is not even")
    return PicardData(rho=len(basis), gram_pic=gram_pic, a_pic=companion(model.phi // s_poly))


def pic_basis(s_poly: IntPoly) -> list:
    """s, As, ..., A^(rho-1) s in the A-basis of L: S's coefficients shifted by i."""
    rho = RANK - s_poly.degree
    return [[0] * i + list(s_poly.coeffs) + [0] * (rho - 1 - i) for i in range(rho)]


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
    phi1_tilde: IntPoly = IntPoly([1])
    phi1_tilde_factors: dict = field(default_factory=dict)
    trace_a_tilde: int = 0
    component_actions: list = field(default_factory=list)

    def dynkin_name(self) -> str:
        """Canonical serialization like "A1^2+D4"; empty system is "0"."""
        counts = Counter((c.label, c.rank) for c in self.components)
        return "+".join(f"{label}{rank}" if m == 1 else f"{label}{rank}^{m}"
                        for (label, rank), m in sorted(counts.items())) or "0"


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
    Theory, 10.2).  The Cartan matrix of the simple roots is their
    negated pairing matrix; its connected blocks are the components,
    each named by dynkin_label.
    """
    report = RootSystemReport()
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

    n = len(simple)
    cartan = linalg.mat_mul(linalg.mat_mul(simple, neg_gram), linalg.transpose(simple))
    if any(cartan[i][j] not in (0, -1) for i in range(n) for j in range(i)):
        raise PipelineError("simple roots with pairing outside {0, 1}")
    blocks = []  # connected blocks of the Cartan matrix, as sorted index lists
    for i in range(n):
        linked = [b for b in blocks if any(cartan[i][j] for j in b)]
        blocks = [b for b in blocks if b not in linked] + [sorted([i, *sum(linked, [])])]
    for members in sorted(blocks):
        block = [[cartan[a][b] for b in members] for a in members]
        report.components.append(Component(dynkin_label(block), len(members), members))

    expected = sum(ROOT_COUNTS[c.label](c.rank) for c in report.components)
    if expected != 2 * len(delta_plus):
        raise PipelineError("root count disagrees with the Dynkin type")
    return report


def dynkin_label(cartan: list) -> str:
    """"A", "D" or "E": the type of a connected simply-laced Cartan
    matrix of roots in a definite lattice, which is positive
    semidefinite.  Its rank n and determinant name the type: n + 1 for
    A_n, 4 for D_n (n >= 4) and 9 - n for E_6, E_7, E_8 (Humphreys,
    11.4), and no two of these share both.  A positive determinant
    makes the matrix positive definite, and a connected positive
    definite one is of type A, D or E; every other pair, such as det 0
    for dependent roots, raises PipelineError.
    """
    n, det = len(cartan), linalg.bareiss_det(cartan)
    if det == n + 1:
        return "A"
    if det == 4 and n >= 4:
        return "D"
    if det == 9 - n and n in (6, 7, 8):
        return "E"
    raise PipelineError(f"no A, D or E type has rank {n} and Cartan determinant {det}")


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
    """Find w_A with (w_A o A)(Delta+) = Delta+ and form Atilde|Pic.

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


def assemble_full_isometry(model: LatticeModel, report: RootSystemReport,
                           salem_factor: IntPoly) -> list:
    """Atilde = w_A o A on all of L, on demand: the pipeline reads only Atilde|Pic, and the
    one reader, acceptance.criterion_structural_properties, checks it against the form,
    trace_a_tilde and Atilde|Pic."""
    basis_t = linalg.transpose(pic_basis(salem_factor))
    word_l = [linalg.mat_vec(basis_t, u) for u in report.w_word]
    return _reflect_columns(companion(model.phi), word_l, model.gram)


# ---------------------------------------------------------------------------
# action on the simple roots
# ---------------------------------------------------------------------------

@dataclass
class ComponentAction:
    component: Component
    kind: str                  # "trivial" | "nontrivial" | "moved"
    partner: int | None = None # index of the image component when moved


def action_analysis(report: RootSystemReport) -> RootSystemReport:
    """Permutation of the simple roots under Atilde, per component."""
    index = {v: i for i, v in enumerate(report.simple_roots)}
    perm = []
    for v in report.simple_roots:
        img = tuple(linalg.mat_vec(report.a_tilde_pic, list(v)))
        if img not in index:
            raise PipelineError("image of a simple root is not simple")
        perm.append(index[img])

    comp_of = {m: ci for ci, comp in enumerate(report.components) for m in comp.members}
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
    """Full Picard/Weyl pipeline for an accepted pair; TrA = tr(Atilde|Pic) + tr(A|T)."""
    pic = picard_lattice(model, verdict)
    report = chamber_walk(pic, enumerate_roots(pic))
    s_poly = verdict.salem_factor
    report.trace_a_tilde = linalg.trace(report.a_tilde_pic) - s_poly[s_poly.degree - 1]
    report = action_analysis(report)
    return pic, report
