import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy

from k3siegel import linalg
from k3siegel.intpoly import IntPoly
from k3siegel.linalg import (
    MatrixDomainError,
    _swap_minors,
    _symmetric_bareiss,
    bareiss_det,
    charpoly,
    identity,
    inertia,
    lll_reduce,
    mat_eq,
    mat_mul,
    short_vectors,
    solve,
    transpose,
)


def fraction_det(m):
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def test_bareiss_matches_fraction_elimination():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(m) == fraction_det(m)


def test_inverse_and_identity():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if bareiss_det(m) == 0:
            continue
        inv = [[Fraction(int(x.p), int(x.q)) for x in row]
               for row in sympy.Matrix(m).inv().tolist()]
        assert mat_eq(mat_mul(m, inv), identity(n))


def test_solve_matches_sympy():
    # the Cramer form (det A^(-1) B, det A), columns of B on their own
    rng = random.Random(23)
    for _ in range(60):
        n, m = rng.randint(1, 8), rng.randint(0, 3)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            a[0][0] = 0  # force a pivot search
        b = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        det = sympy.Matrix(a).det()
        if det == 0:
            with pytest.raises(ZeroDivisionError):
                solve(a, b)
            continue
        want = det * sympy.Matrix(a).inv() * sympy.Matrix(n, m, sum(b, []))
        assert solve(a, b) == ([[int(want[i, j]) for i in range(n)] for j in range(m)], det)


@pytest.mark.parametrize("a", [
    [[0]],
    [[1, 2], [2, 4]],
    [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
    [[1, 2, 3, 4], [2, 3, 4, 5], [3, 4, 5, 6], [1, 1, 1, 1]],
])
def test_solve_singular_matrix_raises(a):
    with pytest.raises(ZeroDivisionError):
        solve(a, [[1] for _ in a])


def test_corrupted_elimination_makes_solve_raise(monkeypatch):
    # a wrong entry in the triangular system shows as an inexact
    # division in the back substitution, never as a wrong answer
    bareiss = linalg._bareiss

    def corrupt(rows, n):
        sign = bareiss(rows, n)
        rows[0][n] += 1
        return sign

    a, b = [[2, 1], [1, 1]], [[3], [2]]
    assert solve(a, b) == ([[1, 1]], 1)
    monkeypatch.setattr(linalg, "_bareiss", corrupt)
    with pytest.raises(MatrixDomainError, match="inexact division"):
        solve(a, b)


def test_linalg_imports_nothing_from_fractions():
    # the linear algebra is integral: no rational type rides along
    tree = ast.parse(Path(linalg.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "fractions"
        elif isinstance(node, ast.Import):
            assert all(a.name != "fractions" for a in node.names)


def test_inertia_diagonal():
    assert inertia([[2, 0], [0, -2]]) == ((1, 1, 0), -4)
    assert inertia([[2, 0], [0, 2]]) == ((2, 0, 0), 4)
    assert inertia([[0, 1], [1, 0]]) == ((1, 1, 0), -1)
    assert inertia([[0, 0], [0, 0]]) == ((0, 0, 2), 0)


def test_inertia_congruence_random():
    # inertia is invariant under congruence by unimodular matrices
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(2, 5)
        diag = [rng.choice([-3, -1, 0, 1, 2]) for _ in range(n)]
        d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        u = identity(n)
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                for k in range(n):
                    u[i][k] += c * u[j][k]
        m = mat_mul(mat_mul(u, d), transpose(u))
        pos = sum(1 for x in diag if x > 0)
        neg = sum(1 for x in diag if x < 0)
        zero = n - pos - neg
        assert inertia(m)[0] == (pos, neg, zero)


def test_charpoly_companion():
    # companion matrix of z^3 - 2z - 5
    m = [[0, 0, 5], [1, 0, 2], [0, 1, 0]]
    assert charpoly(m) == IntPoly([-5, -2, 0, 1])
    assert charpoly([]) == IntPoly([1])


def test_charpoly_random_trace_det():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        p = charpoly(m)
        tr = sum(m[i][i] for i in range(n))
        assert p[n - 1] == -tr
        assert p[0] == (-1) ** n * bareiss_det(m)


def box_short_vectors(gram, norm):
    """Brute-force oracle: search an explicit coordinate box."""
    n = len(gram)
    bound = 6
    out = set()
    for v in itertools.product(range(-bound, bound + 1), repeat=n):
        if all(c == 0 for c in v):
            continue
        q = sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
        if q == norm:
            w = list(v)
            for c in reversed(w):
                if c != 0:
                    if c < 0:
                        w = [-t for t in w]
                    break
            out.add(tuple(w))
    return sorted(out)


def test_short_vectors_small_lattices():
    # A2 root lattice: 6 roots of norm 2, i.e. 3 up to sign
    a2 = [[2, -1], [-1, 2]]
    assert len(short_vectors(a2, 2)) == 3
    # D4: 24 roots
    d4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
    assert len(short_vectors(d4, 2)) == 12
    assert short_vectors(d4, 2) == box_short_vectors(d4, 2)


def test_short_vectors_random_vs_box():
    rng = random.Random(23)
    trials = 0
    while trials < 15:
        n = rng.randint(2, 4)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        g = mat_mul(b, transpose(b))
        for i in range(n):
            g[i][i] += 1  # force positive definite
        norm = rng.choice([1, 2, 3, 4])
        assert short_vectors(g, norm) == box_short_vectors(g, norm)
        trials += 1


def unreduced_gram(rng, n, even=False):
    """(gram, gram0, a) with gram = a gram0 a^T: gram0 = b b^T + I (or twice
    that, an even lattice) is positive definite with |x_i| <= sqrt(norm) on
    its vectors of a given norm; a is a random unimodular matrix built from
    elementary row operations with large multipliers, so gram is far from
    reduced."""
    b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    g0 = mat_mul(b, transpose(b))
    for i in range(n):
        g0[i][i] += 1
    if even:
        g0 = [[2 * x for x in row] for row in g0]
    a = identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            q = rng.choice([-5, -4, -3, -2, 2, 3, 4, 5])
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
    if rng.random() < 0.5:
        a[0] = [-x for x in a[0]]
    return mat_mul(mat_mul(a, g0), transpose(a)), g0, a


def exact_box_vectors(gram, max_norm):
    """{x != 0 : x^T gram x <= max_norm} by brute force over the box
    |x_i| <= sqrt(max_norm (gram^-1)_ii), which contains them all."""
    n = len(gram)
    inv = sympy.Matrix(gram).inv()
    bounds = [int(sympy.floor(sympy.sqrt(max_norm * inv[i, i]))) for i in range(n)]
    box = np.array(list(itertools.product(*(range(-r, r + 1) for r in bounds))), dtype=np.int64)
    q = np.einsum("vi,ij,vj->v", box, np.array(gram, dtype=np.int64), box)
    keep = (q > 0) & (q <= max_norm)
    return box[keep].tolist(), q[keep].tolist()


def mat_vec_int(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def canonical(v):
    for c in reversed(v):
        if c != 0:
            return tuple(v) if c > 0 else tuple(-t for t in v)
    return tuple(v)


def test_short_vectors_unreduced_vs_box():
    # far-from-reduced Grams of size 1 to 6 with large off-diagonal entries,
    # norms -1 to 6, odd norms of even lattices; the oracle enumerates the reduced gram0 by brute force and carries
    # each vector y to x = a^-T y, so that x^T gram x = y^T gram0 y
    rng = random.Random(29)
    largest = 0
    empty = 0
    for trial in range(36):
        n = 1 + trial % 6
        gram, g0, a = unreduced_gram(rng, n, even=trial % 4 == 3)
        largest = max(largest, max(abs(gram[i][j]) for i in range(n) for j in range(n) if i != j)
                      if n > 1 else 0)
        a_inv_t = [[int(x) for x in row] for row in sympy.Matrix(a).inv().T.tolist()]
        box, norms = exact_box_vectors(g0, 6)
        for norm in range(-1, 7):
            want = sorted({canonical(mat_vec_int(a_inv_t, y)) for y, q in zip(box, norms)
                           if q == norm})
            got = short_vectors(gram, norm)
            assert got == want, (gram, norm)
            assert got == sorted(got)
            assert all(canonical(v) == v for v in got)
            assert not any(tuple(-c for c in v) in set(got) for v in got)
            empty += norm > 0 and not got
    assert largest > 100 and empty > 10


def test_swap_minors_matches_fresh_elimination():
    # Cohen's SWAPI update of d and lambda (i > j) for the swap of basis
    # vectors k - 1 and k equals the elimination of the swapped Gram
    rng = random.Random(41)
    for trial in range(60):
        n = 2 + trial % 7
        gram = unreduced_gram(rng, n)[0] if trial % 2 else \
            unreduced_gram(rng, n, even=True)[1]
        for k in range(1, n):
            order = list(range(n))
            order[k - 1], order[k] = k, k - 1
            swapped = [[gram[i][j] for j in order] for i in order]
            d, lam, _ = _symmetric_bareiss(gram)
            _swap_minors(d, lam, k)
            want_d, want_lam, zero = _symmetric_bareiss(swapped)
            assert zero == 0 and d == want_d
            assert all(lam[i][j] == want_lam[i][j] for i in range(n) for j in range(i))


def test_swap_minors_inexact_division_is_a_typed_error():
    # d and lambda that no Gram matrix has: B = (d0 d2 + lambda^2) / d1 = 3/2
    d, lam = [1, 2, 3], [[2, 0], [0, 3]]
    with pytest.raises(MatrixDomainError, match="inexact division"):
        _swap_minors(d, lam, 1)


def test_one_elimination_per_short_vectors_call(monkeypatch):
    calls, swaps = [], []
    eliminate, swap = linalg._symmetric_bareiss, linalg._swap_minors

    def counting(m):
        calls.append(m)
        return eliminate(m)

    def counting_swap(d, lam, k):
        swaps.append(k)
        return swap(d, lam, k)

    monkeypatch.setattr(linalg, "_symmetric_bareiss", counting)
    monkeypatch.setattr(linalg, "_swap_minors", counting_swap)
    gram = unreduced_gram(random.Random(5), 6)[0]
    short_vectors(gram, 4)
    assert len(calls) == 1 and len(swaps) > 5
    lll_reduce(gram)
    assert len(calls) == 2


def test_short_vector_off_its_norm_is_a_typed_error(monkeypatch):
    # a U that does not match the minors maps a descent leaf of norm 2
    # to a vector of another norm; the leaf check must not drop it quietly
    lll = linalg.lll_reduce

    def wrong_u(gram):
        red, u, d, lam = lll(gram)
        u[0] = [x + y for x, y in zip(u[0], u[1])]
        return red, u, d, lam

    monkeypatch.setattr(linalg, "lll_reduce", wrong_u)
    with pytest.raises(MatrixDomainError, match="off its norm"):
        short_vectors([[2, 0], [0, 3]], 2)

def test_lll_preserves_lattice():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(2, 5)
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        g = mat_mul(b, transpose(b))
        for i in range(n):
            g[i][i] += 2
        red, u, _, _ = lll_reduce(g)
        assert mat_eq(red, mat_mul(mat_mul(u, g), transpose(u)))
        assert abs(bareiss_det(u)) == 1
        assert bareiss_det(red) == bareiss_det(g)
        # the LLL conditions, on a Gram-Schmidt of red computed here
        mu, bstar = fraction_gso(red)
        for i in range(n):
            for j in range(i):
                assert abs(mu[i][j]) <= Fraction(1, 2)
        for k in range(1, n):
            assert bstar[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * bstar[k - 1]


def test_lll_hands_over_the_elimination_of_the_reduced_gram():
    # short_vectors reads the minors and bordered minors lambda_ij (i > j)
    # that the reduction ends with; they are those of the reduced Gram
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 7)
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        g = mat_mul(b, transpose(b))
        for i in range(n):
            g[i][i] += 1  # force positive definite
        red, u, minors, lam = lll_reduce(g)
        want_minors, want_lam, zero = _symmetric_bareiss(red)
        assert zero == 0 and minors == want_minors
        assert all(lam[i][j] == want_lam[i][j] for i in range(n) for j in range(i))


def fraction_gso(gram):
    """Gram-Schmidt coefficients mu and squared norms |b*_i|^2 over QQ."""
    n = len(gram)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = (gram[i][j] - sum(mu[i][k] * mu[j][k] * bstar[k]
                                         for k in range(j))) / bstar[j]
        bstar[i] = gram[i][i] - sum(mu[i][k] ** 2 * bstar[k] for k in range(i))
    return mu, bstar


@pytest.mark.parametrize("gram", [
    [[0, 0], [0, 0]],
    [[1, 1], [1, 1]],
    [[2, 0, 0], [0, 0, 0], [0, 0, 2]],
    [[-2]],
    [[2, 3], [3, 2]],
])
def test_semidefinite_or_indefinite_gram_is_a_typed_error(gram):
    with pytest.raises(MatrixDomainError, match="positive definite"):
        lll_reduce(gram)
    with pytest.raises(MatrixDomainError, match="positive definite"):
        short_vectors(gram, 2)
