import itertools
import random
from fractions import Fraction

import pytest
import sympy

from k3siegel.intpoly import IntPoly
from k3siegel.linalg import (
    MatrixDomainError,
    _lll,
    _symmetric_bareiss,
    bareiss_det,
    charpoly,
    identity,
    inertia,
    lll_reduce,
    mat_eq,
    mat_mul,
    short_vectors,
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


def test_inertia_diagonal():
    assert inertia([[2, 0], [0, -2]]) == (1, 1, 0)
    assert inertia([[2, 0], [0, 2]]) == (2, 0, 0)
    assert inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert inertia([[0, 0], [0, 0]]) == (0, 0, 2)


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
        assert inertia(m) == (pos, neg, zero)


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


def test_lll_preserves_lattice():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(2, 5)
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        g = mat_mul(b, transpose(b))
        for i in range(n):
            g[i][i] += 2
        red, u = lll_reduce(g)
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
        red, u, minors, lam = _lll(g)
        assert (red, u) == lll_reduce(g)
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
