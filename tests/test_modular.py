"""Linear algebra mod q: minimal polynomials of vectors against the
eigenbasis and the Krylov rank, distinct roots, the Lagrange basis,
and the exactness of packed products and of the all-lanes tests."""

import random

import pytest
from sympy import prevprime, primitive_root

from heightzero import chartab, modular
from heightzero.groups import conjugacy_classes, cyclic

# the largest prime below 10^7 is the ceiling of the Dixon prime
BIG = prevprime(10**7)


def _matmul(a, b, q):
    """a b mod q for lists of rows, the reference product."""
    return [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)] for row in a]


def _sparse(a, q):
    """The columns of the list of rows a as modular's sparse matrix."""
    return [([j for j, v in enumerate(col) if v % q], [v % q for v in col if v % q]) for col in zip(*a)]


def _rref_by_rows(a, q):
    """The reference: clear each pivot column one row at a time."""
    m = [[v % q for v in row] for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        sel = next((rr for rr in range(r, rows) if m[rr][c]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = pow(m[r][c], -1, q)
        m[r] = [v * inv % q for v in m[r]]
        for rr in range(rows):
            if rr != r and m[rr][c]:
                f = m[rr][c]
                m[rr] = [(x - f * y) % q for x, y in zip(m[rr], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


@pytest.mark.parametrize("q", [999983, BIG])
def test_sparse_products_are_exact_at_the_lane_bound(q):
    # _check_lanes admits exactly the sums of d products of residues below
    # 2^64; such a sum, of n = min(d, 200000) products with entries at and
    # near q - 1, is compared with Python integers, for one vector and for
    # three packed across each other (lane i is vector i)
    d = (2**64 - 1) // (q - 1) ** 2
    modular._check_lanes(d, q)
    with pytest.raises(ValueError, match="2\\^64"):
        modular._check_lanes(d + 1, q)
    rng = random.Random(q)
    n = min(d, 200_000)
    for x, w in [
        ([q - 1] * n, [q - 1] * n),
        ([rng.randrange(q - 1000, q) for _ in range(n)], [rng.randrange(q - 1000, q) for _ in range(n)]),
    ]:
        a = [(list(range(n)), w), ([0, n - 1], [w[0], w[-1]])]
        want = [sum(map(int.__mul__, x, w)), x[0] * w[0] + x[-1] * w[-1]]
        assert modular._times(x, a) == want
        vectors = [x, [q - 1 - v for v in x], [0] * n]
        cols = [modular._pack(col) for col in zip(*vectors)]
        got = [modular._lanes(y, 3) for y in modular._times(cols, a)]
        assert got == [tuple(modular._times(v, a)[k] for v in vectors) for k in range(2)]
    # a lane at 2^64 - 1 unpacks whole and carries nothing into its neighbours
    third = [(2**64 - 1) // 3, 1, (2**64 - 1) // 3]
    top = modular._times([modular._pack(third)] * 3, [([0, 1, 2], [1, 1, 1])])[0]
    assert modular._lanes(top, 3) == (2**64 - 1, 3, 2**64 - 1)


@pytest.mark.parametrize("q", [3, 101, 999983, BIG])
def test_nonzero_finds_the_multiples_of_q_in_every_lane(q):
    # lanes of every size below 2^64, multiples of q among them, tested
    # against x % q; the packed int has an odd and an even lane count
    rng = random.Random(q)
    for n in (1, 2, 7, 64):
        lanes = modular._Lanes(n, q)
        for _ in range(20):
            x = [rng.choice([0, q, q - 1, 2**64 - 1, (2**64 - 1) // q * q, rng.randrange(2**64)]) for _ in range(n)]
            x = [rng.randrange(2**64) // q * q if rng.random() < 0.3 else v for v in x]
            flags = lanes.nonzero(modular._pack(x))
            assert [flags >> 64 * k & 1 for k in range(n)] == [int(v % q != 0) for v in x]


@pytest.mark.parametrize("q", [101, BIG])
def test_eigenvalues_of_many_vectors_at_once(q):
    # a diagonal-by-blocks action: e_k a = lambda_k e_k, so a combination of
    # basis vectors is fixed up to a scalar iff its lambdas agree
    rng = random.Random(q)
    lams = [rng.randrange(q) for _ in range(6)]
    lams[1] = lams[0]
    a = [[lams[j] if j == k else 0 for k in range(6)] for j in range(6)]
    vectors = [[rng.randrange(1, q) if k in support else 0 for k in range(6)]
               for support in ([0], [0, 1], [0, 2], [3], [2, 4, 5], [5])]
    want = [lams[0], lams[0], None, lams[3], None, lams[5]]
    assert modular._Lanes(6, q).eigenvalues(modular._packed(vectors), _sparse(a, q)) == want


def _times_poly(f, g, q):
    """The product of two ascending coefficient lists mod q."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % q
    return out


def _horner(coeffs, x, q):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def _brute_roots(poly, q):
    """Every root x in F_q, ascending, by evaluation at each x."""
    return [x for x in range(q) if _horner(poly, x, q) == 0]


@pytest.mark.parametrize("q", [3, 5, 7, 73, 101, 2437, 999983])
def test_poly_roots_tells_simple_roots_from_repeated_ones(q):
    # the distinct roots, ascending: a root of multiplicity m > 1 appears
    # once, so a polynomial of degree d splits into simple roots exactly when
    # it has d of them
    rng = random.Random(q)
    nonresidue = next(a for a in range(2, q) if pow(a, (q - 1) // 2, q) == q - 1)
    # roots at 0 and at both ends of F_q*, at the last point w^(q - 2) of the
    # least generator w, and, past one block of points w^k, on both sides of
    # the block edges w^(b n - 1) and w^(b n)
    w, n = primitive_root(q), min(q - 1, modular._BLOCK)
    edges = [pow(w, x, q) for b in range(n, q - 1, n) for x in (b - 1, b)]
    edges = [0, 1, q - 1, pow(w, q - 2, q)] + edges[:3] + edges[-3:]
    finder = modular.poly_roots(q)  # one table of w^T(m) kept across polynomials
    for _ in range(20):
        draws = range(rng.randint(1, 4))
        roots = sorted({rng.choice(edges) if rng.random() < 0.5 else rng.randrange(q) for _ in draws})
        mults = [rng.randint(1, 3) for _ in roots]
        poly = [1]
        for r, m in zip(roots, mults):
            for _ in range(m):
                poly = _times_poly(poly, [-r % q, 1], q)
        assert modular.poly_roots(q)(poly) == roots
        # x^2 - a for a non-residue a adds no root
        assert finder(_times_poly(poly, [-nonresidue % q, 0, 1], q)) == roots
        if q < 10**4:
            assert roots == _brute_roots(poly, q)
            # a polynomial of random coefficients: split, repeated or rootless
            poly = [rng.randrange(q) for _ in range(rng.randint(1, 6))] + [1]
            assert finder(poly) == modular.poly_roots(q)(poly) == _brute_roots(poly, q)
    assert modular.poly_roots(q)([-nonresidue % q, 0, 1]) == []
    assert modular.poly_roots(q)([rng.randrange(1, q)]) == []  # a nonzero constant


@pytest.mark.parametrize("q", [101, 999983, BIG])
def test_lagrange_basis_is_the_identity_on_its_roots(q):
    rng = random.Random(q)
    for r in (1, 2, 5, 9):
        roots = sorted({rng.randrange(q) for _ in range(3 * r)})[:r]
        rows = modular.lagrange(roots, q)
        assert len(rows) == r and all(len(row) == r for row in rows)
        at = [[sum(c * pow(x, t, q) for t, c in enumerate(row)) % q for x in roots] for row in rows]
        assert at == [[int(j == k) for k in range(r)] for j in range(r)]


def _similar(q, rng, d):
    """(a, p, p^-1) with p a = d p mod q for a random invertible p: when d
    is diagonal, row i of p is an eigenvector of a, acting on rows, for
    d[i][i]."""
    n = len(d)
    while True:
        p = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        reduced, pivots = _rref_by_rows([row + [int(j == k) for k in range(n)] for j, row in enumerate(p)], q)
        if pivots[:n] == list(range(n)):
            break
    p_inv = [row[n:] for row in reduced[:n]]
    return _matmul(p_inv, _matmul(d, p, q), q), p, p_inv


def _at(poly, x, a, q):
    """x P(a) by Horner's rule, a acting on rows."""
    acc = [0] * len(x)
    for c in reversed(poly):
        acc = [(v + c * y) % q for v, y in zip(_matmul([acc], a, q)[0], x)]
    return acc


def _check_krylov(poly, krylov, x, a, q):
    """P is monic and kills x; krylov holds x a^t for t < deg P, and those
    rows are independent, so no polynomial of lower degree kills x."""
    deg = len(poly) - 1
    assert poly[-1] == 1 and all(0 <= c < q for c in poly)
    row = [v % q for v in x]
    assert not any(_at(poly, row, a, q))
    assert len(krylov) == deg
    for t in range(deg):
        assert krylov[t] == row
        row = _matmul([row], a, q)[0]
    assert len(_rref_by_rows(krylov, q)[1]) == deg


def _diagonal(entries):
    return [[v if j == k else 0 for k in range(len(entries))] for j, v in enumerate(entries)]


@pytest.mark.parametrize("q", [101, 999983, BIG])
def test_minimal_polynomial_is_the_product_over_the_eigenvalues_on_the_support(q):
    # diagonalizable matrices with repeated eigenvalues: for x a combination
    # of some rows of the eigenbasis p, P is the product of t - lambda over
    # the distinct eigenvalues on those rows
    rng = random.Random(q + 3)
    for mults in ([1, 1], [2, 1], [3], [2, 2, 1], [1, 3, 1, 2], [4, 1, 1, 1, 1]):
        lams = sorted({rng.randrange(q) for _ in range(4 * len(mults))})[:len(mults)]
        spectrum = [lam for lam, m in zip(lams, mults) for _ in range(m)]
        n = len(spectrum)
        a, p, _ = _similar(q, rng, _diagonal(spectrum))
        before = [row[:] for row in a]
        for _ in range(4):
            coeffs = [rng.randrange(1, q) if rng.random() < 0.6 else 0 for _ in range(n)]
            x = [v - 3 * q for v in _matmul([coeffs], p, q)[0]]  # entries outside [0, q)
            poly, krylov = modular.minimal_polynomial(_sparse(a, q), x, q)
            want = [1]
            for lam in sorted({s for s, c in zip(spectrum, coeffs) if c}):
                want = _times_poly(want, [-lam % q, 1], q)
            assert poly == want
            _check_krylov(poly, krylov, x, a, q)
        assert a == before


@pytest.mark.parametrize("q", [101, 999983, BIG])
def test_minimal_polynomial_of_a_jordan_block_has_a_repeated_root(monkeypatch, q):
    # a = p^-1 J p for J = lambda I + N, N the shift: x = e_0 p runs along
    # the block, so P = (t - lambda)^k and its root is not simple
    rng = random.Random(q + 4)
    for k in (2, 3, 5):
        lam = rng.randrange(q)
        jordan = [[lam if i == j else int(j == i + 1) for j in range(k)] for i in range(k)]
        a, p, _ = _similar(q, rng, jordan)
        poly, krylov = modular.minimal_polynomial(_sparse(a, q), p[0], q)
        want = [1]
        for _ in range(k):
            want = _times_poly(want, [-lam % q, 1], q)
        assert poly == want
        _check_krylov(poly, krylov, p[0], a, q)
        assert modular.poly_roots(q)(poly) == [lam]
        # so the split refuses a class matrix M with B = M^T = J: e_0 J runs
        # along the block, and its minimal polynomial (t - lambda)^k has one
        # distinct root, not k
        group = cyclic(k)
        monkeypatch.setattr(chartab, "class_matrix", lambda group_, cd_, i: [list(col) for col in zip(*jordan)])
        with pytest.raises(AssertionError, match="not diagonalizable mod q"):
            chartab._split_eigenspaces(group, conjugacy_classes(group), q)
        # the last row of p is an eigenvector: degree 1
        assert modular.minimal_polynomial(_sparse(a, q), p[-1], q)[0] == [-lam % q, 1]


def test_minimal_polynomial_of_zero_is_one():
    poly, krylov = modular.minimal_polynomial(_sparse(_diagonal([1, 1, 1]), 101), [0, 0, 0], 101)
    assert poly == [1]
    assert krylov == []


def test_minimal_polynomial_refuses_a_length_past_the_int64_bound():
    # n + 1 products of residues must fit a 64-bit lane: the last length
    # that does is accepted, the next refused
    q = BIG
    n = (2**64 - 1) // (q - 1) ** 2 - 1
    assert modular.minimal_polynomial([([], [])] * n, [0] * n, q) == ([1], [])
    with pytest.raises(ValueError, match="2\\^64"):
        modular.minimal_polynomial([([], [])] * (n + 1), [0] * (n + 1), q)
