"""Linear algebra mod q: minimal polynomials of vectors against the
eigenbasis and the Krylov rank, root multiplicities, the Lagrange basis,
and the exactness of the float64 and int64 products."""

import numpy as np
import pytest
from sympy import prevprime

from heightzero import modular

PRIMES = [2, 3, 101, 999983]
# the largest prime below 10^7 is the ceiling of the Dixon prime
BIG = prevprime(10**7)


def _rref_by_rows(a, q):
    """The reference: clear each pivot column one row at a time."""
    m = np.array(a, dtype=np.int64) % q
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        sel = next((rr for rr in range(r, rows) if m[rr, c]), None)
        if sel is None:
            continue
        if sel != r:
            m[[r, sel]] = m[[sel, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, q)) % q
        for rr in range(rows):
            if rr != r and m[rr, c]:
                m[rr] = (m[rr] - m[rr, c] * m[r]) % q
        pivots.append(c)
        r += 1
    return m[:r], pivots


@pytest.mark.parametrize("q", [999983, BIG])
def test_matmul_is_exact_across_blocks(q):
    # the float64 product is summed over blocks of (2^53 - 1) // (q - 1)^2
    # inner indices; compare against Python integers at, below and past
    # one block, with entries at q - 1, near it, and outside [0, q)
    block = (2**53 - 1) // (q - 1) ** 2
    rng = np.random.default_rng(q)
    for inner in (1, block, block + 1, 3 * block):
        for a, b in [
            (np.full((2, inner), q - 1), np.full((inner, 3), q - 1)),
            (rng.integers(q - 1000, q, size=(2, inner)), rng.integers(q - 1000, q, size=(inner, 3))),
            (rng.integers(-3 * q, 3 * q, size=(2, inner)), rng.integers(-3 * q, 3 * q, size=(inner, 3))),
        ]:
            want = (a.astype(object) @ b.astype(object)) % q
            got = modular.matmul(a, b, q)
            assert got.dtype == np.int64
            assert got.tolist() == want.tolist(), inner
            # a vector on either side
            assert modular.matmul(a[0], b, q).tolist() == want[0].tolist()
            assert modular.matmul(a, b[:, 0], q).tolist() == want[:, 0].tolist()


def test_matmul_of_a_vector_past_the_int64_bound_is_exact():
    # n (q - 1)^2 >= 2^63: the int64 sum would wrap, so the product takes
    # the blocked float64 path
    q = BIG
    n = (2**63 - 1) // (q - 1) ** 2 + 1
    a = np.full(n, q - 1)
    b = np.full((n, 2), q - 1)
    want = n * (q - 1) ** 2 % q
    assert modular.matmul(a, b, q).tolist() == [want, want]
    assert modular.matmul(b.T, a, q).tolist() == [want, want]


def _times(f, g, q):
    """The product of two ascending coefficient lists mod q."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % q
    return out


@pytest.mark.parametrize("q", [101, 999983])
def test_poly_roots_tells_simple_roots_from_repeated_ones(q):
    rng = np.random.default_rng(q)
    nonresidue = next(a for a in range(2, q) if pow(a, (q - 1) // 2, q) == q - 1)
    for _ in range(20):
        roots = sorted({int(r) for r in rng.integers(0, q, size=int(rng.integers(1, 5)))})
        mults = [int(m) for m in rng.integers(1, 4, size=len(roots))]
        poly = [1]
        for r, m in zip(roots, mults):
            for _ in range(m):
                poly = _times(poly, [-r % q, 1], q)
        want = [(r, m == 1) for r, m in zip(roots, mults)]
        assert modular.poly_roots(poly, q) == want
        # x^2 - a for a non-residue a adds no root
        assert modular.poly_roots(_times(poly, [-nonresidue % q, 0, 1], q), q) == want
    assert modular.poly_roots([-nonresidue % q, 0, 1], q) == []


@pytest.mark.parametrize("q", [101, 999983, BIG])
def test_lagrange_basis_is_the_identity_on_its_roots(q):
    rng = np.random.default_rng(q)
    for r in (1, 2, 5, 9):
        roots = sorted({int(x) for x in rng.integers(0, q, size=3 * r)})[:r]
        rows = modular.lagrange(roots, q)
        assert rows.shape == (r, r)
        at = [[sum(c * pow(x, t, q) for t, c in enumerate(row.tolist())) % q for x in roots] for row in rows]
        assert at == np.eye(r, dtype=np.int64).tolist()


def _similar(q, rng, d):
    """(a, p, p^-1) with p a = d p mod q for a random invertible p: when d
    is diagonal, row i of p is an eigenvector of a, acting on rows, for
    d[i, i]."""
    n = len(d)
    while True:
        p = rng.integers(0, q, size=(n, n))
        reduced, pivots = _rref_by_rows(np.hstack([p, np.eye(n, dtype=np.int64)]), q)
        if pivots[:n] == list(range(n)):
            break
    p_inv = reduced[:n, n:]
    return modular.matmul(p_inv, modular.matmul(d, p, q), q), p, p_inv


def _at(poly, x, a, q):
    """x P(a) by Horner's rule, a acting on rows."""
    acc = np.zeros(len(x), dtype=np.int64)
    for c in reversed(poly):
        acc = (modular.matmul(acc, a, q) + c * x) % q
    return acc


def _check_krylov(poly, krylov, x, a, q):
    """P is monic and kills x; krylov holds x a^t for t < deg P, and those
    rows are independent, so no polynomial of lower degree kills x."""
    deg = len(poly) - 1
    assert poly[-1] == 1 and all(0 <= c < q for c in poly)
    assert not _at(poly, x % q, a, q).any()
    assert krylov.shape == (deg, len(x))
    row = x % q
    for t in range(deg):
        assert krylov[t].tolist() == row.tolist()
        row = modular.matmul(row, a, q)
    assert len(_rref_by_rows(krylov, q)[1]) == deg


@pytest.mark.parametrize("q", [101, 999983, BIG])
def test_minimal_polynomial_is_the_product_over_the_eigenvalues_on_the_support(q):
    # diagonalizable matrices with repeated eigenvalues: for x a combination
    # of some rows of the eigenbasis p, P is the product of t - lambda over
    # the distinct eigenvalues on those rows
    rng = np.random.default_rng(q + 3)
    for mults in ([1, 1], [2, 1], [3], [2, 2, 1], [1, 3, 1, 2], [4, 1, 1, 1, 1]):
        lams = sorted({int(x) for x in rng.integers(0, q, size=4 * len(mults))})[:len(mults)]
        spectrum = [lam for lam, m in zip(lams, mults) for _ in range(m)]
        n = len(spectrum)
        a, p, _ = _similar(q, rng, np.diag(spectrum))
        before = a.copy()
        for _ in range(4):
            coeffs = rng.integers(1, q, size=n) * (rng.random(n) < 0.6)
            x = modular.matmul(coeffs, p, q) - 3 * q  # entries outside [0, q)
            poly, krylov = modular.minimal_polynomial(a, x, q)
            want = [1]
            for lam in sorted({s for s, c in zip(spectrum, coeffs) if c}):
                want = _times(want, [-lam % q, 1], q)
            assert poly == want
            _check_krylov(poly, krylov, x, a, q)
        assert (a == before).all()


@pytest.mark.parametrize("q", [101, 999983, BIG])
def test_minimal_polynomial_of_a_jordan_block_has_a_repeated_root(q):
    # a = p^-1 J p for J = lambda I + N, N the shift: x = e_0 p runs along
    # the block, so P = (t - lambda)^k and its root is not simple
    rng = np.random.default_rng(q + 4)
    for k in (2, 3, 5):
        lam = int(rng.integers(0, q))
        a, p, _ = _similar(q, rng, (lam * np.eye(k, dtype=np.int64) + np.eye(k, k=1, dtype=np.int64)) % q)
        poly, krylov = modular.minimal_polynomial(a, p[0], q)
        want = [1]
        for _ in range(k):
            want = _times(want, [-lam % q, 1], q)
        assert poly == want
        _check_krylov(poly, krylov, p[0], a, q)
        assert modular.poly_roots(poly, q) == [(lam, False)]
        # the last row of p is an eigenvector: degree 1
        assert modular.minimal_polynomial(a, p[-1], q)[0] == [-lam % q, 1]


def test_minimal_polynomial_of_zero_is_one():
    poly, krylov = modular.minimal_polynomial(np.eye(3, dtype=np.int64), np.zeros(3, dtype=np.int64), 101)
    assert poly == [1]
    assert krylov.shape == (0, 3)


def test_minimal_polynomial_refuses_a_length_past_the_int64_bound():
    q = BIG
    n = (2**63 - 1) // (q - 1) ** 2 + 1
    with pytest.raises(ValueError, match="2\\^63"):
        modular.minimal_polynomial(np.zeros((n, 1), dtype=np.int64), np.zeros(n, dtype=np.int64), q)
