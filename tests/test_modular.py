"""Linear algebra mod q: rref against the row-by-row loop, kernel, charpoly
against Faddeev-LeVerrier, root multiplicities, the Lagrange projection
against the kernel, and the exactness of the float64 and int64 products."""

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


def _charpoly_faddeev(a, q):
    """The reference: Faddeev-LeVerrier, n matrix products; needs q > n."""
    a = np.array(a, dtype=np.int64) % q
    n = a.shape[0]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = np.zeros((n, n), dtype=np.int64)
    c = 1
    for k in range(1, n + 1):
        m = modular.matmul(a, (m + c * np.eye(n, dtype=np.int64)) % q, q)
        c = (-int(np.trace(m)) * pow(k, -1, q)) % q
        coeffs[n - k] = c
    return coeffs


def _matrices(q, seed):
    """Random, rank-deficient and zero matrices mod q, square and not."""
    rng = np.random.default_rng(seed)
    out = [np.zeros((3, 4), dtype=np.int64), np.zeros((1, 1), dtype=np.int64)]
    out.append(rng.integers(-3 * q, 3 * q, size=(4, 6)))  # entries outside [0, q)
    for rows, cols in [(1, 5), (4, 4), (6, 3), (5, 9), (9, 9)]:
        out.append(rng.integers(0, q, size=(rows, cols)))
        k = max(1, min(rows, cols) // 2)
        left = rng.integers(0, q, size=(rows, k))
        right = rng.integers(0, q, size=(k, cols))
        out.append((left @ right) % q)
        # a repeated row and a zero column
        dup = rng.integers(0, q, size=(rows, cols))
        dup[-1] = dup[0]
        dup[:, 0] = 0
        out.append(dup)
    return out


@pytest.mark.parametrize("q", PRIMES)
def test_rref_agrees_with_the_row_loop(q):
    for a in _matrices(q, q):
        before = a.copy()
        got, pivots = modular.rref(a, q)
        want, want_pivots = _rref_by_rows(a, q)
        assert pivots == want_pivots
        assert got.tolist() == want.tolist()
        assert (a == before).all()
        assert got.shape[0] == len(pivots)
        if pivots:
            assert got[:, pivots].tolist() == np.eye(len(pivots), dtype=np.int64).tolist()


def test_rref_of_a_full_rank_square_matrix_is_the_identity():
    q = 101
    a = np.array([[2, 1, 0], [0, 3, 1], [1, 0, 5]])
    got, pivots = modular.rref(a, q)
    assert pivots == [0, 1, 2]
    assert got.tolist() == np.eye(3, dtype=np.int64).tolist()


@pytest.mark.parametrize("q", PRIMES)
def test_kernel_is_annihilated_and_has_the_right_dimension(q):
    for a in _matrices(q, q + 1):
        basis, free = modular.kernel(a, q)
        rank = len(modular.rref(a, q)[1])
        assert basis.shape == (a.shape[1] - rank, a.shape[1])
        assert basis[:, free].tolist() == np.eye(len(free), dtype=np.int64).tolist()
        assert not modular.matmul(a, basis.T, q).any()
        # the basis vectors are independent
        assert len(modular.rref(basis, q)[1]) == basis.shape[0]


@pytest.mark.parametrize("q", PRIMES + [BIG])
def test_charpoly_satisfies_cayley_hamilton(q):
    rng = np.random.default_rng(q)
    for n in range(1, min(q, 8)):
        a = rng.integers(0, q, size=(n, n))
        coeffs = modular.charpoly(a, q)
        assert len(coeffs) == n + 1 and coeffs[n] == 1
        assert coeffs[n - 1] == -int(np.trace(a)) % q
        # p(A) by Horner's rule
        acc = np.zeros((n, n), dtype=np.int64)
        for c in reversed(coeffs):
            acc = (modular.matmul(acc, a, q) + c * np.eye(n, dtype=np.int64)) % q
        assert not acc.any()


def test_charpoly_needs_q_above_the_dimension():
    with pytest.raises(ValueError, match="q > matrix dimension"):
        modular.charpoly(np.eye(3, dtype=np.int64), 3)


def _structured_square_matrices(q):
    """Zero, scalar, nilpotent Jordan and companion matrices, and matrices
    whose first subdiagonal entry is 0 with a nonzero entry below it, which
    forces the Hessenberg row and column swap."""
    rng = np.random.default_rng(q + 2)
    out = []
    for n in range(1, 8):
        out.append(np.zeros((n, n), dtype=np.int64))
        out.append(5 * np.eye(n, dtype=np.int64))
        out.append(np.eye(n, k=1, dtype=np.int64))  # one nilpotent Jordan block
        companion = np.eye(n, k=-1, dtype=np.int64)
        companion[:, -1] = rng.integers(0, q, size=n)
        out.append(companion)
        if n >= 3:
            swap = rng.integers(0, q, size=(n, n))
            swap[1, 0] = 0
            swap[2, 0] = 1 + int(rng.integers(0, q - 1))
            out.append(swap)
            # and a zero subdiagonal that survives: block upper triangular
            split = rng.integers(0, q, size=(n, n))
            split[2:, :2] = 0
            out.append(split)
    return out


@pytest.mark.parametrize("q", PRIMES + [BIG])
def test_charpoly_agrees_with_faddeev_leverrier(q):
    square = [a for a in _matrices(q, q + 2) if a.shape[0] == a.shape[1]]
    for a in square + _structured_square_matrices(q):
        if q <= a.shape[0]:
            continue
        before = a.copy()
        assert modular.charpoly(a, q) == _charpoly_faddeev(a, q), a.tolist()
        assert (a == before).all()


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


def _diagonalizable(q, rng, spectrum):
    """(a, p, p^-1) with p a = diag(spectrum) p mod q for a random
    invertible p: row i of p is an eigenvector of a, acting on rows, for
    spectrum[i]."""
    n = len(spectrum)
    while True:
        p = rng.integers(0, q, size=(n, n))
        reduced, pivots = modular.rref(np.hstack([p, np.eye(n, dtype=np.int64)]), q)
        if pivots[:n] == list(range(n)):
            break
    p_inv = reduced[:n, n:]
    return modular.matmul(p_inv, (np.array(spectrum)[:, None] * p) % q, q), p, p_inv


@pytest.mark.parametrize("q", [101, 999983, BIG])
def test_eigen_components_agree_with_the_kernel(q):
    # diagonalizable matrices with repeated eigenvalues: each component of
    # a random x lies in the eigenspace the kernel finds, equals the
    # projection read off the eigenbasis, and the components sum to x
    rng = np.random.default_rng(q + 3)
    for mults in ([1, 1], [2, 1], [3], [2, 2, 1], [1, 3, 1, 2], [4, 1, 1, 1, 1]):
        lams = sorted({int(x) for x in rng.integers(0, q, size=4 * len(mults))})[:len(mults)]
        spectrum = [lam for lam, m in zip(lams, mults) for _ in range(m)]
        n = len(spectrum)
        a, p, p_inv = _diagonalizable(q, rng, spectrum)
        x = rng.integers(0, q, size=n)
        comp = modular.eigen_components(a, x, lams, q)
        assert comp.shape == (len(lams), n)
        assert (comp.sum(axis=0) % q).tolist() == x.tolist()
        coords = modular.matmul(x, p_inv, q)  # x = coords @ p
        for k, (lam, m) in enumerate(zip(lams, mults)):
            basis, free = modular.kernel((a.T - lam * np.eye(n, dtype=np.int64)) % q, q)
            assert len(free) == m
            assert comp[k].tolist() == modular.matmul(comp[k][free], basis, q).tolist()
            mine = [i for i, s in enumerate(spectrum) if s == lam]
            assert comp[k].tolist() == modular.matmul(coords[mine], p[mine], q).tolist()
