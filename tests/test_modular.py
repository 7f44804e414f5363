"""Linear algebra mod q: rref against the row-by-row loop, kernel, charpoly."""

import numpy as np
import pytest

from heightzero import modular

PRIMES = [2, 3, 101, 999983]


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
        basis = modular.kernel(a, q)
        rank = len(modular.rref(a, q)[1])
        assert basis.shape == (a.shape[1] - rank, a.shape[1])
        assert not modular.matmul(a, basis.T, q).any()
        # the basis vectors are independent
        assert len(modular.rref(basis, q)[1]) == basis.shape[0]


@pytest.mark.parametrize("q", PRIMES)
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
