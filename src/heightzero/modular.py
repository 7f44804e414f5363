"""Exact linear algebra over a prime field F_q, on int64 numpy arrays.

q is always far below 2^31, so every intermediate product fits int64; all
results are exact integers reduced mod q.
"""

from __future__ import annotations

import numpy as np


def as_mod(a, q):
    return np.asarray(a, dtype=np.int64) % q


def matmul(a, b, q):
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % q


def rref(a, q):
    """Reduced row echelon form mod q; returns (R, pivot_columns).

    Each pivot column is cleared in one step, m - f m[r] with f the column
    and f[r] = 0; entries stay below q, so the products stay below q^2."""
    m = as_mod(a, q)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = m[r:, c].nonzero()[0]
        if not len(nz):
            continue
        sel = r + int(nz[0])
        if sel != r:
            m[[r, sel]] = m[[sel, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, q)) % q
        f = m[:, c].copy()
        f[r] = 0
        m -= f[:, None] * m[r]
        m %= q
        pivots.append(c)
        r += 1
    return m[:r], pivots


def kernel(a, q):
    """Basis (rows) of the right null space of a mod q."""
    m, pivots = rref(a, q)
    cols = np.asarray(a).shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = (-m[r, fc]) % q
    return basis


def charpoly(a, q):
    """Characteristic polynomial coefficients [c_0, ..., c_n] (monic, c_n = 1)
    of an n x n matrix mod q, via Faddeev-LeVerrier; needs q > n."""
    a = as_mod(a, q)
    n = a.shape[0]
    if q <= n:
        raise ValueError("charpoly needs q > matrix dimension")
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = np.zeros((n, n), dtype=np.int64)
    c = 1
    for k in range(1, n + 1):
        m = matmul(a, (m + c * np.eye(n, dtype=np.int64)) % q, q)
        c = (-int(np.trace(m)) * pow(k, -1, q)) % q
        coeffs[n - k] = c
    return coeffs


def poly_roots(coeffs, q):
    """All roots in F_q of the polynomial sum coeffs[i] x^i, ascending."""
    xs = np.arange(q, dtype=np.int64)
    vals = np.zeros(q, dtype=np.int64)
    for c in reversed(coeffs):
        vals = (vals * xs + c) % q
    return [int(x) for x in xs[vals == 0]]
