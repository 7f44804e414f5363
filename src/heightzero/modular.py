"""Exact linear algebra over a prime field F_q, on numpy arrays.

Every result is an exact integer in [0, q), held in int64.  q stays below
10^7 (the ceiling of the Dixon prime), so a product of two residues is below
2^47 and fits int64.  `matmul` multiplies in float64 for the BLAS path, and
stays exact: it sums over blocks of at most (2^53 - 1) // (q - 1)^2 inner
indices, so every partial sum is an integer below 2^53, and it reduces each
block mod q in int64 before adding it (Dumas, Giorgi and Pernet, ACM TOMS
35(3), 2008).
"""

from __future__ import annotations

import numpy as np


def as_mod(a, q):
    return np.asarray(a, dtype=np.int64) % q


def matmul(a, b, q):
    """a @ b mod q, exact, for a of shape (..., n) and b of shape (n, ...)."""
    a = as_mod(a, q).astype(np.float64)
    b = as_mod(b, q).astype(np.float64)
    block = (2**53 - 1) // (q - 1) ** 2
    out = (a[..., :block] @ b[:block]).astype(np.int64) % q
    for s in range(block, a.shape[-1], block):
        out += (a[..., s:s + block] @ b[s:s + block]).astype(np.int64) % q
        out %= q
    return out


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
    """Basis (rows) of the right null space of a mod q, and its free columns:
    basis[:, free] is the identity."""
    m, pivots = rref(a, q)
    cols = np.asarray(a).shape[1]
    free = sorted(set(range(cols)) - set(pivots))
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[:, free] = np.eye(len(free), dtype=np.int64)
    basis[:, pivots] = -m[:, free].T % q
    return basis, free


def charpoly(a, q):
    """Characteristic polynomial coefficients [c_0, ..., c_n] (monic, c_n = 1)
    of an n x n matrix mod q.  It refuses q <= n, which the Dixon prime
    never is.

    The matrix is brought by similarity to upper Hessenberg form H whose
    subdiagonal entries are 1 or 0 (Cohen, A Course in Computational
    Algebraic Number Theory, 1993, alg. 2.2.9).  Then p_m, the charpoly of
    the leading m x m block of H, is x p_(m-1) - sum h[k, m-1] p_k over
    z <= k < m, where z is the row of the last zero subdiagonal entry
    above row m (0 if none): O(n^3) in all."""
    h = as_mod(a, q)
    n = h.shape[0]
    if q <= n:
        raise ValueError("charpoly needs q > matrix dimension")
    for j in range(n - 1):
        if not h[j + 1, j]:
            nz = h[j + 2:, j].nonzero()[0]
            if not len(nz):
                continue
            i = j + 2 + int(nz[0])
            h[[i, j + 1]] = h[[j + 1, i]]
            h[:, [i, j + 1]] = h[:, [j + 1, i]]
        # scale row j+1 by 1/h[j+1, j] and column j+1 by h[j+1, j]
        s = int(h[j + 1, j])
        h[j + 1] = h[j + 1] * pow(s, -1, q) % q
        h[:, j + 1] = h[:, j + 1] * s % q
        # row_i -= h[i, j] row_(j+1) clears column j below the subdiagonal;
        # col_(j+1) += h[i, j] col_i completes the similarity
        u = h[j + 2:, j].copy()
        h[j + 2:] = (h[j + 2:] - u[:, None] * h[j + 1]) % q
        h[:, j + 1] = (h[:, j + 1] + matmul(h[:, j + 2:], u, q)) % q
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)  # row m: p_m, ascending
    polys[0, 0] = 1
    z = 0
    for m in range(1, n + 1):
        if m > 1 and not h[m - 1, m - 2]:
            z = m - 1
        polys[m, 1:] = polys[m - 1, :-1]
        polys[m] -= matmul(h[z:m, m - 1], polys[z:m], q)
        polys[m] %= q
    return polys[n].tolist()


def poly_roots(coeffs, q):
    """All roots in F_q of the polynomial sum coeffs[i] x^i, ascending."""
    xs = np.arange(q, dtype=np.int64)
    vals = np.zeros(q, dtype=np.int64)
    for c in reversed(coeffs):
        vals = (vals * xs + c) % q
    return [int(x) for x in xs[vals == 0]]
