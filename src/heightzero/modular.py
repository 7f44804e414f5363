"""Exact linear algebra over a prime field F_q, on numpy arrays.

Every result is an exact integer in [0, q), held in int64.  q stays below
10^7 (the ceiling of the Dixon prime), so a product of two residues is below
2^47 and fits int64.  `matmul` multiplies two matrices in float64 for the
BLAS path, and stays exact: it sums over blocks of at most
(2^53 - 1) // (q - 1)^2 inner indices, so every partial sum is an integer
below 2^53, and it reduces each block mod q in int64 before adding it
(Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).  A product with a vector
on either side is summed in int64 directly, which is exact while
n (q - 1)^2 < 2^63 for n inner indices (n < 92,233 at q < 10^7); such a
product gains little from BLAS, and int64 saves the two conversions.  Past
that bound it takes the float64 path.
"""

from __future__ import annotations

import numpy as np


def as_mod(a, q):
    return np.asarray(a, dtype=np.int64) % q


def matmul(a, b, q):
    """a @ b mod q, exact, for a of shape (..., n) and b of shape (n, ...)."""
    a = as_mod(a, q)
    b = as_mod(b, q)
    if (a.ndim == 1 or b.ndim == 1) and a.shape[-1] * (q - 1) ** 2 < 2**63:
        return a @ b % q
    a = a.astype(np.float64)
    b = b.astype(np.float64)
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
    """The roots in F_q of the polynomial p = sum coeffs[i] x^i, ascending,
    each as (root, simple): simple is whether p'(root) != 0, that is whether
    the root has multiplicity 1."""
    xs = np.arange(q, dtype=np.int64)
    vals = np.zeros(q, dtype=np.int64)
    for c in reversed(coeffs):
        vals = (vals * xs + c) % q
    roots = xs[vals == 0]
    slope = np.zeros(len(roots), dtype=np.int64)
    for i in range(len(coeffs) - 1, 0, -1):
        slope = (slope * roots + i * coeffs[i]) % q
    return list(zip(roots.tolist(), (slope != 0).tolist()))


def lagrange(roots, q):
    """The Lagrange basis of distinct roots mod q: row k holds the
    coefficients, ascending, of L_k = prod_(j != k) (x - roots[j]) /
    (roots[k] - roots[j]), so L_k(roots[j]) is 1 for j = k and 0 otherwise.

    L_k is P / (x - roots[k]) / P'(roots[k]) for P = prod (x - roots[j]),
    so all rows come from P by one synthetic division run on all roots at
    once: O(r) numpy calls for r roots."""
    lam = np.asarray(roots, dtype=np.int64) % q
    r = len(lam)
    p = np.zeros(r + 1, dtype=np.int64)  # P, ascending
    p[0] = 1
    for mu in lam.tolist():
        p[1:], p[0] = (p[:-1] - mu * p[1:]) % q, -mu * p[0] % q
    quot = np.zeros((r, r), dtype=np.int64)  # row k: P / (x - roots[k])
    quot[:, r - 1] = 1
    for t in range(r - 1, 0, -1):
        quot[:, t - 1] = (quot[:, t] * lam + p[t]) % q
    # P'(roots[k]) = (P / (x - roots[k]))(roots[k]), by Horner's rule
    slope = np.zeros(r, dtype=np.int64)
    for t in range(r - 1, -1, -1):
        slope = (slope * lam + quot[:, t]) % q
    inv = np.array([pow(v, -1, q) for v in slope.tolist()], dtype=np.int64)
    return quot * inv[:, None] % q


def eigen_components(a, x, roots, q):
    """The components of the row vector x along the eigenvalues roots of a,
    which acts on rows as x -> x a: row k is x L_k(a) for the Lagrange basis
    L_k of the roots.  When a is diagonalizable mod q with its spectrum in
    roots, L_k(a) is the projection onto the roots[k]-eigenspace along the
    others, so row k is an eigenvector (or 0) and the rows sum to x.

    The Krylov rows x, x a, ..., x a^(r-1) and one product with the
    Lagrange coefficients give all r rows."""
    r = len(roots)
    krylov = np.empty((r, len(x)), dtype=np.int64)
    krylov[0] = as_mod(x, q)
    for k in range(1, r):
        krylov[k] = matmul(krylov[k - 1], a, q)
    return matmul(lagrange(roots, q), krylov, q)
