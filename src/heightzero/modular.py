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

The Dixon split needs no matrix elimination, only vectors: the roots of
`minimal_polynomial` and the rows of `lagrange` split a vector into its
components x L_lambda(a), one eigenvector per root.
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


def minimal_polynomial(a, x, q):
    """The minimal polynomial of the row vector x under a, acting on rows as
    x -> x a: the monic P of least degree d with x P(a) = 0, as coefficients
    [c_0, ..., c_d] ascending, and the Krylov rows x a^t for t < d.

    Krylov row t is reduced against the rows before it, kept in reduced
    echelon form (each pivot 1, its column 0 in the other rows), so it
    reduces in one product.  Each row carries, past column n, its
    combination of the Krylov rows, so the first row that reduces to 0
    holds P there.  a and x are reduced once; every product is of residues
    summed in int64, exact while n (q - 1)^2 < 2^63 for n entries."""
    a = as_mod(a, q)
    row = as_mod(x, q)
    n = len(row)
    if n * (q - 1) ** 2 >= 2**63:
        raise ValueError("minimal_polynomial needs n (q - 1)^2 < 2^63")
    krylov, piv = [], []
    ech = np.zeros((0, 2 * n + 1), dtype=np.int64)
    while True:
        r = np.zeros(2 * n + 1, dtype=np.int64)
        r[:n], r[n + len(krylov)] = row, 1
        r = (r - r[piv] @ ech) % q
        nz = r[:n].nonzero()[0]
        if not len(nz):
            return r[n:n + len(krylov) + 1].tolist(), np.array(krylov, dtype=np.int64).reshape(-1, n)
        r = r * pow(int(r[nz[0]]), -1, q) % q
        ech = np.vstack([(ech - np.outer(ech[:, nz[0]], r)) % q, r])
        piv.append(nz[0])
        krylov.append(row)
        row = row @ a % q


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
