"""Exact linear algebra over F_q on Python integers.  Vectors of residues
packed into 64-bit lanes of one int combine at one big-integer multiply-add
per term, reduced mod q only when unpacked: exact while d (q - 1)^2 < 2^64
for d products of residues (d < 1.8 10^5 at q < 10^7, the ceiling of the
Dixon prime).  A matrix a acts on rows, x -> x a, given by the nonzero
entries of its columns, a[k] = (js, ws) with a_jk = ws[i] for j = js[i]:
x a costs one step per nonzero entry, and maps many vectors at once when x_j
packs entry j of each."""

import re
import struct
from itertools import compress
from math import isqrt, prod
from operator import mul

_MASK = (1 << 64) - 1
_BLOCK = 1 << 12  # lanes of x at which a root finder evaluates at once


def _check_lanes(terms, q):
    if terms * (q - 1) ** 2 >= 1 << 64:
        raise ValueError("packed lanes need d (q - 1)^2 < 2^64 for a sum of d products")


def _pack(xs):
    return int.from_bytes(struct.pack(f"<{len(xs)}Q", *xs), "little")


def _lanes(x, n):
    return struct.unpack(f"<{n}Q", x.to_bytes(8 * n, "little"))


def _times(x, a):
    """x a, unreduced, for x a list of residues or of packed ints."""
    return [sum(map(mul, map(x.__getitem__, js), ws)) for js, ws in a]


class _Lanes:
    """n packed lanes mod the odd prime q.  d < 2^64 is a multiple of q iff
    d q^-1 mod 2^64 <= (2^64 - 1) // q (Granlund and Montgomery, PLDI 1994,
    section 9), tested in all lanes at once, the even and the odd ones apart
    so that each product has an empty lane above it."""

    def __init__(self, n, q):
        ones = ((1 << 128 * ((n + 1) // 2)) - 1) // ((1 << 128) - 1)  # 1 in each even lane
        self.q, self.inv, self.ones = q, pow(q, -1, 1 << 64), ones
        self.even, self.bias = _MASK * ones, (_MASK - _MASK // q) * ones

    def nonzero(self, d):
        """The int with bit 64 k set iff lane k of d is not a multiple of q."""
        even = self.even
        flags = [((h & even) * self.inv & even) + self.bias >> 64 & self.ones for h in (d, d >> 64)]
        return flags[0] | flags[1] << 64

    def eigenvalues(self, packed, a):
        """For each nonzero vector v of packed = _packed(vectors), lambda if
        v a = lambda v mod q, else None, testing v a + (q - lambda) v."""
        vectors, rows, cols = packed
        q, m = self.q, len(vectors)
        _check_lanes(len(a) + 2, q)
        view = memoryview(b"".join(y.to_bytes(8 * m, "little") for y in _times(cols, a))).cast("Q")
        out = []
        for i, (v, row) in enumerate(zip(vectors, rows)):
            lead = next(compress(range(len(v)), v))
            lam = view[i + m * lead] * pow(v[lead], -1, q) % q
            image = int.from_bytes(view[i::m].tobytes(), "little")
            out.append(None if self.nonzero(image + (q - lam) * row) else lam)
        return out


def _packed(vectors):
    """The vectors, each packed, and all packed across them: lane i vector i."""
    return vectors, [_pack(v) for v in vectors], [_pack(col) for col in zip(*vectors)]


def minimal_polynomial(a, x, q):
    """The minimal polynomial of the row vector x under the sparse matrix a
    of residues: the monic P of least degree d with x P(a) = 0, as
    coefficients [c_0, ..., c_d] ascending, and the Krylov rows x a^t, t < d.
    Krylov row t, packed with a 1 in lane n + t for its combination of the
    Krylov rows, is reduced against the echelon rows before it, one
    multiply-add each; the first to reduce to 0 in its first n lanes holds P."""
    n = len(x)
    _check_lanes(n + 1, q)
    row = [v % q for v in x]
    krylov, echelon = [], []  # echelon: (pivot lane, its inverse, packed row)
    while True:
        r = _pack(row) + (1 << 64 * (n + len(krylov)))
        for piv, inv, e in echelon:
            c = (r >> 64 * piv & _MASK) * inv % q
            if c:
                r += (q - c) * e
        lanes = [v % q for v in _lanes(r, n + len(krylov) + 1)]
        piv = next(compress(range(n), lanes), None)
        if piv is None:
            return lanes[n:], krylov
        echelon.append((piv, pow(lanes[piv], -1, q), _pack(lanes)))
        krylov.append(row)
        row = list(map(q.__rmod__, _times(row, a)))


def poly_roots(q):
    """The root finder of F_q: coefficients of p = sum c_i x^i, ascending ->
    its distinct roots, ascending.  i k = T(i + k) - T(i) - T(k) for
    T(m) = m (m - 1) / 2, so at x = w^(b + k), w the least generator of
    F_q*, w^T(k) p(x) = sum_i a_i w^T(i + k) with a_i = c_i w^(b i - T(i)):
    a block of n = min(q - 1, _BLOCK) points, k < n, costs d + 1 products and
    one product of the packed a_i, reversed, with the packed w^T(m), m < n + d,
    kept for the next p ((n + d) 8 bytes); x = 0 is tested alone."""
    n = min(q - 1, _BLOCK)
    # w generates F_q* iff w^((q - 1) / r) != 1 for each divisor r > 1 of q - 1
    divisors = {x for r in range(1, isqrt(q - 1) + 1) if (q - 1) % r == 0 for x in (r, (q - 1) // r)} - {1}
    w = next(x for x in range(2, q) if all(pow(x, (q - 1) // r, q) != 1 for r in divisors))
    lanes, table, packed = _Lanes(n, q), [1], 1  # w^T(m) for m < len(table), and it packed
    power = 1  # w^m for m = len(table) - 1

    def roots(coeffs):
        nonlocal packed, power
        d = len(coeffs) - 1
        _check_lanes(d + 1, q)
        if len(table) < n + d:  # w^T(m + 1) = w^T(m) w^m
            for _ in range(n + d - len(table)):
                table.append(table[-1] * power % q)
                power = power * w % q
            packed = _pack(table)
        a = [c * pow(t, -1, q) % q for c, t in zip(coeffs, table)]  # at b = 0
        step = [pow(w, n * i, q) for i in range(d + 1)]  # b -> b + n
        found = [] if coeffs[0] % q else [0]
        for b in range(0, q - 1, n):
            zeros = lanes.nonzero(_pack(a[::-1]) * packed >> 64 * d).to_bytes(8 * n, "little")
            found += [pow(w, b + k.start(), q) for k in re.finditer(b"\x00", zeros[: 8 * (q - 1 - b) : 8])]
            a = [x * y % q for x, y in zip(a, step)]
        return sorted(found)

    return roots


def lagrange(roots, q):
    """The Lagrange basis of distinct roots mod q: row k holds the
    coefficients, ascending, of L_k = prod_(j != k) (x - roots[j]) /
    (roots[k] - roots[j]) = P / (x - roots[k]) / P'(roots[k]) for
    P = prod (x - roots[j]), so L_k(roots[j]) is 1 for j = k and 0 otherwise."""
    p = [1]  # P, ascending
    for mu in roots:
        p = [(a - mu * b) % q for a, b in zip([0] + p, p + [0])]
    rows = []
    for lam in roots:
        quot = [1]  # P / (x - lam), descending, by synthetic division
        for t in range(len(roots) - 1, 0, -1):
            quot.append((quot[-1] * lam + p[t]) % q)
        inv = pow(prod(lam - mu for mu in roots if mu != lam), -1, q)  # 1 / P'(lam)
        rows.append([v * inv % q for v in reversed(quot)])
    return rows
