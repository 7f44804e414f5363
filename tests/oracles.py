"""Group, cyclotomic and field functions that only the tests use.

No CLI path descends an element to its conductor, forms a compositum or
lists the subgroups of (Z/n)*: the pipeline reads a row's field off the
table's power map.  Nor does it invert an element or take its order one at a
time: the class data reads both off one power walk per class.  The tests keep
these as references, with quadratic fields by Legendre symbols, the
construction that fields.quadratic_field replaced by the Kronecker symbol.
conductor_of_element rewrites x at its conductor by an exact linear solve, an
independent check that x lies in Q(zeta_m).
"""

from fractions import Fraction
from math import lcm, prod

from heightzero.cyclotomic import (
    CycElt,
    _coerce,
    _prime_powers,
    _units,
    sigma_unit,
    subgroup_closure,
    zumbroich_exponents,
)
from heightzero.fields import AbelianField, _conductor, rational_field


def element_order(g, i):
    """The order of element i of the group g, by repeated products."""
    o, cur = 1, i
    while cur != 0:
        cur = g.mul(cur, i)
        o += 1
    return o


def inverse(g, i):
    """The element j of the group g with i j = 1, by search."""
    return next(j for j in range(g.order) if g.mul(i, j) == 0)


def root_of_unity(n, j):
    """zeta_n^j in canonical form."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return CycElt(n, {j % n: Fraction(1)})


def rational(v, n=1):
    """The rational number v as a CycElt at modulus n."""
    return _coerce(Fraction(v), n)


def sigma_e(x, e):
    """Galois map fixing odd-order roots of unity and raising 2-power roots
    to the (1+2^e)-th power, restricted to the modulus of x."""
    return x.galois(sigma_unit(x.n, e))


def conductor_of_element(x):
    """Smallest m | n with x in Q(zeta_m), plus x rewritten at modulus m."""
    m = _conductor(x.n, lambda k: x.galois(k) == x)
    return m, _descend(x, m)


def _descend(x, m):
    """Rewrite x (known to lie in Q(zeta_m)) at modulus m by exact solve."""
    if m == x.n:
        return x
    basis_m = zumbroich_exponents(m)
    basis_n = zumbroich_exponents(x.n)
    idx = {j: i for i, j in enumerate(basis_n)}
    # columns: embedded images of the Q(zeta_m) basis; solve M a = v.
    cols = []
    for b in basis_m:
        emb = root_of_unity(m, b).embed(x.n)
        col = [Fraction(0)] * len(basis_n)
        for j, c in emb.terms.items():
            col[idx[j]] = Fraction(c)
        cols.append(col)
    v = [Fraction(0)] * len(basis_n)
    for j, c in x.terms.items():
        v[idx[j]] = Fraction(c)
    coeffs = _solve_exact(cols, v)
    return CycElt(m, {b: c for b, c in zip(basis_m, coeffs) if c}, reduced=True)


def _solve_exact(cols, v):
    """Solve sum_i a_i * cols[i] = v over Q; raises if inconsistent."""
    ncols = len(cols)
    nrows = len(v)
    # augmented matrix, row-major
    mat = [[cols[c][r] for c in range(ncols)] + [v[r]] for r in range(nrows)]
    piv_of_col = {}
    row = 0
    for col in range(ncols):
        sel = next((r for r in range(row, nrows) if mat[r][col]), None)
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [e * inv for e in mat[row]]
        for r in range(nrows):
            if r != row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[row])]
        piv_of_col[col] = row
        row += 1
    for r in range(row, nrows):
        if mat[r][ncols]:
            raise ValueError("inconsistent descent system")
    return [mat[piv_of_col[c]][ncols] if c in piv_of_col else Fraction(0) for c in range(ncols)]


def compositum(f1, f2):
    big = lcm(f1.n, f2.n)
    if big == 1:
        return rational_field()
    fixer = f1.preimage_fixer(big) & f2.preimage_fixer(big)
    return AbelianField(big, fixer)


def all_subgroups(n):
    """Every subgroup of (Z/n)*, as sorted tuples, deterministically ordered."""
    trivial = subgroup_closure(n, [])
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        s = frontier.pop()
        for g in _units(n):
            if g not in s:
                t = subgroup_closure(n, [*s, g])
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
    return sorted((tuple(sorted(s)) for s in seen), key=lambda s: (len(s), s))


def _legendre(t, p):
    s = pow(t % p, (p - 1) // 2, p)
    return -1 if s == p - 1 else s


def legendre_quadratic_field(d):
    """Q(sqrt d) for squarefree d not in {0, 1}, as the kernel of its
    quadratic character.

    d = u * prod(p*) over the odd primes p | d, with p* = +-p = 1 mod 4 and
    u in {1, -1, 2, -2}; the character is the product of the Legendre
    symbols (k/p) and the character of u, which is trivial for u = 1 and
    read mod 4 for u = -1 and mod 8 for u = +-2."""
    odd = [p for p, _ in _prime_powers(abs(d)) if p != 2]
    u = d
    for p in odd:
        u //= p if p % 4 == 1 else -p
    # the character of u: its modulus and its kernel there
    mod, ker = {1: (1, {0}), -1: (4, {1}), 2: (8, {1, 7}), -2: (8, {1, 3})}[u]
    disc = mod * prod(odd)
    fixer = [
        k
        for k in _units(disc)
        if (k % mod in ker) == (prod(_legendre(k, p) for p in odd) == 1)
    ]
    return AbelianField(disc, fixer)
