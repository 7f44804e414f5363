"""Exact arithmetic in cyclotomic fields with a canonical (Zumbroich) basis.

Elements of Q(zeta_n) are stored as sparse integer-exponent -> Fraction maps
over the Zumbroich basis of Z[zeta_n].  The representation is unique, so
structural equality is mathematical equality at a fixed modulus.  Mixed-modulus
arithmetic embeds both operands into the lcm modulus first; results are never
auto-descended.

The module also holds the arithmetic of Z/n: isprime, nu_p and (Z/n)*.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import index

__all__ = [
    "CycElt",
    "isprime",
    "zero",
    "sigma_unit",
    "zumbroich_exponents",
    "nu_p",
    "subgroup_closure",
    "unit_generators",
]


@lru_cache(maxsize=None)
def _prime_powers(n):
    """[(p, p^v)] for p^v || n, p ascending."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            out.append((p, q))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, m))
    return tuple(out)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# below this bound, strong Miller-Rabin to the 13 bases _SMALL_PRIMES proves
# primality (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BOUND = 3317044064679887385961981


def isprime(n):
    """Whether the integer n is prime.

    Trial division by the primes up to 41, then strong Miller-Rabin to those
    13 bases, deterministic below _MR_BOUND.  At or above it, strong BPSW:
    Miller-Rabin to base 2 and the strong Lucas test with Selfridge
    parameters (Baillie and Wagstaff, Math. Comp. 35, 1980), which no
    composite is known to pass.
    """
    n = index(n)
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True  # no prime factor below its square root
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a) for a in _SMALL_PRIMES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n, a):
    """Strong Fermat test of odd n > a to base a: with n - 1 = d 2^s, d odd,
    a^d = 1 or a^(d 2^r) = -1 mod n for some r < s."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n):
    """Strong Lucas test of odd n > 2 with Selfridge's parameters: D the first
    of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4.  With
    n + 1 = d 2^s, d odd, n passes if U_d = 0 or V_(d 2^r) = 0 mod n for some
    r < s."""
    if isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0 and d % n:
            return False
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    # U_k, V_k, Q^k mod n from k = 1, doubling along the bits of (n + 1) >> s
    u, v, qk = 1, 1, q % n
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            # U_(k+1) = (U_k + V_k)/2, V_(k+1) = (D U_k + V_k)/2, halved mod n
            u, v = u + v, d * u + v
            u = (u + n if u & 1 else u) >> 1
            v = (v + n if v & 1 else v) >> 1
            u, v, qk = u % n, v % n, qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


@lru_cache(maxsize=None)
def _allowed_residues(n):
    """For each p^v || n, the set of residues mod p^v taken by Zumbroich
    basis exponents of Q(zeta_n).

    With u = (n/p^v) mod p^v, the basis exponents are u*d mod p^v where the
    leading base-p digit of d is nonzero for odd p, and zero for p = 2."""
    out = {}
    for p, q in _prime_powers(n):
        u = (n // q) % q
        if p == 2:
            digits = range(max(q // 2, 1))
        else:
            digits = range(q // p, q)
        out[q] = frozenset((u * d) % q for d in digits)
    return out


@lru_cache(maxsize=None)
def zumbroich_exponents(n):
    """Sorted tuple of all Zumbroich basis exponents of Q(zeta_n)."""
    allowed = _allowed_residues(n)
    exps = [j for j in range(n) if all(j % q in a for q, a in allowed.items())]
    return tuple(exps)


@lru_cache(maxsize=None)
def _basis_set(n):
    return frozenset(zumbroich_exponents(n))


@lru_cache(maxsize=None)
def _reduce_single(n, j):
    """Basis expansion of the single power zeta_n^j as ((exponent, +-1), ...)."""
    return tuple(_reduce_pass(n, {j: 1}).items())


def _reduce_terms(n, raw):
    """Rewrite an exponent->coefficient map into the Zumbroich basis.

    Reduction is linear, so each out-of-basis exponent is expanded through a
    cached single-power expansion and the results accumulated."""
    basis = _basis_set(n)
    out = {}
    for j, c in raw.items():
        if not c:
            continue
        if j in basis:
            out[j] = out.get(j, 0) + c
        else:
            for j2, s in _reduce_single(n, j):
                out[j2] = out.get(j2, 0) + (c if s == 1 else s * c)
    return {j: c for j, c in out.items() if c}


def _reduce_pass(n, raw):
    """One full rewrite into the Zumbroich basis by the defining relations.

    Uses 1 + zeta_p + ... + zeta_p^{p-1} = 0 once per prime: fixing prime p
    only shifts exponents by multiples of n/p, which leaves the residues at
    the other prime powers untouched."""
    cur = raw
    for p, q in _prime_powers(n):
        allowed = _allowed_residues(n)[q]
        step = n // p
        nxt = {}
        for j, c in cur.items():
            if j % q in allowed:
                nxt[j] = nxt.get(j, 0) + c
            elif p == 2:
                j2 = (j + step) % n
                nxt[j2] = nxt.get(j2, 0) - c
            else:
                for t in range(1, p):
                    j2 = (j + t * step) % n
                    nxt[j2] = nxt.get(j2, 0) - c
        cur = nxt
    return {j: c for j, c in cur.items() if c != 0}


class CycElt:
    """Immutable element of Q(zeta_n) in canonical basis form."""

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n, terms, reduced=False):
        if n < 1:
            raise ValueError("modulus must be positive")
        clean = {}
        for j, c in terms.items():
            # integer coefficients stay plain ints (hash/eq-compatible with
            # Fraction and far cheaper in the reduction loops)
            if type(c) is not int:
                c = c if isinstance(c, Fraction) else Fraction(c)
                if c.denominator == 1:
                    c = c.numerator
            if c:
                clean[j % n] = clean.get(j % n, 0) + c
        if not reduced:
            clean = _reduce_terms(n, clean)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("CycElt is immutable")

    # -- representation plumbing -------------------------------------------

    def embed(self, m):
        """This element rewritten at modulus m (n must divide m)."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError(f"cannot embed modulus {self.n} into {m}")
        k = m // self.n
        return CycElt(m, {j * k: c for j, c in self.terms.items()})

    @staticmethod
    def _unify(x, y):
        m = lcm(x.n, y.n)
        return x.embed(m), y.embed(m)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        x, y = CycElt._unify(self, other)
        t = dict(x.terms)
        for j, c in y.terms.items():
            t[j] = t.get(j, 0) + c
        return CycElt(x.n, {j: c for j, c in t.items() if c}, reduced=True)

    __radd__ = __add__

    def __neg__(self):
        return CycElt(self.n, {j: -c for j, c in self.terms.items()}, reduced=True)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scalar_mul(other)
        # rational factors take the cheap linear path instead of a dense
        # convolution at the unified modulus
        if other.n == 1:
            return self.scalar_mul(other.terms.get(0, Fraction(0)))
        if self.n == 1:
            return other.scalar_mul(self.terms.get(0, Fraction(0)))
        x, y = CycElt._unify(self, other)
        t = {}
        for j1, c1 in x.terms.items():
            for j2, c2 in y.terms.items():
                j = (j1 + j2) % x.n
                t[j] = t.get(j, 0) + c1 * c2
        return CycElt(x.n, t)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scalar_mul(other)
        return NotImplemented

    def scalar_mul(self, c):
        c = Fraction(c)
        if not c:
            return CycElt(self.n, {}, reduced=True)
        return CycElt(self.n, {j: v * c for j, v in self.terms.items()}, reduced=True)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers not supported")
        out = CycElt(self.n, {0: 1}, reduced=False)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- Galois ------------------------------------------------------------

    def galois(self, k):
        """Image under zeta_n -> zeta_n^k; requires gcd(k, n) = 1."""
        k %= self.n if self.n > 1 else 1
        if self.n == 1:
            return self
        if gcd(k, self.n) != 1:
            raise ValueError(f"{k} is not coprime to modulus {self.n}")
        if k == 1:
            return self
        return CycElt(self.n, {(j * k) % self.n: c for j, c in self.terms.items()})

    # -- rationality -------------------------------------------------------

    def to_rational(self):
        """The rational r with self = r.  The basis representation is unique,
        so self is rational exactly when it equals r * (canonical form of 1
        at this modulus), with r read off one basis coefficient of 1.  Every
        coefficient c of that form is +-1, so r = a / c = a * c for the
        coefficient a of self at the same exponent."""
        terms = self.terms
        if not terms:
            return Fraction(0)
        one = _one_at(self.n).terms
        if len(terms) != len(one):
            raise ValueError("element is not rational")
        j, c = next(iter(one.items()))
        r = terms.get(j, 0) * c
        if any(terms.get(i) != r * d for i, d in one.items()):
            raise ValueError("element is not rational")
        return Fraction(r)

    # -- dunder glue -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce(other, self.n)
        if not isinstance(other, CycElt):
            return NotImplemented
        if self.n != other.n:
            x, y = CycElt._unify(self, other)
            return x.terms == y.terms
        return self.terms == other.terms

    def __hash__(self):
        """Hash of (n, terms).  Equal values at one modulus hash alike, as
        every value of a CharacterTable does (_intern puts all at the table
        exponent); loose values at different moduli hash apart even when equal."""
        if self._hash is None:
            h = hash((self.n, tuple(sorted(self.terms.items()))))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def key(self):
        """Deterministic sort/encoding key."""
        return (self.n, tuple(sorted((j, c.numerator, c.denominator) for j, c in self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return f"CycElt({self.n}, 0)"
        bits = " + ".join(f"{c}*z{self.n}^{j}" for j, c in sorted(self.terms.items()))
        return f"CycElt({self.n}, {bits})"


def _coerce(v, n=1):
    if isinstance(v, CycElt):
        return v
    if isinstance(v, (int, Fraction)):
        return CycElt(n, {0: Fraction(v)})
    raise TypeError(f"cannot coerce {v!r} to CycElt")


def zero(n):
    return CycElt(n, {}, reduced=True)


@lru_cache(maxsize=None)
def _one_at(n):
    """Canonical form of the rational 1 at modulus n."""
    return CycElt(n, {0: Fraction(1)})


@lru_cache(maxsize=None)
def _euler_phi(n):
    out = n
    for p, _ in _prime_powers(n):
        out -= out // p
    return out


def sigma_unit(n, e):
    """The unit k for which x -> x.galois(k) is sigma_e at modulus n >= 1,
    e >= 1, the automorphism fixing odd-order roots of unity and raising
    2-power roots to the (1+2^e)-th power: k = 1 mod the odd part m of n and
    k = 1 + 2^e mod its 2-part n2, so k = 1 + 2^e m (m^-1 mod n2)."""
    if n < 1:
        raise ValueError(f"sigma_e needs a modulus n >= 1, got {n}")
    if e < 1:
        raise ValueError(f"sigma_e needs e >= 1, got {e}")
    n2 = n & -n
    m = n // n2
    return (1 + (m * pow(m, -1, n2) << e)) % n


def nu_p(n, p):
    """p-adic valuation of the positive integer n at the integer p >= 2."""
    if n <= 0:
        raise ValueError("valuation needs a positive integer")
    if p < 2:
        raise ValueError(f"valuation needs a base p >= 2, got {p}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# a unit table holds phi(n) ints, and the corollary-c sweep asks for one per
# discriminant, each once; a table's moduli repeat within a few calls, so the
# last 16 keep nearly every hit at a bounded size
@lru_cache(maxsize=16)
def _units(n):
    if n == 1:
        return (0,)
    return tuple(k for k in range(1, n) if gcd(k, n) == 1)


@lru_cache(maxsize=None)
def unit_generators(n):
    """Generators of (Z/n)*, n >= 1, as a tuple: each unit, in increasing
    order, that the earlier picks do not generate."""
    gens, have = [], subgroup_closure(n, [])
    for k in _units(n):
        if k not in have:
            gens.append(k)
            have = subgroup_closure(n, gens)
    return tuple(gens)


def subgroup_closure(n, gens):
    """Subgroup of (Z/n)* generated by gens, as a frozenset of residues mod n
    ({0} when n = 1); n must be >= 1."""
    if n < 1:
        raise ValueError(f"(Z/n)* needs n >= 1, got {n}")
    if n == 1:
        return frozenset((0,))
    gens = [g % n for g in gens]
    for g in gens:
        if gcd(g, n) != 1:
            raise ValueError(f"{g} is not coprime to {n}")
    have = {1}
    for g in gens:
        if g in have:
            continue
        # <have, g> is the union of the cosets have * g^i (the group is abelian)
        grown, x = set(have), g
        while x not in have:
            grown.update(h * x % n for h in have)
            x = x * g % n
        have = grown
    return frozenset(have)
