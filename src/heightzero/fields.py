"""Abelian number fields as fixed fields of subgroups of (Z/n)*.

A field is stored conductor-normalized: the modulus n is the conductor, so
equality is structural.  Subgroups store their full element sets; desk-scale
phi(n) keeps preimages and subfield tests cheap as plain set operations, and an
index over a cyclotomic subfield a count of fixer elements.
"""

from __future__ import annotations

from math import gcd, lcm

from .cyclotomic import CycElt, _euler_phi, _jacobi, _prime_powers, _units, nu_p, subgroup_closure

__all__ = [
    "AbelianField",
    "cyclotomic_field",
    "rational_field",
    "field_from_values",
    "quadratic_field",
    "cyclotomic_index",
    "in_class_Fp",
    "conductor_parts",
]


def _conductor(n, fixes):
    """Least m | n whose kernel {k in (Z/n)* : k = 1 mod m} lies in the
    subgroup {k : fixes(k)} of (Z/n)*.

    The kernel of gcd(a, b) is the product of the kernels of a and b, so the
    admissible m are closed under gcd and the least one divides all others;
    dividing out one prime at a time while the kernel stays inside reaches it."""
    m = n
    while True:
        for p, _ in _prime_powers(m):
            d = m // p
            if all(fixes(k) for k in range(1, n, d) if gcd(k, n) == 1):
                m = d
                break
        else:
            return m


class AbelianField:
    """Fixed field of `fixer` inside Q(zeta_n), stored with n = conductor;
    `fixer` is the subgroup as a frozenset of residues mod n."""

    __slots__ = ("n", "fixer")

    def __init__(self, n, fixer_elements):
        if n < 1:
            raise ValueError("n must be >= 1")
        fixer = subgroup_closure(n, fixer_elements)
        m = _conductor(n, fixer.__contains__)
        if m < n:
            fixer = frozenset(k % m for k in fixer)
        object.__setattr__(self, "n", m)
        object.__setattr__(self, "fixer", fixer)

    def __setattr__(self, *a):
        raise AttributeError("AbelianField is immutable")

    @property
    def conductor(self):
        return self.n

    @property
    def degree(self):
        return _euler_phi(self.n) // len(self.fixer)

    def preimage_fixer(self, big_n):
        """Fixer elements lifted to (Z/big_n)* (n must divide big_n)."""
        if big_n % self.n:
            raise ValueError("modulus mismatch")
        return {k for k in _units(big_n) if k % self.n in self.fixer}

    def is_subfield_of(self, other):
        big = lcm(self.n, other.n)
        return other.preimage_fixer(big) <= self.preimage_fixer(big)

    def __eq__(self, other):
        return (
            isinstance(other, AbelianField)
            and self.n == other.n
            and self.fixer == other.fixer
        )

    def __hash__(self):
        return hash((self.n, self.fixer))

    def __repr__(self):
        return f"AbelianField(n={self.n}, fixer={sorted(self.fixer)})"

    def to_json(self):
        return {
            "conductor": self.n,
            "fixer": sorted(self.fixer) if self.n > 1 else [1],
            "degree": self.degree,
        }


def cyclotomic_field(n):
    return AbelianField(n, [1] if n > 1 else [])


def rational_field():
    return cyclotomic_field(1)


def field_from_values(values):
    """Smallest abelian field containing every value, by a Galois scan over
    the units of the common modulus.

    This is the route for loose values (the public API).  Rows of a
    CharacterTable go through CharacterTable.row_field, which reads the
    Galois action as a permutation of rows through the table's power map and
    builds one field per Galois orbit of rows."""
    values = [v for v in values if isinstance(v, CycElt)]
    if not values:
        return rational_field()
    big = 1
    for v in values:
        big = lcm(big, v.n)
    if big == 1:
        return rational_field()
    emb = [v.embed(big) for v in values]
    return _fixer_scan(big, lambda k: all(v.galois(k) == v for v in emb))


def _fixer_scan(n, fixes):
    """The fixed field of {k in (Z/n)* : fixes(k)}, a subgroup.

    Stabilizer scan over the units; elements already known to lie in the
    subgroup are skipped."""
    fixer = {1 % n}
    for k in _units(n):
        if k in fixer:
            continue
        if fixes(k):
            fixer = subgroup_closure(n, [*fixer, k])
    return AbelianField(n, fixer)


def conductor_parts(field, p):
    """(a, m) with conductor = p^a * m and p not dividing m."""
    a = nu_p(field.n, p)
    return a, field.n // p**a


def cyclotomic_index(field, m):
    """|Q_n : <Q_m, F>| for F of conductor n and m dividing n.

    Gal(Q_n / <Q_m, F>) is the part of the fixer of F that is 1 mod m, and
    the fixer is stored mod n, so the index is a count of fixer elements."""
    return sum(1 for k in field.fixer if k % m == 1 % m)


def in_class_Fp(field, p):
    """Membership in the class F_p: p does not divide |Q_n : <Q_m, F>|,
    where n = p^a * m is the conductor."""
    a, m = conductor_parts(field, p)
    return cyclotomic_index(field, m) % p != 0


def quadratic_field(d):
    """Q(sqrt d) for squarefree d not in {0, 1}, as the kernel of its
    quadratic character.

    The discriminant is D = d for d = 1 mod 4 and D = 4d otherwise, and the
    character is the Kronecker symbol (D/k) on (Z/|D|)*: the Jacobi symbol
    (k/|D|) for odd D, and (D/k) for even D, where every unit k is odd."""
    if d in (0, 1):
        raise ValueError("d must be a squarefree integer other than 0 and 1")
    for p, q in _prime_powers(abs(d)):
        if q != p:
            raise ValueError(f"{d} is not squarefree")
    disc = d if d % 4 == 1 else 4 * d
    n = abs(disc)
    fixer = [k for k in _units(n) if (_jacobi(k, n) if disc % 2 else _jacobi(disc, k)) == 1]
    return AbelianField(n, fixer)
