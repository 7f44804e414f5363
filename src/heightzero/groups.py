"""Fully enumerated finite groups with conjugacy-class data and power maps.

Groups are Cayley-style: every element is materialized and indexed (index 0 is
the identity).  Element representations are hashable opaque values; products
go through a representation-level multiply plus an index lookup.  Orders stay
small enough (cap 20000) that exhaustive enumeration is the cheapest route to
the class data the character-table and block machinery needs.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

__all__ = [
    "FiniteGroup",
    "ClassData",
    "GroupTooLarge",
    "from_permutation_generators",
    "cyclic",
    "dihedral",
    "semidihedral",
    "generalized_quaternion",
    "symmetric",
    "alternating",
    "sl2",
    "semidirect_cn_h",
    "conjugacy_classes",
    "subgroup_elements",
    "center",
    "derived_subgroup",
]

ORDER_CAP = 20000


class GroupTooLarge(ValueError):
    pass


class FiniteGroup:
    """Indexed element list + multiplication; index 0 is the identity."""

    def __init__(self, elements, mul_elems, name, gens=None):
        self.elements = list(elements)
        self.name = name
        self._mul_elems = mul_elems
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate elements")
        self.gen_indices = list(gens) if gens is not None else list(range(1, len(self.elements)))
        self._inv = None

    def __len__(self):
        return len(self.elements)

    @property
    def order(self):
        return len(self.elements)

    def mul(self, i, j):
        return self.index[self._mul_elems(self.elements[i], self.elements[j])]

    def inv(self, i):
        if self._inv is None:
            inv = [None] * len(self.elements)
            for a in range(len(self.elements)):
                if inv[a] is not None:
                    continue
                b = self._power_to_identity(a)
                inv[a] = b
                inv[b] = a
            self._inv = inv
        return self._inv[i]

    def _power_to_identity(self, a):
        # a^(o-1) where o is the order of a
        prev, cur = 0, a
        while cur != 0:
            prev, cur = cur, self.mul(cur, a)
        return prev

    def element_order(self, i):
        o, cur = 1, i
        while cur != 0:
            cur = self.mul(cur, i)
            o += 1
        return o

    def conj(self, i, g, ginv):
        """g * i * g^-1 by index."""
        return self.mul(self.mul(g, i), ginv)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class ClassData:
    """Conjugacy classes: reps, sizes, per-element class map, power maps."""

    def __init__(self, group, class_members):
        self.group = group
        # deterministic class order: (element order, size, minimal member index)
        keyed = []
        for members in class_members:
            rep = min(members)
            keyed.append((group.element_order(rep), len(members), rep, sorted(members)))
        keyed.sort(key=lambda t: (t[0], t[1], t[2]))
        self.class_reps = [t[2] for t in keyed]
        self.class_sizes = [t[1] for t in keyed]
        self.element_orders = [t[0] for t in keyed]
        self.members = [t[3] for t in keyed]
        self.class_of = [None] * group.order
        for ci, mem in enumerate(self.members):
            for e in mem:
                self.class_of[e] = ci
        self.exponent = 1
        for o in self.element_orders:
            self.exponent = lcm(self.exponent, o)
        # power_map[ci][k] = class of rep^k for k in [0, exponent)
        self.power_map = []
        for rep in self.class_reps:
            row = []
            cur = 0
            for _ in range(self.exponent):
                row.append(self.class_of[cur])
                cur = group.mul(cur, rep)
            self.power_map.append(row)
        self.inverse_class = [self.power_map[ci][(self.exponent - 1) % self.exponent]
                              if self.element_orders[ci] > 1 else ci
                              for ci in range(len(self.class_reps))]

    @property
    def num_classes(self):
        return len(self.class_reps)


def conjugacy_classes(group):
    """Classes as orbits under conjugation by the group generators."""
    n = group.order
    gens = group.gen_indices
    ginvs = [group.inv(g) for g in gens]
    assigned = [False] * n
    classes = []
    for start in range(n):
        if assigned[start]:
            continue
        orbit = {start}
        frontier = [start]
        assigned[start] = True
        while frontier:
            x = frontier.pop()
            for g, gi in zip(gens, ginvs):
                y = group.conj(x, g, gi)
                if not assigned[y]:
                    assigned[y] = True
                    orbit.add(y)
                    frontier.append(y)
        classes.append(orbit)
    return ClassData(group, classes)


def exponent(group):
    return conjugacy_classes(group).exponent


# ---------------------------------------------------------------------------
# constructors


def _perm_mul(p, q):
    # (p*q)(x) = p(q(x))
    return tuple(p[i] for i in q)


def from_permutation_generators(gens, name=None, cap=ORDER_CAP):
    """BFS closure of permutation generators; deterministic element order."""
    gens = [tuple(g) for g in gens]
    deg = max((len(g) for g in gens), default=1)
    gens = [g + tuple(range(len(g), deg)) for g in gens]
    for g in gens:
        if sorted(g) != list(range(deg)):
            raise ValueError(f"not a permutation: {g}")
    ident = tuple(range(deg))
    elements = [ident]
    seen = {ident}
    head = 0
    while head < len(elements):
        cur = elements[head]
        head += 1
        for g in gens:
            nxt = _perm_mul(cur, g)
            if nxt not in seen:
                if len(elements) >= cap:
                    raise GroupTooLarge(f"closure exceeds cap {cap}")
                seen.add(nxt)
                elements.append(nxt)
    grp = FiniteGroup(elements, _perm_mul, name or "perm", gens=None)
    grp.gen_indices = [grp.index[g] for g in gens if g != ident]
    if not grp.gen_indices:
        grp.gen_indices = [0]
    return grp


def semidirect_cn_h(n, hgens, name=None):
    """C_n x| H with H = <hgens> <= (Z/n)* acting by multiplication."""
    if n < 1:
        raise ValueError("n must be positive")
    from .fields import subgroup_closure

    H = subgroup_closure(n, hgens)  # residues mod n; (0,) when n == 1
    if n * len(H) > ORDER_CAP:
        raise GroupTooLarge(f"order {n * len(H)} exceeds cap")
    one = 1 % n

    def mul(a, b):
        return ((a[0] + a[1] * b[0]) % n, (a[1] * b[1]) % n)

    elements = [(0, one)] + [(c, one) for c in range(1, n)]
    for h in H:
        if h == one:
            continue
        elements.extend((c, h) for c in range(n))
    grp = FiniteGroup(elements, mul, name or f"meta:{n}:{','.join(map(str, hgens))}")
    gens = []
    if n > 1:
        gens.append(grp.index[(1, one)])
    for h in H:
        if h != one:
            gens.append(grp.index[(0, h)])
    grp.gen_indices = gens or [0]
    grp.meta_params = (n, H)
    return grp


def cyclic(n, name=None):
    return semidirect_cn_h(n, [], name=name or f"cyclic:{n}")


def dihedral(order, name=None):
    """Dihedral group of the given even order 2n, n >= 1."""
    if order % 2 or order < 2:
        raise ValueError("dihedral order must be even and >= 2")
    n = order // 2

    def mul(a, b):
        i, e = a
        j, f = b
        return ((i + (j if e == 0 else -j)) % n, e ^ f)

    elements = [(0, 0)] + [(i, 0) for i in range(1, n)] + [(i, 1) for i in range(n)]
    grp = FiniteGroup(elements, mul, name or f"dihedral:{order}")
    grp.gen_indices = [grp.index[(1 % n, 0)], grp.index[(0, 1)]]
    return grp


def semidihedral(order, name=None):
    """Semidihedral group of order 2^k, k >= 4."""
    k = order.bit_length() - 1
    if order != 1 << k or k < 4:
        raise ValueError("semidihedral order must be 2^k with k >= 4")
    m = order // 2
    t = m // 2 - 1  # r s r = s^t with t = 2^(k-2) - 1

    def mul(a, b):
        i, e = a
        j, f = b
        return ((i + (j if e == 0 else t * j)) % m, e ^ f)

    elements = [(i, e) for e in (0, 1) for i in range(m)]
    elements.remove((0, 0))
    elements.insert(0, (0, 0))
    grp = FiniteGroup(elements, mul, name or f"semidihedral:{order}")
    grp.gen_indices = [grp.index[(1, 0)], grp.index[(0, 1)]]
    return grp


def generalized_quaternion(order, name=None):
    """Generalized quaternion group of order 2^k, k >= 3."""
    k = order.bit_length() - 1
    if order != 1 << k or k < 3:
        raise ValueError("quaternion order must be 2^k with k >= 3")
    m = order // 2

    def mul(a, b):
        i, e = a
        j, f = b
        c = (i + (j if e == 0 else -j) + (m // 2 if (e and f) else 0)) % m
        return (c, e ^ f)

    elements = [(i, e) for e in (0, 1) for i in range(m)]
    elements.remove((0, 0))
    elements.insert(0, (0, 0))
    grp = FiniteGroup(elements, mul, name or f"quaternion:{order}")
    grp.gen_indices = [grp.index[(1, 0)], grp.index[(0, 1)]]
    return grp


def symmetric(n, name=None):
    if not 1 <= n <= 6:
        raise ValueError("symmetric(n) supported for n <= 6")
    if n == 1:
        return from_permutation_generators([], name=name or "sym:1")
    gens = [(1, 0) + tuple(range(2, n))]
    if n > 2:
        gens.append(tuple(range(1, n)) + (0,))
    return from_permutation_generators(gens, name=name or f"sym:{n}")


def alternating(n, name=None):
    if not 1 <= n <= 6:
        raise ValueError("alternating(n) supported for n <= 6")
    if n <= 2:
        return from_permutation_generators([], name=name or f"alt:{n}")
    gens = [(1, 2, 0) + tuple(range(3, n))]
    if n > 3:
        if n % 2:
            gens.append(tuple(range(1, n)) + (0,))  # n-cycle, even for odd n
        else:
            gens.append((1, 0) + tuple(range(3, n)) + (2,))  # (0 1)(2 3 ... n-1)
    return from_permutation_generators(gens, name=name or f"alt:{n}")


def sl2(q, name=None):
    """SL(2, q) acting on the q^2 - 1 nonzero vectors of F_q^2."""
    if q not in (3, 5):
        raise ValueError("sl2(q) supported for q in {3, 5}")
    vecs = [(a, b) for a in range(q) for b in range(q) if (a, b) != (0, 0)]
    vidx = {v: i for i, v in enumerate(vecs)}

    def mat_perm(m):
        a, b, c, d = m
        return tuple(vidx[((a * x + b * y) % q, (c * x + d * y) % q)] for x, y in vecs)

    gens = [mat_perm((1, 1, 0, 1)), mat_perm((0, q - 1, 1, 0))]
    return from_permutation_generators(gens, name=name or f"sl2:{q}")


# ---------------------------------------------------------------------------
# subgroup machinery (plain element-index sets inside an ambient group)


def subgroup_elements(group, gen_indices):
    """Index set of the subgroup generated by the given indices."""
    have = {0}
    frontier = list(gen_indices)
    while frontier:
        a = frontier.pop()
        if a in have:
            continue
        have.add(a)
        for b in list(have):
            for c in (group.mul(a, b), group.mul(b, a)):
                if c not in have:
                    frontier.append(c)
    return frozenset(have)


def center(group):
    gens = group.gen_indices
    return frozenset(
        i
        for i in range(group.order)
        if all(group.mul(i, g) == group.mul(g, i) for g in gens)
    )


def derived_subgroup(group):
    comms = set()
    for a in range(group.order):
        ai = group.inv(a)
        for g in group.gen_indices:
            comms.add(group.mul(group.mul(a, g), group.mul(ai, group.inv(g))))
    return subgroup_elements(group, comms)
