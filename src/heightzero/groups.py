"""Fully enumerated finite groups with conjugacy-class data and power maps.

Groups are Cayley-style: every element is materialized and indexed (index 0 is
the identity).  Element representations are hashable opaque values; products
go through a representation-level multiply plus an index lookup.  Orders stay
small (cap 20000).  The class data of C_n x| H is read off in closed form from
the element layout of semidirect_cn_h, with no group product; permutation and
matrix groups get it by orbits under conjugation by the generators, and
orders, powers and inverses by one power walk per class or generator.
"""

from __future__ import annotations

from math import gcd, lcm

from .cyclotomic import isprime, subgroup_closure

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
]

ORDER_CAP = 20000


class GroupTooLarge(ValueError):
    pass


def _capped_product(factors, what):
    """The order given as a product of factors; GroupTooLarge as soon as the
    running product passes ORDER_CAP, so a huge n costs nothing."""
    order = 1
    for k in factors:
        order *= k
        if order > ORDER_CAP:
            raise GroupTooLarge(f"{what} has order above the cap {ORDER_CAP}")
    return order


class FiniteGroup:
    """Indexed element list + multiplication; index 0 is the identity.

    gens are element values; gen_indices holds their indices without the
    identity, or [0] for the trivial group.  meta_params is (n, H) for
    C_n x| H, whose class data conjugacy_classes and whose table
    chartab.metacyclic_table build directly."""

    meta_params = None

    def __init__(self, elements, mul_elems, name, gens):
        self.elements = list(elements)
        self.name = name
        self._mul_elems = mul_elems
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate elements")
        self.gen_indices = [self.index[g] for g in gens if self.index[g] != 0] or [0]

    @property
    def order(self):
        return len(self.elements)

    def mul(self, i, j):
        return self.index[self._mul_elems(self.elements[i], self.elements[j])]

    def mul_each(self, i, js):
        """[mul(i, j) for j in js]: element i times each element of js."""
        x, elements, index, mul = self.elements[i], self.elements, self.index, self._mul_elems
        return [index[mul(x, elements[j])] for j in js]

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class ClassData:
    """Conjugacy-class data: sizes, element orders and power maps, where
    power_map[ci][k] is the class of the k-th power of class ci for k in
    [0, exponent).  Built from a group by conjugacy_classes, which also sets
    the reps (least member of each class), the sorted members and the
    element-to-class map; an ingested table carries only the class-level data
    (chartab.table_from_json).  It takes ownership of the lists it is given
    and copies none of them."""

    def __init__(self, class_sizes, element_orders, power_map, exponent,
                 class_reps=None, members=None, class_of=None):
        self.class_sizes = class_sizes
        self.element_orders = element_orders
        self.power_map = power_map
        self.exponent = exponent
        self.class_reps = class_reps
        self.members = members
        self.class_of = class_of
        # each row has e entries and x^(e-1) = x^-1
        self.inverse_class = [row[-1] for row in self.power_map]

    @property
    def num_classes(self):
        return len(self.class_sizes)


def conjugacy_classes(group):
    """ClassData of the group, classes sorted by (element order, size, least
    member index).  C_n x| H (group.meta_params set) takes the closed form,
    every other group the orbits under conjugation by its generators."""
    if group.meta_params is not None:
        return _metacyclic_classes(*group.meta_params)
    return _orbit_classes(group)


def _powers(group, a):
    """The powers a^0, a^1, ..., a^(o-1) of a, o its order: one walk that
    stops at the identity.  The last is a^-1."""
    powers, cur = [0], a
    while cur != 0:
        powers.append(cur)
        cur = group.mul(cur, a)
    return powers


def _orbit_classes(group):
    """Classes as orbits under conjugation by the group generators; each
    class's order and powers from the power walk of its least member."""
    mul = group.mul
    gens = [(g, _powers(group, g)[-1]) for g in group.gen_indices]
    assigned = [False] * group.order
    keyed = []
    for start in range(group.order):
        if assigned[start]:
            continue
        orbit = [start]
        assigned[start] = True
        for x in orbit:
            for g, ginv in gens:
                y = mul(mul(g, x), ginv)
                if not assigned[y]:
                    assigned[y] = True
                    orbit.append(y)
        powers = _powers(group, start)
        keyed.append((len(powers), len(orbit), start, sorted(orbit), powers))
    return _class_data(keyed, group.order)


def _class_data(keyed, n):
    """ClassData of a group of order n from one (element order, size, least
    member, members, powers rep^0 ... rep^(o-1)) per class; classes sorted by
    the first three.  The powers of a class repeat with period its element
    order, so each power-map row is that period repeated e/o times."""
    keyed.sort(key=lambda t: t[:3])
    class_of = [None] * n
    for ci, t in enumerate(keyed):
        for x in t[3]:
            class_of[x] = ci
    orders = [t[0] for t in keyed]
    exponent = lcm(*orders)
    power_map = [[class_of[x] for x in t[4]] * (exponent // t[0]) for t in keyed]
    return ClassData([t[1] for t in keyed], orders, power_map, exponent,
                     class_reps=[t[2] for t in keyed],
                     members=[t[3] for t in keyed], class_of=class_of)


# ---------------------------------------------------------------------------
# constructors


def _perm_mul(p, q):
    # (p*q)(x) = p(q(x))
    return tuple(p[i] for i in q)


def _closure(gens, mul, identity, name):
    """BFS closure of gens under mul, from the identity; deterministic element
    order, GroupTooLarge past ORDER_CAP."""
    elements = [identity]
    seen = {identity}
    for cur in elements:
        for g in gens:
            nxt = mul(cur, g)
            if nxt not in seen:
                if len(elements) >= ORDER_CAP:
                    raise GroupTooLarge(f"{name} has order above the cap {ORDER_CAP}")
                seen.add(nxt)
                elements.append(nxt)
    return FiniteGroup(elements, mul, name, gens)


def from_permutation_generators(gens, name):
    """The group generated by permutations of range(degree), as a closure."""
    gens = [tuple(g) for g in gens]
    deg = max((len(g) for g in gens), default=1)
    gens = [g + tuple(range(len(g), deg)) for g in gens]
    for g in gens:
        if sorted(g) != list(range(deg)):
            raise ValueError(f"not a permutation: {g}")
    return _closure(gens, _perm_mul, tuple(range(deg)), name)


def semidirect_cn_h(n, hgens, name=None):
    """C_n x| H with H = <hgens> <= (Z/n)* acting by multiplication.  The
    element (c, h) has index pos(h)*n + c, pos(h) the place of h in the
    sorted H (h = 1 first); _metacyclic_classes reads the classes off it."""
    if n < 1:
        raise ValueError("n must be positive")
    what = name or f"C_{n} x| H"
    _capped_product((n,), what)  # |G| >= n, checked before H is closed
    H = tuple(sorted(subgroup_closure(n, hgens)))  # residues mod n; (0,) when n == 1
    _capped_product((n, len(H)), what)
    one = 1 % n

    def mul(a, b):
        return ((a[0] + a[1] * b[0]) % n, (a[1] * b[1]) % n)

    elements = [(0, one)] + [(c, one) for c in range(1, n)]
    for h in H:
        if h == one:
            continue
        elements.extend((c, h) for c in range(n))
    gens = [(1 % n, one)] + [(0, h) for h in H]
    grp = FiniteGroup(elements, mul, name or f"meta:{n}:{','.join(map(str, hgens))}", gens)
    grp.meta_params = (n, H)
    return grp


def _metacyclic_classes(n, H):
    """ClassData of C_n x| H on the element layout of semidirect_cn_h, where
    (c, h) has index pos(h)*n + c, pos(h) its place in the sorted H.

    Conjugation gives (x, k)(c, h)(x, k)^-1 = (k*c + (1 - h)*x, h), so with
    d = gcd(1 - h, n) the classes over h are the H-orbits on Z/d, each lifted
    by dZ/n.  The powers of a class come from the walk (r, h)^a, a = 1, 2, ...,
    with (x, y)(r, h) = (x + y*r, y*h), which stops at (0, 1), as _powers
    does; the element order is the length of the walk."""
    one = 1 % n
    pos = {h: i for i, h in enumerate(H)}
    keyed = []
    for i, h in enumerate(H):
        base, d = i * n, gcd(1 - h, n)
        seen = set()
        for r in range(d):
            if r in seen:
                continue
            orbit = sorted({k * r % d for k in H})
            seen.update(orbit)
            members = [base + t + x for t in range(0, n, d) for x in orbit]
            powers, x, y = [0], r, h
            while x or y != one:  # (x, y) = (r, h)^len(powers)
                powers.append(pos[y] * n + x)
                x, y = (x + y * r) % n, y * h % n
            keyed.append((len(powers), len(members), base + r, members, powers))
    return _class_data(keyed, n * len(H))


def cyclic(n):
    return semidirect_cn_h(n, [], name=f"cyclic:{n}")


def dihedral(order):
    """Dihedral group of the given even order 2n, n >= 1: C_n x| {1, -1}.

    For n <= 2 the group is C_n x C_2, abelian, and -1 = 1 in Z/n, so it is
    built from permutations instead and has no meta_params."""
    if order % 2 or order < 2:
        raise ValueError("dihedral order must be even and >= 2")
    n = order // 2
    name = f"dihedral:{order}"
    if n <= 2:
        return from_permutation_generators([(1, 0)] + [(0, 1, 3, 2)] * (n - 1), name=name)
    return semidirect_cn_h(n, [n - 1], name=name)


def semidihedral(order):
    """Semidihedral group of order 2^k, k >= 4: C_{2^(k-1)} x| {1, 2^(k-2) - 1}."""
    k = order.bit_length() - 1
    if order != 1 << k or k < 4:
        raise ValueError("semidihedral order must be 2^k with k >= 4")
    return semidirect_cn_h(order // 2, [order // 4 - 1], name=f"semidihedral:{order}")


def generalized_quaternion(order):
    """Generalized quaternion group of order 2^k, k >= 3."""
    k = order.bit_length() - 1
    if order != 1 << k or k < 3:
        raise ValueError("quaternion order must be 2^k with k >= 3")
    _capped_product((order,), f"quaternion:{order}")
    m = order // 2

    def mul(a, b):
        i, e = a
        j, f = b
        c = (i + (j if e == 0 else -j) + (m // 2 if (e and f) else 0)) % m
        return (c, e ^ f)

    elements = [(i, e) for e in (0, 1) for i in range(m)]
    elements.remove((0, 0))
    elements.insert(0, (0, 0))
    return FiniteGroup(elements, mul, f"quaternion:{order}", [(1, 0), (0, 1)])


def symmetric(n):
    if n < 1:
        raise ValueError("symmetric(n) needs n >= 1")
    _capped_product(range(2, n + 1), f"sym:{n}")
    if n == 1:
        return from_permutation_generators([], name="sym:1")
    gens = [(1, 0) + tuple(range(2, n))]
    if n > 2:
        gens.append(tuple(range(1, n)) + (0,))
    return from_permutation_generators(gens, name=f"sym:{n}")


def alternating(n):
    if n < 1:
        raise ValueError("alternating(n) needs n >= 1")
    _capped_product(range(3, n + 1), f"alt:{n}")  # n!/2
    if n <= 2:
        return from_permutation_generators([], name=f"alt:{n}")
    gens = [(1, 2, 0) + tuple(range(3, n))]
    if n > 3:
        if n % 2:
            gens.append(tuple(range(1, n)) + (0,))  # n-cycle, even for odd n
        else:
            gens.append((1, 0) + tuple(range(3, n)) + (2,))  # (0 1)(2 3 ... n-1)
    return from_permutation_generators(gens, name=f"alt:{n}")


def sl2(q):
    """SL(2, q) for a prime q: matrices (a, b, c, d) = [[a, b], [c, d]] mod q."""
    if q < 2:
        raise ValueError(f"sl2(q) needs a prime q, got {q}")
    _capped_product((q, q - 1, q + 1), f"sl2:{q}")
    if not isprime(q):
        raise ValueError(f"sl2(q) needs a prime q, got {q}")

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % q, (a * f + b * h) % q, (c * e + d * g) % q, (c * f + d * h) % q)

    return _closure([(1, 1, 0, 1), (0, q - 1, 1, 0)], mul, (1, 0, 0, 1), f"sl2:{q}")
