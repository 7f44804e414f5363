"""Subgroups and class functions for the tests.

The pipeline never restricts a character or decomposes a class function, so
these helpers live next to the tests that check heights, induction and
restriction against them.  Class functions are plain tuples of CycElt values
over the classes.
"""

from fractions import Fraction

from heightzero.cyclotomic import zero
from heightzero.groups import FiniteGroup
from oracles import inverse


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
    ginvs = [(g, inverse(group, g)) for g in group.gen_indices]
    for a in range(group.order):
        ai = inverse(group, a)
        for g, gi in ginvs:
            comms.add(group.mul(group.mul(a, g), group.mul(ai, gi)))
    return subgroup_elements(group, comms)


def subgroup_as_group(group, sub_indices, name=None):
    """The subgroup as its own FiniteGroup plus the index embedding into G."""
    idxs = sorted(sub_indices)
    if 0 not in idxs:
        raise ValueError("subgroup must contain the identity index 0")
    idxs.remove(0)
    idxs.insert(0, 0)
    elements = [group.elements[i] for i in idxs]
    sub = FiniteGroup(elements, group._mul_elems, name or f"{group.name}|sub{len(idxs)}",
                      elements[1:])
    return sub, list(idxs)


def restrict(values, cd_big, sub_cd, embedding):
    """Restrict a row of the big table to a subgroup with its own ClassData."""
    return tuple(values[cd_big.class_of[embedding[rep]]] for rep in sub_cd.class_reps)


def inner_product(v1, v2, cd, order):
    """[v1, v2] = (1/|G|) sum_j |K_j| v1(j) conj(v2(j)); exact CycElt."""
    acc = zero(1)
    for j, sz in enumerate(cd.class_sizes):
        acc = acc + v1[j] * v2[j].galois(-1) * sz
    return acc.scalar_mul(Fraction(1, order))


def decompose(values, table):
    """Multiplicities of a class function against the rows of the table;
    they must be nonnegative integers."""
    mults = []
    for row in table.rows:
        r = inner_product(values, row, table.classes, table.order).to_rational()
        if r.denominator != 1 or r < 0:
            raise ValueError("class function is not a nonnegative integer combination")
        mults.append(int(r))
    return mults
