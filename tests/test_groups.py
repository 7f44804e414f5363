"""Group constructors, conjugacy classes, power maps, and the subgroup
helpers of the tests."""

import pytest

from heightzero import groups
from heightzero.groups import (
    FiniteGroup,
    GroupTooLarge,
    alternating,
    conjugacy_classes,
    cyclic,
    dihedral,
    from_permutation_generators,
    generalized_quaternion,
    semidihedral,
    semidirect_cn_h,
    sl2,
    symmetric,
)
from heightzero.reports import default_corpus, parse_group_spec
from oracles import element_order, inverse
from subgroups import center, derived_subgroup, subgroup_elements


def test_orders():
    assert cyclic(12).order == 12
    assert dihedral(16).order == 16
    assert semidihedral(16).order == 16
    assert generalized_quaternion(8).order == 8
    assert symmetric(5).order == 120
    assert alternating(5).order == 60
    assert sl2(3).order == 24
    assert sl2(5).order == 120
    assert semidirect_cn_h(40, [3]).order == 160
    assert semidirect_cn_h(1, []).order == 1


def test_alternating_is_even_permutations_only():
    # orders 1, 1, 3, 12, 60, 360 for n = 1..6
    assert [alternating(n).order for n in range(1, 7)] == [1, 1, 3, 12, 60, 360]


def test_order_cap_enforced():
    # S10 has no order formula to check first: its closure stops at the cap
    with pytest.raises(GroupTooLarge):
        from_permutation_generators([tuple(range(1, 10)) + (0,), (1, 0) + tuple(range(2, 10))], "perm")
    # S8, A8 and SL(2, 29) are the first of their families past the cap of 20000
    for build, arg in ((symmetric, 8), (alternating, 8), (sl2, 29), (dihedral, 20002)):
        with pytest.raises(GroupTooLarge):
            build(arg)


def test_identity_is_index_zero():
    for g in (symmetric(4), dihedral(10), sl2(3)):
        assert element_order(g, 0) == 1
        for i in range(g.order):
            assert g.mul(0, i) == i == g.mul(i, 0)


def test_inverses():
    # the test-side inverse is two-sided
    for g in (symmetric(4), sl2(3), generalized_quaternion(16)):
        for i in range(g.order):
            assert g.mul(inverse(g, i), i) == 0


def test_s4_class_sizes():
    cd = conjugacy_classes(symmetric(4))
    assert sorted(cd.class_sizes) == [1, 3, 6, 6, 8]
    assert cd.exponent == 12


def test_a5_class_sizes():
    cd = conjugacy_classes(alternating(5))
    assert sorted(cd.class_sizes) == [1, 12, 12, 15, 20]


def test_class_order_is_deterministic():
    cd = conjugacy_classes(symmetric(4))
    keys = list(zip(cd.element_orders, cd.class_sizes))
    assert keys == sorted(keys)
    assert cd.class_reps[0] == 0


# both check the class data against group products, for every power k < e
# and not only the period the routes repeat; the first six take the closed
# form, the rest the orbit route
M11 = "perm:(1,2,3,4,5,6,7,8,9,10,11);(3,7,11,8)(4,10,5,6)"
WALKED = ["dihedral:12", "cyclic:5", "semidihedral:32", "meta:63:2,8", "cyclic:30", "meta:21:2",
          "sym:5", "alt:5", "sl2:7", "quaternion:16", M11]


@pytest.mark.parametrize("spec", WALKED)
def test_power_map_consistency(spec):
    g = parse_group_spec(spec)
    cd = conjugacy_classes(g)
    for ci, rep in enumerate(cd.class_reps):
        cur = 0
        for k in range(cd.exponent):
            assert cd.power_map[ci][k] == cd.class_of[cur]
            cur = g.mul(cur, rep)


@pytest.mark.parametrize("spec", WALKED)
def test_inverse_class(spec):
    g = parse_group_spec(spec)
    cd = conjugacy_classes(g)
    for ci, rep in enumerate(cd.class_reps):
        assert cd.inverse_class[ci] == cd.class_of[inverse(g, rep)]


CLASS_FIELDS = ("class_sizes", "element_orders", "power_map", "exponent",
                "class_reps", "members", "class_of", "inverse_class")


def test_metacyclic_classes_match_the_orbit_routine():
    # the closed form against conjugation orbits and group products, on every
    # C_n x| H of the default corpus and the edge cases n = 1, 2
    specs = default_corpus() + ["cyclic:1", "cyclic:2", "dihedral:6", "semidihedral:16",
                                "meta:63:2,8"]
    checked = 0
    for spec in specs:
        g = parse_group_spec(spec)
        if g.meta_params is None:
            continue
        n, H = g.meta_params
        # the layout the closed form reads: (c, h) at pos(h)*n + c
        layout = {(c, h): i * n + c for i, h in enumerate(H) for c in range(n)}
        assert g.index == layout, spec
        got, want = conjugacy_classes(g), groups._orbit_classes(g)
        for field in CLASS_FIELDS:
            assert getattr(got, field) == getattr(want, field), (spec, field)
        checked += 1
    assert checked == 197 + 5


def test_metacyclic_classes_need_no_group_product(monkeypatch):
    def refuse(self, i, j):
        raise AssertionError("group product in the closed form")

    monkeypatch.setattr(FiniteGroup, "mul", refuse)
    # H = (Z/37)*: 2 classes over h = 1 and one over each other h.  D200:
    # {0}, {50} and 49 pairs {c, -c} over h = 1, and c mod 2 over h = -1
    for g, classes in ((semidirect_cn_h(37, [2]), 2 + 35), (dihedral(200), 51 + 2)):
        assert conjugacy_classes(g).num_classes == classes


def test_orbit_classes_walk_each_power_once(monkeypatch):
    # one power walk per class and per generator, and two products per
    # conjugation: no walk of c * e powers and no table of all inverses
    g = sl2(23)
    calls = []
    mul = FiniteGroup.mul

    def counted(self, i, j):
        calls.append(None)
        return mul(self, i, j)

    monkeypatch.setattr(FiniteGroup, "mul", counted)
    cd = conjugacy_classes(g)
    made = len(calls)
    monkeypatch.setattr(FiniteGroup, "mul", mul)
    bound = (sum(cd.element_orders) + sum(element_order(g, x) for x in g.gen_indices)
             + 2 * g.order * len(g.gen_indices))
    assert made <= bound
    assert cd.exponent * cd.num_classes > bound  # what a walk of every power would cost


def test_quaternion_has_unique_involution():
    g = generalized_quaternion(16)
    invs = [i for i in range(g.order) if element_order(g, i) == 2]
    assert len(invs) == 1


def test_small_dihedral_groups_are_elementary_abelian():
    # D2 = C2 and D4 = C2 x C2 have no C_n x| {1, -1} form with -1 != 1
    for order in (2, 4):
        g = dihedral(order)
        cd = conjugacy_classes(g)
        assert g.order == order
        assert g.meta_params is None
        assert cd.exponent == 2
        assert cd.class_sizes == [1] * order


def test_semidihedral_relation():
    # r s r^-1 = s^(2^(k-2) - 1) for order 2^k
    # SD32 = C_16 x| {1, 7}: s = (1, 1), r = (0, 7)
    g = semidihedral(32)
    s = g.index[(1, 1)]
    r = g.index[(0, 7)]
    conj = g.mul(g.mul(r, s), inverse(g, r))
    assert g.elements[conj] == (7, 1)


def _sl2_on_vectors(q):
    """SL(2, q) as permutations of the q^2 - 1 nonzero vectors of F_q^2, from
    the same two generators; m -> (v -> m v) is a faithful homomorphism."""
    vecs = [(a, b) for a in range(q) for b in range(q) if (a, b) != (0, 0)]
    vidx = {v: i for i, v in enumerate(vecs)}

    def act(m):
        a, b, c, d = m
        return tuple(vidx[((a * x + b * y) % q, (c * x + d * y) % q)] for x, y in vecs)

    return act, from_permutation_generators([act((1, 1, 0, 1)), act((0, q - 1, 1, 0))], "perm")


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
def test_sl2_matrices_match_the_permutation_build(q):
    g = sl2(q)
    act, ref = _sl2_on_vectors(q)
    assert g.order == ref.order == q * (q * q - 1)
    assert [act(m) for m in g.elements] == ref.elements
    assert g.gen_indices == ref.gen_indices
    assert all((a * d - b * c) % q == 1 for a, b, c, d in g.elements)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_sl2_class_count(q):
    assert conjugacy_classes(sl2(q)).num_classes == (3 if q == 2 else q + 4)


def test_sl2_center():
    assert len(center(sl2(5))) == 2
    assert len(center(sl2(3))) == 2


def test_derived_subgroups():
    assert len(derived_subgroup(symmetric(4))) == 12  # A4
    assert len(derived_subgroup(dihedral(16))) == 4
    assert len(derived_subgroup(cyclic(30))) == 1


def test_semidirect_structure():
    g = semidirect_cn_h(12, [11])  # dihedral of order 24 in semidirect form
    assert g.order == 24
    n, H = g.meta_params
    assert (n, tuple(H)) == (12, (1, 11))
    # relation: h c h^-1 = c^11
    c = g.index[(1, 1)]
    h = g.index[(0, 11)]
    assert g.elements[g.mul(g.mul(h, c), inverse(g, h))] == (11, 1)


def test_subgroup_elements():
    g = symmetric(4)
    cd = conjugacy_classes(g)
    transposition = next(i for i in range(g.order) if element_order(g, i) == 2 and len(cd.members[cd.class_of[i]]) == 6)
    sub = subgroup_elements(g, [transposition])
    assert len(sub) == 2
