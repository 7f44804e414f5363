"""Abelian fields as fixed fields: normalization, lattice ops, classification."""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest
from sympy import factorint, legendre_symbol

from heightzero.cyclotomic import CycElt, subgroup_closure, unit_generators
from heightzero.fields import (
    AbelianField,
    conductor_parts,
    cyclotomic_field,
    field_from_values,
    cyclotomic_index,
    in_class_Fp,
    quadratic_field,
    rational_field,
)
from oracles import all_subgroups, compositum, legendre_quadratic_field, rational, root_of_unity


# ---------------------------------------------------------------------------
# construction and normalization


def test_conductor_normalization():
    # the fixed field of all of (Z/8)* is Q, conductor 1
    f = AbelianField(8, [3, 5, 7])
    assert f.conductor == 1
    assert f == rational_field()


def test_cyclotomic_field_degree():
    assert cyclotomic_field(12).degree == 4
    assert cyclotomic_field(1).degree == 1


def test_subgroup_closure_rejects_non_units():
    with pytest.raises(ValueError):
        subgroup_closure(8, [2])


def test_unit_generators_generate_the_unit_group():
    for n in range(1, 301):
        units = subgroup_closure(n, [k for k in range(1, n + 1) if gcd(k, n) == 1])
        assert subgroup_closure(n, unit_generators(n)) == units, n


# ---------------------------------------------------------------------------
# quadratic fields against explicit square roots


@lru_cache(maxsize=None)
def _gauss_sum(p):
    """sqrt(p*) with p* = (-1)^((p-1)/2) p, as the quadratic Gauss sum."""
    return CycElt(p, {t: Fraction(legendre_symbol(t, p)) for t in range(1, p)})


def sqrt_cyc(d):
    """A CycElt whose square is the squarefree integer d."""
    x = rational(1)
    radicand = 1
    for p in factorint(abs(d)):
        if p != 2:
            x = x * _gauss_sum(p)
            radicand *= p if p % 4 == 1 else -p
    u = d // radicand
    if u == -1:
        x = x * root_of_unity(4, 1)
    elif u == 2:
        x = x * (root_of_unity(8, 1) + root_of_unity(8, 7))
    elif u == -2:
        x = x * (root_of_unity(8, 1) + root_of_unity(8, 3))
    return x


def test_sqrt_squares_back():
    for d in (-1, 2, -2, 3, 5, -5, 6, -7, 15, -29):
        x = sqrt_cyc(d)
        assert (x * x).to_rational() == d


def test_quadratic_field_is_the_field_of_sqrt_d():
    squarefree = [
        d
        for d in range(-100, 101)
        if d not in (0, 1) and all(e == 1 for e in factorint(abs(d)).values())
    ]
    assert len(squarefree) == 121
    for d in squarefree:
        assert quadratic_field(d) == field_from_values([sqrt_cyc(d)]), d


def test_quadratic_field_conductors():
    # conductor |disc|: 8 for sqrt(-2), 12 for sqrt(3), 5 for sqrt(5)
    assert quadratic_field(-2) == AbelianField(8, [3])
    assert quadratic_field(3) == AbelianField(12, [11])
    assert quadratic_field(5).conductor == 5
    assert quadratic_field(-1) == cyclotomic_field(4)


def test_quadratic_field_matches_the_legendre_construction():
    # the Kronecker symbol (D/k) against the product of Legendre symbols and
    # the character of u in {1, -1, 2, -2}, for every squarefree |d| <= 1000
    squarefree = [
        d
        for d in range(-1000, 1001)
        if d not in (0, 1) and all(e == 1 for e in factorint(abs(d)).values())
    ]
    assert len(squarefree) == 1215
    for d in squarefree:
        assert quadratic_field(d) == legendre_quadratic_field(d), d


def test_quadratic_rejects_non_squarefree():
    with pytest.raises(ValueError):
        quadratic_field(12)


# ---------------------------------------------------------------------------
# membership and lattice operations


def test_compositum_of_sqrt3_and_q3_is_q12():
    assert compositum(quadratic_field(3), cyclotomic_field(3)) == cyclotomic_field(12)


def test_subfield_relation():
    assert quadratic_field(-1).is_subfield_of(cyclotomic_field(8))
    assert not cyclotomic_field(8).is_subfield_of(quadratic_field(-1))


def test_field_from_values():
    assert field_from_values([root_of_unity(8, 1) + root_of_unity(8, 3)]) == quadratic_field(-2)
    assert field_from_values([]) == rational_field()


# ---------------------------------------------------------------------------
# conductor class at p


def test_conductor_parts():
    assert conductor_parts(quadratic_field(-2), 2) == (3, 1)
    assert conductor_parts(quadratic_field(3), 2) == (2, 3)
    assert conductor_parts(cyclotomic_field(9), 3) == (2, 1)


def test_class_f2_membership():
    assert not in_class_Fp(quadratic_field(2), 2)
    assert not in_class_Fp(quadratic_field(-2), 2)
    assert in_class_Fp(quadratic_field(3), 2)
    assert in_class_Fp(quadratic_field(-5), 2)
    assert in_class_Fp(quadratic_field(-1), 2)
    assert in_class_Fp(rational_field(), 2)


def test_class_fp_needs_a_prime_of_at_least_two():
    # p = 1 would split the conductor as 1^a * m by dividing by 1 forever
    with pytest.raises(ValueError, match="p >= 2"):
        in_class_Fp(cyclotomic_field(12), 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cyclotomic_index_matches_compositum(p):
    # the count of fixer elements that are 1 mod m against the degree of the
    # compositum <Q_m, F>, and both verdicts against the subfield test
    fields = {AbelianField(n, h) for n in range(1, 61) for h in all_subgroups(n)}
    for f in fields:
        a, m = conductor_parts(f, p)
        comp = compositum(cyclotomic_field(m), f)
        index = cyclotomic_field(f.conductor).degree // comp.degree
        assert cyclotomic_index(f, m) == index, f
        assert in_class_Fp(f, p) == (index % p != 0), f
        assert (index == 1) == cyclotomic_field(p**a).is_subfield_of(comp), f


# ---------------------------------------------------------------------------
# subgroup lattice


def test_all_subgroups_of_z12():
    subs = all_subgroups(12)
    # (Z/12)* = {1,5,7,11} = C2 x C2: 1 trivial + 3 order-2 + 1 full
    assert len(subs) == 5
    assert tuple(sorted(subgroup_closure(12, []))) in subs
    assert tuple(sorted(subgroup_closure(12, [5, 7]))) in subs


def _oracle_field(n, sub):
    """(conductor, sorted fixer) by the divisor scan: the least m | n with
    every unit k = 1 mod m in the subgroup, and the subgroup reduced mod m."""
    units = [k for k in range(1, n) if gcd(k, n) == 1] or [0]
    for m in range(1, n + 1):
        if n % m == 0 and all(k in sub for k in units if k % m == 1 % m):
            return m, sorted({k % m for k in sub})
    raise AssertionError


def test_conductor_matches_divisor_scan_on_every_subgroup():
    checked = 0
    for n in range(1, 61):
        for sub in all_subgroups(n):
            f = AbelianField(n, sub)
            assert (f.conductor, sorted(f.fixer)) == _oracle_field(n, sub), (n, sub)
            checked += 1
    assert checked == 522


# ---------------------------------------------------------------------------
# properties: compositum conductor = lcm on random pairs


def _random_field(rng):
    n = rng.choice([1, 3, 4, 5, 7, 8, 9, 11, 12, 15, 16, 20, 21, 24, 36, 40])
    subs = all_subgroups(n)
    return AbelianField(n, rng.choice(subs))


def test_compositum_conductor_divides_lcm_on_random_pairs():
    rng = random.Random(991)
    for _ in range(100):
        f1, f2 = _random_field(rng), _random_field(rng)
        comp = compositum(f1, f2)
        big = lcm(f1.conductor, f2.conductor)
        # compositum lives in Q_lcm and contains both factors
        assert big % comp.conductor == 0
        assert f1.is_subfield_of(comp) and f2.is_subfield_of(comp)
        # when both inputs are full cyclotomic fields, the conductor IS the lcm
        if f1 == cyclotomic_field(f1.conductor) and f2 == cyclotomic_field(f2.conductor):
            assert comp == cyclotomic_field(big)

