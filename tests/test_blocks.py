"""p-blocks: golden values, partition axioms, and an independent oracle.

The oracle reduces central characters against an irreducible factor of the
cyclotomic polynomial mod p using sympy polynomial arithmetic — a completely
different realization of "reduction modulo a maximal ideal above p" than the
library's explicit finite field.  The partitions must coincide.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, Symbol, cyclotomic_poly, factorint
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irred_p_ben_or, gf_irreducible_p, gf_mul, gf_rem

from heightzero import blocks
from heightzero.blocks import (
    GF,
    IdealReduction,
    _irreducible,
    block_partition,
    height_zero_rows,
    nu_p,
)
from heightzero.chartab import dixon_table
from heightzero.groups import (
    alternating,
    conjugacy_classes,
    cyclic,
    dihedral,
    semidihedral,
    semidirect_cn_h,
    sl2,
    symmetric,
)
from subgroups import decompose, derived_subgroup, restrict, subgroup_as_group, subgroup_elements

_X = Symbol("x")


# ---------------------------------------------------------------------------
# the independent congruence oracle


def _oracle_reduce(value, p, eprime, factor):
    """Reduce a cyclotomic integer mod the ideal (p, factor(zeta_{eprime}))
    via polynomial remainders; returns a coefficient tuple."""
    n = value.n
    a = nu_p(n, p) if n > 1 and n % p == 0 else 0
    npr = n // p**a
    assert eprime % npr == 0
    acc = Poly(0, _X, modulus=p)
    beta = pow(p**a, -1, npr) if npr > 1 else 0
    for j, c in value.terms.items():
        assert c.denominator % p != 0
        cm = (c.numerator * pow(c.denominator, -1, p)) % p
        expo = ((j * beta) % npr) * (eprime // npr) if npr > 1 else 0
        acc = acc + Poly(cm * _X**expo, _X, modulus=p)
    if factor is not None:
        acc = acc.rem(factor)
    return tuple(acc.all_coeffs())


def central_character_value(table, r, j):
    """omega_chi(K_j) = |K_j| chi(g_j) / chi(1) for row r; exact CycElt."""
    chi = table.rows[r]
    size = table.classes.class_sizes[j]
    return chi[j].scalar_mul(Fraction(size, table.degrees[r]))


def oracle_partition(table, p):
    """Brute-force block partition: group rows whose reduced central
    characters agree on every class."""
    e = table.classes.exponent
    eprime = e // p ** nu_p(e, p) if e > 1 else 1
    factor = None
    if eprime > 1:
        phi = Poly(cyclotomic_poly(eprime, _X), _X, modulus=p)
        factors = sorted(
            (f for f, _ in phi.factor_list()[1]),
            key=lambda f: (f.degree(), tuple(f.all_coeffs())),
        )
        factor = factors[0]
    sigs = {}
    for r in range(len(table.rows)):
        sig = tuple(
            _oracle_reduce(central_character_value(table, r, j), p, eprime, factor)
            for j in range(table.num_classes)
        )
        sigs.setdefault(sig, []).append(r)
    return sorted(sigs.values(), key=lambda rs: rs[0])


def _lib_partition_rows(table, p):
    return [b.rows for b in block_partition(table, p)]


# ---------------------------------------------------------------------------
# golden values (oracle first, then the library must match)


def test_s4_p2_single_block_golden():
    t = dixon_table(symmetric(4))
    assert oracle_partition(t, 2) == [[0, 1, 2, 3, 4]]
    bp = block_partition(t, 2)
    assert _lib_partition_rows(t, 2) == [[0, 1, 2, 3, 4]]
    assert bp.defect == [3]
    assert bp.height == [0, 0, 1, 0, 0]  # degrees 1,1,2,3,3


def test_a5_p2_two_blocks_golden():
    t = dixon_table(alternating(5))
    parts = oracle_partition(t, 2)
    assert _lib_partition_rows(t, 2) == parts
    degs = [sorted(t.degrees[r] for r in rows) for rows in parts]
    assert sorted(map(tuple, degs)) == [(1, 3, 3, 5), (4,)]
    bp = block_partition(t, 2)
    by_degs = {tuple(sorted(t.degrees[r] for r in b.rows)): b for b in bp}
    assert by_degs[(1, 3, 3, 5)].defect == 2
    assert by_degs[(1, 3, 3, 5)].heights == [0, 0, 0, 0]
    assert by_degs[(4,)].defect == 0


def test_s3_p3_single_block_golden():
    t = dixon_table(symmetric(3))
    assert oracle_partition(t, 3) == [[0, 1, 2]]
    bp = block_partition(t, 3)
    assert bp.defect == [1]
    assert bp.height == [0, 0, 0]


def test_oracle_matches_library_on_sample():
    cases = [
        (symmetric(4), 3),
        (symmetric(5), 2),
        (symmetric(5), 5),
        (alternating(5), 3),
        (alternating(5), 5),
        (sl2(3), 2),
        (sl2(3), 3),
        (semidihedral(16), 2),
        (dihedral(12), 3),
        (semidirect_cn_h(12, [11]), 2),
        (semidirect_cn_h(31, [2]), 7),  # residue degree f = 60
        (semidirect_cn_h(23, [22]), 2),  # f = 11
    ]
    for g, p in cases:
        t = dixon_table(g)
        assert _lib_partition_rows(t, p) == oracle_partition(t, p), (g.name, p)


# ---------------------------------------------------------------------------
# central characters


def test_central_character_trivial_row_is_class_sizes():
    t = dixon_table(symmetric(4))
    for j in range(t.num_classes):
        assert central_character_value(t, 0, j).to_rational() == t.classes.class_sizes[j]


def test_s3_degree2_central_values():
    t = dixon_table(symmetric(3))
    r = t.degrees.index(2)
    cd = t.classes
    by_order = {cd.element_orders[j]: j for j in range(3)}
    # 3-cycle class: 2 * (-1) / 2 = -1 ; transposition class: 3 * 0 / 2 = 0
    assert central_character_value(t, r, by_order[3]).to_rational() == -1
    assert central_character_value(t, r, by_order[2]).to_rational() == 0


def test_corrupt_table_detected_by_integrality():
    from heightzero.chartab import CharacterTable
    from oracles import rational

    t = dixon_table(symmetric(3))
    # make the degree-2 row fail the central-character integrality check while
    # keeping row 0 trivial: swap a value on the 3-cycle class
    rows = [list(r) for r in t.rows]
    rows[2][2] = rational(Fraction(1, 3))
    tampered = CharacterTable(t.name, t.order, t.classes, rows)
    with pytest.raises(ValueError, match="not an algebraic integer"):
        block_partition(tampered, 3)


# ---------------------------------------------------------------------------
# partition axioms


@pytest.mark.parametrize(
    "group,p",
    [
        (symmetric(4), 2),
        (symmetric(4), 3),
        (alternating(5), 2),
        (alternating(5), 5),
        (semidihedral(16), 2),
        (sl2(3), 2),
        (cyclic(12), 2),
        (dihedral(20), 5),
    ],
)
def test_partition_axioms(group, p):
    t = dixon_table(group)
    bp = block_partition(t, p)
    rows = sorted(r for b in bp for r in b.rows)
    assert rows == list(range(len(t.rows)))  # partition
    assert bp.block_of[0] == bp.principal_block
    for b in bp:
        assert min(b.heights) == 0  # every block has a height-zero row
        assert b.defect >= 0


def test_coprime_prime_gives_defect_zero_singletons():
    t = dixon_table(symmetric(3))
    bp = block_partition(t, 5)
    assert len(bp) == t.num_classes
    assert all(b.defect == 0 and len(b.rows) == 1 for b in bp)


def test_height_zero_rows_sd16():
    t = dixon_table(semidihedral(16))
    hz = height_zero_rows(t, 2)
    assert [t.degrees[r] for r in hz] == [1, 1, 1, 1]


def test_abelian_all_height_zero():
    t = dixon_table(cyclic(8))
    assert height_zero_rows(t, 2) == list(range(8))


def test_degree_coprime_rows_within_height_zero_in_max_defect_blocks():
    # rows with p coprime to the degree are height zero exactly when their
    # block has maximal defect; in general they are a subset of height zero
    for g, p in [(symmetric(4), 2), (sl2(3), 2), (alternating(5), 2)]:
        t = dixon_table(g)
        bp = block_partition(t, p)
        numax = nu_p(t.order, p)
        for r in range(len(t.rows)):
            if t.degrees[r] % p != 0 and bp.defect[bp.block_of[r]] == numax:
                assert bp.height[r] == 0


def test_partition_invariant_under_ideal_choice():
    # reducing sigma_k(chi) through the fixed ideal, with k = u mod e' and
    # k = 1 mod p^a, is reducing chi through the ideal that sends zeta_e' to
    # the u-th power of the fixed root; every such ideal gives one partition
    from math import gcd

    from heightzero.chartab import CharacterTable

    t = dixon_table(alternating(5))
    e = t.classes.exponent
    for p in (2, 3, 5):
        pa = p ** nu_p(e, p)
        eprime = e // pa
        base = _lib_partition_rows(t, p)
        for u in range(2, eprime):
            if gcd(u, eprime) != 1:
                continue
            k = next(k for k in range(1, e) if k % eprime == u and k % pa == 1 % pa)
            rows = [tuple(v.embed(e).galois(k) for v in row) for row in t.rows]
            moved = CharacterTable(t.name, t.order, t.classes, rows)
            assert _lib_partition_rows(moved, p) == base, (p, u)


def test_partition_galois_stable():
    # applying a Galois map fixing the p'-th roots of unity to the whole table
    # permutes rows without changing the block partition
    from math import gcd

    from heightzero.chartab import CharacterTable

    t = dixon_table(symmetric(4))
    e = t.classes.exponent
    p = 2
    eprime = e // p ** nu_p(e, p)
    for k in range(1, e):
        if gcd(k, e) == 1 and k % eprime == 1 % eprime:
            rows = [tuple(v.embed(e).galois(k) for v in row) for row in t.rows]
            mapped = CharacterTable(t.name, t.order, t.classes, rows)
            perm = [t.rows.index(r) for r in mapped.rows]
            base = [sorted(b.rows) for b in block_partition(t, p)]
            moved = [sorted(perm[r] for r in b.rows) for b in block_partition(mapped, p)]
            assert sorted(map(tuple, base)) == sorted(map(tuple, moved))


# ---------------------------------------------------------------------------
# heights restrict properly to normal subgroups


@pytest.mark.parametrize("p", [2, 3])
def test_height_zero_restricts_to_height_zero_constituents(p):
    pairs = []
    g = symmetric(4)
    pairs.append((g, derived_subgroup(g)))  # A4 inside S4
    g3 = symmetric(3)
    pairs.append((g3, derived_subgroup(g3)))  # C3 inside S3
    gm = semidirect_cn_h(12, [11])
    pairs.append((gm, subgroup_elements(gm, [gm.index[(1, 1)]])))  # C12 inside
    for big, nsub in pairs:
        cd = conjugacy_classes(big)
        t = dixon_table(big, cd)
        sub, embedding = subgroup_as_group(big, nsub)
        sub_cd = conjugacy_classes(sub)
        sub_t = dixon_table(sub, sub_cd)
        hz_big = set(height_zero_rows(t, p))
        hz_sub = set(height_zero_rows(sub_t, p))
        for r in hz_big:
            vals = restrict(t.rows[r], cd, sub_cd, embedding)
            mults = decompose(vals, sub_t)
            for s, m in enumerate(mults):
                if m:
                    assert s in hz_sub, (big.name, p, r, s)


# ---------------------------------------------------------------------------
# finite-field plumbing


def _digits(code, p, f):
    """The f base-p digits of code, least significant first."""
    out = []
    for _ in range(f):
        code, d = divmod(code, p)
        out.append(d)
    return tuple(out)


# GF(p^f) arithmetic on coefficient tuples through the field's packed ring;
# the library itself works on the packed ints


def gf_sum(g, a, b):
    return tuple((x + y) % g.p for x, y in zip(a, b))


def gf_product(g, a, b):
    r = g._ring
    return r.unpack(r.mul(r.pack(a), r.pack(b)))


def gf_power(g, a, k):
    r = g._ring
    return r.unpack(r.pow(r.pack(a), k))


def reduce_value(red, x):
    """Image of the p-integral CycElt x under the IdealReduction red, as a
    tuple of f residues."""
    p = red.p
    coeffs = {}
    for j, c in x.terms.items():
        assert c.denominator % p, "value is not p-integral"
        coeffs[j] = c.numerator * pow(c.denominator, -1, p)
    return red._ring.unpack(red._image(x.n, coeffs))


def element_order(g, a):
    if a == g.zero:
        raise ValueError("zero has no multiplicative order")
    o, cur = 1, a
    while cur != g.one:
        cur = gf_product(g, cur, a)
        o += 1
    return o


def multiplicative_generator(g):
    """Least generator of the cyclic group GF(p^f)^* in code order."""
    n = g.order - 1
    primes = list(factorint(n))
    for code in range(1, g.order):
        a = _digits(code, g.p, g.f)
        if all(gf_power(g, a, n // q) != g.one for q in primes):
            return a
    raise AssertionError("no generator found")


def _sympy_poly(coeffs):
    """Low-to-high coefficients as sympy's high-to-low dense list."""
    return [ZZ(c) for c in reversed(coeffs)]


def test_gf_axioms_odd_p():
    g = GF(3, 4)
    rng = random.Random(11)
    els = [tuple(rng.randint(0, 2) for _ in range(4)) for _ in range(40)]
    for a, b, c in zip(els, els[1:], els[2:]):
        assert gf_product(g, a, b) == gf_product(g, b, a)
        assert gf_product(g, gf_product(g, a, b), c) == gf_product(g, a, gf_product(g, b, c))
        assert gf_product(g, a, gf_sum(g, b, c)) == gf_sum(
            g, gf_product(g, a, b), gf_product(g, a, c)
        )
    assert element_order(g, multiplicative_generator(g)) == 80


def test_gf_root_of_order():
    g = GF(2, 10)
    for m in (3, 11, 31, 33, 93, 341, 1023):
        assert element_order(g, g.root_of_order(m)) == m


def test_root_of_order_scans_from_code_one():
    # root_of_order(m) is c^((p^f - 1) / m) for the first code c whose power
    # has order m; skipping the constants c < p must not change it.  In
    # GF(7, 2) and GF(13, 2) some orders m dividing p - 1 come from constants
    for p, f in ((7, 2), (5, 2), (3, 4), (13, 2)):
        g = GF(p, f)
        n = g.order - 1
        for m in (d for d in range(2, n + 1) if n % d == 0):
            first = next(
                u
                for u in (gf_power(g, _digits(c, p, f), n // m) for c in range(1, g.order))
                if u != g.zero and element_order(g, u) == m
            )
            assert g.root_of_order(m) == first, (p, f, m)


@pytest.mark.parametrize(
    "p,f", [(2, 11), (2, 110), (7, 110), (3, 84), (65537, 2), (4294967291, 2)]
)
def test_gf_mul_matches_sympy(p, f):
    g = GF(p, f)
    if p == 4294967291:
        assert g._ring.w > 64  # a lane holds sums of products of 32-bit residues
    m = _sympy_poly(g.modulus)
    rng = random.Random(p * f)
    for _ in range(10):
        a = tuple(rng.randrange(p) for _ in range(f))
        b = tuple(rng.randrange(p) for _ in range(f))
        want = gf_rem(gf_mul(_sympy_poly(a), _sympy_poly(b), p, ZZ), m, p, ZZ)
        want = [int(c) for c in reversed(want)]
        assert gf_product(g, a, b) == tuple(want + [0] * (f - len(want)))


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 65537]),
    coeffs=st.lists(st.integers(min_value=0), min_size=1, max_size=9),
)
def test_irreducibility_matches_sympy_ben_or(p, coeffs):
    poly = [c % p for c in coeffs] + [1]
    assert _irreducible(p, poly) == gf_irred_p_ben_or(_sympy_poly(poly), p, ZZ)


@pytest.mark.parametrize("p,f", [(2, 8), (3, 5), (5, 4), (7, 3), (11, 2), (65537, 2)])
def test_gf_modulus_is_sympy_lex_least(p, f):
    # sympy's irreducibility test over the same constant-first lex order
    want = next(
        cand
        for cand in (_digits(code, p, f) + (1,) for code in range(p**f))
        if gf_irreducible_p(_sympy_poly(cand), p, ZZ)
    )
    assert GF(p, f).modulus == want


def test_modulus_search_skips_impossible_binomials(monkeypatch):
    # x^4 - a is never irreducible over F_p for p = 3 mod 4, so the search
    # must not run Ben-Or on the p binomials x^4 + c first
    calls = 0

    def counted(p, poly):
        nonlocal calls
        calls += 1
        if calls > 1000:
            raise AssertionError("modulus search tested more than 1000 candidates")
        return _irreducible(p, poly)

    monkeypatch.setattr(blocks, "_irreducible", counted)
    assert blocks._gf_irreducible_poly(1000003, 4) == (1, 1, 0, 0, 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
def test_binomial_skip_keeps_the_lex_least_modulus(p):
    # the same modulus as a scan that tests the binomials too
    for f in range(1, 9 if p <= 7 else 6):
        want = next(
            cand
            for cand in (list(_digits(code, p, f)) + [1] for code in range(p**f))
            if _irreducible(p, cand)
        )
        assert blocks._gf_irreducible_poly(p, f) == tuple(want), f


def test_ideal_reduction_is_ring_homomorphism():
    from heightzero.cyclotomic import root_of_unity

    # at p = 2 the roots of order 30 include zeta_2, which maps to 1
    for p, eprime, n in ((3, 8, 8), (2, 15, 30)):
        red = IdealReduction(p, eprime)
        xs = [root_of_unity(n, j) for j in range(n)]
        gf = red.gf
        for a in xs:
            for b in xs:
                ra, rb = reduce_value(red, a), reduce_value(red, b)
                assert reduce_value(red, a * b) == gf_product(gf, ra, rb)
                assert reduce_value(red, a + b) == gf_sum(gf, ra, rb)


def test_ideal_reduction_kills_p_power_roots():
    from heightzero.cyclotomic import root_of_unity

    red = IdealReduction(2, 1)
    assert reduce_value(red, root_of_unity(8)) == reduce_value(red, root_of_unity(8, 0))
