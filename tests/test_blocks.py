"""p-blocks: golden values, partition axioms, and an independent oracle.

The oracle reduces central characters against an irreducible factor of the
cyclotomic polynomial mod p using sympy polynomial arithmetic — a completely
different realization of "reduction modulo a maximal ideal above p" than the
library's explicit finite field.  The partitions must coincide.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, Symbol, cyclotomic_poly, factorint
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_irred_p_ben_or,
    gf_irred_p_rabin,
    gf_irreducible_p,
    gf_mul,
    gf_pow_mod,
    gf_rem,
    gf_sub,
)

from heightzero import blocks
from heightzero.blocks import (
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


def _dixon(group):
    return dixon_table(group, conjugacy_classes(group))


def _lib_partition_rows(table, p):
    return [b.rows for b in block_partition(table, p)]


# ---------------------------------------------------------------------------
# golden values (oracle first, then the library must match)


def test_s4_p2_single_block_golden():
    t = _dixon(symmetric(4))
    assert oracle_partition(t, 2) == [[0, 1, 2, 3, 4]]
    bp = block_partition(t, 2)
    assert _lib_partition_rows(t, 2) == [[0, 1, 2, 3, 4]]
    assert bp.defect == [3]
    assert bp.height == [0, 0, 1, 0, 0]  # degrees 1,1,2,3,3


def test_a5_p2_two_blocks_golden():
    t = _dixon(alternating(5))
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
    t = _dixon(symmetric(3))
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
        t = _dixon(g)
        assert _lib_partition_rows(t, p) == oracle_partition(t, p), (g.name, p)


# ---------------------------------------------------------------------------
# central characters


def test_central_character_trivial_row_is_class_sizes():
    t = _dixon(symmetric(4))
    for j in range(t.num_classes):
        assert central_character_value(t, 0, j).to_rational() == t.classes.class_sizes[j]


def test_s3_degree2_central_values():
    t = _dixon(symmetric(3))
    r = t.degrees.index(2)
    cd = t.classes
    by_order = {cd.element_orders[j]: j for j in range(3)}
    # 3-cycle class: 2 * (-1) / 2 = -1 ; transposition class: 3 * 0 / 2 = 0
    assert central_character_value(t, r, by_order[3]).to_rational() == -1
    assert central_character_value(t, r, by_order[2]).to_rational() == 0


def test_corrupt_table_detected_by_integrality():
    from heightzero.chartab import CharacterTable
    from oracles import rational

    t = _dixon(symmetric(3))
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
    t = _dixon(group)
    bp = block_partition(t, p)
    rows = sorted(r for b in bp for r in b.rows)
    assert rows == list(range(len(t.rows)))  # partition
    assert bp.block_of[0] == bp.principal_block
    for b in bp:
        assert min(b.heights) == 0  # every block has a height-zero row
        assert b.defect >= 0


def test_coprime_prime_gives_defect_zero_singletons():
    t = _dixon(symmetric(3))
    bp = block_partition(t, 5)
    assert len(bp) == t.num_classes
    assert all(b.defect == 0 and len(b.rows) == 1 for b in bp)


def test_height_zero_rows_sd16():
    t = _dixon(semidihedral(16))
    hz = height_zero_rows(block_partition(t, 2))
    assert [t.degrees[r] for r in hz] == [1, 1, 1, 1]


def test_abelian_all_height_zero():
    t = _dixon(cyclic(8))
    assert height_zero_rows(block_partition(t, 2)) == list(range(8))


def test_degree_coprime_rows_within_height_zero_in_max_defect_blocks():
    # rows with p coprime to the degree are height zero exactly when their
    # block has maximal defect; in general they are a subset of height zero
    for g, p in [(symmetric(4), 2), (sl2(3), 2), (alternating(5), 2)]:
        t = _dixon(g)
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

    t = _dixon(alternating(5))
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

    t = _dixon(symmetric(4))
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
        hz_big = set(height_zero_rows(block_partition(t, p)))
        hz_sub = set(height_zero_rows(block_partition(sub_t, p)))
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


# GF(p^f) arithmetic on coefficient tuples through the packed ring of an
# IdealReduction; the library itself works on the packed ints


def lanes(ring, x, count):
    """The first `count` lanes of the packed x, reduced mod p."""
    nb = ring.w // 8
    raw = x.to_bytes(count * nb, "little")
    return tuple(int.from_bytes(raw[i : i + nb], "little") % ring.p for i in range(0, len(raw), nb))


def unpack(ring, x):
    """The f coefficients of the packed x (of degree < f)."""
    return lanes(ring, x, ring.f)


def modulus(red):
    """The modulus of red's residue field, low-to-high with its leading 1."""
    return lanes(red._ring, red._ring.modulus, red.f + 1)


def root(red):
    """red's root u of order e', as a coefficient tuple."""
    return unpack(red._ring, red.powers[1 % red.eprime])


def _order(p, e):
    """The multiplicative order of p mod e."""
    f = 1
    while (p**f - 1) % e:
        f += 1
    return f


@lru_cache(maxsize=None)
def reduction_into(p, f):
    """IdealReduction(p, e') for the least e' prime to p of which p has
    multiplicative order f: its residue field is GF(p^f)."""
    e = next(e for e in range(1, p**f) if e % p and _order(p, e) == f)
    red = IdealReduction(p, e)
    assert red.f == f
    return red


def gf_zero(g):
    return (0,) * g.f


def gf_one(g):
    return (1,) + (0,) * (g.f - 1)


def gf_sum(g, a, b):
    return tuple((x + y) % g.p for x, y in zip(a, b))


def gf_product(g, a, b):
    r = g._ring
    return unpack(r, r.mul(r.pack(a), r.pack(b)))


def gf_power(g, a, k):
    r = g._ring
    return unpack(r, r.pow(r.pack(a), k))


def reduce_value(red, x):
    """Image of the p-integral CycElt x under the IdealReduction red, as a
    tuple of f residues."""
    p = red.p
    coeffs = {}
    for j, c in x.terms.items():
        assert c.denominator % p, "value is not p-integral"
        coeffs[j] = c.numerator * pow(c.denominator, -1, p)
    return unpack(red._ring, red.image(x.n, coeffs))


def element_order(g, a):
    if a == gf_zero(g):
        raise ValueError("zero has no multiplicative order")
    o, cur = 1, a
    while cur != gf_one(g):
        cur = gf_product(g, cur, a)
        o += 1
    return o


def multiplicative_generator(g):
    """Least generator of the cyclic group GF(p^f)^* in code order."""
    n = g.p**g.f - 1
    primes = list(factorint(n))
    for code in range(1, n + 1):
        a = _digits(code, g.p, g.f)
        if all(gf_power(g, a, n // q) != gf_one(g) for q in primes):
            return a
    raise AssertionError("no generator found")


def _sympy_poly(coeffs):
    """Low-to-high coefficients as sympy's high-to-low dense list."""
    return [ZZ(c) for c in reversed(coeffs)]


def test_gf_axioms_odd_p():
    g = reduction_into(3, 4)
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
    # the reduction's root u has order e' in GF(2^f), f the order of 2 mod e'
    # (f = 10 but for m = 3 and 31), and its list of powers is u^0 .. u^(e'-1)
    for m in (3, 11, 31, 33, 93, 341, 1023):
        g = IdealReduction(2, m)
        assert g.f == _order(2, m)
        u = root(g)
        assert element_order(g, u) == m
        assert [unpack(g._ring, x) for x in g.powers] == [gf_power(g, u, k) for k in range(m)]


def test_root_of_order_scans_from_code_one():
    # the root of order m is c^((p^f' - 1) / m) for the first code c whose
    # power has order m, in GF(p^f') with f' the order of p mod m; skipping
    # the constants c < p for f' > 1 must not change it.  Orders m dividing
    # p - 1 reduce into F_p, where the constants are the whole field
    for p, f in ((7, 2), (5, 2), (3, 4), (13, 2)):
        n = p**f - 1
        for m in (d for d in range(2, n + 1) if n % d == 0):
            g = IdealReduction(p, m)
            size = p**g.f
            first = next(
                u
                for u in (gf_power(g, _digits(c, p, g.f), (size - 1) // m) for c in range(1, size))
                if u != gf_zero(g) and element_order(g, u) == m
            )
            assert root(g) == first, (p, f, m)


@pytest.mark.parametrize(
    "p,f", [(2, 11), (2, 110), (7, 110), (3, 84), (65537, 2), (4294967291, 2)]
)
def test_gf_mul_matches_sympy(p, f):
    g = reduction_into(p, f)
    if p == 4294967291:
        assert g._ring.w > 64  # a lane holds sums of products of 32-bit residues
    m = _sympy_poly(modulus(g))
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
    assert modulus(reduction_into(p, f)) == want


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


# Lex-least modulus codes (sum of c_i p^i over the coefficients below the
# leading 1) of every residue field GF(p^f) the default corpus needs at
# p = 2, 3, 5 and 7, recorded from the one-gcd-per-step Ben-Or search.
_CORPUS_MODULUS_CODES = {
    2: {1: 0, 2: 3, 3: 3, 4: 3, 5: 5, 6: 3, 8: 27, 10: 9, 11: 5, 12: 9, 14: 33,
        18: 9, 20: 9, 23: 33, 28: 3, 36: 53, 84: 33, 110: 83},
    3: {1: 0, 2: 1, 3: 7, 4: 5, 5: 7, 6: 5, 8: 11, 10: 19, 11: 11, 12: 11,
        16: 37, 18: 34, 20: 34, 23: 31, 28: 11, 30: 5, 42: 34, 55: 71, 60: 11,
        84: 385},
    5: {1: 0, 2: 2, 3: 6, 4: 2, 5: 21, 6: 7, 8: 2, 9: 38, 10: 33, 14: 77, 16: 2,
        18: 6, 20: 31, 22: 6, 36: 142, 42: 102, 46: 84, 110: 204},
    7: {1: 0, 2: 1, 3: 2, 4: 8, 6: 2, 7: 43, 9: 2, 10: 17, 12: 58, 14: 11,
        15: 69, 16: 17, 18: 2, 20: 101, 22: 53, 23: 159, 40: 17, 60: 155,
        110: 562},  # x^110 + x^3 + 4x^2 + 3x + 2, the field of meta:23
}


@pytest.mark.parametrize("p", sorted(_CORPUS_MODULUS_CODES))
def test_corpus_moduli_are_pinned(p):
    for f, code in _CORPUS_MODULUS_CODES[p].items():
        assert modulus(reduction_into(p, f)) == _digits(code, p, f) + (1,), f


def _poly_mul(p, a, b):
    """Product over F_p of low-to-high coefficient lists, by sympy."""
    out = gf_mul(_sympy_poly(a), _sympy_poly(b), p, ZZ)
    return [int(c) for c in reversed(out)]


@lru_cache(maxsize=None)
def _least_irreducibles(p, k, count):
    """The first `count` monic irreducibles of degree k over F_p in
    constant-first lex order, found with sympy's Rabin test."""
    found = []
    for code in range(p**k):
        cand = list(_digits(code, p, k)) + [1]
        if gf_irred_p_rabin(_sympy_poly(cand), p, ZZ):
            found.append(cand)
            if len(found) == count:
                return found
    raise AssertionError("too few irreducibles")


def _agrees_with_sympy(p, poly):
    want = gf_irred_p_ben_or(_sympy_poly(poly), p, ZZ)
    assert _irreducible(p, poly) == want, (p, poly)
    return want


@pytest.mark.parametrize("p", [2, 3, 7, 11])
def test_irreducibility_matches_sympy_at_large_degree(p):
    # candidates of the modulus search are sparse: a few low terms under x^f
    rng = random.Random(p)
    for f in range(10, 65):
        tail = [0] * f
        for i in rng.sample(range(min(f, 12)), rng.randint(1, 5)):
            tail[i] = rng.randrange(p)
        _agrees_with_sympy(p, tail + [1])
    for f in range(10, 17):
        _agrees_with_sympy(p, [rng.randrange(p) for _ in range(f)] + [1])
    # the search's own answers are irreducible at every degree
    for f in (10, 23, 40, 64):
        assert _agrees_with_sympy(p, list(blocks._gf_irreducible_poly(p, f)))


@pytest.mark.parametrize("p", [2, 3, 7, 11])
def test_ben_or_batches_find_factors_of_equal_degree(p):
    # m1 * m2 of equal degree k has its first nontrivial gcd at i = k, the
    # last step; times an irreducible of degree k + 2 instead, step k falls
    # inside a batch of the product of x^(p^i) - x
    for k in range(5, 31) if p < 7 else (5, 6, 9, 12, 17):
        m1, m2 = _least_irreducibles(p, k, 2)
        (m3,) = _least_irreducibles(p, k + 2, 1)
        assert not _agrees_with_sympy(p, _poly_mul(p, m1, m2)), k
        assert not _agrees_with_sympy(p, _poly_mul(p, m1, m3)), k
        assert not _agrees_with_sympy(p, _poly_mul(p, m1, m1)), k


@pytest.mark.parametrize("p", [2, 3, 7, 11])
def test_ben_or_product_that_vanishes(p):
    # q1 * q2 divides x^(p^2) - x, so that step's factor is 0 mod the
    # candidate; at p = 2, x^2 + x + 1 is the only irreducible quadratic
    if p > 2:
        assert not _agrees_with_sympy(p, _poly_mul(p, *_least_irreducibles(p, 2, 2)))
    # m4 * m5 * m5' of degree 14 divides the product over the batch i = 4..7
    (m4,) = _least_irreducibles(p, 4, 1)
    m5, m5b = _least_irreducibles(p, 5, 2)
    g = _poly_mul(p, _poly_mul(p, m4, m5), m5b)
    x, modulus, product = [ZZ(1), ZZ(0)], _sympy_poly(g), [ZZ(1)]
    for i in range(4, 8):
        h = gf_sub(gf_pow_mod(x, p**i, modulus, p, ZZ), x, p, ZZ)
        product = gf_rem(gf_mul(product, h, p, ZZ), modulus, p, ZZ)
    assert product == []
    assert not _agrees_with_sympy(p, g)


@pytest.mark.parametrize("p", [2, 3, 7, 11])
def test_linear_factor_on_both_sides_of_the_root_sieve(p):
    # roots are found by evaluation when p <= f, by a gcd when p > f
    for f in (p, p - 1, p + 1):
        if f < 2:
            continue
        (m,) = _least_irreducibles(p, f - 1, 1)
        for a in {0, 1, p - 1}:
            assert not _agrees_with_sympy(p, _poly_mul(p, [a, 1], m)), (f, a)
        assert _agrees_with_sympy(p, _least_irreducibles(p, f, 1)[0]), f
    # f = 1: every x + c is irreducible, though it has the root -c
    for c in {0, 1, p - 1}:
        assert _agrees_with_sympy(p, [c, 1])


def test_pack_and_quotient_mask_keep_the_byte_layout():
    # lane i holds bytes [i*w/8, (i+1)*w/8) of the little-endian int
    def by_bytes(coeffs, nb):
        return int.from_bytes(b"".join(c.to_bytes(nb, "little") for c in coeffs), "little")

    rng = random.Random(5)
    for p, f in ((2, 110), (7, 110), (3, 1), (65537, 4), (4294967291, 2)):
        ring = reduction_into(p, f)._ring
        nb = ring.w // 8
        for _ in range(5):
            coeffs = [rng.randrange(p) if rng.random() < 0.3 else 0 for _ in range(f)]
            assert ring.pack(coeffs) == by_bytes(coeffs, nb)
        q = (1 << ring.w - ring._shift) - 1
        assert ring._qmask == by_bytes([q] * (f + 1), nb)


def test_ideal_reduction_is_ring_homomorphism():
    from heightzero.cyclotomic import root_of_unity

    # at p = 2 the roots of order 30 include zeta_2, which maps to 1
    for p, eprime, n in ((3, 8, 8), (2, 15, 30)):
        red = IdealReduction(p, eprime)
        xs = [root_of_unity(n, j) for j in range(n)]
        for a in xs:
            for b in xs:
                ra, rb = reduce_value(red, a), reduce_value(red, b)
                assert reduce_value(red, a * b) == gf_product(red, ra, rb)
                assert reduce_value(red, a + b) == gf_sum(red, ra, rb)


def test_ideal_reduction_kills_p_power_roots():
    from heightzero.cyclotomic import root_of_unity

    red = IdealReduction(2, 1)
    assert reduce_value(red, root_of_unity(8, 1)) == reduce_value(red, root_of_unity(8, 0))


def test_ideal_reduction_builds_one_ring(monkeypatch):
    # the root search, the powers and the images share one ring; the modulus
    # search builds its own rings only on a cold (p, f)
    built = []
    init = blocks._KroneckerRing.__init__

    def counted(ring, *args, **kwargs):
        built.append(args)
        init(ring, *args, **kwargs)

    for p, e in ((2, 1), (3, 8), (7, 23 * 11), (10007, 6)):
        IdealReduction(p, e)  # fills the modulus cache
        monkeypatch.setattr(blocks._KroneckerRing, "__init__", counted)
        built.clear()
        IdealReduction(p, e)
        assert len(built) == 1, (p, e)
        monkeypatch.undo()
