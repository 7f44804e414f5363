"""p-blocks: golden values, partition axioms, and an independent oracle.

The library reduces central characters modulo every prime above p at once:
it sends zeta_{p^a} to 1 and compares Zumbroich coefficients at the p'-part
e' of the exponent mod p.  The oracle reduces modulo one prime, (p, g(zeta_e'))
for an irreducible factor g of the cyclotomic polynomial Phi_e' mod p, by
sympy polynomial remainders.  The partitions must coincide, for the least
factor and, where p splits, for every other one: the block partition does
not depend on the prime chosen, which is the fact the library's route rests
on.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from sympy import Poly, Symbol, cyclotomic_poly

from heightzero.blocks import Block, BlockPartition, _image, block_partition, height_zero_rows
from heightzero import chartab
from heightzero.chartab import dixon_table
from heightzero.cyclotomic import CycElt, nu_p, unit_generators
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
from heightzero.reports import build_table
from oracles import root_of_unity
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


def _p_prime_part(table, p):
    e = table.classes.exponent
    return e // p ** nu_p(e, p)


@lru_cache(maxsize=None)
def cyclotomic_factors(eprime, p):
    """The monic irreducible factors of Phi_e' mod p, least degree and then
    least coefficients first; [None] for e' = 1, where F_p needs no factor."""
    if eprime == 1:
        return [None]
    phi = Poly(cyclotomic_poly(eprime, _X), _X, modulus=p)
    return sorted(
        (f for f, _ in phi.factor_list()[1]),
        key=lambda f: (f.degree(), tuple(f.all_coeffs())),
    )


def oracle_signatures(table, p, factor):
    """Each row's central character reduced modulo (p, factor(zeta_e'))."""
    eprime = _p_prime_part(table, p)
    return [
        tuple(
            _oracle_reduce(central_character_value(table, r, j), p, eprime, factor)
            for j in range(table.num_classes)
        )
        for r in range(len(table.rows))
    ]


def oracle_partition(table, p, factor=None):
    """Brute-force block partition: group rows whose reduced central
    characters agree on every class, modulo the prime of `factor`, by
    default the least factor of Phi_e' mod p."""
    if factor is None:
        factor = cyclotomic_factors(_p_prime_part(table, p), p)[0]
    sigs = {}
    for r, sig in enumerate(oracle_signatures(table, p, factor)):
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


def test_corrupt_defect_zero_row_detected_by_integrality():
    # at p = 5, prime to |S3|, every row has p-defect zero and is a block by
    # itself without a reduction; its central character is still checked
    from heightzero.chartab import CharacterTable
    from oracles import rational

    t = _dixon(symmetric(3))
    assert all(nu_p(d, 5) == nu_p(t.order, 5) for d in t.degrees)
    rows = [list(r) for r in t.rows]
    rows[2][2] = rational(Fraction(1, 3))
    tampered = CharacterTable(t.name, t.order, t.classes, rows)
    with pytest.raises(ValueError, match="^central character of row 2 is not an algebraic integer$"):
        block_partition(tampered, 5)


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
    # the block partition is the same modulo every prime above p (Navarro,
    # Characters and Blocks of Finite Groups, ch. 3), so congruence modulo
    # one of them is congruence modulo their product, which is what the
    # library compares; the oracle checks the fact one prime at a time
    cases = [
        (alternating(5), 2),  # e' = 15: two primes of residue degree 4
        (alternating(6), 2),  # e' = 15
        (symmetric(5), 2),  # e' = 15
        (symmetric(5), 3),  # e' = 20: two of degree 4
        (symmetric(5), 5),  # e' = 12: two of degree 2
        (sl2(5), 3),  # e' = 20
        (sl2(5), 5),  # e' = 12
        (sl2(7), 3),  # e' = 56: four of degree 6
        (symmetric(4), 5),  # e' = 12, p prime to |G|: defect-zero blocks
    ]
    for group, p in cases:
        t = _dixon(group)
        factors = cyclotomic_factors(_p_prime_part(t, p), p)
        assert len(factors) >= 2, (group.name, p)
        want = _lib_partition_rows(t, p)
        for factor in factors:
            assert oracle_partition(t, p, factor) == want, (group.name, p, factor)
    # the reduced values themselves depend on the prime, so the partitions
    # above come from distinct reductions
    t = _dixon(cyclic(15))
    factors = cyclotomic_factors(15, 2)
    assert len({tuple(oracle_signatures(t, 2, f)) for f in factors}) == len(factors) == 2


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
# the all-rows signature partition


def reference_partition(table, p):
    """(blocks, signatures): the block partition with every row reduced,
    rows of p-defect zero included, and each row's signature.  Rows with
    equal signatures share a block; blocks are (rows, defect, heights),
    ordered by least row."""
    e = table.classes.exponent
    eprime = e // p ** nu_p(e, p)
    step = pow(e // eprime, -1, eprime)
    sizes, values = table.classes.class_sizes, table.values
    images, signatures = {}, []
    for cell, degree in zip(table.cells, table.degrees):
        sig = []
        for size, x in zip(sizes, cell):
            if (x, size, degree) not in images:
                omega = values[x].scalar_mul(Fraction(size, degree))
                assert all(c.denominator == 1 for c in omega.terms.values())
                coeffs = {k: int(c) for k, c in omega.terms.items()}
                images[x, size, degree] = _image(p, eprime, step, coeffs)
            sig.append(images[x, size, degree])
        signatures.append(tuple(sig))
    by_sig = {}
    for r, sig in enumerate(signatures):
        by_sig.setdefault(sig, []).append(r)
    nu_order = nu_p(table.order, p)
    blocks = []
    for rows in by_sig.values():
        vals = [nu_p(table.degrees[r], p) for r in rows]
        blocks.append((rows, nu_order - min(vals), [v - min(vals) for v in vals]))
    return blocks, signatures


def _defect_zero_rows(table, p):
    return [r for r, d in enumerate(table.degrees) if nu_p(d, p) == nu_p(table.order, p)]


@pytest.fixture(scope="module")
def larger_tables():
    return [(spec, build_table(spec)) for spec in ("sym:6", "alt:7", "sl2:13")]


@pytest.mark.parametrize("p,skipped", [(2, 1726), (3, 2208), (5, 2620), (7, 2967)])
def test_partition_matches_the_all_rows_reference(corpus_tables, larger_tables, p, skipped):
    # block_partition reduces only rows of positive p-defect; a row of
    # p-defect zero is alone in its block (Brauer-Nesbitt), which the
    # reference sees as a signature no other row of its table has
    assert sum(len(_defect_zero_rows(t, p)) for _, t in corpus_tables) == skipped
    for spec, t in corpus_tables + larger_tables:
        want, signatures = reference_partition(t, p)
        got = block_partition(t, p)
        assert [(b.rows, b.defect, b.heights) for b in got] == want, (spec, p)
        assert [b.id for b in got] == list(range(len(want)))
        for r in _defect_zero_rows(t, p):
            assert signatures.count(signatures[r]) == 1, (spec, p, r)


# ---------------------------------------------------------------------------
# Galois conjugation permutes blocks


def galois_block_violations(table, partition):
    """How the partition fails to be stable under Galois conjugation.

    For each generator g of (Z/e)*, row r goes to the row with values
    chi_r(x^g), read through the power map.  That must be a permutation of
    the rows sending each block onto a block of the same defect and keeping
    every row's height, since sigma_g maps the ideals above p among
    themselves and fixes degrees.  Returns a list of messages, empty when the
    partition passes."""
    pm = table.classes.power_map
    index = {row: r for r, row in enumerate(table.rows)}
    blocks = {frozenset(b.rows): b for b in partition}
    out = []
    for g in unit_generators(table.classes.exponent):
        perm = [index.get(tuple(row[pm[j][g]] for j in range(len(row)))) for row in table.rows]
        if None in perm or len(set(perm)) != len(perm):
            out.append(f"power {g} does not permute the rows")
            continue
        for b in partition:
            image = blocks.get(frozenset(perm[r] for r in b.rows))
            if image is None or image.defect != b.defect:
                out.append(f"power {g} sends block {b.id} onto no block of defect {b.defect}")
        for r, h in enumerate(partition.height):
            if partition.height[perm[r]] != h:
                out.append(f"power {g} sends row {r} of height {h} to row {perm[r]}")
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_blocks_are_galois_stable_on_default_corpus(corpus_tables, p):
    for _, t in corpus_tables:
        assert galois_block_violations(t, block_partition(t, p)) == [], t.name


# ---------------------------------------------------------------------------
# Osima: blocks read from characteristic zero


def osima_partition(table, p):
    """The p-blocks as linkage classes, with no reduction mod p.

    chi and psi are linked when the sum over the p-regular classes of
    |K| chi(g) conj(psi(g)) is nonzero, and the p-blocks are the connected
    components of that relation (Osima's theorem; Navarro, Characters and
    Blocks of Finite Groups, 1998, ch. 3).  Powering by a unit keeps element
    orders, so the p-regular classes are Galois-stable, each sum is
    rational, and the single evaluation of chartab._class_sums decides it
    exactly.  The blocks come back as lists of rows, ordered by least row,
    as block_partition orders them."""
    regular = [j for j, o in enumerate(table.classes.element_orders) if o % p]
    parent = list(range(len(table.rows)))

    def root(r):
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    _, _, sums = chartab._class_sums(table, regular)
    for r, s, acc in sums:
        if acc:
            parent[max(root(r), root(s))] = min(root(r), root(s))
    blocks = {}
    for r in range(len(table.rows)):
        blocks.setdefault(root(r), []).append(r)
    return list(blocks.values())


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_osima_linkage_gives_the_blocks_on_default_corpus(corpus_tables, p):
    for spec, t in corpus_tables:
        assert osima_partition(t, p) == [b.rows for b in block_partition(t, p)], spec


def test_galois_oracle_rejects_doctored_partitions():
    t = build_table("cyclic:3")
    bp = block_partition(t, 2)  # p prime to 3: three defect-zero singletons
    assert [b.rows for b in bp] == [[0], [1], [2]]
    assert galois_block_violations(t, bp) == []
    # a faithful row moved into the principal block
    moved = BlockPartition(2, [Block(0, [0, 1], 0, [0, 0]), Block(1, [2], 0, [0])], 3)
    assert galois_block_violations(t, moved) == [
        "power 2 sends block 0 onto no block of defect 0",
        "power 2 sends block 1 onto no block of defect 0",
    ]
    # at p = 3 one block holds all three rows; a faithful row's height flipped
    bp = block_partition(t, 3)
    assert galois_block_violations(t, bp) == []
    flipped = BlockPartition(3, [Block(0, [0, 1, 2], 1, [0, 1, 0])], 3)
    assert galois_block_violations(t, flipped) == [
        "power 2 sends row 1 of height 1 to row 2",
        "power 2 sends row 2 of height 0 to row 1",
    ]


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
# the reduction map


def _reduce(p, eprime, x):
    """The library's image of the integral CycElt x in Z[zeta_e'] / p, read
    with x written at e = lcm(n, e' p^a), n = p^a n' its modulus, n' | e'."""
    e = lcm(x.n, eprime * p ** nu_p(x.n, p))
    y = x.embed(e)
    return _image(p, eprime, pow(e // eprime, -1, eprime), {j: int(c) for j, c in y.terms.items()})


def _lift(eprime, image):
    """The element of Z[zeta_e'] with an image's Zumbroich coefficients."""
    return CycElt(eprime, dict(image))


def _integral_elements(n, count, rng):
    """The n-th roots of unity and `count` random sums of a few of them with
    small integer coefficients, all at modulus n."""
    xs = [root_of_unity(n, j) for j in range(n)]
    for _ in range(count):
        terms = {}
        for j in rng.sample(range(n), rng.randint(1, 4)):
            terms[j] = rng.randint(-9, 9)
        xs.append(CycElt(n, terms))
    return xs


def test_ideal_reduction_is_ring_homomorphism():
    # image(x * y) and image(x + y) are the reduced product and sum of the
    # lifted images, p kills everything, and an image does not depend on the
    # modulus a value is written at; n' = e' in the first cases, and n' is a
    # proper divisor of e' in the last two, where images leave the basis
    cases = [(3, 8, 24), (2, 15, 60), (5, 12, 60), (7, 1, 49), (2, 9, 36), (2, 15, 12), (3, 20, 12)]
    for p, eprime, n in cases:
        rng = random.Random(n)
        xs = _integral_elements(n, 12, rng)
        pairs = [(a, b) for a in xs for b in xs]
        for a, b in rng.sample(pairs, min(len(pairs), 600)):
            ra, rb = _reduce(p, eprime, a), _reduce(p, eprime, b)
            product = _lift(eprime, ra) * _lift(eprime, rb)
            total = _lift(eprime, ra) + _lift(eprime, rb)
            assert _reduce(p, eprime, a * b) == _reduce(p, eprime, product), (p, n, a, b)
            assert _reduce(p, eprime, a + b) == _reduce(p, eprime, total), (p, n, a, b)
        for a in xs:
            assert _reduce(p, eprime, a * p) == (), (p, n, a)
            for m in (n * p, lcm(n, eprime)):
                assert _reduce(p, eprime, a.embed(m)) == _reduce(p, eprime, a), (p, n, a, m)
        assert _reduce(p, eprime, _lift(eprime, _reduce(p, eprime, a))) == _reduce(p, eprime, a)


def test_ideal_reduction_kills_p_power_roots():
    # zeta_{p^a} goes to the image of 1, and multiplying by it changes no image
    for p, n in ((2, 8), (2, 24), (3, 9), (3, 36), (5, 50), (7, 49)):
        pa = p ** nu_p(n, p)
        eprime = n // pa
        one = _reduce(p, eprime, root_of_unity(1, 0))
        assert one
        for j in range(pa):
            assert _reduce(p, eprime, root_of_unity(pa, j)) == one, (p, n, j)
            x = root_of_unity(n, j + 1)
            assert _reduce(p, eprime, x * root_of_unity(pa, j)) == _reduce(p, eprime, x), (p, n, j)
