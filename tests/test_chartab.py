"""Character tables: both construction routes, orthogonality, induction, JSON."""

import copy
import json
import random
import sys
import time
import weakref
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heightzero.blocks import block_report_json
from heightzero.cyclotomic import CycElt, _one_at, _units, unit_generators, zero
from heightzero.fields import field_from_values
from heightzero.groups import (
    FiniteGroup,
    alternating,
    conjugacy_classes,
    cyclic,
    dihedral,
    generalized_quaternion,
    semidihedral,
    semidirect_cn_h,
    sl2,
    symmetric,
)
from heightzero import chartab, modular
from heightzero.chartab import (
    class_matrix,
    dixon_table,
    induce_linear,
    metacyclic_table,
    table_from_json,
    table_to_json,
)
from heightzero.reports import parse_group_spec
from oracles import all_subgroups, rational, root_of_unity
from subgroups import decompose, derived_subgroup, inner_product, restrict, subgroup_as_group


def _table(group):
    return dixon_table(group, conjugacy_classes(group))


# ---------------------------------------------------------------------------
# class matrices


@pytest.mark.parametrize(
    "group", [symmetric(3), symmetric(4), alternating(5), dihedral(12), sl2(3)], ids=lambda g: g.name
)
def test_class_matrix_counts_products(group):
    cd = conjugacy_classes(group)
    c = cd.num_classes
    # brute force over G x G: a[i][j][k] = #{(x, y) in K_i x K_j : x y = z_k}
    rep_class = {z: k for k, z in enumerate(cd.class_reps)}
    a = [[[0] * c for _ in range(c)] for _ in range(c)]
    for x in range(group.order):
        for y in range(group.order):
            k = rep_class.get(group.mul(x, y))
            if k is not None:
                a[cd.class_of[x]][cd.class_of[y]][k] += 1
    for i in range(c):
        m = class_matrix(group, cd, i)
        assert m == a[i]
        for j in range(c):
            total = sum(m[j][k] * cd.class_sizes[k] for k in range(c))
            assert total == cd.class_sizes[i] * cd.class_sizes[j]


@pytest.mark.parametrize("group", [sl2(7), symmetric(5), dihedral(12)], ids=lambda g: g.name)
def test_class_matrix_makes_one_product_per_member_and_rep(group, monkeypatch):
    # |K_i| * c products each, c per member through mul_each, and no table
    # of inverses on the way
    cd = conjugacy_classes(group)
    calls = []
    mul, mul_each = FiniteGroup.mul, FiniteGroup.mul_each

    def counted(self, i, j):
        calls.append(1)
        return mul(self, i, j)

    def counted_each(self, i, js):
        calls.append(len(js))
        return mul_each(self, i, js)

    monkeypatch.setattr(FiniteGroup, "mul", counted)
    monkeypatch.setattr(FiniteGroup, "mul_each", counted_each)
    for i in range(cd.num_classes):
        calls.clear()
        class_matrix(group, cd, i)
        assert calls == [cd.num_classes] * cd.class_sizes[i]


def test_dixon_table_allocates_no_cube(monkeypatch):
    # class matrices come one at a time; no c x c x c structure-constant
    # tensor: each is c x c, and none is alive when the next is built
    build = chartab.class_matrix
    alive = []

    class Matrix(list):
        pass

    def tracked(group_, cd_, i):
        assert all(ref() is None for ref in alive)
        m = Matrix(build(group_, cd_, i))
        assert len(m) == cd_.num_classes and all(len(row) == cd_.num_classes for row in m)
        alive.append(weakref.ref(m))
        return m

    monkeypatch.setattr(chartab, "class_matrix", tracked)
    for group in (symmetric(4), dihedral(40)):
        alive.clear()
        _table(group)
        assert alive


# ---------------------------------------------------------------------------
# known degree multisets


@pytest.mark.parametrize(
    "group,degrees",
    [
        (symmetric(3), [1, 1, 2]),
        (symmetric(4), [1, 1, 2, 3, 3]),
        (symmetric(5), [1, 1, 4, 4, 5, 5, 6]),
        (alternating(4), [1, 1, 1, 3]),
        (alternating(5), [1, 3, 3, 4, 5]),
        (generalized_quaternion(8), [1, 1, 1, 1, 2]),
        (semidihedral(16), [1, 1, 1, 1, 2, 2, 2]),
        (sl2(3), [1, 1, 1, 2, 2, 2, 3]),
        (sl2(5), [1, 2, 2, 3, 3, 4, 4, 5, 6]),
        (dihedral(10), [1, 1, 2, 2]),
    ],
)
def test_known_degrees(group, degrees):
    t = _table(group)
    assert sorted(t.degrees) == degrees


def test_orthogonality_on_sample_tables():
    for g in (symmetric(4), alternating(5), semidihedral(16), sl2(3)):
        _table(g).check_orthogonality()


# ---------------------------------------------------------------------------
# orthogonality: the residue check against the CycElt loop


def _orthogonality_oracle(table):
    """Both relations summed in CycElt arithmetic, as the check once did:
    the message for the first failure of each relation, or None."""
    rows, sizes, c, order = table.rows, table.classes.class_sizes, table.num_classes, table.order
    first = next(
        (
            f"first orthogonality fails at rows {r},{s}"
            for r in range(len(rows))
            for s in range(r, len(rows))
            if sum((rows[r][j] * rows[s][j].galois(-1) * sizes[j] for j in range(c)), zero(1))
            != rational(order if r == s else 0)
        ),
        None,
    )
    second = next(
        (
            f"second orthogonality fails at classes {j},{k}"
            for j in range(c)
            for k in range(j, c)
            if sum((row[j] * row[k].galois(-1) for row in rows), zero(1))
            != rational(order // sizes[j] if j == k else 0)
        ),
        None,
    )
    return first, second


def _precondition_refusal(table):
    """The refusal of check_orthogonality's precondition, read with CycElt
    equality: powering by each generator of (Z/e)* must be compatible with
    the values, then keep class sizes.  None if it holds."""
    cd = table.classes
    pm, sizes = cd.power_map, cd.class_sizes
    gens = unit_generators(cd.exponent)
    for row in table.rows:
        for g in gens:
            if any(row[pm[j][g]] != row[j].galois(g) for j in range(len(row))):
                return f"power map under power {g} is not compatible with the values"
    for g in gens:
        for j, size in enumerate(sizes):
            if sizes[pm[j][g]] != size:
                return (
                    f"power map under power {g} sends class {j} of size {size}"
                    f" to class {pm[j][g]} of size {sizes[pm[j][g]]}"
                )
    return None


def _verdict(table):
    try:
        table.check_orthogonality()
    except ValueError as exc:
        return str(exc)
    return None


def _with_rows(table, rows):
    """The table with its rows replaced, past the constructor's checks: the
    relations are a property of the values alone."""
    out = copy.copy(table)
    out.values, out.cells = chartab._intern(rows, table.classes.exponent)
    out._galois = None
    return out


@lru_cache(maxsize=None)
def _spec_table(spec):
    from heightzero.reports import build_table

    return build_table(spec)


_ORACLE_SPECS = (
    "sym:3", "sym:4", "alt:5", "sl2:3", "quaternion:16", "semidihedral:16", "meta:20:3"
)


def _edits(e):
    """The value edits of the agreement test, each a strategy for a map
    CycElt -> CycElt in a table of exponent e."""
    divisors = [d for d in range(1, e) if e % d == 0]
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    third = root_of_unity(e, 1).scalar_mul(Fraction(1, 3))
    return st.one_of(
        small.map(lambda q: lambda v: v + q),
        st.just(lambda v: v + third),
        st.just(lambda v: v.galois(-1)),
        st.just(lambda v: zero(v.n)),
        st.tuples(st.sampled_from(divisors), st.integers(0, e - 1)).map(
            lambda dk: lambda v: root_of_unity(dk[0], dk[1])
        ),
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_residue_orthogonality_agrees_with_the_cyclotomic_loop(data):
    table = _spec_table(data.draw(st.sampled_from(_ORACLE_SPECS)))
    rows = [list(row) for row in table.rows]
    c, e = table.num_classes, table.classes.exponent
    for _ in range(data.draw(st.integers(1, 2))):
        r, j = data.draw(st.integers(0, c - 1)), data.draw(st.integers(0, c - 1))
        rows[r][j] = data.draw(_edits(e))(rows[r][j])
    mutated = _with_rows(table, rows)
    first, second = _orthogonality_oracle(mutated)
    # on a square table the second relation never fails while the first holds
    assert second is None or first is not None
    # an edit off the power map is refused before any sum: one evaluation
    # could accept such a table
    assert _verdict(mutated) == (_precondition_refusal(mutated) or first)


def test_orthogonality_does_no_cyclotomic_arithmetic(monkeypatch):
    tables = [_table(alternating(5)), _table(sl2(5))]

    def refuse(*args):
        raise AssertionError("CycElt arithmetic in check_orthogonality")

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "scalar_mul"):
        monkeypatch.setattr(CycElt, name, refuse)
    for table in tables:
        table.check_orthogonality()


def _rotated_s3(a=1 << 31):
    """S3 with its two nontrivial rows turned by the rational rotation with
    cos = (a^2 - b^2)/(a^2 + b^2), sin = 2ab/(a^2 + b^2), for b = 1: both
    relations still hold, with denominators a^2 + 1 (2^62 + 1 by default)."""
    table = _spec_table("sym:3")
    b = 1
    den = a * a + b * b
    cos, sin = Fraction(a * a - b * b, den), Fraction(2 * a * b, den)
    one, x, y = table.rows
    return _with_rows(
        table,
        [
            one,
            [u.scalar_mul(cos) - v.scalar_mul(sin) for u, v in zip(x, y)],
            [u.scalar_mul(sin) + v.scalar_mul(cos) for u, v in zip(x, y)],
        ],
    )


def _corrupted(table):
    """The table with 2^70 added to one entry of row 2."""
    rows = [list(row) for row in table.rows]
    rows[2][1] = rows[2][1] + (1 << 70)
    return _with_rows(table, rows)


def test_evaluation_primes_keep_the_check_exact(monkeypatch):
    rotated = _rotated_s3()
    assert _orthogonality_oracle(rotated) == (None, None)
    assert _verdict(rotated) is None
    # a numerator past 2^70 breaks the relations, at the same first pair
    corrupt = _corrupted(rotated)
    first, _ = _orthogonality_oracle(corrupt)
    points = []
    point = chartab._evaluation_point
    monkeypatch.setattr(
        chartab, "_evaluation_point", lambda e, bound: points.append((e, bound, point(e, bound))) or points[-1][2]
    )
    assert first is not None and _verdict(corrupt) == first
    # the bound is past 2^140, so the modulus is a product of several primes
    # from 2^61 up, each 1 mod e, with z of order e mod every one of them
    [(e, bound, (m, z))] = points
    assert bound > 1 << 140 and m > bound
    assert pow(z, e, m) == 1
    assert all(gcd(pow(z, e // r, m) - 1, m) == 1 for r in (2, 3))


def test_evaluation_modulus_has_a_root_of_order_e_mod_each_prime():
    for e in (1, 2, 12, 666):
        for bound in (1, 10**6, 1 << 61, 1 << 200):
            m, z = chartab._evaluation_point(e, bound)
            assert m > bound and pow(z, e, m) == 1 % m
            assert all(gcd(pow(z, e // r, m) - 1, m) == 1 for r in range(2, e + 1) if e % r == 0)


def test_huge_denominators_are_checked_in_well_under_a_second():
    # denominators 2^2000 + 1 put the bound past 2^4000; the primes still
    # start at 2^61, so each residue stays a few machine words
    rotated = _rotated_s3(1 << 1000)
    corrupt = _corrupted(rotated)
    start = time.perf_counter()
    assert _verdict(rotated) is None
    verdict = _verdict(corrupt)
    elapsed = time.perf_counter() - start
    assert verdict == _orthogonality_oracle(corrupt)[0] is not None
    assert elapsed < 1.0, elapsed


def test_orthogonality_rejects_a_class_size_not_dividing_the_order():
    # sizes 1 and 4 in order 5 with rows (1, 1) and (2, -1/2): the first
    # relation holds, but |G|/|K_1| = 5/4 is no centralizer order
    from heightzero.groups import ClassData

    cd = ClassData([1, 4], [1, 2], [[0, 0], [0, 1]], 2)
    table = chartab.CharacterTable(
        "fake", 5, cd, [[rational(1), rational(1)], [rational(2), rational(Fraction(-1, 2))]]
    )
    first, second = _orthogonality_oracle(table)
    assert first is None and second == "second orthogonality fails at classes 1,1"
    assert _verdict(table) == "class 1 has size 4, not a divisor of the order 5"


def test_orthogonality_rejects_a_power_map_that_does_not_permute_the_classes():
    # both faithful classes of C3 square into class 2: sizes and values keep,
    # but sigma_2 would not permute the terms of the sums
    from heightzero.groups import ClassData

    cd = ClassData([1, 1, 1], [1, 3, 3], [[0, 0, 0], [0, 1, 2], [0, 2, 2]], 3)
    table = chartab.CharacterTable("fake", 3, cd, [[rational(1)] * 3] * 3)
    assert _precondition_refusal(table) is None
    assert _verdict(table) == "power map under power 2 does not permute the classes"


def test_orthogonality_on_default_corpus(corpus_tables):
    for spec, table in corpus_tables:
        assert _verdict(table) is None, spec


def test_trivial_row_first_and_degree_sorted():
    from heightzero.reports import build_table

    # sym:4 takes the Dixon route, meta:12:11 the direct one
    for spec in ("sym:4", "meta:12:11"):
        t = build_table(spec)
        assert all(v == rational(1, v.n) for v in t.rows[0])
        assert t.degrees == sorted(t.degrees)
        for r in range(2, len(t.cells)):
            if t.degrees[r - 1] == t.degrees[r]:
                assert t.cells[r - 1] < t.cells[r], (spec, r)
        # the order is the table's own: _canonical restores it from any
        # order of the rows after the trivial one
        rows = t.rows
        shuffled = chartab.CharacterTable(t.name, t.order, t.classes, [rows[0]] + rows[:0:-1])
        assert shuffled.cells != t.cells
        chartab._canonical(shuffled)
        assert shuffled.values == t.values and shuffled.cells == t.cells
        assert table_to_json(shuffled) == table_to_json(t)


def test_a5_degree3_rows_have_conductor_5():
    t = _table(alternating(5))
    conds = sorted(
        field_from_values(t.rows[r]).conductor
        for r in range(5)
        if t.degrees[r] == 3
    )
    assert conds == [5, 5]


# ---------------------------------------------------------------------------
# the two construction routes agree exactly


def _folding_cells(group, cd):
    """The (j0, c, h) of metacyclic_table's cells where y -> y c folds the
    orbit O = j0 H onto a smaller orbit O' of j0 c (|O|/|O'| > 1) and h is a
    nontrivial element of the stabilizer of j0, so a nontrivial stabilizer
    character sits at it; the orbits are computed here from H itself."""
    n, H = group.meta_params
    reps = [group.elements[i] for i in cd.class_reps]
    orbits = {frozenset(j * h % n for h in H) for j in range(n)}
    orbit_of = {x: orb for orb in orbits for x in orb}
    cells = []
    for orb in orbits:
        j0 = min(orb)
        stab = {h for h in H if h * j0 % n == j0}
        cells += [(j0, c, h) for c, h in reps
                  if h in stab and h != 1 % n and len(orbit_of[j0 * c % n]) < len(orb)]
    return cells


# the cases below with a folding cell, see _folding_cells
_FOLDING = {(9, (2,)), (15, (2,)), (16, (3,)), (20, (3,)), (24, (5, 7)), (40, (3,))}


@pytest.mark.parametrize(
    "n,hgens",
    [
        (1, []),
        (5, [4]),
        (7, [2]),
        (8, [3]),
        (9, [2]),
        (12, [11]),
        (12, [5]),
        (15, [2]),
        (16, [3]),
        (20, [3]),
        (24, [5, 7]),
        (40, [3]),
    ],
)
def test_direct_route_matches_dixon(n, hgens):
    g = semidirect_cn_h(n, hgens)
    cd = conjugacy_classes(g)
    # a Gauss period taken |O|/|O'| > 1 times under a nontrivial stabilizer
    # character; in (24, [5, 7]), O = {8, 16} folds onto {0} at (3, 7)
    cells = _folding_cells(g, cd)
    assert bool(cells) == ((n, tuple(hgens)) in _FOLDING)
    if (n, hgens) == (24, [5, 7]):
        assert (8, 3, 7) in cells
    tm = metacyclic_table(g, cd)
    td = dixon_table(g, cd)
    assert tm.rows == td.rows  # identical ordered lists, not just row sets
    tm.check_orthogonality()


def _dihedral_and_semidihedral_corpus_specs():
    from heightzero.reports import default_corpus

    return [
        spec for spec in default_corpus()
        if spec.startswith("semidihedral:")
        or (spec.startswith("dihedral:") and int(spec.split(":")[1]) >= 6)
    ]


@pytest.mark.parametrize("spec", _dihedral_and_semidihedral_corpus_specs())
def test_direct_route_matches_dixon_on_spec(spec):
    # the same cross-check through build_table, on the corpus groups that are
    # built as C_n x| H without being named meta:
    from heightzero.reports import build_table

    direct = table_to_json(build_table(spec, "direct"))
    assert direct == table_to_json(build_table(spec, "dixon"))


def test_direct_route_matches_dixon_on_the_realize_family(monkeypatch):
    # the C_n x| H of realize's field fix:n:gens for every meta:n:gens of the
    # corpus, built as realize_field builds it; the same loop counts the
    # split's steps, which the rational-first class order keeps at 327
    # minimal polynomials and 252 class matrices (by the key alone: 343 and
    # 647; in class-index order: 915 and 843), and the rows the lift's
    # discrete Fourier transforms carry, one per Galois orbit: 683 of 1,971
    from heightzero.reports import default_corpus, parse_field_spec

    build, minpoly, lanes = chartab.class_matrix, modular.minimal_polynomial, modular._lanes
    steps = {"minimal polynomials": 0, "class matrices": 0}
    widths = set()  # the lane counts dixon_table itself unpacks, per table

    def counted_matrix(group_, cd_, i):
        steps["class matrices"] += 1
        return build(group_, cd_, i)

    def counted_minpoly(*args):
        steps["minimal polynomials"] += 1
        return minpoly(*args)

    def counted_lanes(x, n):
        if sys._getframe(1).f_code is dixon_table.__code__:
            widths.add(n)
        return lanes(x, n)

    monkeypatch.setattr(chartab, "class_matrix", counted_matrix)
    monkeypatch.setattr(modular, "minimal_polynomial", counted_minpoly)
    monkeypatch.setattr(modular, "_lanes", counted_lanes)
    specs = [spec for spec in default_corpus() if spec.startswith("meta:")]
    assert len(specs) == 116
    lifted = rows = 0
    for spec in specs:
        field = parse_field_spec("fix:" + spec.split(":", 1)[1])
        n = field.conductor
        group = semidirect_cn_h(n, sorted(field.fixer)) if n > 1 else cyclic(1)
        cd = conjugacy_classes(group)
        assert metacyclic_table(group, cd).rows == dixon_table(group, cd).rows, spec
        (width,) = widths
        widths.clear()
        lifted, rows = lifted + width, rows + cd.num_classes
    assert steps == {"minimal polynomials": 327, "class matrices": 252}
    assert (lifted, rows) == (683, 1971)


@pytest.mark.parametrize(
    "build,group",
    [pytest.param(metacyclic_table, g, id=g.name)
     for g in (semidirect_cn_h(37, [2], name="meta:37:2"), dihedral(200))]
    + [pytest.param(dixon_table, g, id=f"dixon-{g.name}")
       for g in (symmetric(5), sl2(5), generalized_quaternion(64), cyclic(37))],
)
def test_equal_values_are_one_object(build, group):
    t = build(group, conjugacy_classes(group))
    values = [v for row in t.rows for v in row]
    assert len({id(v) for v in values}) == len(set(values)) < len(values)


def _count_builds(monkeypatch, build, group):
    """The table, and the number of CycElt.__init__ calls made building it."""
    calls = []
    init = CycElt.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CycElt, "__init__", counted)
    t = build(group, conjugacy_classes(group))
    monkeypatch.undo()
    return t, len(calls)


def test_metacyclic_table_builds_each_value_once(monkeypatch):
    t, calls = _count_builds(monkeypatch, metacyclic_table, cyclic(1000))
    distinct = len({v for row in t.rows for v in row})
    assert distinct == 1000
    assert calls <= distinct + 3


@pytest.mark.parametrize(
    "group,most",
    # at most 107 and 33 builds; one per raw exponent tuple made 206 and 133
    [(dihedral(400), 107), (semidirect_cn_h(63, [2, 8]), 33)],
    ids=lambda x: getattr(x, "name", str(x)),
)
def test_metacyclic_table_builds_once_per_gauss_period(monkeypatch, group, most):
    t, calls = _count_builds(monkeypatch, metacyclic_table, group)
    assert calls <= most
    assert table_to_json(t) == table_to_json(dixon_table(group, conjugacy_classes(group)))


def test_dixon_table_builds_each_value_once(monkeypatch):
    # one CycElt per entry would be 37 * 37 = 1,369
    t, calls = _count_builds(monkeypatch, dixon_table, cyclic(37))
    distinct = len({v for row in t.rows for v in row})
    assert distinct == 37
    assert calls <= distinct + 3


@pytest.mark.parametrize("group", [symmetric(5), sl2(5), semidirect_cn_h(12, [11])],
                         ids=lambda g: g.name)
def test_dixon_table_is_independent_of_the_root_of_unity(monkeypatch, group):
    # zeta_e -> s^k in place of s lifts each row to sigma_k(chi); Irr(G) is
    # Galois-stable, so the sorted table must not move
    cd = conjugacy_classes(group)
    want = table_to_json(dixon_table(group, cd))
    root = chartab._dixon_root
    units = [k for k in range(1, cd.exponent) if gcd(k, cd.exponent) == 1]
    for k in units:
        used = []

        def power_k(q, e, k=k):
            used.append(pow(root(q, e), k, q))
            return used[-1]

        monkeypatch.setattr(chartab, "_dixon_root", power_k)
        assert table_to_json(dixon_table(group, cd)) == want, k
        assert len(used) == 1
    assert len(units) > 2


def _first_root(q, e):
    """c^((q - 1) / e) for the first c in 1 .. q - 1 for which that power has
    order e, by a scan over all its powers."""
    for c in range(1, q):
        s = pow(c, (q - 1) // e, q)
        if len({pow(s, k, q) for k in range(e)}) == e:
            return s
    raise AssertionError("no root of order e")


@pytest.mark.parametrize("group", [symmetric(5), sl2(5), semidirect_cn_h(12, [11]), dihedral(40)],
                         ids=lambda g: g.name)
def test_dixon_reduction_is_the_power_sum_at_the_root(group):
    # at the Dixon prime q = 1 mod e, zeta_e goes to the first root s of
    # order e, and the residue of a raw exponent map {k: m_k} is
    # sum m_k s^k mod q
    cd = conjugacy_classes(group)
    e = cd.exponent
    q = chartab._dixon_prime(e, group.order, cd.num_classes)
    s = _first_root(q, e)
    assert chartab._dixon_root(q, e) == s
    roots = [pow(s, k, q) for k in range(e)]
    rng = random.Random(e)
    for _ in range(200):
        raw = {k: rng.randrange(-3 * q, 3 * q) for k in rng.sample(range(e), rng.randint(1, e))}
        assert chartab._residue(raw, roots, q) == sum(m * pow(s, k, q) for k, m in raw.items()) % q


@pytest.mark.parametrize("group", [symmetric(5), semidirect_cn_h(12, [11])], ids=lambda g: g.name)
def test_dixon_table_checks_every_lifted_value_through_the_reduction(monkeypatch, group):
    # a residue that is off by one on a single lifted value must fail the
    # check of that value against its own eigenvector coordinates
    cd = conjugacy_classes(group)
    residue = chartab._residue
    calls = []

    def counted(terms, roots, q):
        calls.append(q)
        return residue(terms, roots, q)

    monkeypatch.setattr(chartab, "_residue", counted)
    dixon_table(group, cd)
    total = len(calls)
    assert total > 2
    for wrong in (0, total // 2, total - 1):
        calls.clear()

        def off_by_one(terms, roots, q, wrong=wrong):
            calls.append(q)
            out = residue(terms, roots, q)
            return (out + 1) % q if len(calls) == wrong + 1 else out

        monkeypatch.setattr(chartab, "_residue", off_by_one)
        with pytest.raises(AssertionError, match="disagrees with its value mod q"):
            dixon_table(group, cd)


def _wrong_conjugates(cd):
    """(class, unit, class) for each way to send one power-map entry of a unit
    to another class of the same Galois orbit."""
    for j, o in enumerate(cd.element_orders):
        units = [u for u in range(o) if gcd(u, o) == 1]
        orbit = sorted({cd.power_map[j][u] for u in units})
        for u in units:
            for wrong in orbit:
                if wrong != cd.power_map[j][u]:
                    yield j, u, wrong


@pytest.mark.parametrize("group", [sl2(5), generalized_quaternion(32), semidirect_cn_h(7, [2])],
                         ids=lambda g: g.name)
def test_dixon_table_rejects_a_power_map_sent_to_a_wrong_conjugate(group):
    # the lift reads one power map per rational class; every other class is
    # filled by the Galois action, and each filled class must show that its
    # own power map and its own modular values agree with the fill
    cd = conjugacy_classes(group)
    cases = list(_wrong_conjugates(cd))
    assert len({j for j, _, _ in cases}) > 2
    for j, u, wrong in cases:
        bad = copy.deepcopy(cd)
        bad.power_map[j][u] = wrong
        with pytest.raises(AssertionError):
            dixon_table(group, bad)


@pytest.mark.parametrize(
    "spec,refused",
    [
        pytest.param("meta:13:1,3,9", {AssertionError: 42}, id="meta:13:1,3,9"),
        pytest.param("sl2:7", {AssertionError: 110}, id="sl2:7"),
        pytest.param("meta:40:1,9,13,37", {AssertionError: 752, ValueError: 4}, id="meta:40:1,9,13,37"),
    ],
)
def test_dixon_table_refuses_every_line_off_by_one(monkeypatch, spec, refused):
    # 1 added mod q to one coordinate j >= 1 of one line, for every line and
    # every such j: the lift reads one row per Galois orbit and takes every
    # other row as a permuted row, which must be a row of the same degree, so
    # each case raises; ValueError where the sum that gives a degree is 0 mod q
    group = parse_group_spec(spec)
    cd = conjugacy_classes(group)
    c = cd.num_classes
    q = chartab._dixon_prime(cd.exponent, group.order, c)
    lines = chartab._split_eigenspaces(group, cd, q)
    outcomes = {}
    for r in range(c):
        for j in range(1, c):
            doctored = [v[:] for v in lines]
            doctored[r][j] = (doctored[r][j] + 1) % q
            monkeypatch.setattr(chartab, "_split_eigenspaces", lambda group_, cd_, q_, v=doctored: v)
            with pytest.raises((AssertionError, ValueError)) as info:
                dixon_table(group, cd)
            outcomes[info.type] = outcomes.get(info.type, 0) + 1
    assert outcomes == refused


@pytest.mark.parametrize(
    "spec,built",
    [
        ("cyclic:37", 1),
        ("sym:5", 1),
        ("sl2:7", 2),
        ("quaternion:64", 3),
        ("alt:7", 2),
        ("meta:40:1,9,13,37", 9),
    ],
)
def test_dixon_split_builds_a_class_matrix_only_while_a_vector_is_unsplit(monkeypatch, spec, built):
    # the split visits the classes by descending element order times
    # min(|K_i|, c), ties by index, the first class of each rational class
    # before every class Galois conjugate to an earlier one, and stops at c
    # vectors, so it builds no more class matrices than the common
    # eigenspaces need in that order
    build = chartab.class_matrix
    calls = []

    def counted(group_, cd_, i):
        calls.append(i)
        return build(group_, cd_, i)

    monkeypatch.setattr(chartab, "class_matrix", counted)
    group = parse_group_spec(spec)
    cd = conjugacy_classes(group)
    c = cd.num_classes
    order = sorted(range(1, c), key=lambda j: (-cd.element_orders[j] * min(cd.class_sizes[j], c), j))
    units = [u for u in range(cd.exponent) if gcd(u, cd.exponent) == 1]
    first = {}  # rational class -> its first class in that order
    for j in order:
        first.setdefault(frozenset(cd.power_map[j][u] for u in units), j)
    leaders = set(first.values())
    order = [j for j in order if j in leaders] + [j for j in order if j not in leaders]
    dixon_table(group, cd)
    assert calls == order[:built]


@pytest.mark.parametrize("wrong", ["zero", "other", "shifted"])
def test_dixon_split_checks_every_projected_eigenline(monkeypatch, wrong):
    # one row of the Lagrange basis off: the zero row, another root's row, or
    # the row plus the constant 1 (which adds x itself); each gives a
    # simple eigenvalue a vector that is not its eigenline
    group = cyclic(37)
    cd = conjugacy_classes(group)
    lagrange = modular.lagrange
    for k in (0, 18, 36):
        def one_wrong_row(roots, q, k=k):
            rows = lagrange(roots, q)
            if wrong == "zero":
                rows[k] = [0] * len(roots)
            elif wrong == "other":
                rows[k] = rows[(k + 1) % len(roots)]
            else:
                rows[k][0] = (rows[k][0] + 1) % q
            return rows

        monkeypatch.setattr(modular, "lagrange", one_wrong_row)
        with pytest.raises(AssertionError):
            dixon_table(group, cd)


def test_dixon_split_refuses_a_repeated_root_of_a_minimal_polynomial(monkeypatch):
    # a Jordan block: B = M^T sends e_0 to e_0 + e_1 and fixes e_1, so the
    # minimal polynomial of e_0 is (t - 1)^2, and B is not diagonalizable
    group = symmetric(4)
    cd = conjugacy_classes(group)
    jordan = [[int(j == k) for k in range(cd.num_classes)] for j in range(cd.num_classes)]
    jordan[1][0] = 1
    monkeypatch.setattr(chartab, "class_matrix", lambda group_, cd_, i: [row[:] for row in jordan])
    with pytest.raises(AssertionError, match="not diagonalizable"):
        dixon_table(group, cd)
    # the block the other way round fixes e_0, which then never splits
    jordan = [list(col) for col in zip(*jordan)]
    with pytest.raises(AssertionError, match="did not split to lines"):
        dixon_table(group, cd)


def test_dixon_table_of_a_doctored_class_matrix_is_true_or_raises(monkeypatch):
    # one entry of one class matrix off by one, for every class: the result
    # is the true table or an AssertionError, never a wrong table and never
    # another exception, also where a doctored minimal polynomial has no
    # root mod q
    build = chartab.class_matrix
    poly_roots = modular.poly_roots
    found = []  # the number of distinct roots of each minimal polynomial

    def counted_roots(q):
        find = poly_roots(q)

        def counted(coeffs):
            roots = find(coeffs)
            found.append(len(roots))
            return roots

        return counted

    monkeypatch.setattr(modular, "poly_roots", counted_roots)
    outcomes = {"true": 0, "raised": 0}
    for spec in ("cyclic:37", "meta:40:1,9,13,37", "sl2:7", "sym:5", "meta:21:1,4,16"):
        group = parse_group_spec(spec)
        cd = conjugacy_classes(group)
        c = cd.num_classes
        want = metacyclic_table(group, cd).rows if group.meta_params else _table(group).rows
        for i in range(c):
            for entry in ((c - 1, c - 1), (0, i)):
                def doctored(group_, cd_, j, i=i, entry=entry):
                    m = build(group_, cd_, j)
                    if j == i:
                        m[entry[0]][entry[1]] += 1
                    return m

                monkeypatch.setattr(chartab, "class_matrix", doctored)
                try:
                    got = dixon_table(group, cd).rows
                except AssertionError:
                    outcomes["raised"] += 1
                else:
                    assert got == want, (spec, i, entry)
                    outcomes["true"] += 1
    assert outcomes["raised"] and outcomes["true"]
    assert 0 in found  # a doctored minimal polynomial with no root in F_q


def test_dixon_table_of_every_single_entry_bump_of_sym5_is_true_or_raises(monkeypatch):
    # each of the 7^3 entries (i, j, k) of sym:5's class matrices off by one
    # in turn: 294 bumps still give the true table and 49 raise, never a
    # wrong table and never another exception
    group = symmetric(5)
    cd = conjugacy_classes(group)
    c = cd.num_classes
    want = _table(group).rows
    mats = [class_matrix(group, cd, i) for i in range(c)]
    outcomes = {"true": 0, "raised": 0}
    for i in range(c):
        for j in range(c):
            for k in range(c):
                def doctored(group_, cd_, m, i=i, j=j, k=k):
                    out = [row[:] for row in mats[m]]
                    if m == i:
                        out[j][k] += 1
                    return out

                monkeypatch.setattr(chartab, "class_matrix", doctored)
                try:
                    got = dixon_table(group, cd).rows
                except AssertionError:
                    outcomes["raised"] += 1
                else:
                    assert got == want, (i, j, k)
                    outcomes["true"] += 1
    assert outcomes == {"true": 294, "raised": 49}


@pytest.mark.parametrize("factor", [1, 6])
def test_subgroup_characters_are_the_dual_group(factor):
    # every subgroup S of (Z/n)*, n <= 60: |S| distinct homomorphisms
    # S -> Z/e, for e the exponent of S and for a multiple of it
    for n in range(1, 61):
        for sub in all_subgroups(n):
            exp = lcm(*(next(k for k in range(1, n + 1) if pow(h, k, n) == 1 % n) for h in sub))
            e = exp * factor
            chars = chartab._subgroup_characters(n, sub, e)
            assert len(chars) == len(sub), (n, sub)
            assert len({tuple(mu[h] for h in sub) for mu in chars}) == len(sub), (n, sub)
            for mu in chars:
                assert sorted(mu) == list(sub)
                assert all(0 <= v < e for v in mu.values())
                assert all(mu[a * b % n] == (mu[a] + mu[b]) % e for a in sub for b in sub)


def test_cyclic_table_is_fourier_matrix():
    g = cyclic(5)
    t = metacyclic_table(g, conjugacy_classes(g))
    # every row is determined by a k with row value zeta_5^k at a generator,
    # and all five k occur
    pm = t.classes.power_map[1]  # powers of a generator, as class indices
    seen = set()
    for row in t.rows:
        z = row[1]
        k = next(k for k in range(5) if root_of_unity(5, k) == z)
        assert all(row[pm[j]] == z**j for j in range(5))
        seen.add(k)
    assert seen == set(range(5))


# ---------------------------------------------------------------------------
# Galois stability of the set of rows


def test_irr_is_galois_stable():
    from math import gcd

    for g in (symmetric(4), sl2(3), semidihedral(16)):
        t = _table(g)
        e = t.classes.exponent
        for k in range(1, e):
            if gcd(k, e) == 1:
                mapped = frozenset(
                    tuple(v.embed(e).galois(k).key() for v in row) for row in t.rows
                )
                assert mapped == frozenset(
                    tuple(v.embed(e).key() for v in row) for row in t.rows
                )


# ---------------------------------------------------------------------------
# inner products, induction, restriction


def test_rows_are_orthonormal_class_functions():
    t = _table(symmetric(4))
    cd = t.classes
    for r in range(len(t.rows)):
        for s in range(len(t.rows)):
            ip = inner_product(t.rows[r], t.rows[s], cd, t.order)
            assert ip.to_rational() == (1 if r == s else 0)


def test_induce_linear_from_a4_to_s4():
    g = symmetric(4)
    cd = conjugacy_classes(g)
    t = dixon_table(g, cd)
    # index-2 subgroup: the even permutations
    a4 = derived_subgroup(g)
    assert len(a4) == 12
    lam = {i: 0 for i in a4}
    ind = induce_linear(cd, lam)
    mults = decompose(ind, t)
    # 1_{A4}^{S4} = trivial + sign
    assert sum(mults) == 2
    assert mults[0] == 1


def test_restriction_of_s4_to_a4():
    g = symmetric(4)
    cd = conjugacy_classes(g)
    t = dixon_table(g, cd)
    a4 = derived_subgroup(g)
    sub, embedding = subgroup_as_group(g, a4, name="alt4")
    sub_cd = conjugacy_classes(sub)
    sub_t = dixon_table(sub, sub_cd)
    # restriction of the degree-2 row of S4 decomposes into A4 irreducibles
    deg2 = t.degrees.index(2)
    vals = restrict(t.rows[deg2], cd, sub_cd, embedding)
    mults = decompose(vals, sub_t)
    assert sum(m * d for m, d in zip(mults, sub_t.degrees)) == 2


# ---------------------------------------------------------------------------
# JSON round trip and ingest validation


def test_table_json_roundtrip():
    t = _table(semidihedral(16))
    obj = json.loads(json.dumps(table_to_json(t)))
    t2 = table_from_json(obj)
    assert t2.rows == t.rows
    assert t2.order == t.order
    assert t2.classes.class_sizes == t.classes.class_sizes


def test_ingest_puts_every_value_at_the_exponent():
    # row 0's 1s written at modulus 1 equal the 1s of the other rows, which
    # sit at the exponent; they must be one value, with one hash
    t = _table(symmetric(3))
    obj = table_to_json(t)
    obj["irr"][0] = [{"n": 1, "terms": [[0, "1/1"]]}] * len(obj["irr"][0])
    t2 = table_from_json(obj)
    assert all(v.n == t2.classes.exponent for row in t2.rows for v in row)
    distinct = len({v for row in t.rows for v in row})
    assert len({v for row in t2.rows for v in row}) == distinct


def test_a_hand_built_value_off_the_exponent_is_refused():
    # zeta_5 is not in Q(zeta_6), so it cannot be written at the exponent of S3
    t = _table(symmetric(3))
    rows = t.rows
    rows[2] = (rows[2][0], root_of_unity(5, 1), rows[2][2])
    with pytest.raises(ValueError, match="cannot embed modulus 5 into 6"):
        chartab.CharacterTable(t.name, t.order, t.classes, rows)


def test_equal_values_at_different_moduli_are_one_index():
    # 1 at modulus 1 and 1 at the exponent are one value of a hand-built table
    t = _table(symmetric(3))
    rows = t.rows
    rows[0] = (rational(1), _one_at(t.classes.exponent), rational(1))
    mixed = chartab.CharacterTable(t.name, t.order, t.classes, rows)
    assert len(set(mixed.cells[0])) == 1
    assert (mixed.values, mixed.cells) == (t.values, t.cells)


def test_every_corpus_value_sits_at_the_exponent(corpus_tables):
    for spec, t in corpus_tables:
        back = table_from_json(table_to_json(t))
        e = t.classes.exponent
        assert all(v.n == e for v in t.values + back.values), spec


def test_ingest_rejects_corrupt_values():
    t = _table(symmetric(3))
    obj = table_to_json(t)
    # corrupt one character value
    obj["irr"][2][1]["terms"] = [[0, "5/1"]]
    with pytest.raises(ValueError):
        table_from_json(obj)


def test_ingest_rejects_non_basis_exponent():
    t = _table(symmetric(3))
    obj = table_to_json(t)
    row = obj["irr"][1]
    # modulus-12 exponent 1 is not a canonical basis exponent
    row[1] = {"n": 12, "terms": [[1, "1/1"]]}
    with pytest.raises(ValueError):
        table_from_json(obj)


def _pm(j, a, c):
    def mutate(obj):
        obj["classes"][j]["powermap"][str(a)] = c

    return mutate


def _exponent_12(obj):
    obj["exponent"] = 12
    for cls in obj["classes"]:
        cls["powermap"] = {str(a): cls["powermap"][str(a % 6)] for a in range(12)}


def _two_identity_classes(obj):
    obj["classes"][1]["element_order"] = 1


def _class_size(obj):
    obj["classes"][1]["size"] = 2


def _faithful_rows_made_rational(obj):
    obj["classes"][1]["powermap"]["2"] = 1
    obj["classes"][2]["powermap"]["2"] = 2


def _value_outside_exponent(obj):
    obj["irr"][2][1] = {"n": 5, "terms": [[1, "1/1"]]}


def _short_row(obj):
    del obj["irr"][2][2]


def _non_basis_exponent(obj):
    # modulus 6 divides the exponent of S3, but 1 is not a basis exponent there
    obj["irr"][1][1] = {"n": 6, "terms": [[1, "1/1"]]}


def _repeated_exponent(obj):
    # 1 at modulus 6 is -z^2 - z^4; a repeated z^2 term used to be dropped
    obj["irr"][0][1] = {"n": 6, "terms": [[2, "-1/1"], [2, "-1/1"], [4, "-1/1"]]}


def _name_not_a_string(obj):
    obj["name"] = [1, 2]


def _swap_rows_0_and_1(obj):
    obj["irr"][0], obj["irr"][1] = obj["irr"][1], obj["irr"][0]


def _drop_last_row(obj):
    del obj["irr"][-1]


def _row_2_copies_row_1(obj):
    # degrees 1, 1, 1
    obj["irr"][2] = copy.deepcopy(obj["irr"][1])


def _coefficient(text):
    # -1 at modulus 6 is z^2 + z^4; int() reads each of these texts as 1
    def mutate(obj):
        obj["irr"][1][1]["terms"][0][1] = text

    return mutate


@pytest.mark.parametrize(
    "group,mutate,match",
    [
        (symmetric(3), _pm(1, 3, 7), "out of range"),
        (symmetric(3), _pm(1, 0, 1), "send 0 to the identity"),
        (symmetric(3), _pm(2, 1, 1), "send 0 to the identity and 1"),
        (symmetric(3), _pm(2, 2, 1), "element orders"),
        (symmetric(3), _exponent_12, "lcm"),
        (cyclic(6), _two_identity_classes, "exactly one class"),
        (symmetric(3), _class_size, "sum to the group order"),
        (cyclic(3), _pm(1, 2, 1), "does not compose"),
        (cyclic(3), _faithful_rows_made_rational, "not compatible with the values"),
        (symmetric(3), _value_outside_exponent, "does not divide the exponent 6"),
        (symmetric(3), _short_row, "2 values for 3 classes"),
        (symmetric(3), _non_basis_exponent, "not a basis exponent"),
        (symmetric(3), _repeated_exponent, "basis exponent 2 repeats"),
        (symmetric(3), _name_not_a_string, "name must be a string"),
        (symmetric(3), _coefficient("+1/1"), "is not ASCII"),
        (symmetric(3), _coefficient("-1/-1"), "is not ASCII"),
        (symmetric(3), _coefficient("1/ 1"), "is not ASCII"),
        (symmetric(3), _coefficient(" 1_0/10"), "is not ASCII"),
        (symmetric(3), _coefficient("1/1\n"), "is not ASCII"),
        (symmetric(3), _coefficient("\uff11/1"), "is not ASCII"),
        (symmetric(3), _swap_rows_0_and_1, "row 0 is not the trivial character"),
        (symmetric(3), _drop_last_row, "row count != class count"),
        (symmetric(3), _row_2_copies_row_1, "sum of squared degrees != group order"),
        (symmetric(3), _pm(1, 2, True), "power map entry must be an integer, got True"),
        (symmetric(3), _pm(2, 3, 2.0), "power map entry must be an integer, got 2.0"),
    ],
)
def test_ingest_validates_class_data(group, mutate, match):
    obj = json.loads(json.dumps(table_to_json(_table(group))))
    mutate(obj)
    with pytest.raises(ValueError, match=match):
        table_from_json(obj)


def test_ingest_accepts_fractions_that_are_not_reduced():
    t = _table(symmetric(3))
    obj = json.loads(json.dumps(table_to_json(t)))
    obj["irr"][2][0]["terms"] = [[2, "-4/2"], [4, "-6/3"]]
    assert table_from_json(obj).rows == t.rows


_ONE_AT_1 = {"n": 1, "terms": [[0, "1/1"]]}


@pytest.mark.parametrize(
    "earlier,last,match",
    [
        (_ONE_AT_1, {"n": True, "terms": [[0, "1/1"]]}, "modulus must be an integer, got True"),
        (None, {"n": 6.0, "terms": [[2, "-1/1"], [4, "-1/1"]]}, "modulus must be an integer, got 6.0"),
        (None, {"n": 6, "terms": [[0, "1/1"]]}, "exponent 0 is not a basis exponent at modulus 6"),
        (None, {"n": 6, "terms": [[2, "-1/1"], [4, "-1/1"], [4, "-1/1"]]}, "basis exponent 4 repeats"),
        (None, _ONE_AT_1, None),
    ],
    ids=["n-true", "n-float", "non-basis", "repeated", "smaller-modulus"],
)
def test_ingest_interns_values_but_never_encodings_that_validate_differently(earlier, last, match):
    # the last 1 of S3's table is re-encoded; the 1s before it are written
    # as `earlier` (or left at modulus 6), which Python finds equal to it for
    # n-true and n-float
    obj = json.loads(json.dumps(table_to_json(_table(symmetric(3)))))
    one = obj["irr"][0][0]
    where = [(r, j) for r, row in enumerate(obj["irr"]) for j, v in enumerate(row) if v == one]
    assert len(where) == 5
    for r, j in where[:-1]:
        if earlier is not None:
            obj["irr"][r][j] = copy.deepcopy(earlier)
    r, j = where[-1]
    obj["irr"][r][j] = last
    if match is not None:
        with pytest.raises(ValueError, match=match):
            table_from_json(obj)
        return
    t = table_from_json(obj)
    assert all(t.rows[a][b] is t.rows[0][0] for a, b in where)


@pytest.mark.parametrize("spec", ["meta:12:11", "sl2:5"])
def test_ingest_parses_and_conjugates_once_per_value(monkeypatch, spec):
    from heightzero.reports import build_table

    # a table, built or ingested, interns its rows once
    intern, interns = chartab._intern, []

    def counted_intern(rows, e):
        interns.append(rows)
        return intern(rows, e)

    monkeypatch.setattr(chartab, "_intern", counted_intern)
    obj = json.loads(json.dumps(table_to_json(build_table(spec))))
    assert len(interns) == 1
    entries = [v for row in obj["irr"] for v in row]
    encodings = {json.dumps(v, sort_keys=True) for v in entries}
    parse, galois = chartab.cyc_from_json, CycElt.galois
    parses, images = [], []

    def counted_parse(v, e):
        parses.append(v)
        return parse(v, e)

    def counted_galois(v, k):
        images.append((v, k))
        return galois(v, k)

    monkeypatch.setattr(chartab, "cyc_from_json", counted_parse)
    monkeypatch.setattr(CycElt, "galois", counted_galois)
    t = table_from_json(obj)
    assert len(interns) == 2
    values = {v for row in t.rows for v in row}
    assert len(encodings) < len(entries)
    assert 0 < len(parses) <= len(encodings)
    assert 0 < len(images) <= len(values) * len(unit_generators(t.classes.exponent))


# ---------------------------------------------------------------------------
# Frobenius-Schur counts: every power map checked against the values


def _frobenius_schur(table):
    """nu(power_map, n): nu_n(chi) = |G|^-1 sum_j |K_j| chi(g_j^n) for each row,
    g_j^n read from power_map.  Through a genuine power map the sum is |G|
    times an integer of absolute value at most chi(1) (Frobenius; Isaacs
    1976, ch. 4), so one evaluation mod m > 2 D |G| max chi(1) decides it, D
    the lcm of the coefficient denominators, as in chartab._class_sums; a
    sum that is no such integer raises AssertionError."""
    cd = table.classes
    e, order = cd.exponent, table.order
    den = lcm(*(a.denominator for v in table.values for a in v.terms.values()))
    m, z = chartab._evaluation_point(e, 2 * den * order * max(table.degrees))
    at = [sum(a.numerator * (den // a.denominator) * pow(z, k, m) for k, a in v.terms.items()) % m
          for v in table.values]

    def nu(power_map, n):
        weights = [0] * cd.num_classes  # |G| nu_n(chi) = sum_k weights[k] chi(g_k)
        for size, powers in zip(cd.class_sizes, power_map):
            weights[powers[n % e]] += size
        out = []
        for degree, cell in zip(table.degrees, table.cells):
            acc = sum(map(mul, weights, map(at.__getitem__, cell))) % m
            value, rest = divmod(acc - m if 2 * acc > m else acc, den * order)
            assert not rest and abs(value) <= degree, f"nu_{n} is no integer of absolute value <= chi(1)"
            out.append(value)
        return out

    return nu


def _check_frobenius_schur(table, nu, power_map, ns):
    """For each n in ns, sum_chi chi(1) nu_n(chi) = #{x : x^n = 1}, the sum of
    |K_j| over the element orders o_j dividing n; for n = 2 also nu_2(chi) in
    {-1, 0, 1}, nonzero exactly when chi is real: when -1 is in the fixer of
    the field row_field gives."""
    cd = table.classes
    for n in ns:
        nus = nu(power_map, n)
        roots = sum(size for size, o in zip(cd.class_sizes, cd.element_orders) if n % o == 0)
        assert sum(map(mul, table.degrees, nus)) == roots, f"sum of chi(1) nu_{n}(chi) is not {roots}"
        if n == 2:
            real = [-1 % f.conductor in f.fixer for f in map(table.row_field, range(cd.num_classes))]
            assert set(nus) <= {-1, 0, 1} and [v != 0 for v in nus] == real, "nu_2 disagrees with reality"


def _divisors(e):
    return [n for n in range(1, e + 1) if e % n == 0]


def test_frobenius_schur_counts_on_default_corpus(corpus_tables):
    pairs = 0
    for spec, t in corpus_tables:
        ns = _divisors(t.classes.exponent)
        _check_frobenius_schur(t, _frobenius_schur(t), t.classes.power_map, ns + [2])  # 2 for odd e too
        pairs += len(ns)
    assert pairs == 1215


@pytest.mark.parametrize("spec", ["sym:6", "alt:7", "sl2:13"])
def test_frobenius_schur_counts_on_dixon_tables(spec):
    t = _spec_table(spec)
    _check_frobenius_schur(t, _frobenius_schur(t), t.classes.power_map, _divisors(t.classes.exponent))


@pytest.mark.parametrize(
    "spec,moves",
    [("sl2:13", 182), ("sym:6", 68), ("alt:7", 52), ("meta:63:2,8", 210), ("quaternion:64", 64)],
)
def test_frobenius_schur_refuses_every_power_map_entry_moved(spec, moves):
    # the power map entry of class j at a divisor n > 1 of e, sent to another
    # class of the same element order: the counts refuse every such map, 576
    # over these five groups
    t = _spec_table(spec)
    cd, nu = t.classes, _frobenius_schur(t)
    cases = 0
    for n in _divisors(cd.exponent)[1:]:
        for j in range(cd.num_classes):
            was = cd.power_map[j][n % cd.exponent]
            for k in range(cd.num_classes):
                if k != was and cd.element_orders[k] == cd.element_orders[was]:
                    bad = [row[:] for row in cd.power_map]
                    bad[j][n % cd.exponent] = k
                    with pytest.raises(AssertionError):
                        _check_frobenius_schur(t, nu, bad, [n])
                    cases += 1
    assert cases == moves


# fields of values: the power-map route against the Galois scan


def test_row_field_matches_galois_scan_on_default_corpus(corpus_tables):
    rows = 0
    for spec, t in corpus_tables:
        for r, row in enumerate(t.rows):
            assert t.row_field(r) == field_from_values(row), (spec, r)
            rows += 1
    assert rows == 3600


@pytest.mark.parametrize("group", [symmetric(6), alternating(7), sl2(13)], ids=lambda g: g.name)
def test_row_field_matches_galois_scan_on_dixon_tables(group):
    t = _table(group)
    for r, row in enumerate(t.rows):
        assert t.row_field(r) == field_from_values(row), (group.name, r)


@pytest.mark.parametrize("spec", ["meta:12:11", "sl2:5"])
def test_row_field_matches_galois_scan_on_ingested_tables(spec):
    # ingest makes one object per distinct value, and so does the constructor
    # for a table given a fresh CycElt per entry: it interns them by value,
    # and every per-value fact reads the same as on the ingested table
    from heightzero.reports import build_table

    t = table_from_json(table_to_json(build_table(spec)))
    assert len({id(v) for row in t.rows for v in row}) == len({v for row in t.rows for v in row})
    fresh = [[CycElt(v.n, v.terms, reduced=True) for v in row] for row in t.rows]
    loose = chartab.CharacterTable(t.name, t.order, t.classes, fresh)
    assert len({id(v) for row in loose.rows for v in row}) == len(loose.values)
    assert len(loose.values) < len({id(v) for row in fresh for v in row})
    assert loose.values == t.values and loose.cells == t.cells
    assert table_to_json(loose) == table_to_json(t)
    for p in (2, 3):
        assert block_report_json(loose, p) == block_report_json(t, p)
    for table in (t, loose):
        for r, row in enumerate(table.rows):
            assert table.row_field(r) == field_from_values(row) == t.row_field(r), (spec, r)


@pytest.mark.parametrize("spec", ["meta:12:11", "sl2:5", "alt:7"])
def test_row_field_is_one_object_per_galois_orbit(spec):
    from heightzero.reports import build_table

    t = build_table(spec)
    e = t.classes.exponent
    images = [{tuple(v.galois(k) for v in row) for k in _units(e)} for row in t.rows]
    for r in range(len(t.rows)):
        for s in range(len(t.rows)):
            assert (t.row_field(r) is t.row_field(s)) == (t.rows[s] in images[r]), (spec, r, s)


def test_row_field_rejects_an_image_that_is_not_a_row():
    # sending class j to the identity under a generator g of (Z/e)* sends a
    # row of degree d > 1 to a tuple with d at j, which is no row of SL(2,5)
    t = _table(sl2(5))
    bad = copy.deepcopy(t.classes)
    g = unit_generators(bad.exponent)[0]
    j = len(t.rows) - 1
    bad.power_map[j][g] = 0
    doctored = chartab.CharacterTable(t.name, t.order, bad, t.rows)
    assert doctored.row_field(0) == field_from_values(t.rows[0])
    with pytest.raises(ValueError, match="is not a row"):
        doctored.row_field(len(t.rows) - 1)
