"""Complete complex character tables.

Two independent construction routes:

* dixon_table: the Dixon-Schneider modular method (class matrices over F_q,
  built one at a time from the class members, common eigenvectors split
  off the identity coordinate: each vector the next class matrix does not
  fix is replaced by its components along the roots of its minimal
  polynomial, through the Lagrange basis; discrete-Fourier lift of the
  values back to the cyclotomic field of the group exponent, once per
  rational class);
* metacyclic_table: a direct Clifford-theoretic construction for C_n x| H
  with H <= (Z/n)*, the route for every group that carries meta_params
  (cyclic, dihedral, semidihedral, meta and the realizer's groups), which
  reads each value off a Gauss period: the sum over an H-orbit O of
  zeta_n^(y c) is |O|/|O'| times the sum over O' = (j0 c) H, since y -> y c
  maps O = j0 H onto O' H-equivariantly; dixon cross-checks it.

All values are exact CycElt at modulus exponent(G); rows are sorted with the
trivial character first, then by degree and a lexicographic value encoding,
so tables are reproducible bit-for-bit.

A table holds far fewer distinct values than entries (the default corpus:
84,544 entries, 3,764 distinct values).  Both routes, and table_from_json
for ingested tables, make equal values one CycElt object, and the row sort,
the JSON encoding, the ingest checks, the orthogonality check and the block
reduction do their per-value work once per distinct value.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul

import numpy as np

from . import modular
from .cyclotomic import (
    CycElt, _basis_set, _one_at, _prime_powers, _units, isprime, unit_generators, zero
)
from .fields import AbelianField
from .groups import ClassData

__all__ = [
    "CharacterTable",
    "class_matrix",
    "dixon_table",
    "metacyclic_table",
    "induce_linear",
    "table_to_json",
    "table_from_json",
]


class CharacterTable:
    """Irr(G) as rows of exact cyclotomic values over the classes."""

    def __init__(self, name, order, classes, rows):
        self.name = name
        self.order = order
        self.classes = classes
        self.rows = [tuple(r) for r in rows]
        # read once per distinct value object at class 0, keyed by id as in
        # _per_object; the first row holding it names a bad degree
        degrees = {}
        for r, row in enumerate(self.rows):
            if id(row[0]) not in degrees:
                degrees[id(row[0])] = _degree(r, row[0])
        self.degrees = [degrees[id(row[0])] for row in self.rows]
        if len(self.rows) != classes.num_classes:
            raise ValueError("row count != class count")
        if sum(d * d for d in self.degrees) != order:
            raise ValueError("sum of squared degrees != group order")
        if any(v != _one_at(v.n) for v in self.rows[0]):
            raise ValueError("row 0 is not the trivial character")
        # (generators of (Z/e)*, row index, row -> field), made by the first row_field
        self._galois = None

    @property
    def num_classes(self):
        return self.classes.num_classes

    def check_orthogonality(self):
        """The first orthogonality relation, exactly; raises on failure.

        For rows r <= s, r-major, S_rs = sum_j |K_j| chi_r(g_j)
        conj(chi_s(g_j)) must be |G| for r = s and 0 otherwise, decided mod m
        by _class_sums, which is exact once _check_galois_action passes.

        The second relation follows and is not summed.  With X the value
        matrix, square by __init__, X* its entrywise conjugate and
        S = diag(|K_j|), the first says X S X*^T = |G| I, so X^-1 =
        S X*^T / |G| and X*^T X = |G| S^-1, the second relation conjugated.
        What remains is that each class size divides |G|, checked last."""
        _check_galois_action(self.classes, self.rows)
        m, den, sums = _class_sums(self, range(self.num_classes))
        for r, s, acc in sums:
            if acc != (self.order * den * den % m if r == s else 0):
                raise ValueError(f"first orthogonality fails at rows {r},{s}")
        for j, size in enumerate(self.classes.class_sizes):
            if self.order % size:
                raise ValueError(f"class {j} has size {size}, not a divisor of the order {self.order}")

    def row_field(self, r):
        """Q(chi_r), the field of values of row r, as an AbelianField.

        In a table sigma_k(chi(g_j)) = chi(g_j^k), so sigma_k sends a row to
        the row j -> chi(g_{power_map[j][k]}).  Irr(G) is Galois-stable, so the
        image is again a row; it is looked up by value (every table route puts
        its values at the exponent e, where equal values hash alike).  The
        first request for a row of a Galois orbit runs one breadth-first
        search over the orbit under the generators g of (Z/e)*, recording the
        unit w(x) that reached each row x.  The Schreier elements
        w(x) g w(x^g)^-1 generate the stabilizer of chi_r, the fixer of
        Q(chi_r), so the field is built once and kept, as one object, for
        every row of the orbit; no cyclotomic arithmetic is done.  Equal to
        fields.field_from_values(self.rows[r]) whenever the power map is a
        genuine one (table_from_json checks ingested maps); an image that is
        not a row raises ValueError."""
        e = self.classes.exponent
        if self._galois is None:
            self._galois = unit_generators(e), {row: s for s, row in enumerate(self.rows)}, {}
        gens, index, fields = self._galois
        if r in fields:
            return fields[r]
        pm = self.classes.power_map
        orbit, word, schreier = [r], {r: 1}, []
        for x in orbit:
            row, wx = self.rows[x], word[x]
            for g in gens:
                y = index.get(tuple([row[pm_j[g]] for pm_j in pm]))
                if y is None:
                    raise ValueError(f"the image of row {x} under sigma_{g} is not a row")
                if y in word:
                    schreier.append(wx * g * pow(word[y], -1, e) % e)
                else:
                    word[y] = wx * g % e
                    orbit.append(y)
        field = AbelianField(e, schreier)
        fields.update(dict.fromkeys(orbit, field))
        return field


def _degree(r, value):
    """The degree of row r, its value at class 0: a positive integer."""
    try:
        d = value.to_rational()
    except ValueError:
        d = value
    if not (isinstance(d, Fraction) and d.denominator == 1 and d > 0):
        raise ValueError(f"row {r} has degree {d}, not a positive integer")
    return int(d)


def _sort_rows(rows):
    """Rows sorted trivial first, then by degree and by the values' keys.

    Each distinct value object is keyed once, and rows compare the
    order-preserving ranks of those keys.  Ranks come from keys, not from
    value equality: equal values at different moduli have different keys."""
    rows = list(rows)
    keys = _per_object(rows, CycElt.key)
    rank = {k: i for i, k in enumerate(sorted(set(keys.values())))}
    rank = {i: rank[k] for i, k in keys.items()}
    degrees = {}

    def key(row):
        head = id(row[0])
        if head not in degrees:
            degrees[head] = row[0].to_rational()
        trivial = all(v == _one_at(v.n) for v in row)
        return (not trivial, degrees[head], tuple(map(rank.__getitem__, map(id, row))))

    return sorted(rows, key=key)


def _per_object(rows, f):
    """f(v) for each distinct value object v of the rows, keyed by id(v); a
    built table has one object per distinct value.  rows must be iterable
    twice (a list of rows)."""
    objects = dict(zip(map(id, chain.from_iterable(rows)), chain.from_iterable(rows)))
    return {i: f(v) for i, v in objects.items()}


def _check_galois_action(cd, rows):
    """Refuse a table on which powering is not the Galois action, the
    precondition of _class_sums: each value sits at a modulus dividing the
    exponent e, and for each generator g of (Z/e)*
    row[pm[j][g]] = row[j].galois(g) (so chi(g_j^k) = sigma_k(chi(g_j)) for
    every unit k, by induction on word length), while j -> pm[j][g] keeps
    class sizes and permutes the classes.  Entries compare as the numbers
    of their values at modulus e, and each sigma_g runs once per value."""
    e, k = cd.exponent, cd.num_classes
    sizes, pm = cd.class_sizes, cd.power_map
    gens = unit_generators(e)
    number = {}
    # embed raises ValueError on a modulus that does not divide e
    numbers = _per_object(rows, lambda v: number.setdefault(v.embed(e), len(number)))
    # images[i][x]: the number of sigma_(gens[i]) of value x, -1 if no value has it
    images = [[number.get(v.galois(g), -1) for v in list(number)] for g in gens]
    cols = [[pm_j[g] for pm_j in pm] for g in gens]
    for row in rows:
        x = [numbers[id(v)] for v in row]
        for g, col, image in zip(gens, cols, images):
            if [x[i] for i in col] != [image[i] for i in x]:
                raise ValueError(f"power map under power {g} is not compatible with the values")
    for g, col in zip(gens, cols):
        for j, i in enumerate(col):
            if sizes[i] != sizes[j]:
                moved = f"class {j} of size {sizes[j]} to class {i} of size {sizes[i]}"
                raise ValueError(f"power map under power {g} sends {moved}")
        if len(set(col)) != k:
            raise ValueError(f"power map under power {g} does not permute the classes")


def _class_sums(table, classes):
    """(m, D, sums): sums yields (r, s, D^2 S_rs mod m) lazily for rows
    r <= s, r-major, with S_rs = sum over j in classes of |K_j| chi_r(g_j)
    conj(chi_s(g_j)) and D the lcm of the coefficient denominators.

    zeta_e -> z is a ring map Z[zeta_e] -> Z/m sending conj(v) where
    zeta_e -> z^-1 sends v, so each distinct value is evaluated twice.  It is
    exact when _check_galois_action passes and powering by units keeps the
    classes (all, or the p-regular ones): sigma_k permutes the terms, so
    D^2 S_rs is a rational integer, and |D^2 S_rs - T| <= sum_j |K_j| L^2 +
    |G| D^2 < m for a target |T| <= |G| D^2, L the largest l1 norm of a D v."""
    e, sizes = table.classes.exponent, table.classes.class_sizes
    values = [[row[j] for j in classes] for row in table.rows]
    objects = _per_object(values, lambda v: v)
    den = lcm(*(a.denominator for v in objects.values() for a in v.terms.values()))
    # D v as (exponent at e, integer coefficient) pairs
    scaled = {
        i: [(k * (e // v.n), a.numerator * (den // a.denominator)) for k, a in v.terms.items()]
        for i, v in objects.items()
    }
    top = max((sum(abs(a) for _, a in t) for t in scaled.values()), default=0)
    m, z = _evaluation_point(e, sum(sizes[j] for j in classes) * top * top + table.order * den * den)
    powers = [pow(z, k, m) for k in range(e)]
    at = {
        i: (sum(a * powers[k] for k, a in t) % m, sum(a * powers[-k] for k, a in t) % m)
        for i, t in scaled.items()
    }
    xs = [[sizes[j] * at[id(v)][0] for j, v in zip(classes, row)] for row in values]
    ys = [[at[id(v)][1] for v in row] for row in values]
    sums = ((r, s, sum(map(mul, x, ys[s])) % m) for r, x in enumerate(xs) for s in range(r, len(ys)))
    return m, den, sums


def _evaluation_point(e, bound):
    """(m, z): m the product of the least primes q = 1 mod e above
    min(bound, 2^61), as many as make m > bound, and z = _dixon_root(q, e)
    mod each q by CRT, a root of the e-th cyclotomic polynomial mod m.
    Primes of fixed size keep residues to a few machine words, and isprime
    is deterministic at that size."""
    q = ((min(bound, 1 << 61) - 1) // e + 1) * e + 1
    m, z = 1, 0
    while m <= bound:
        if isprime(q):
            z += m * ((_dixon_root(q, e) - z) * pow(m, -1, q) % q)
            m *= q
        q += e
    return m, z


# ---------------------------------------------------------------------------
# class matrices


def class_matrix(group, cd, i):
    """Class matrix i: m[j, k] = a_ijk = #{x in K_i : x^-1 z_k in K_j}, the
    structure constant #{(x, y) in K_i x K_j : x y = z_k} for the fixed rep
    z_k.  x -> x^-1 maps K_i onto its inverse class, so it is read off the
    members y of that class as #{y : y z_k in K_j}, |K_i| * c products.

    Satisfies sum_k m[j, k] * |K_k| = |K_i| * |K_j|.  The counts go into
    Python lists, converted once: a numpy scalar += costs about a third of a
    group product."""
    c = cd.num_classes
    m = [[0] * c for _ in range(c)]
    cls = cd.class_of
    for y in cd.members[cd.inverse_class[i]]:
        for k, z in enumerate(cd.class_reps):
            m[cls[group.mul(y, z)]][k] += 1
    return np.array(m, dtype=np.int64)


# ---------------------------------------------------------------------------
# Dixon-Schneider


def _dixon_prime(e, order, nclasses):
    lo = max(2 * (isqrt(order) + 1), nclasses + 1, 3)
    q = e + 1
    while True:
        if q > lo and isprime(q):
            return q
        q += e
        if q > 10_000_000:
            raise RuntimeError("no suitable Dixon prime found")


def _dixon_root(q, e):
    """s = c^((q - 1) / e) mod q for the least c whose power has order e
    (q = 1 mod e), certified by the prime factors of e alone."""
    primes = [r for r, _ in _prime_powers(e)]
    for c in range(1, q):
        s = pow(c, (q - 1) // e, q)
        if all(pow(s, e // r, q) != 1 for r in primes):
            return s
    raise AssertionError(f"no root of order {e} mod {q}")


def _residue(terms, roots, q):
    """sum m_k zeta_e^k mod q for the raw exponent map terms: k -> m_k, with
    roots[k] = s^k mod q for dixon_table's root s."""
    return sum(m * roots[k] for k, m in terms.items()) % q


def _split_eigenspaces(group, cd, q):
    """The common eigenvectors of the class matrices mod q, one per row, each
    up to a nonzero scalar.

    The split carries vectors only, each a component of the identity
    coordinate e_0 = sum_chi chi(1)^2 / |G| omega_chi scaled so its first
    nonzero entry is 1.  Each coefficient of e_0 is nonzero mod q: q = 1
    mod e rules out q dividing |G|, and chi(1) < q.  So every vector is
    x = sum_(chi in S) c_chi omega_chi with every c_chi nonzero.

    Class matrix i >= 1 is built only while there are fewer than c vectors,
    and one product maps every vector by B = M_i^T.  A vector that B fixes
    up to its lead entry stays as it is.  Any other x has for minimal
    polynomial under B the product of t - lambda over the distinct
    eigenvalues lambda of B on S, and is replaced by its components
    x L_lambda(B), for the Lagrange basis L of those roots: each is exactly
    the lambda-part of x.  A minimal polynomial without deg-many simple
    roots in F_q means B is not diagonalizable, and every component must
    be nonzero and fixed by B up to its lambda.  Class sums are central, so
    the class matrices commute and a component of a common eigenvector
    stays one; the split ends with c vectors, one per line, or fails."""
    c = cd.num_classes
    vectors = np.eye(c, dtype=np.int64)[:1]
    for i in range(1, c):
        if len(vectors) >= c:
            break
        bt = class_matrix(group, cd, i).T
        images = modular.matmul(vectors, bt, q)
        lams = images[np.arange(len(vectors)), (vectors != 0).argmax(axis=1)]
        fixed = (images == lams[:, None] * vectors % q).all(axis=1)
        if fixed.all():
            continue
        comps, roots = [], []
        for x in vectors[~fixed]:
            poly, krylov = modular.minimal_polynomial(bt, x, q)
            simple = [lam for lam, one in modular.poly_roots(poly, q) if one]
            if len(simple) != len(poly) - 1:
                raise AssertionError("class matrix not diagonalizable mod q")
            comps.append(modular.matmul(modular.lagrange(simple, q), krylov, q))
            roots.extend(simple)
        comps = np.concatenate(comps)
        roots = np.array(roots, dtype=np.int64)
        if not comps.any(axis=1).all() or (
            modular.matmul(comps, bt, q) != roots[:, None] * comps % q
        ).any():
            raise AssertionError("eigenline is not fixed by its class matrix mod q")
        leads = comps[np.arange(len(comps)), (comps != 0).argmax(axis=1)]
        inv = np.array([pow(v, -1, q) for v in leads.tolist()], dtype=np.int64)
        vectors = np.concatenate([vectors[fixed], comps * inv[:, None] % q])
    if len(vectors) != c:
        raise AssertionError("common eigenspaces did not split to lines")
    return vectors


def dixon_table(group, cd):
    """Character table via the Dixon-Schneider modular method.

    The common eigenvectors of the class matrices mod q give every value
    mod q.  A value chi(g) for g of order o is sum_t m_t zeta_o^t, with m_t
    the multiplicity of the eigenvalue zeta_o^t of g in a representation
    affording chi, and the m_t are read off chi(g^l) mod q by a discrete
    Fourier transform over l < o.  That lift runs once per rational class:
    for a unit u mod o, chi(g^u) = sigma_u(chi(g)) has m'_{t u mod o} = m_t
    (Schneider, J. Symb. Comput. 9, 1990), so the classes power_map[j][u] are
    filled from class j's multiplicities.  Every filled class is checked:
    its power map must be the u-th power of class j's, and each of its
    values must reduce to the modular value from its own eigenvector
    coordinates.  Each value is built once per distinct raw exponent map and
    interned, so equal values of the table are one CycElt, as in
    metacyclic_table.

    Values mod q send zeta_e to the root s of order e of `_dixon_root`, which
    exists as q = 1 mod e: a raw exponent map {k: m_k} reduces to
    sum m_k s^k mod q.  Any primitive e-th root gives the same table: s^k
    (k prime to e) lifts each row to sigma_k(chi), and Irr(G) is
    Galois-stable, so the sorted rows do not change."""
    c = cd.num_classes
    n = group.order
    e = cd.exponent
    q = _dixon_prime(e, n, c)
    s = _dixon_root(q, e)

    lines = _split_eigenspaces(group, cd, q)

    sizes = cd.class_sizes
    inv_sizes = [pow(sz, -1, q) for sz in sizes]
    omegas = []
    for v in lines:
        if v[0] == 0:
            raise AssertionError("central character with zero identity coordinate")
        omegas.append((v * pow(int(v[0]), -1, q)) % q)

    degrees = []
    root = isqrt(n)
    for om in omegas:
        t = 0
        for j in range(c):
            t = (t + int(om[j]) * int(om[cd.inverse_class[j]]) * inv_sizes[j]) % q
        dsq = n * pow(t, -1, q) % q
        d = next((d for d in range(1, root + 1) if d * d % q == dsq), None)
        if d is None:
            raise AssertionError("no integer degree matches modular value")
        degrees.append(d)
    if sum(d * d for d in degrees) != n:
        raise AssertionError("degree recovery failed")

    # values mod q, then a discrete-Fourier lift per rational class
    vals = np.zeros((c, c), dtype=np.int64)
    for r, om in enumerate(omegas):
        vals[r] = (degrees[r] * om * np.array(inv_sizes, dtype=np.int64)) % q
    pm = cd.power_map
    roots = [pow(s, k, q) for k in range(e)]  # zeta_e^k mod q
    zeta = np.array(roots, dtype=np.int64)
    # raw exponent map at e -> (its one value object, its image mod q)
    lifted = {}
    values = {}
    columns = [None] * c
    for j in range(c):
        if columns[j] is not None:
            continue
        o = cd.element_orders[j]
        step = e // o
        powers = pm[j][:o]
        if powers[1 % o] != j:
            raise AssertionError(f"power map of class {j} does not send 1 to {j}")
        smat = zeta[-step * np.outer(np.arange(o), np.arange(o)) % e]  # zeta_o^(-l t)
        mult = (modular.matmul(vals[:, powers], smat, q) * pow(o, -1, q)) % q  # rows x o
        if (mult.sum(axis=1) != degrees).any():
            raise AssertionError("multiplicity lift inconsistent with degree")
        support = [[] for _ in range(c)]
        for r, t in zip(*np.nonzero(mult)):
            support[r].append((int(t), int(mult[r, t])))
        for u in _units(o):
            ju = powers[u]
            if columns[ju] is not None:
                continue
            if pm[ju][:o] != [powers[u * w % o] for w in range(o)]:
                raise AssertionError(f"power map of class {ju} is not power {u} of class {j}")
            column = []
            for sup, want in zip(support, vals[:, ju].tolist()):
                raw = tuple(sorted((t * u % o * step, m) for t, m in sup))
                hit = lifted.get(raw)
                if hit is None:
                    terms = dict(raw)
                    v = CycElt(e, terms)
                    hit = lifted[raw] = (values.setdefault(v, v), _residue(terms, roots, q))
                if hit[1] != want:
                    raise AssertionError(f"lifted value at class {ju} disagrees with its value mod q")
                column.append(hit[0])
            columns[ju] = column

    rows = _sort_rows(zip(*columns))
    return CharacterTable(group.name, n, cd, rows)


# ---------------------------------------------------------------------------
# direct construction for C_n x| H


def _subgroup_characters(n, sub, e):
    """All |sub| characters of the subgroup `sub` of (Z/n)*, each as a dict
    h -> k meaning zeta_e^k; the exponent of sub must divide e.

    Built by extension: walking sub in increasing order, each g not yet
    reached has some index k over the part P reached so far, with g^k = x in
    P, and each character mu of P extends to <P, g> in k ways, by
    mu(g) = mu(x)/k + r e/k.  mu(x)/k is exact: the order of mu(x) divides
    ord(x) = ord(g)/k, so mu(x) is a multiple of e/ord(x) = k e/ord(g), and
    ord(g) divides e."""
    chars = [{1 % n: 0}]  # chars[0] stays trivial; its keys are the part reached
    for g in sorted(sub):
        part = chars[0]
        if g in part:
            continue
        k, x = 1, g
        while x not in part:
            x, k = x * g % n, k + 1
        cosets = [(i, pow(g, i, n)) for i in range(k)]
        grown = []
        for mu in chars:
            for r in range(k):
                t = mu[x] // k + r * e // k
                grown.append(
                    {y * gi % n: (v + i * t) % e for i, gi in cosets for y, v in mu.items()}
                )
        chars = grown
    return chars


def metacyclic_table(group, cd):
    """Character table of C_n x| H, with (n, H) = group.meta_params, by orbits
    of H on Irr(C_n) and extensions lambda~(c, h) = zeta_n^{j c} mu(h)
    induced up from the orbit stabilizer.

    For the orbit O = j0 H and a character mu of the stabilizer H_0 of j0,
    the induced value at a class rep (c, h) is 0 unless h is in H_0, and
    then mu(h) sum_{y in O} zeta_n^(y c).  The map y -> y c sends O onto
    O' = (j0 c) H and commutes with H, so every fibre is a coset of one
    subgroup and every point of O' is hit |O|/|O'| times.  The sum is
    therefore |O|/|O'| eta(O'), with the Gauss period
    eta(O') = sum_{y in O'} zeta_n^y, exactly, as a multiset of exponents:
    its raw exponent map at e is {(y e/n + shift) mod e: |O|/|O'|} over y in
    O', with zeta_e^shift = mu(h).  O' is one of the orbits already listed,
    found by j0 c mod n, so a value depends only on (O', |O|, shift); it is
    built once per such key and interned by value, so equal values of the
    table are one object."""
    n, H = group.meta_params
    e = cd.exponent
    reps = [group.elements[i] for i in cd.class_reps]

    # H-orbits on Z/n (exponents of Irr(C_n)).  H acts on Irr(C_n) by
    # j -> h j, as conjugation acts on C_n, (x, k)(c, 1)(x, k)^-1 = (k c, 1),
    # so the orbits are the classes inside C_n, read as the c of each (c, 1).
    # They come in class order, not sorted; the row sort below makes the
    # output independent of that order
    orbits = [
        [group.elements[x][0] for x in members]
        for members, (_, h) in zip(cd.members, reps)
        if h == 1 % n
    ]

    # each value is built once per (O', |O|, shift), see the docstring, and
    # then interned by value, so equal values of the table are one object
    orbit_of = {x: i for i, orb in enumerate(orbits) for x in orb}
    step = e // n
    nought = zero(e)
    values = {v: v for v in (nought, _one_at(e))}
    sums = {}
    rows = []
    for orb in orbits:
        j0, size = orb[0], len(orb)
        stab = tuple(h for h in H if (h * j0) % n == j0)
        mus = _subgroup_characters(n, stab, e)
        stab_set = set(stab)
        # the orbit O' of j0 c at each class rep (c, h) with h in the
        # stabilizer; None where the induced character vanishes
        images = [orbit_of[j0 * c % n] if h in stab_set else None for c, h in reps]
        for mu in mus:
            row = []
            for o, (_, h) in zip(images, reps):
                if o is None:
                    row.append(nought)
                    continue
                shift = mu[h]
                v = sums.get((o, size, shift))
                if v is None:
                    image = orbits[o]
                    m = size // len(image)
                    # the stabilizer-character root is folded into the raw
                    # exponents so reduction happens once per distinct sum
                    v = CycElt(e, {(y * step + shift) % e: m for y in image})
                    v = sums[o, size, shift] = values.setdefault(v, v)
                row.append(v)
            rows.append(tuple(row))

    if len(rows) != cd.num_classes:
        raise AssertionError("metacyclic construction produced wrong row count")
    rows = _sort_rows(rows)
    return CharacterTable(group.name, group.order, cd, rows)


# ---------------------------------------------------------------------------
# induction


def induce_linear(cd, lam):
    """Induce the linear character lam (dict: element index -> CycElt) of the
    subgroup S = lam's keys to G; the values on the classes, as a tuple.

    Ind(lam)(z) = |C_G(z)|/|S| * sum of lam(y) over y in K_z and S, read off
    the class members."""
    order = sum(cd.class_sizes)
    values = []
    for size, members in zip(cd.class_sizes, cd.members):
        acc = zero(cd.exponent)
        for y in members:
            if y in lam:
                acc = acc + lam[y]
        values.append(acc.scalar_mul(Fraction(order // size, len(lam))))
    return tuple(values)


# ---------------------------------------------------------------------------
# JSON encoding (also the ingest path for externally produced tables)


def cyc_to_json(x):
    return {
        "n": x.n,
        "terms": [[j, f"{c.numerator}/{c.denominator}"] for j, c in sorted(x.terms.items())],
    }


# a coefficient as cyc_to_json writes it; int() alone also reads a "+",
# spaces, "_" separators and non-ASCII digits
_COEFFICIENT = re.compile(r"-?[0-9]+/[0-9]+")


def cyc_from_json(obj, e):
    """One value entry of a table of exponent e, rewritten at modulus e.

    The entry is {"n": modulus, "terms": [[basis exponent, "num/den"], ...]}.
    Its modulus must divide e, so the value lies in Q(zeta_e), where the
    Galois action of (Z/e)* is defined; at one modulus, equal values hash
    alike.  The exponents must be distinct Zumbroich basis exponents at the
    modulus, and each coefficient a fraction of ASCII integers matching
    -?[0-9]+/[0-9]+, not necessarily reduced.  A malformed entry raises;
    table_from_json reports every such error as ValueError."""
    n = _int(obj["n"], "modulus")
    if n < 1 or e % n:
        raise ValueError(f"value modulus {n} does not divide the exponent {e}")
    basis = _basis_set(n)
    terms = {}
    for j, frac in obj["terms"]:
        j = _int(j, "basis exponent")
        if j not in basis:
            raise ValueError(f"exponent {j} is not a basis exponent at modulus {n}")
        if j in terms:
            raise ValueError(f"basis exponent {j} repeats at modulus {n}")
        num, den = frac.split("/")
        terms[j] = Fraction(int(num), int(den))
        # checked after the parse, so text it refuses keeps its message
        if not _COEFFICIENT.fullmatch(frac):
            raise ValueError(f"coefficient {frac!r} is not ASCII -?[0-9]+/[0-9]+")
    return CycElt(n, terms, reduced=True).embed(e)


def _values_from_json(irr, e):
    """The rows of irr as CycElt at modulus e, one object per distinct value.

    cyc_from_json runs once per distinct encoding, keyed on the entry's exact
    JSON content: each scalar is keyed with its type, so 1, 1.0 and true,
    which Python finds equal, never share a key.  Encodings of one value, at
    different moduli say, are then interned by value."""
    parsed, values = {}, {}

    def value(obj):
        try:
            n, terms = obj["n"], obj["terms"]
            key = type(n), n, tuple([(type(j), j, type(c), c) for j, c in terms])
            v = parsed.get(key)
        except (LookupError, TypeError, ValueError):
            # malformed, or unhashable: cyc_from_json raises its own message
            return cyc_from_json(obj, e)
        if v is None:
            v = cyc_from_json(obj, e)
            v = parsed[key] = values.setdefault(v, v)
        return v

    return [[value(obj) for obj in row] for row in irr]


def table_to_json(table):
    """The table as JSON; each distinct value object is encoded once."""
    cd = table.classes
    encoded = _per_object(table.rows, cyc_to_json)
    return {
        "name": table.name,
        "order": table.order,
        "exponent": cd.exponent,
        "classes": [
            {
                "size": cd.class_sizes[j],
                "element_order": cd.element_orders[j],
                "powermap": {str(k): cd.power_map[j][k] for k in range(cd.exponent)},
            }
            for j in range(cd.num_classes)
        ],
        "irr": [[encoded[id(v)] for v in row] for row in table.rows],
    }


def _int(value, what):
    """A JSON integer; bools, floats and strings are malformed input."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _parse_power_map(entries, e):
    if len(entries) != e:
        raise ValueError(f"power map has {len(entries)} entries, expected exponent {e}")
    return [_int(entries[str(a)], "power map entry") for a in range(e)]


def _check_ingest(order, cd, rows):
    """Reject class data and values that are not those of a finite group.

    Power maps are load-bearing (CharacterTable.row_field permutes the rows
    through them, and the orthogonality sums are exact through them), so
    beyond shape and element orders this checks that powering by each
    generator g of (Z/e)* composes, pm[pm[j][g]][b] = pm[j][g*b];
    check_orthogonality then runs _check_galois_action."""
    e, k = cd.exponent, cd.num_classes
    sizes, orders, pm = cd.class_sizes, cd.element_orders, cd.power_map
    if order < 1 or any(sz < 1 for sz in sizes) or sum(sizes) != order:
        raise ValueError("class sizes must be positive and sum to the group order")
    if any(o < 1 for o in orders) or lcm(*orders) != e:
        raise ValueError("exponent must be the lcm of the element orders")
    ones = [j for j in range(k) if orders[j] == 1]
    if len(ones) != 1:
        raise ValueError("there must be exactly one class of element order 1")
    # CharacterTable reads every degree from class 0
    if ones[0] != 0:
        raise ValueError(f"the class of element order 1 must come first, not at index {ones[0]}")
    for j in range(k):
        if any(not 0 <= c < k for c in pm[j]):
            raise ValueError(f"power map of class {j} names a class out of range")
        if pm[j][0] != 0 or pm[j][1 % e] != j:
            raise ValueError(f"power map of class {j} must send 0 to the identity and 1 to {j}")
        o = orders[j]
        if any(orders[c] != o // gcd(o, a) for a, c in enumerate(pm[j])):
            raise ValueError(f"power map of class {j} disagrees with the element orders")
    gens = unit_generators(e)
    for g in gens:
        for j in range(k):
            if any(pm[pm[j][g]][b] != pm[j][g * b % e] for b in range(e)):
                raise ValueError(f"power map of class {j} does not compose under power {g}")
    for row in rows:
        if len(row) != k:
            raise ValueError(f"character row has {len(row)} values for {k} classes")


def table_from_json(obj):
    """Ingest an externally produced table JSON (the table_to_json format).

    Like the two builders, it works per distinct value: each distinct value
    encoding is parsed once, equal values become one CycElt object, and the
    Galois images and the residues of check_orthogonality are computed once
    per value.  Malformed input, a power map that is not one of a finite
    group and a table failing orthogonality raise ValueError."""
    try:
        e = _int(obj["exponent"], "exponent")
        if e < 1:
            raise ValueError(f"exponent must be >= 1, got {e}")
        classes = obj["classes"]
        sizes = [_int(c["size"], "class size") for c in classes]
        orders = [_int(c["element_order"], "element order") for c in classes]
        pmap = [_parse_power_map(c["powermap"], e) for c in classes]
        order = _int(obj["order"], "order")
        rows = _values_from_json(obj["irr"], e)
        name = obj.get("name", "ingest")
        if type(name) is not str:
            raise ValueError(f"name must be a string, got {name!r}")
    except KeyError as exc:
        raise ValueError(f"table JSON lacks the required key {exc}") from None
    except (TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed table JSON: {exc}") from None
    cd = ClassData(sizes, orders, pmap, e)
    _check_ingest(order, cd, rows)
    table = CharacterTable(name, order, cd, rows)
    table.check_orthogonality()
    return table
