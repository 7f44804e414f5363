"""Complete complex character tables.

Two independent construction routes:

* dixon_table: the Dixon-Schneider modular method (class matrices over F_q,
  built one at a time from the class members, in descending order of
  element order times min(|K_i|, c), the classes likely to separate the
  most characters first, and a class conjugate to an earlier one last;
  common eigenvectors split off the identity coordinate: each vector the
  next class matrix does not fix is replaced by its components along the
  roots of its minimal polynomial, through the Lagrange basis;
  discrete-Fourier lift of the values back to the cyclotomic field of the
  group exponent, once per rational class and Galois orbit of rows);
* metacyclic_table: a direct Clifford-theoretic construction for C_n x| H
  with H <= (Z/n)*, the route for every group that carries meta_params
  (cyclic, dihedral, semidihedral, meta and the realizer's groups), which
  reads each value off a Gauss period: the sum over an H-orbit O of
  zeta_n^(y c) is |O|/|O'| times the sum over O' = (j0 c) H, since y -> y c
  maps O = j0 H onto O' H-equivariantly; dixon cross-checks it.

induce_linear induces a linear character given by exponents of zeta_e,
building one value per class from exponent counts.

All values are exact CycElt at modulus exponent(G).  Each builder puts the
trivial character first and _canonical sorts the other rows by degree and
then by the keys of their values, so tables are reproducible bit-for-bit.

A table holds far fewer distinct values than entries (the default corpus:
84,544 entries, 3,764 distinct values); CharacterTable keeps each once, see
_intern.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, compress
from math import gcd, isqrt, lcm
from operator import mul

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
    """Irr(G) as rows of exact cyclotomic values over the classes, kept as
    the distinct values and each row's indices into them (see _intern).  The
    rows keep the given order; a built table is interned once and then
    ordered in place by _canonical."""

    def __init__(self, name, order, classes, rows):
        self.name = name
        self.order = order
        self.classes = classes
        self.values, self.cells = _intern(rows, classes.exponent)
        # read once per distinct value at class 0; the first row holding it
        # names a bad degree
        degrees = {}
        for r, cell in enumerate(self.cells):
            if cell[0] not in degrees:
                degrees[cell[0]] = _degree(r, self.values[cell[0]])
        self.degrees = [degrees[cell[0]] for cell in self.cells]
        if len(self.cells) != classes.num_classes:
            raise ValueError("row count != class count")
        if sum(d * d for d in self.degrees) != order:
            raise ValueError("sum of squared degrees != group order")
        if {self.values[c] for c in self.cells[0]} != {_one_at(classes.exponent)}:
            raise ValueError("row 0 is not the trivial character")
        # (Galois permutations, row index, row -> field), made by _galois_maps
        self._galois = None

    @property
    def rows(self):
        """The rows as tuples of values, rebuilt from values and cells."""
        return [tuple(map(self.values.__getitem__, cell)) for cell in self.cells]

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
        _check_galois_action(self)
        m, den, sums = _class_sums(self, range(self.num_classes))
        for r, s, acc in sums:
            if acc != (self.order * den * den % m if r == s else 0):
                raise ValueError(f"first orthogonality fails at rows {r},{s}")
        for j, size in enumerate(self.classes.class_sizes):
            if self.order % size:
                raise ValueError(f"class {j} has size {size}, not a divisor of the order {self.order}")

    def _galois_maps(self):
        """(perms, index, fields), made once: each generator g of (Z/e)* with
        j -> power_map[j][g], the row of each cell tuple, the fields found."""
        if self._galois is None:
            pm = self.classes.power_map
            perms = [(g, [pm_j[g] for pm_j in pm]) for g in unit_generators(self.classes.exponent)]
            self._galois = perms, {cell: r for r, cell in enumerate(self.cells)}, {}
        return self._galois

    def row_field(self, r):
        """Q(chi_r), the field of values of row r, as an AbelianField.

        In a table sigma_k(chi(g_j)) = chi(g_j^k), so sigma_k sends a row to
        the row j -> chi(g_{power_map[j][k]}).  Irr(G) is Galois-stable, so the
        image is again a row; it is looked up by its cells.  The first request
        for a row of a Galois orbit runs one breadth-first search over the
        orbit under the generators g of (Z/e)*, recording the unit w(x) that
        reached each row x.  The Schreier elements w(x) g w(x^g)^-1 generate
        the stabilizer of chi_r, the fixer of Q(chi_r), so the field is built
        once and kept, as one object, for every row of the orbit; no
        cyclotomic arithmetic is done.  Equal to
        fields.field_from_values(self.rows[r]) whenever the power map is a
        genuine one (table_from_json checks ingested maps); an image that is
        not a row raises ValueError."""
        e = self.classes.exponent
        perms, index, fields = self._galois_maps()
        if r in fields:
            return fields[r]
        orbit, word, schreier = [r], {r: 1}, []
        for x in orbit:
            cell, wx = self.cells[x], word[x]
            for g, perm in perms:
                y = index.get(tuple(map(cell.__getitem__, perm)))
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


def _intern(rows, e):
    """(values, cells): the distinct values of the rows, written at the
    exponent e, in the order of their keys, and each row as indices into
    values, so cells compare as the keys of their values do.  The one owner
    of value identity and modulus: one id() pass over the entries, then each
    distinct object is embedded at e (ValueError if its modulus does not
    divide e) and hashed once, so equal values are one index and one object
    in every table, and per-value work runs once per distinct value."""
    rows = [tuple(row) for row in rows]
    objects = dict(zip(map(id, chain.from_iterable(rows)), chain.from_iterable(rows)))
    objects = {i: v.embed(e) for i, v in objects.items()}
    values = sorted(dict.fromkeys(objects.values()), key=CycElt.key)
    number = {v: i for i, v in enumerate(values)}
    index = {i: number[v] for i, v in objects.items()}
    return values, [tuple(map(index.__getitem__, map(id, row))) for row in rows]


def _canonical(table):
    """Put a built table's rows in order, in place: row 0, the trivial
    character, stays first, and the rest sort by degree, then by cells,
    which compare as the keys of their values (see _intern)."""
    rest = sorted(zip(table.degrees[1:], table.cells[1:]))
    for r, (degree, cell) in enumerate(rest, 1):
        table.degrees[r], table.cells[r] = degree, cell


def _check_galois_action(table):
    """Refuse a table on which powering is not the Galois action, the
    precondition of _class_sums: for each generator g of (Z/e)*
    row[pm[j][g]] = row[j].galois(g) (so chi(g_j^k) = sigma_k(chi(g_j)) for
    every unit k, by induction on word length), while j -> pm[j][g] keeps
    class sizes and permutes the classes.  Values are distinct and at e (see
    _intern), so entries compare as indices; sigma_g runs once per value."""
    sizes = table.classes.class_sizes
    perms = table._galois_maps()[0]
    index = {v: i for i, v in enumerate(table.values)}
    # images[i][x]: the index of sigma_g of value x for the i-th g, -1 if no value has it
    images = [[index.get(v.galois(g), -1) for v in table.values] for g, _ in perms]
    for cell in table.cells:
        for (g, perm), image in zip(perms, images):
            if [cell[i] for i in perm] != [image[i] for i in cell]:
                raise ValueError(f"power map under power {g} is not compatible with the values")
    for g, perm in perms:
        for j, i in enumerate(perm):
            if sizes[i] != sizes[j]:
                moved = f"class {j} of size {sizes[j]} to class {i} of size {sizes[i]}"
                raise ValueError(f"power map under power {g} sends {moved}")
        if len(set(perm)) != len(sizes):
            raise ValueError(f"power map under power {g} does not permute the classes")


def _class_sums(table, classes):
    """(m, D, sums): sums yields (r, s, D^2 S_rs mod m) lazily for rows
    r <= s, r-major, with S_rs = sum over j in classes of |K_j| chi_r(g_j)
    conj(chi_s(g_j)) and D the lcm of the coefficient denominators of the
    table's values, which sit at the exponent e (see _intern).

    zeta_e -> z is a ring map Z[zeta_e] -> Z/m sending conj(v) where
    zeta_e -> z^-1 sends v, so each distinct value is evaluated twice.  It is
    exact when _check_galois_action passes and powering by units keeps the
    classes (all, or the p-regular ones): sigma_k permutes the terms, so
    D^2 S_rs is a rational integer, and |D^2 S_rs - T| <= sum_j |K_j| L^2 +
    |G| D^2 < m for a target |T| <= |G| D^2, L the largest l1 norm of a D v."""
    e = table.classes.exponent
    sizes = [table.classes.class_sizes[j] for j in classes]
    den = lcm(*(a.denominator for v in table.values for a in v.terms.values()))
    # D v as (exponent at e, integer coefficient) pairs
    scaled = [[(k, a.numerator * (den // a.denominator)) for k, a in v.terms.items()] for v in table.values]
    top = max((sum(abs(a) for _, a in t) for t in scaled), default=0)
    m, z = _evaluation_point(e, sum(sizes) * top * top + table.order * den * den)
    powers = [pow(z, k, m) for k in range(e)]
    at = [sum(a * powers[k] for k, a in t) % m for t in scaled]
    conj = [sum(a * powers[-k] for k, a in t) % m for t in scaled]
    cols = [[cell[j] for j in classes] for cell in table.cells]
    xs = [list(map(mul, sizes, map(at.__getitem__, col))) for col in cols]
    ys = [list(map(conj.__getitem__, col)) for col in cols]
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
    """Class matrix i: m[j][k] = a_ijk = #{x in K_i : x^-1 z_k in K_j}, the
    structure constant #{(x, y) in K_i x K_j : x y = z_k} for the fixed rep
    z_k.  x -> x^-1 maps K_i onto its inverse class, so it is read off the
    members y of that class as #{y : y z_k in K_j}, |K_i| * c products, and
    column k has at most |K_i| nonzero entries.  Each member makes its c
    products in one FiniteGroup.mul_each call.

    Satisfies sum_k m[j][k] * |K_k| = |K_i| * |K_j|."""
    c = cd.num_classes
    m = [[0] * c for _ in range(c)]
    cls = cd.class_of
    for y in cd.members[cd.inverse_class[i]]:
        for k, yz in enumerate(group.mul_each(y, cd.class_reps)):
            m[cls[yz]][k] += 1
    return m


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
    up to a nonzero scalar.  Every vector is a component x = sum_(chi in S)
    c_chi omega_chi of the identity coordinate e_0 = sum_chi chi(1)^2 / |G|
    omega_chi, so every c_chi is nonzero mod q (q = 1 mod e rules out q | |G|,
    and chi(1) < q).  Class matrix i >= 1 is built while there are fewer than
    c vectors, and one product maps every vector by B = M_i^T.  The classes
    come by descending o_i * min(|K_i|, c), o_i the element order, ties by
    index: the eigenvalues of M_i are |K_i| chi(g_i)/chi(1), and a class
    with elements of large order and many members tends to tell more
    characters apart, so fewer vectors are left to split.  A class K_(i^u), u
    a unit, conjugate to an earlier K_i comes after all the others: sigma_u
    sends omega_chi(K_i) = omega_psi(K_i) to the same equality at K_(i^u), so
    it splits a vector only through a coincidence mod q.  On the C_n x| H of
    the 116 realized fields fix:n:H of the default corpus this makes 327
    minimal polynomials and 252 class matrices, against 343 and 647 by the
    key alone (tests/test_chartab.py pins the totals).  A vector that B fixes
    up to a scalar stays; any other x has for minimal polynomial the product
    of t - lambda over the eigenvalues of B on S, and is replaced by its
    lambda-parts x L_lambda(B), L the Lagrange basis of those roots, which
    must be distinct and deg-many, each part nonzero and fixed by B up to its
    lambda.  The class matrices commute: the split ends with c lines or fails."""
    c, orders = cd.num_classes, cd.element_orders
    order = sorted(range(1, c), key=lambda j: (-orders[j] * min(cd.class_sizes[j], c), j))
    first = {}  # each rational class -> its first class in that order
    for j in order:
        first.setdefault(frozenset(cd.power_map[j][u] for u in _units(orders[j])), j)
    order.sort(key=lambda j, leaders=set(first.values()): j not in leaders)  # stable
    lanes, roots_mod_q = modular._Lanes(c, q), modular.poly_roots(q)
    vectors = [[1] + [0] * (c - 1)]
    packed = modular._packed(vectors)  # again each time the vectors change
    for i in order:
        if len(vectors) >= c:
            break
        bt = []  # B by its sparse columns, the rows of M_i
        for row in class_matrix(group, cd, i):
            js = list(compress(range(c), row))
            bt.append((js, [row[j] % q for j in js]))
        fixed = [lam is not None for lam in lanes.eigenvalues(packed, bt)]
        if all(fixed):
            continue
        comps, roots = [], []
        for x in compress(vectors, [not f for f in fixed]):
            poly, krylov = modular.minimal_polynomial(bt, x, q)
            found = roots_mod_q(poly)
            if len(found) != len(poly) - 1:
                raise AssertionError("class matrix not diagonalizable mod q")
            krylov = [modular._pack(row) for row in krylov]
            for row in modular.lagrange(found, q):
                comps.append([a % q for a in modular._lanes(sum(map(mul, row, krylov)), c)])
            roots += found
        if not all(map(any, comps)) or lanes.eigenvalues(modular._packed(comps), bt) != roots:
            raise AssertionError("eigenline is not fixed by its class matrix mod q")
        vectors = list(compress(vectors, fixed)) + comps
        packed = modular._packed(vectors)
    if len(vectors) != c:
        raise AssertionError("common eigenspaces did not split to lines")
    return vectors


def dixon_table(group, cd):
    """Character table via the Dixon-Schneider modular method.  The common
    eigenvectors of the class matrices give every value mod q, zeta_e sent to
    the root s of `_dixon_root`; another primitive root only permutes the
    rows by Galois conjugation.  A value chi(g) for g of order o is
    sum_t m_t zeta_o^t, m_t the multiplicity of the eigenvalue zeta_o^t of g,
    read off chi(g^l) mod q by a discrete Fourier transform over l < o, once
    per rational class: chi(g^u) = sigma_u(chi(g)) has m'_{t u mod o} = m_t
    for a unit u (Schneider, J. Symb. Comput. 9, 1990).  Each class so filled
    must have the u-th power of class j's power map and reduce to its own
    values mod q; each raw exponent map is lifted once (equal values:
    _intern).  Only one row per Galois orbit is lifted: sigma_g chi mod q is
    chi mod q with the classes permuted by j -> pm[j][g], which must be a
    row of the same degree, and the orbits, found by a breadth-first search
    as in row_field, as many as the rational classes (Brauer's permutation
    lemma); every other row reads its representative's values there."""
    c, n, e = cd.num_classes, group.order, cd.exponent
    q = _dixon_prime(e, n, c)
    s = _dixon_root(q, e)
    lines = _split_eigenspaces(group, cd, q)

    inv_sizes = [pow(sz, -1, q) for sz in cd.class_sizes]
    if not all(v[0] for v in lines):
        raise AssertionError("central character with zero identity coordinate")
    degrees = []
    for v in lines:
        t = sum(map(mul, map(mul, v, map(v.__getitem__, cd.inverse_class)), inv_sizes))
        dsq = n * v[0] ** 2 * pow(t, -1, q) % q
        d = next((d for d in range(1, isqrt(n) + 1) if d * d % q == dsq), None)
        if d is None:
            raise AssertionError("no integer degree matches modular value")
        degrees.append(d)
    if sum(d * d for d in degrees) != n:
        raise AssertionError("degree recovery failed")

    scales = [d * pow(v[0], -1, q) for d, v in zip(degrees, lines)]  # chi = d v / (v[0] |K|)
    residues = [tuple(a * w % q for a in map(mul, v, inv_sizes)) for w, v in zip(scales, lines)]
    pm, index = cd.power_map, {x: r for r, x in enumerate(residues)}
    perms = [(g, [pm_j[g] for pm_j in pm]) for g in unit_generators(e)]
    reps, source = [], {}  # source[y] = (r, u): y[j] = r[pm[j][u]], r the representative
    for r in filter(lambda r: r not in source, range(c)):
        reps.append(r)
        source[r], orbit = (r, 1), [r]
        for x in orbit:
            for g, perm in perms:
                y = index.get(tuple(map(residues[x].__getitem__, perm)))
                if y is None or degrees[y] != degrees[r]:
                    raise AssertionError(f"sigma_{g} of row {x} mod q is no row of its degree")
                if y not in source:
                    source[y] = (r, source[x][1] * g % e)
                    orbit.append(y)
    cols = list(zip(*map(residues.__getitem__, reps)))
    packed = [modular._pack(col) for col in cols]
    roots = [1]  # zeta_e^k mod q, k < e, one product each
    for _ in range(e - 1):
        roots.append(roots[-1] * s % q)
    lifted = {}  # raw exponent map at e -> (its value, its image mod q)
    columns = [None] * c
    rational = 0  # classes j filling the columns of their rational class
    for j in filter(lambda j: columns[j] is None, range(c)):
        rational += 1
        o = cd.element_orders[j]
        step = e // o
        powers = pm[j][:o]
        if powers[1 % o] != j:
            raise AssertionError(f"power map of class {j} does not send 1 to {j}")
        # o m_t = sum_l zeta_o^(-l t) chi(g^l) for all rows at once, one sum
        # per orbit of the units u with g^(u l) ~ g^l for all l: m_(u t) = m_t
        fixing = [u for u in _units(o) if all(powers[u * l % o] == k for l, k in enumerate(powers))]
        inverse = [roots[-step * t % e] for t in range(o)]  # zeta_o^-t
        inv = pow(o, -1, q)
        modular._check_lanes(o, q)
        mult = [None] * o
        for t in range(o):
            if mult[t] is None:
                wave = [inverse[l * t % o] for l in range(o)]
                acc = sum(map(mul, wave, map(packed.__getitem__, powers)))
                m = [a * inv % q for a in modular._lanes(acc, len(reps))]
                for u in fixing:
                    mult[u * t % o] = m
        if [sum(m) for m in zip(*mult)] != [degrees[r] for r in reps]:
            raise AssertionError("multiplicity lift inconsistent with degree")
        support = [[(t, m[r]) for t, m in enumerate(mult) if m[r]] for r in range(len(reps))]
        for u in _units(o):
            ju = powers[u]
            if columns[ju] is not None:
                continue
            if pm[ju][:o] != [powers[u * w % o] for w in range(o)]:
                raise AssertionError(f"power map of class {ju} is not power {u} of class {j}")
            column = []
            for sup, want in zip(support, cols[ju]):
                raw = tuple(sorted((t * u % o * step, m) for t, m in sup))
                hit = lifted.get(raw)
                if hit is None:
                    terms = dict(raw)
                    hit = lifted[raw] = (CycElt(e, terms), _residue(terms, roots, q))
                if hit[1] != want:
                    raise AssertionError(f"lifted value at class {ju} disagrees with its value mod q")
                column.append(hit[0])
            columns[ju] = column

    if rational != len(reps):  # Brauer's permutation lemma
        raise AssertionError(f"{len(reps)} Galois orbits of rows but {rational} rational classes")
    cells = dict(zip(reps, zip(*columns)))
    rows = [cells[y] if y == r else tuple(cells[r][pm_j[u]] for pm_j in pm) for y, (r, u) in source.items()]
    one = _one_at(e)
    rows.sort(key=lambda row: any(v != one for v in row))  # trivial first
    table = CharacterTable(group.name, n, cd, rows)
    _canonical(table)
    return table


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
    built once per such key (equal values: _intern)."""
    n, H = group.meta_params
    e = cd.exponent
    reps = [group.elements[i] for i in cd.class_reps]

    # H-orbits on Z/n (exponents of Irr(C_n)).  H acts on Irr(C_n) by
    # j -> h j, as conjugation acts on C_n, (x, k)(c, 1)(x, k)^-1 = (k c, 1),
    # so the orbits are the classes inside C_n, read as the c of each (c, 1).
    # They come in class order, not sorted; _canonical makes the output
    # independent of that order
    orbits = [
        [group.elements[x][0] for x in members]
        for members, (_, h) in zip(cd.members, reps)
        if h == 1 % n
    ]

    # each value is built once per (O', |O|, shift), see the docstring
    orbit_of = {x: i for i, orb in enumerate(orbits) for x in orb}
    step = e // n
    nought = zero(e)
    sums = {}
    rows = []
    # class 0 is the identity, so orbit {0} and the trivial mus[0] make row 0 the trivial character
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
                    v = sums[o, size, shift] = CycElt(e, {(y * step + shift) % e: m for y in image})
                row.append(v)
            rows.append(tuple(row))

    table = CharacterTable(group.name, group.order, cd, rows)
    _canonical(table)
    return table


# ---------------------------------------------------------------------------
# induction


def induce_linear(cd, lam):
    """Induce the linear character lam of the subgroup S = lam's keys to G;
    the values on the classes, as a tuple.  lam maps an element index to the
    exponent k of its value zeta_e^k, e = cd.exponent.

    Ind(lam)(z) = |C_G(z)|/|S| * sum of lam(y) over y in K_z and S, read off
    the class members: each class counts its exponents, and the counts times
    |C_G(z)|/|S| are the raw exponent map of one CycElt at e, as dixon_table
    builds a value from its multiplicities."""
    e, order = cd.exponent, sum(cd.class_sizes)
    values = []
    for size, members in zip(cd.class_sizes, cd.members):
        counts = {}
        for y in members:
            k = lam.get(y)
            if k is not None:
                counts[k] = counts.get(k, 0) + 1
        scale = Fraction(order // size, len(lam))
        values.append(CycElt(e, {k: m * scale for k, m in counts.items()}))
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
    """One value entry of a table of exponent e, at its own modulus.

    The entry is {"n": modulus, "terms": [[basis exponent, "num/den"], ...]}.
    Its modulus must divide e, checked before its basis is built; the table
    writes it at e (see _intern).  The exponents must be distinct Zumbroich
    basis exponents at the modulus, and each coefficient a fraction of ASCII
    integers matching -?[0-9]+/[0-9]+, not necessarily reduced.  A malformed
    entry raises; table_from_json reports every such error as ValueError."""
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
    return CycElt(n, terms, reduced=True)


def _values_from_json(irr, e):
    """The rows of irr as CycElt, each at a modulus dividing e.

    cyc_from_json runs once per distinct encoding, keyed on the entry's exact
    JSON content: each scalar is keyed with its type, so 1, 1.0 and true,
    which Python finds equal, never share a key (equal values: _intern)."""
    parsed = {}

    def value(obj):
        try:
            n, terms = obj["n"], obj["terms"]
            key = type(n), n, tuple([(type(j), j, type(c), c) for j, c in terms])
            v = parsed.get(key)
        except (LookupError, TypeError, ValueError):
            # malformed, or unhashable: cyc_from_json raises its own message
            return cyc_from_json(obj, e)
        if v is None:
            v = parsed[key] = cyc_from_json(obj, e)
        return v

    return [[value(obj) for obj in row] for row in irr]


def table_to_json(table):
    """The table as JSON; each distinct value is encoded once."""
    cd = table.classes
    encoded = [cyc_to_json(v) for v in table.values]
    keys = list(map(str, range(cd.exponent)))
    return {
        "name": table.name,
        "order": table.order,
        "exponent": cd.exponent,
        "classes": [
            {
                "size": cd.class_sizes[j],
                "element_order": cd.element_orders[j],
                "powermap": dict(zip(keys, cd.power_map[j])),
            }
            for j in range(cd.num_classes)
        ],
        "irr": [list(map(encoded.__getitem__, cell)) for cell in table.cells],
    }


def _int(value, what):
    """A JSON integer; bools, floats and strings are malformed input."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _parse_power_map(entries, keys):
    """One class's power map, read at the keys str(a), a < e, in one pass
    and type-checked in bulk: the first missing key raises KeyError, and the
    first entry that is not an int raises _int's message."""
    row = list(map(entries.__getitem__, keys))
    if set(map(type, row)) != {int}:
        _int(next(a for a in row if type(a) is not int), "power map entry")
    return row


def _check_ingest(order, cd, rows):
    """Reject class data and values that are not those of a finite group.

    Power maps are load-bearing (CharacterTable.row_field permutes the rows
    through them, and the orthogonality sums are exact through them), so
    beyond shape and element orders this checks that powering by each
    generator g of (Z/e)* composes, pm[pm[j][g]][b] = pm[j][g*b];
    check_orthogonality then runs _check_galois_action.  Each check compares
    a whole power-map row with one built row."""
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
    expected = {}  # element order o -> the orders o / gcd(o, a) of the powers, a < e
    for j, row in enumerate(pm):
        if min(row) < 0 or max(row) >= k:
            raise ValueError(f"power map of class {j} names a class out of range")
        if row[0] != 0 or row[1 % e] != j:
            raise ValueError(f"power map of class {j} must send 0 to the identity and 1 to {j}")
        o = orders[j]
        if o not in expected:
            expected[o] = [o // gcd(o, a) for a in range(e)]
        if list(map(orders.__getitem__, row)) != expected[o]:
            raise ValueError(f"power map of class {j} disagrees with the element orders")
    for g in unit_generators(e):
        at = [g * b % e for b in range(e)]
        for j, row in enumerate(pm):
            if pm[row[g]] != list(map(row.__getitem__, at)):
                raise ValueError(f"power map of class {j} does not compose under power {g}")
    for row in rows:
        if len(row) != k:
            raise ValueError(f"character row has {len(row)} values for {k} classes")


def table_from_json(obj):
    """Ingest an externally produced table JSON (the table_to_json format).

    Power map lengths are checked before any entry is read, so a declared
    exponent costs nothing beyond the input; each distinct value encoding is
    parsed once, and the checks work once per distinct value (see _intern).
    Malformed input, a power map that is not one of a finite group and a
    table failing orthogonality raise ValueError."""
    try:
        e = _int(obj["exponent"], "exponent")
        if e < 1:
            raise ValueError(f"exponent must be >= 1, got {e}")
        classes = obj["classes"]
        sizes = [_int(c["size"], "class size") for c in classes]
        orders = [_int(c["element_order"], "element order") for c in classes]
        for n in (len(c["powermap"]) for c in classes):
            if n != e:
                raise ValueError(f"power map has {n} entries, expected exponent {e}")
        keys = list(map(str, range(e)))
        pmap = [_parse_power_map(c["powermap"], keys) for c in classes]
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
