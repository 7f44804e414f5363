"""p-block structure of a character table, computed by exact reduction.

The route is classical: for each irreducible row chi the central character
omega_chi sends a class sum K_j to |K_j| chi(g_j) / chi(1), an algebraic
integer in a cyclotomic field.  Reducing these values modulo a fixed maximal
ideal above p lands them in a finite field GF(p^f); two rows lie in the same
p-block exactly when their reduced central characters agree on every class.
Defect and heights then come from p-valuations of the group order and the
row degrees.

Residue fields at every p run in one ring, `_KroneckerRing`, where a
polynomial over F_p is one int with a lane of bits per coefficient; a reduced
value is the ring's canonical packed int, so block signatures are int tuples.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclotomic import _prime_powers, isprime

__all__ = [
    "IdealReduction",
    "Block",
    "BlockPartition",
    "block_partition",
    "height_zero_rows",
    "nu_p",
    "block_report_json",
]


def nu_p(n, p):
    """p-adic valuation of the positive integer n."""
    if n <= 0:
        raise ValueError("valuation needs a positive integer")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# polynomials over F_p packed into one int


class _KroneckerRing:
    """F_p[x] / (g) by Kronecker substitution: the coefficient of x^i sits in
    lane i, bits [w*i, w*(i + 1)), so integer + and * of packed ints add and
    multiply the polynomials over Z while no lane overflows.  1 and 0 pack
    as the ints 1 and 0.

    Lanes start in [0, p), and a lane collects at most S products of two
    residues before `canon` reduces it, so it stays below 2**k with k the bit
    length of S * (p - 1)**2.  S is the largest of:
      * f + 2 times (1 + s*(p - 1))**folds for `mul`: a product has at most f
        summands per lane, and each fold of its part of degree >= f through
        x^f = -(tail of g) multiplies the lane bound by 1 + s*(p - 1), with s
        the number of nonzero tail coefficients; the tail's degree fixes the
        number of folds;
      * f + 2 for one remainder in `coprime`, which adds at most f + 1
        multiples of the divisor to the dividend;
      * `summands`, for a caller's own sums of packed elements.
    The width w is the least whole number of bytes with w >= 2k + 1.  That is
    room for each lane times a (k + 1)-bit constant, so `canon` reduces every
    lane mod p at once by one multiply-shift division (Granlund-Montgomery).
    """

    def __init__(self, p, modulus, summands=0):
        f = len(modulus) - 1
        tail = [-c % p for c in modulus[:f]]
        last = max((i for i, c in enumerate(tail) if c), default=0)
        folds, top = 0, 2 * f - 2
        while top >= f:
            folds, top = folds + 1, top - f + last
        spread = 1 + (p - 1) * sum(1 for c in tail if c)
        bound = max((f + 2) * spread**folds, summands) * (p - 1) ** 2
        k = bound.bit_length()
        self.p, self.f = p, f
        self.w = w = -(-(2 * k + 1) // 8) * 8
        self._shift = k + p.bit_length()
        self._magic = -(-(1 << self._shift) // p)
        # the quotient mask (1 << w - shift) - 1 in each of the f + 1 lanes
        lanes = ((1 << (f + 1) * w) - 1) // ((1 << w) - 1)
        self._qmask = ((1 << w - self._shift) - 1) * lanes
        self._tail = self.pack(tail)
        self._fbits = f * w
        self._low = (1 << f * w) - 1
        self.modulus = self.pack(modulus)

    def pack(self, coeffs):
        """The int with coeffs[i] (in [0, 2**w)) in lane i; zero lanes cost
        nothing, so a sparse modulus packs in a few shifts."""
        w = self.w
        return sum(c << i * w for i, c in enumerate(coeffs) if c)

    def canon(self, x):
        """x with every lane (at most f + 1 of them) reduced mod p."""
        return x - ((x * self._magic >> self._shift) & self._qmask) * self.p

    def mul(self, a, b):
        x = a * b
        fbits, low, tail = self._fbits, self._low, self._tail
        hi = x >> fbits
        while hi:
            x = (x & low) + hi * tail
            hi = x >> fbits
        return self.canon(x)

    def pow(self, x, k):
        """x**k for a canonical x (lanes in [0, p), degree < f)."""
        out = 1
        while k:
            if k & 1:
                out = x if out == 1 else self.mul(out, x)
            k >>= 1
            if k:
                x = self.mul(x, x)
        return out

    def coprime(self, b):
        """Whether b (lanes in [0, p), degree < f) is prime to the modulus in
        F_p[x]: Euclid's algorithm, one lane eliminated per step."""
        p, w = self.p, self.w
        a, da, db = self.modulus, self.f, self.f - 1
        while True:
            while db >= 0 and not b >> db * w:
                db -= 1
            if db <= 0:
                return db == 0
            lead = b >> db * w
            rest = b - (lead << db * w)
            neg_inv = -pow(lead, -1, p) % p
            # a has no lane above i here: its top lane is a >> i*w
            for i in range(da, db - 1, -1):
                t = a >> i * w
                if t % p:
                    a += (t * neg_inv % p * rest) << (i - db) * w
                a -= t << i * w
            a, da, b, db = b, db, self.canon(a), db - 1


def _irreducible(p, poly):
    """Ben-Or's test: the monic poly (low-to-high coefficients) of degree f is
    irreducible over F_p iff gcd(poly, x^(p^i) - x) = 1 for i = 1 .. f // 2.

    Step 1 asks whether poly has a root in F_p.  When p <= f, that is
    answered by evaluating the nonzero terms at the p residues, before any
    ring is built, and the gcds start at i = 2; when p > f, p evaluations
    would cost more than one gcd, so step 1 stays a gcd.  (At f = 1 there is
    no step, and x + c stays irreducible.)  Steps i <= 3, where most
    reducible candidates fail, take one gcd each.  Later steps multiply up to
    four factors x^(p^i) - x mod poly and take one gcd per product, which is
    exact as gcd(g, ab) = 1 iff gcd(g, a) = gcd(g, b) = 1; a product that
    reaches 0 is not coprime to poly, and `coprime(0)` is False."""
    f = len(poly) - 1
    sieve = p <= f
    if sieve:
        terms = [(i, c) for i, c in enumerate(poly) if c]
        if any(sum(c * pow(r, i, p) for i, c in terms) % p == 0 for r in range(p)):
            return False
    ring = _KroneckerRing(p, poly)
    minus_x = (p - 1) << ring.w
    h = 1 << ring.w
    product = 1
    for i in range(1, f // 2 + 1):
        h = ring.pow(h, p)
        if i == 1 and sieve:
            continue
        factor = ring.canon(h + minus_x)
        product = factor if product == 1 else ring.mul(product, factor)
        if i <= 3 or i % 4 == 3 or i == f // 2:
            if not ring.coprime(product):
                return False
            product = 1
    return True


def _digits(code, p, f):
    """The f base-p digits of code (0 <= code < p**f), least significant
    first."""
    out = []
    while code:
        code, d = divmod(code, p)
        out.append(d)
    return out + [0] * (f - len(out))


# ---------------------------------------------------------------------------
# reduction of cyclotomic integers modulo a maximal ideal above p


@lru_cache(maxsize=None)
def _gf_irreducible_poly(p, f):
    """Lexicographically least monic irreducible polynomial of degree f over
    F_p, as low-to-high coefficients (length f + 1, leading 1).  Candidates
    run in constant-first lexicographic order, each through Ben-Or's test
    in `_irreducible`, which sieves roots in F_p when p <= f and batches its
    later gcds; both only make a test cheaper, so the candidate order and
    the modulus are those of the one-gcd-per-step test.

    Codes below p are the binomials x^f + c.  Some binomial of degree f is
    irreducible over F_p iff every prime factor of f divides p - 1 and, when
    4 | f, p = 1 mod 4 (Lidl-Niederreiter, Theorem 3.75); otherwise the scan
    starts at code p.  The first test is rad(f) | p - 1, as f | (p - 1)^f."""
    binomials = pow(p - 1, f, f) == 0 and (f % 4 or p % 4 == 1)
    for code in range(0 if binomials else p, p**f):
        cand = _digits(code, p, f) + [1]
        if _irreducible(p, cand):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class IdealReduction:
    """Reduction map Z[zeta_n] -> GF(p^f) for every n dividing the exponent
    e, modulo a fixed maximal ideal above p.

    With e' the p'-part of e and f the multiplicative order of p mod e',
    GF(p^f) = F_p[x] / (m) for the lex-least modulus m of
    `_gf_irreducible_poly`, and its elements are the canonical packed ints of
    one `_KroneckerRing`: equal images are equal ints, and at f = 1 they are
    the residues mod p.  The map fixes a root u of exact order e' and sends
    zeta_{p^a} to 1 and zeta_{n'} to u^(e' / n') for n' | e'.
    """

    def __init__(self, p, e):
        ep = e // p ** nu_p(e, p)
        f = 1
        while (p**f - 1) % ep:
            f += 1
        self.p, self.eprime, self.f = p, ep, f
        # every image is a sum of the powers of u with at most one term per
        # power, so the lanes hold e' summands
        ring = self._ring = _KroneckerRing(p, _gf_irreducible_poly(p, f), summands=ep)
        # u = c^((p^f - 1) / e') for the first code c for which that power has
        # order e', certified by the prime factors of e' alone, so p^f - 1 is
        # never factored.  Codes 1 .. p - 1 are the constants, whose powers lie
        # in F_p^*; it has an element of order e' only when f = 1, so for f > 1
        # the scan starts at code p, the element x
        cofactor = (p**f - 1) // ep
        primes = [r for r, _ in _prime_powers(ep)]
        for code in range(1 if f == 1 else p, p**f):
            u = ring.pow(ring.pack(_digits(code, p, f)), cofactor)
            if u and all(ring.pow(u, ep // r) != 1 for r in primes):
                break
        self.powers = [1]
        for _ in range(ep - 1):
            self.powers.append(ring.mul(self.powers[-1], u))

    def image(self, n, coeffs):
        """Image of sum c_j zeta_n^j for the map coeffs: j -> integer c_j, as
        the ring's canonical packed int."""
        p, ep = self.p, self.eprime
        a = nu_p(n, p)
        nprime = n // p**a
        if ep % nprime:
            raise ValueError(f"modulus {n} has p'-part {nprime}, not dividing {ep}")
        # zeta_n = zeta_{p^a}^alpha * zeta_{n'}^beta with the CRT exponents;
        # zeta_{p^a} |-> 1, so only the n'-component survives (step 0 if n' = 1)
        step = ep // nprime * pow(p**a, -1, nprime)
        powers = self.powers
        by_power = {}
        for j, c in coeffs.items():
            k = j * step % ep
            by_power[k] = by_power.get(k, 0) + c
        return self._ring.canon(sum(c % p * powers[k] for k, c in by_power.items()))


# ---------------------------------------------------------------------------
# block partition


class Block:
    """One p-block: its rows (indices into the table), defect, and heights."""

    def __init__(self, block_id, rows, defect, heights):
        self.id = block_id
        self.rows = list(rows)
        self.defect = defect
        self.heights = list(heights)

    def __repr__(self):
        return f"Block(id={self.id}, defect={self.defect}, rows={self.rows})"


class BlockPartition:
    """All p-blocks of a table, with per-row lookups, and the degree f of the
    residue field GF(p^f) the central characters were reduced into."""

    def __init__(self, reduction, blocks, num_rows):
        self.p = reduction.p
        self.f = reduction.f
        self.blocks = blocks
        self.block_of = [None] * num_rows
        self.height = [None] * num_rows
        self.defect = [b.defect for b in blocks]
        for b in blocks:
            for r, h in zip(b.rows, b.heights):
                self.block_of[r] = b.id
                self.height[r] = h
        self.principal_block = self.block_of[0]

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)


def block_partition(table, p):
    """Partition of the rows of `table` into p-blocks.

    Returns a BlockPartition whose blocks are ordered by their least row
    index; within a block, rows keep table order.  Each row's central
    character must reduce to algebraic integers; a failure means the table
    data is corrupt and raises ValueError.

    The exact division and the reduction run once per distinct (value, class
    size, degree) of the table, not once per entry: in a table from
    metacyclic_table or dixon_table equal values are one object, and a value
    repeats about 22 times per table over the default corpus.
    """
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    red = IdealReduction(p, table.classes.exponent)

    # omega_chi(K_j) = |K_j| chi(g_j) / chi(1), divided out exactly on each
    # Zumbroich coefficient of chi(g_j); the basis is integral, so the value
    # is an algebraic integer iff every quotient is an integer
    sizes = table.classes.class_sizes
    images = {}
    signatures = {}
    for r, (row, degree) in enumerate(zip(table.rows, table.degrees)):
        sig = []
        for size, value in zip(sizes, row):
            image = images.get((value, size, degree))
            if image is None:
                coeffs = {}
                for k, c in value.terms.items():
                    q, rem = divmod(size * c.numerator, degree * c.denominator)
                    if rem:
                        raise ValueError(
                            f"central character of row {r} is not an algebraic integer"
                        )
                    coeffs[k] = q
                image = images[value, size, degree] = red.image(value.n, coeffs)
            sig.append(image)
        signatures.setdefault(tuple(sig), []).append(r)

    nu_order = nu_p(table.order, p)
    blocks = []
    for rows in sorted(signatures.values(), key=lambda rs: rs[0]):
        degs = [table.degrees[r] for r in rows]
        vals = [nu_p(d, p) for d in degs]
        vmin = min(vals)
        defect = nu_order - vmin
        heights = [v - vmin for v in vals]
        blocks.append(Block(len(blocks), rows, defect, heights))
    return BlockPartition(red, blocks, len(table.rows))


def height_zero_rows(partition):
    """Indices of the rows of p-height zero, in table order."""
    return [r for r, h in enumerate(partition.height) if h == 0]


def block_report_json(table, p):
    """JSON-ready block report for a table at the prime p."""
    blocks = block_partition(table, p)
    return {
        "p": p,
        "group": table.name,
        "order": table.order,
        "blocks": [
            {
                "id": b.id,
                "defect": b.defect,
                "rows": [
                    {"index": r, "degree": table.degrees[r], "height": h}
                    for r, h in zip(b.rows, b.heights)
                ],
            }
            for b in blocks
        ],
    }
