"""p-block structure of a character table, computed by exact reduction.

The route is classical: for each irreducible row chi the central character
omega_chi sends a class sum K_j to |K_j| chi(g_j) / chi(1), an algebraic
integer in a cyclotomic field.  Two rows lie in the same p-block exactly when
their central characters agree on every class modulo a maximal ideal above p,
and the partition is the same for every such ideal (Navarro, Characters and
Blocks of Finite Groups, 1998, ch. 3).  So agreement modulo one of them is
agreement modulo all of them, that is modulo their product, the radical of p.
Sending zeta_{p^a} to 1 maps Z[zeta_e] onto Z[zeta_e'] / p, e' the p'-part of
the exponent e, with that radical as kernel; there, congruence is equality of
the coefficients mod p in the Zumbroich basis.  No residue field is built.
Defect and heights then come from p-valuations of the group order and the
row degrees, and a row of p-defect zero is a block by itself, read from its
degree with no reduction.
"""

from __future__ import annotations

from .cyclotomic import _reduce_terms, isprime, nu_p

__all__ = [
    "Block",
    "BlockPartition",
    "block_partition",
    "height_zero_rows",
    "block_report_json",
]


# ---------------------------------------------------------------------------
# reduction of cyclotomic integers modulo p


def _image(p, eprime, step, coeffs):
    """Image of sum c_j zeta_e^j, for the map coeffs: j -> integer c_j, in
    Z[zeta_e'] / p, e = p^a e' with e' prime to p: zeta_e = zeta_{p^a}^alpha
    zeta_{e'}^step by CRT, step = (p^a)^-1 mod e' (0 if e' = 1), and zeta_{p^a}
    goes to 1.  The value is the sorted tuple of the nonzero (exponent,
    coefficient mod p) pairs of its Zumbroich form at e', a Z-basis of
    Z[zeta_e'], so two values have equal images exactly when they are
    congruent modulo every maximal ideal above p."""
    raw = {}
    for j, c in coeffs.items():
        k = j * step % eprime
        raw[k] = raw.get(k, 0) + c
    return tuple(sorted((k, c % p) for k, c in _reduce_terms(eprime, raw).items() if c % p))


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
    """All p-blocks of a table, with per-row lookups."""

    def __init__(self, p, blocks, num_rows):
        self.p = p
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


def _central_terms(value, size, degree, r):
    """The Zumbroich coefficients of omega = size * value / degree, divided
    out exactly; the basis is integral, so omega is an algebraic integer iff
    every quotient is an integer, and otherwise this raises ValueError
    naming row r."""
    coeffs = {}
    for k, c in value.terms.items():
        q, rem = divmod(size * c.numerator, degree * c.denominator)
        if rem:
            raise ValueError(f"central character of row {r} is not an algebraic integer")
        coeffs[k] = q
    return coeffs


def block_partition(table, p):
    """Partition of the rows of `table` into p-blocks.

    Returns a BlockPartition whose blocks are ordered by their least row
    index; within a block, rows keep table order.  Each row's central
    character must reduce to algebraic integers; a failure means the table
    data is corrupt and raises ValueError naming the first failing row.

    A row of p-defect zero, nu_p(chi(1)) = nu_p(|G|), is a block by itself,
    of defect 0 (Brauer-Nesbitt; Navarro, Characters and Blocks of Finite
    Groups, 1998, ch. 3), so it is read from its degree and never reduced;
    its central character is still checked integral, once per distinct
    (value, class size) at its degree.  Every other row gets a signature:
    the division and the reduction run once per distinct (value, class
    size, degree) of the table, read through its cells (see chartab._intern),
    not once per entry; every value sits at the exponent, so one step of
    _image serves them all.  Each distinct image is numbered by a small int,
    so a signature is a tuple of ints.
    """
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    e = table.classes.exponent
    eprime = e // p ** nu_p(e, p)
    step = pow(e // eprime, -1, eprime)
    nu_order = nu_p(table.order, p)
    nu_degree = {d: nu_p(d, p) for d in set(table.degrees)}

    sizes, values = table.classes.class_sizes, table.values
    groups = []  # the row lists of the blocks, in order of their least row
    checked = {}  # degree of defect zero -> the (value, size) pairs checked at it
    images = {}
    ids = {}
    signatures = {}
    for r, (cell, degree) in enumerate(zip(table.cells, table.degrees)):
        if nu_degree[degree] == nu_order:
            seen = checked.setdefault(degree, set())
            fresh = set(zip(cell, sizes)).difference(seen)
            for x, size in fresh:
                _central_terms(values[x], size, degree, r)
            seen |= fresh
            groups.append([r])
            continue
        sig = []
        for size, x in zip(sizes, cell):
            image = images.get((x, size, degree))
            if image is None:
                key = _image(p, eprime, step, _central_terms(values[x], size, degree, r))
                image = images[x, size, degree] = ids.setdefault(key, len(ids))
            sig.append(image)
        sig = tuple(sig)
        rows = signatures.get(sig)
        if rows is None:
            rows = signatures[sig] = []
            groups.append(rows)
        rows.append(r)

    blocks = []
    for rows in groups:
        vals = [nu_degree[table.degrees[r]] for r in rows]
        vmin = min(vals)
        blocks.append(Block(len(blocks), rows, nu_order - vmin, [v - vmin for v in vals]))
    return BlockPartition(p, blocks, len(table.cells))


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
