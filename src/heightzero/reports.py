"""Verification and realization layer.

Ties the table, field, and block machinery together:

* per-row field reports: conductor split n = p^a * m and the containment
  Q_{p^a} <= <Q_m, Q(chi)> that height-zero rows must satisfy at p = 2;
* corpus sweeps of that containment (hard constraint at p = 2, recorded
  findings at odd p);
* the constructive realizer: any field F with 2-part-compatible conductor
  class is produced as the field of values of a height-zero row of the
  semidirect product C_n x| Gal(Q_n / F);
* the quadratic-field sweep (odd squarefree d, and only those, pass at p=2);
* the sigma_1 fixedness test: for height-zero rows at p = 2, being fixed by
  the automorphism raising 2-power roots of unity to the third power is
  equivalent to having odd conductor.
"""

from __future__ import annotations

import re
from importlib import resources

from .cyclotomic import _prime_powers, nu_p, sigma_unit, subgroup_closure
from .fields import (
    AbelianField,
    conductor_parts,
    cyclotomic_field,
    cyclotomic_index,
    in_class_Fp,
    quadratic_field,
)
from .groups import (
    ORDER_CAP,
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
from .chartab import _dixon_prime, dixon_table, induce_linear, metacyclic_table
from .blocks import block_partition, height_zero_rows

__all__ = [
    "parse_group_spec",
    "parse_field_spec",
    "build_table",
    "CharacterFieldReport",
    "char_field_report",
    "verify_theorem_A",
    "sweep_theorem_A",
    "RealizerCertificate",
    "realize_field",
    "corollary_c_sweep",
    "sigma_check",
    "sigma_violations",
    "parse_corpus",
    "default_corpus",
]


# ---------------------------------------------------------------------------
# spec mini-languages


def _integer(text):
    """Every integer of a spec, and the CLI's --p and --max: ASCII -?[0-9]+,
    where int() alone also reads a "+", spaces, "_" and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"{text!r} is not an ASCII integer -?[0-9]+")
    return int(text)


def _integers(text):
    """The comma-separated integers of a spec, none for an empty text; an
    empty token, as in '5,,7' or '5,', is refused."""
    tokens = text.split(",") if text else []
    if "" in tokens:
        raise ValueError(f"empty entry in {text!r}")
    return [_integer(t) for t in tokens]


def _parse_perm_spec(body):
    """Generators as products of disjoint cycles, 1-based: (1,2)(3,4);(1,2,3).

    No point may occur twice in one generator, and no point may be above
    ORDER_CAP, checked before the permutation is allocated."""
    gens = []
    for part in body.split(";"):
        part = part.strip()
        if not re.fullmatch(r"(\s*\([^()]*\))*\s*", part):
            raise ValueError(f"permutation is not a product of cycles: {part!r}")
        cycles = [
            _integers(cyc.replace(" ", ""))
            for cyc in re.findall(r"\(([^()]*)\)", part)
        ]
        pts = [x for cyc in cycles for x in cyc]
        if not pts:
            raise ValueError(f"empty permutation in spec: {part!r}")
        if min(pts) < 1:
            raise ValueError("permutation points are 1-based positive integers")
        if max(pts) > ORDER_CAP:
            raise ValueError(f"permutation point {max(pts)} is above the cap {ORDER_CAP}")
        seen = set()
        for x in pts:
            if x in seen:
                raise ValueError(f"point {x} occurs twice in {part!r}")
            seen.add(x)
        perm = list(range(max(pts)))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                perm[x - 1] = cyc[(i + 1) % len(cyc)] - 1
        gens.append(tuple(perm))
    return gens


# the families named by one integer, 'kind:N'
_ONE_INTEGER_FAMILIES = {
    "cyclic": cyclic,
    "dihedral": dihedral,
    "semidihedral": semidihedral,
    "quaternion": generalized_quaternion,
    "sym": symmetric,
    "alt": alternating,
    "sl2": sl2,
}


def parse_group_spec(spec):
    """Build the group named by a spec string such as 'sym:4' or 'meta:12:11'."""
    parts = spec.strip().split(":")
    kind = parts[0]
    try:
        if kind in _ONE_INTEGER_FAMILIES and len(parts) == 2:
            return _ONE_INTEGER_FAMILIES[kind](_integer(parts[1]))
        if kind == "meta" and len(parts) == 3:
            n = _integer(parts[1])
            hgens = _integers(parts[2])
            return semidirect_cn_h(n, hgens, name=spec.strip())
        if kind == "perm" and len(parts) >= 2:
            return from_permutation_generators(
                _parse_perm_spec(":".join(parts[1:])), name=spec.strip()
            )
    except ValueError as exc:
        raise ValueError(f"bad group spec {spec!r}: {exc}") from None
    raise ValueError(f"unrecognized group spec {spec!r}")


def parse_field_spec(spec):
    """Build the field named by 'cyclo:n', 'quad:d', or 'fix:n:k1,k2,...'.

    |n| and |d| are at most ORDER_CAP, checked before any closure or
    factorization."""
    parts = spec.strip().split(":")
    kind = parts[0]
    try:
        if kind == "cyclo" and len(parts) == 2:
            return cyclotomic_field(_capped(parts[1], "n"))
        if kind == "quad" and len(parts) == 2:
            return quadratic_field(_capped(parts[1], "d"))
        if kind == "fix" and len(parts) == 3:
            n = _capped(parts[1], "n")
            gens = _integers(parts[2])
            return AbelianField(n, gens)
    except ValueError as exc:
        raise ValueError(f"bad field spec {spec!r}: {exc}") from None
    raise ValueError(f"unrecognized field spec {spec!r}")


def _capped(text, what):
    """_integer(text), refused when its absolute value is above ORDER_CAP."""
    v = _integer(text)
    if abs(v) > ORDER_CAP:
        raise ValueError(f"|{what}| = {abs(v)} is above the cap {ORDER_CAP}")
    return v


def build_table(group, method="auto"):
    """Character table of a group (or spec string).

    method 'direct' uses the closed-form metacyclic construction, for the
    groups built as C_n x| H (cyclic:N, dihedral:N with N >= 6,
    semidihedral:N and meta:...); 'dixon' the modular algorithm; 'auto' the
    direct route whenever available.
    """
    if isinstance(group, str):
        group = parse_group_spec(group)
    cd = conjugacy_classes(group)
    if method == "auto":
        method = _auto_route(group)
    if method == "direct":
        if group.meta_params is None:
            raise ValueError(f"no direct construction for group {group.name}")
        return metacyclic_table(group, cd)
    if method == "dixon":
        return dixon_table(group, cd)
    raise ValueError(f"unknown method {method!r}")


def _auto_route(group):
    """The route build_table takes by default: direct wherever it exists."""
    return "direct" if group.meta_params is not None else "dixon"


# ---------------------------------------------------------------------------
# per-row field reports


class CharacterFieldReport:
    """Field-of-values facts for one row at one prime.

    Both verdicts read the index I = |Q_n : <Q_m, F>| for the conductor
    n = p^a * m: Q_{p^a} lies in <Q_m, F> iff I = 1, and F is in the class
    F_p iff p does not divide I."""

    def __init__(self, group_label, row, degree, block_id, height, field, p):
        self.group = group_label
        self.row = row
        self.degree = degree
        self.block_id = block_id
        self.height = height
        self.field = field
        self.p = p
        self.conductor = field.conductor
        self.a, self.m = conductor_parts(field, p)
        self.p_rational = self.a == 0
        index = cyclotomic_index(field, self.m)
        self.theorem_containment = index == 1
        self.in_Fp = index % p != 0

    def to_json(self):
        return {
            "group": self.group,
            "row": self.row,
            "degree": self.degree,
            "block": self.block_id,
            "height": self.height,
            "field": self.field.to_json(),
            "p": self.p,
            "conductor": self.conductor,
            "a": self.a,
            "m": self.m,
            "p_rational": self.p_rational,
            "containment": self.theorem_containment,
            "in_Fp": self.in_Fp,
        }


def char_field_report(table, row, p, partition):
    field = table.row_field(row)
    return CharacterFieldReport(
        table.name,
        row,
        table.degrees[row],
        partition.block_of[row],
        partition.height[row],
        field,
        p,
    )


def verify_theorem_A(table, p, partition=None):
    """Reports for all p-height-zero rows of one table, plus the violating
    row indices.  At p = 2 a violation of the cyclotomic containment is a
    genuine failure; at odd p it is a recorded finding (open conjecture)."""
    if partition is None:
        partition = block_partition(table, p)
    reports = []
    violations = []
    for r in height_zero_rows(partition):
        rep = char_field_report(table, r, p, partition)
        reports.append(rep)
        bad = not rep.theorem_containment if p == 2 else not rep.in_Fp
        if bad:
            violations.append(r)
    return reports, violations


def sweep_theorem_A(specs, p, progress):
    """Run verify_theorem_A over many group specs; returns a summary dict.

    progress, unless None, is called as soon as each group is done, with its
    summary entry and a dict of run facts that stay out of the summary: the
    table's route ('direct' or 'dixon'), the Dixon prime q (None on the direct
    route), the residue degree f of the primes above p, the number of
    distinct table values and the number of Galois orbits on the rows (each
    orbit shares one row_field object)."""
    groups_out = []
    total_rows = 0
    total_violations = 0
    for spec in specs:
        group = parse_group_spec(spec)
        table = build_table(group)
        partition = block_partition(table, p)
        reports, violations = verify_theorem_A(table, p, partition)
        total_rows += len(reports)
        total_violations += len(violations)
        groups_out.append(
            {
                "group": spec,
                "order": table.order,
                "height_zero_rows": len(reports),
                "violations": violations,
                "reports": [rep.to_json() for rep in reports],
            }
        )
        if progress is not None:
            route = _auto_route(group)
            e = table.classes.exponent
            facts = {
                "route": route,
                "q": _dixon_prime(e, table.order, table.num_classes) if route == "dixon" else None,
                "f": len(subgroup_closure(e // p ** nu_p(e, p), [p])),
                "values": len(table.values),
                "galois_orbits": len({id(table.row_field(r)) for r in range(table.num_classes)}),
            }
            progress(groups_out[-1], facts)
    return {
        "p": p,
        "groups": groups_out,
        "total_height_zero_rows": total_rows,
        "total_violations": total_violations,
    }


# ---------------------------------------------------------------------------
# field realizer


class RealizerCertificate:
    """Witness that a field is the field of values of a height-zero row.

    dixon_checked starts False; realize_field sets it once an independent
    Dixon table agrees."""

    def __init__(self, field, p, n, subgroup, group_spec, row, degree,
                 verified_field, verified_height_zero):
        self.field = field
        self.p = p
        self.n = n
        self.subgroup = tuple(subgroup)
        self.group_spec = group_spec
        self.row = row
        self.degree = degree
        self.verified_field = verified_field
        self.verified_height_zero = verified_height_zero
        self.dixon_checked = False

    @property
    def valid(self):
        return self.verified_field and self.verified_height_zero

    def to_json(self):
        return {
            "field": self.field.to_json(),
            "p": self.p,
            "n": self.n,
            "subgroup": list(self.subgroup),
            "group": self.group_spec,
            "row": self.row,
            "degree": self.degree,
            "verified_field": self.verified_field,
            "verified_height_zero": self.verified_height_zero,
            "dixon_checked": self.dixon_checked,
            "valid": self.valid,
        }


def realize_field(field, p, cross_check_dixon):
    """Realize `field` as the field of values of a p-height-zero character of
    C_n x| H, where n is the conductor and H the fixer subgroup.

    The candidate row is the induction of a faithful linear character of C_n;
    its field of values and its height are then recomputed from scratch, so a
    returned certificate with valid=True is self-verifying.
    """
    if not in_class_Fp(field, p):
        raise ValueError("field fails the conductor-class precondition at p")
    n = field.conductor
    group = semidirect_cn_h(n, sorted(field.fixer)) if n > 1 else cyclic(1)
    cd = conjugacy_classes(group)
    table = metacyclic_table(group, cd)

    # induce the faithful linear character c |-> zeta_n^c = zeta_e^(c e/n) of C_n <= G
    step = cd.exponent // n
    lam = {group.index[(c, 1 % n)]: c * step for c in range(n)}
    induced = induce_linear(cd, lam)
    # H acts faithfully on the characters of C_n, so the induced character is
    # irreducible and must literally be a table row
    try:
        row = table.rows.index(induced)
    except ValueError:
        raise AssertionError("induced character is not an irreducible row") from None

    achieved = table.row_field(row)
    partition = block_partition(table, p)
    cert = RealizerCertificate(
        field,
        p,
        n,
        group.meta_params[1] if n > 1 else (),
        group.name,
        row,
        table.degrees[row],
        verified_field=(achieved == field),
        verified_height_zero=(partition.height[row] == 0),
    )
    if cross_check_dixon and cert.valid:
        # both tables share cd, so equal rows give the Dixon row the same
        # field and the same height as the certified one
        dixon = dixon_table(group, cd)
        cert.dixon_checked = (dixon.values, dixon.cells) == (table.values, table.cells)
        if not cert.dixon_checked:
            raise AssertionError("independent table construction disagrees")
    return cert


# ---------------------------------------------------------------------------
# quadratic-field sweep


def corollary_c_sweep(dmax):
    """(d, in_F2, expected) for every squarefree d with |d| <= dmax, d not in
    {0, 1}; expected = d odd.  The two booleans agree exactly when the
    quadratic-field classification at p = 2 holds."""
    if dmax < 2:
        raise ValueError("dmax must be at least 2")
    if dmax > ORDER_CAP:
        raise ValueError(f"dmax = {dmax} is above the cap {ORDER_CAP}")
    out = []
    for d in range(-dmax, dmax + 1):
        if d in (0, 1) or any(q != p for p, q in _prime_powers(abs(d))):
            continue
        in_f2 = in_class_Fp(quadratic_field(d), 2)
        out.append((d, in_f2, d % 2 != 0))
    return out


# ---------------------------------------------------------------------------
# sigma_1 fixedness


def sigma_check(table):
    """Per-row: (height at p=2, fixed by sigma_1, 2-rational).

    For height-zero rows the last two booleans must coincide; rows of
    positive height are reported unconstrained.  sigma_1 fixes the row
    exactly when its unit at the conductor of the row's field lies in the
    fixer of that field.
    """
    partition = block_partition(table, 2)
    out = []
    for r in range(table.num_classes):
        field = table.row_field(r)
        cond = field.conductor
        out.append(
            {
                "row": r,
                "degree": table.degrees[r],
                "height": partition.height[r],
                "sigma1_fixed": sigma_unit(cond, 1) in field.fixer,
                "two_rational": cond % 2 == 1,
                "conductor": cond,
            }
        )
    return out


def sigma_violations(rows):
    """The height-zero rows of a sigma_check report whose sigma_1 fixedness
    and 2-rationality disagree."""
    return [
        r["row"]
        for r in rows
        if r["height"] == 0 and r["sigma1_fixed"] != r["two_rational"]
    ]


# ---------------------------------------------------------------------------
# corpus files


def parse_corpus(text):
    """Group specs of a corpus file: one per line; blank lines and lines
    starting with '#' are skipped."""
    lines = (ln.strip() for ln in text.splitlines())
    return [ln for ln in lines if ln and not ln.startswith("#")]


def default_corpus():
    """The group specs of the standard sweeps, read from the packaged
    data/default_corpus.txt, the only definition of the corpus."""
    text = resources.files(__package__).joinpath("data/default_corpus.txt").read_text()
    return parse_corpus(text)
