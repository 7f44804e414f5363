"""Field reports, containment sweeps, realizer certificates, sigma checks."""

import pytest

from heightzero import chartab, reports
from heightzero.fields import (
    AbelianField,
    cyclotomic_field,
    field_from_values,
    in_class_Fp,
    quadratic_field,
    rational_field,
)
from heightzero.blocks import block_partition, height_zero_rows
from heightzero.groups import ORDER_CAP
from heightzero.reports import (
    build_table,
    char_field_report,
    corollary_c_sweep,
    default_corpus,
    parse_field_spec,
    parse_group_spec,
    realize_field,
    sigma_check,
    sweep_theorem_A,
    verify_theorem_A,
)
from oracles import compositum, root_of_unity, sigma_e


# ---------------------------------------------------------------------------
# spec parsers


def test_parse_group_specs():
    assert parse_group_spec("cyclic:6").order == 6
    assert parse_group_spec("dihedral:8").order == 8
    assert parse_group_spec("sym:4").order == 24
    assert parse_group_spec("meta:12:11").order == 24
    assert parse_group_spec("perm:(1,2)(3,4);(1,2,3)").order == 12  # A4
    assert parse_group_spec("perm:(1,2,3,4,5)").order == 5


def test_parse_group_spec_rejects_garbage():
    for bad in (
        "nope:3",
        "cyclic",
        "cyclic:x",
        "meta:12",
        "perm:()",
        "perm:(1,2)(3",
        "perm:(1,2)junk(3,4)",
        "perm:(1,2)(1,2)",
        "perm:(1,2,3)(3,2,1)",
    ):
        with pytest.raises(ValueError):
            parse_group_spec(bad)


def test_perm_spec_points_are_capped():
    # the degree is checked before the permutation of range(degree) is built
    assert parse_group_spec(f"perm:(1,{ORDER_CAP})").order == 2
    with pytest.raises(ValueError, match=f"point {ORDER_CAP + 1} is above the cap {ORDER_CAP}"):
        parse_group_spec(f"perm:(1,{ORDER_CAP + 1})")


def test_parse_field_specs():
    assert parse_field_spec("cyclo:12") == cyclotomic_field(12)
    assert parse_field_spec("quad:-2") == AbelianField(8, [3])
    assert parse_field_spec("fix:12:11") == quadratic_field(3)
    with pytest.raises(ValueError):
        parse_field_spec("quad:4")


def test_build_table_methods_agree():
    td = build_table("meta:12:11", method="dixon")
    tm = build_table("meta:12:11", method="direct")
    assert td.rows == tm.rows
    with pytest.raises(ValueError):
        build_table("sym:4", method="direct")


# ---------------------------------------------------------------------------
# per-row reports: the documented counterexamples


def test_s3_p3_conductor_split():
    # the degree-2 row is 3-rational (a = 0) but its C3 constituent has
    # conductor 3: the p-part of the conductor is not inherited by inductions
    t = build_table("sym:3")
    r = t.degrees.index(2)
    rep = char_field_report(t, r, 3, block_partition(t, 3))
    assert rep.a == 0 and rep.p_rational and rep.theorem_containment
    c3 = build_table("cyclic:3")
    nontrivial = [field_from_values(row).conductor for row in c3.rows[1:]]
    assert nontrivial == [3, 3]


def test_c3_nontrivial_row_report():
    t = build_table("cyclic:3")
    rep = char_field_report(t, 1, 3, block_partition(t, 3))
    assert (rep.conductor, rep.a, rep.m) == (3, 1, 1)
    assert rep.field == cyclotomic_field(3)


def test_cyclic4_faithful_row_report():
    t = build_table("cyclic:4")
    r = next(r for r in range(4) if field_from_values(t.rows[r]).conductor == 4)
    rep = char_field_report(t, r, 2, block_partition(t, 2))
    assert (rep.a, rep.m) == (2, 1)
    assert rep.field == cyclotomic_field(4)
    assert rep.theorem_containment


def test_sd16_degree2_faithful_row():
    t = build_table("semidihedral:16")
    rows = [
        r
        for r in range(len(t.rows))
        if t.degrees[r] == 2 and field_from_values(t.rows[r]).conductor == 8
    ]
    assert rows, "expected a faithful degree-2 row"
    bp = block_partition(t, 2)
    for r in rows:
        rep = char_field_report(t, r, 2, bp)
        assert rep.field == quadratic_field(-2)
        assert rep.height == 1
        assert not rep.p_rational
        assert (rep.a, rep.m) == (3, 1)
        assert all(sigma_e(v, 1) == v for v in t.rows[r])


# ---------------------------------------------------------------------------
# containment sweeps


def test_verify_containment_examples():
    t = build_table("sym:4")
    reports, violations = verify_theorem_A(t, 2)
    assert len(reports) == 4 and not violations
    assert all(rep.conductor == 1 for rep in reports)

    t = build_table("alt:5")
    reports, violations = verify_theorem_A(t, 2)
    assert len(reports) == 5 and not violations
    assert sorted(rep.conductor for rep in reports) == [1, 1, 1, 5, 5]
    assert all(rep.a == 0 for rep in reports)


def test_meta_12_11_sqrt3_row():
    t = build_table("meta:12:11")
    reports, violations = verify_theorem_A(t, 2)
    assert not violations
    sqrt3 = [rep for rep in reports if rep.field == quadratic_field(3)]
    assert sqrt3
    rep = sqrt3[0]
    assert (rep.conductor, rep.a, rep.m) == (12, 2, 3)
    assert compositum(cyclotomic_field(3), rep.field) == cyclotomic_field(12)


def test_sweep_structure():
    summary = sweep_theorem_A(["sym:3", "cyclic:4"], 2, None)
    assert summary["p"] == 2
    assert summary["total_violations"] == 0
    assert [g["group"] for g in summary["groups"]] == ["sym:3", "cyclic:4"]


def test_galois_orbits_fact_counts_the_row_field_orbits(monkeypatch):
    # the sweep reads galois_orbits off the power map as the number of
    # rational classes (Brauer's permutation lemma); row_field keeps one field
    # object per Galois orbit of rows, so counting those objects checks it
    specs = [*default_corpus(), "sym:6", "alt:7", "sl2:13"]
    tables, orbits = [], []

    def recording_build(group):
        tables.append(build_table(group))
        return tables[-1]

    monkeypatch.setattr(reports, "build_table", recording_build)
    sweep_theorem_A(specs, 2, lambda entry, facts: orbits.append(facts["galois_orbits"]))
    assert len(tables) == len(orbits) == len(specs)
    for spec, t, n in zip(specs, tables, orbits):
        assert n == len({id(t.row_field(r)) for r in range(t.num_classes)}), spec


def test_odd_p_sweep_reports_findings_not_failures():
    # odd-p mode flags rows whose field is outside the conductor class;
    # on these groups there are none, and the call never raises
    summary = sweep_theorem_A(["sym:3", "cyclic:9", "meta:7:6"], 3, None)
    assert summary["total_violations"] == 0


# ---------------------------------------------------------------------------
# realizer


def test_realize_rational_field():
    cert = realize_field(rational_field(), 2, False)
    assert cert.valid and cert.n == 1 and cert.degree == 1


def test_realize_qi():
    cert = realize_field(cyclotomic_field(4), 2, False)
    assert cert.valid
    assert cert.n == 4 and cert.degree == 1


def test_realize_sqrt3():
    cert = realize_field(quadratic_field(3), 2, cross_check_dixon=True)
    assert cert.valid and cert.dixon_checked
    assert cert.n == 12 and cert.degree == 2
    assert parse_group_spec(cert.group_spec).order == 24


def test_realize_sqrt_minus5():
    cert = realize_field(quadratic_field(-5), 2, cross_check_dixon=True)
    assert cert.valid and cert.dixon_checked
    assert cert.n == 20 and len(cert.subgroup) == 4
    assert parse_group_spec(cert.group_spec).order == 80


@pytest.mark.parametrize("where", ["realized row", "other row"])
def test_cross_check_catches_one_wrong_dixon_value(monkeypatch, where):
    # the Dixon table is compared row for row with the direct one, so one
    # changed value anywhere fails the certificate
    field = quadratic_field(3)
    realized = realize_field(field, 2, False).row
    true_dixon_table = reports.dixon_table

    def one_value_off(group, cd):
        table = true_dixon_table(group, cd)
        rows = table.rows
        r = realized if where == "realized row" else (realized + 1) % len(rows)
        row = rows[r]
        rows[r] = row[:-1] + (row[-1] + row[0],)
        table.values, table.cells = chartab._intern(rows, table.classes.exponent)
        return table

    monkeypatch.setattr(reports, "dixon_table", one_value_off)
    with pytest.raises(AssertionError, match="^independent table construction disagrees$"):
        realize_field(field, 2, cross_check_dixon=True)


def test_realize_rejects_excluded_fields():
    for d in (2, -2):
        with pytest.raises(ValueError):
            realize_field(quadratic_field(d), 2, False)


def test_realized_row_is_verified_not_assumed():
    cert = realize_field(quadratic_field(-7), 2, False)
    t = build_table(cert.group_spec)
    assert field_from_values(t.rows[cert.row]) == quadratic_field(-7)
    assert block_partition(t, 2).height[cert.row] == 0


def test_realize_odd_prime():
    # conductor class at p = 3: Q(zeta_9) has a = 2, m = 1 and passes
    f = cyclotomic_field(9)
    assert in_class_Fp(f, 3)
    cert = realize_field(f, 3, False)
    assert cert.valid


# ---------------------------------------------------------------------------
# quadratic sweep


def test_corollary_c_examples():
    rows = {d: (got, want) for d, got, want in corollary_c_sweep(10)}
    assert rows[3] == (True, True)
    assert rows[2] == (False, False)
    assert rows[-1] == (True, True)
    assert rows[-2] == (False, False)
    assert 1 not in rows and 0 not in rows


def test_corollary_c_agreement_to_40():
    assert all(got == want for _, got, want in corollary_c_sweep(40))


# ---------------------------------------------------------------------------
# sigma_1 fixedness vs 2-rationality


def test_sigma_check_s4_all_rational():
    rows = sigma_check(build_table("sym:4"))
    assert all(r["sigma1_fixed"] and r["two_rational"] for r in rows)


def test_sigma_check_sd16_counterexample_shape():
    rows = sigma_check(build_table("semidihedral:16"))
    # height-zero rows satisfy the equivalence
    for r in rows:
        if r["height"] == 0:
            assert r["sigma1_fixed"] == r["two_rational"]
    # and some positive-height row breaks it (fixed but not 2-rational)
    assert any(
        r["height"] > 0 and r["sigma1_fixed"] and not r["two_rational"] for r in rows
    )


def test_sigma1_fixed_lookup_matches_value_scan():
    # the fixer lookup against applying sigma_1 to every value of the row
    for spec in default_corpus():
        t = build_table(spec)
        for r, rep in enumerate(sigma_check(t)):
            assert rep["sigma1_fixed"] == all(sigma_e(v, 1) == v for v in t.rows[r]), (spec, r)


def test_sigma_check_meta_12_11():
    rows = sigma_check(build_table("meta:12:11"))
    sqrt3_rows = [r for r in rows if r["conductor"] == 12]
    assert sqrt3_rows
    for r in sqrt3_rows:
        assert r["height"] == 0
        assert not r["two_rational"] and not r["sigma1_fixed"]


# ---------------------------------------------------------------------------
# corpus and the two-step containment property


def test_default_corpus_contents():
    specs = default_corpus()
    assert "cyclic:48" in specs and "cyclic:1" in specs
    assert "dihedral:64" in specs and "quaternion:8" in specs
    assert "sym:5" in specs and "alt:5" in specs and "sl2:5" in specs
    assert any(s.startswith("meta:12:") for s in specs)
    assert len(specs) == len(set(specs))


def test_corpus_metacyclic_fields_pass_class_test():
    for spec in default_corpus():
        if spec.startswith("meta:"):
            _, n, gens = spec.split(":")
            f = AbelianField(int(n), [int(t) for t in gens.split(",")])
            assert f.conductor == int(n)
            assert in_class_Fp(f, 2)


def test_two_step_containment_lemma():
    # if Q_{2^a} lands in the compositum with the full odd part of the group
    # exponent, it already lands in the compositum with the row's own odd
    # conductor part
    for spec in ("meta:12:11", "semidihedral:16", "sym:4", "meta:20:3"):
        t = build_table(spec)
        e = t.classes.exponent
        nodd = e
        while nodd % 2 == 0:
            nodd //= 2
        bp = block_partition(t, 2)
        for r in height_zero_rows(bp):
            rep = char_field_report(t, r, 2, bp)
            if rep.a >= 2:
                big = compositum(cyclotomic_field(2 * nodd), rep.field)
                small = compositum(cyclotomic_field(2 * rep.m), rep.field)
                qa = cyclotomic_field(2**rep.a)
                if qa.is_subfield_of(big):
                    assert qa.is_subfield_of(small)


def test_two_rational_height_zero_restricts_two_rational():
    # at p = 2: a 2-rational height-zero row has 2-rational constituents on
    # the cyclic normal subgroup of the semidirect products
    from heightzero.chartab import dixon_table
    from heightzero.groups import conjugacy_classes
    from subgroups import decompose, restrict, subgroup_as_group, subgroup_elements

    for spec in ("meta:12:11", "meta:20:3", "meta:16:7"):
        big = parse_group_spec(spec)
        n = big.meta_params[0]
        cd = conjugacy_classes(big)
        t = build_table(spec)
        nsub = subgroup_elements(big, [big.index[(1, 1)]])
        sub, embedding = subgroup_as_group(big, nsub)
        sub_cd = conjugacy_classes(sub)
        sub_t = dixon_table(sub, sub_cd)
        bp = block_partition(t, 2)
        for r in height_zero_rows(bp):
            if field_from_values(t.rows[r]).conductor % 2 == 1:
                vals = restrict(t.rows[r], cd, sub_cd, embedding)
                mults = decompose(vals, sub_t)
                for s, mlt in enumerate(mults):
                    if mlt:
                        assert field_from_values(sub_t.rows[s]).conductor % 2 == 1
