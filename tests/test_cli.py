"""CLI subcommands: outputs, exit codes, determinism, ingest path."""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heightzero
from heightzero import cli, modular
from heightzero.chartab import table_to_json
from heightzero.cli import _dump, build_parser, main
from heightzero.cyclotomic import nu_p
from heightzero.reports import build_table


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_json(capsys):
    code, out, _ = run(["table", "--group", "sym:3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 6
    assert len(obj["irr"]) == 3


def test_table_method_flag(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    for group in ("meta:12:11", "dihedral:8"):
        assert main(["table", "--group", group, "--method", "dixon", "--out", str(p1)]) == 0
        assert main(["table", "--group", group, "--method", "direct", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes(), group


def test_table_bytes_are_unchanged(tmp_path):
    # a byte-identity gate on the direct route (order 1,332): value sharing,
    # the row sort and the JSON encoding must not move a byte
    out = tmp_path / "meta37.json"
    assert main(["table", "--group", "meta:37:2", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "745b2fa7822949f316cafb4a0b9123196444684bdba4a7ba5eef050fda8b63d6"


@pytest.mark.parametrize(
    "spec,digest",
    [
        ("dihedral:200", "9457c99764905fe57e6a7b780fe6e0b879b65371cb0cc4ec258ee5e6c42fb815"),
        ("semidihedral:64", "2de96ae1d30d2531e5e3f7437b5523ef6c22b03698ef0e7566c4493ad8490d3f"),
        ("meta:63:2,8", "e900284db75e78b87e181d238e26336f9306ce956ace37014e8a5ccf7ea5d1e2"),
    ],
)
def test_direct_table_bytes_per_family(tmp_path, spec, digest):
    # the same gate on the dihedral, semidihedral and two-generator H families
    out = tmp_path / "table.json"
    assert main(["table", "--group", spec, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "spec,digest",
    [
        ("sl2:5", "188bfeedd78e31af57a65ca8e3b69c7bedd1cb88b4e7b24c80ab74d05da695d5"),
        ("quaternion:64", "85f6e16a1447b3ccbc91c78d9e8538b3c9fb2a045d1a7810fa9d66ba77534d8a"),
        ("sym:5", "b575108c317a70af020ed03bf9d063c67d66e6a4684d6eb72976f1cd837ad977"),
        ("alt:5", "c6e4b86c177b38d43d0ec16cdece783d7179dde27a1062999ebb717d84da9a50"),
        ("dihedral:16", "c449a554920bc5163aed61bdcaef07b7feb9a6d0a957de5ecf56075acccbb501"),
        ("meta:12:11", "54840126356110e613073e501b085b3745ac84eb3500d512d6d2eee4dc2c1557"),
    ],
)
def test_dixon_table_bytes_are_unchanged(tmp_path, spec, digest):
    # the same gate on the Dixon route: the lift per rational class, value
    # sharing, the eigenspace split and the mod-q elimination must not move
    # a byte
    out = tmp_path / "dixon.json"
    assert main(["table", "--group", spec, "--method", "dixon", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "spec,digest",
    [
        ("sym:5", "b575108c317a70af020ed03bf9d063c67d66e6a4684d6eb72976f1cd837ad977"),
        ("sl2:7", "7db6eb9242f87a0ec75e4dec9998da4513ca2ade5997755c6a1c9fbdb99caef5"),
        ("quaternion:64", "85f6e16a1447b3ccbc91c78d9e8538b3c9fb2a045d1a7810fa9d66ba77534d8a"),
        ("dihedral:40", None),  # the direct route's bytes
    ],
)
def test_dixon_split_skips_scalar_actions_and_echelon_lines(tmp_path, monkeypatch, spec, digest):
    # a vector that a class matrix B fixes up to a scalar cannot
    # split, so it is kept as it is and never reaches minimal_polynomial
    minimal_polynomial = modular.minimal_polynomial
    calls, fixed = [], []

    def counted(a, x, q):
        calls.append(None)
        # x a from the sparse columns of a, and whether it is a multiple of x
        image = [sum(w * x[j] for j, w in zip(js, ws)) % q for js, ws in a]
        lead = next(k for k, v in enumerate(x) if v)
        if all(image[k] * x[lead] % q == image[lead] * v % q for k, v in enumerate(x)):
            fixed.append(list(x))
        return minimal_polynomial(a, x, q)

    monkeypatch.setattr(modular, "minimal_polynomial", counted)
    out = tmp_path / "dixon.json"
    assert main(["table", "--group", spec, "--method", "dixon", "--out", str(out)]) == 0
    assert calls and not fixed
    if digest is None:
        direct = tmp_path / "direct.json"
        assert main(["table", "--group", spec, "--method", "direct", "--out", str(direct)]) == 0
        assert out.read_bytes() == direct.read_bytes()
    else:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_a_on_c2_to_the_8_is_fast_and_unchanged(tmp_path):
    # C_2^r has 2^r classes, all on the Dixon route; each class matrix halves
    # every vector left to split, so the split builds only r of them and
    # takes 2^r - 1 minimal polynomials, each of degree 2; r = 8 and 9
    for rank, digest in [
        (8, "15d7debba24e8ba2db22eb9a18a74408b52404fe78e1ca0d5883349f0429d371"),
        (9, "8289b9f5187fba154f052ed0f61e7f5a571600ce14437bd90b14dcb25aa59708"),
    ]:
        spec = "perm:" + ";".join(f"({2 * i + 1},{2 * i + 2})" for i in range(rank))
        out = tmp_path / f"c2_{rank}.json"
        proc = _run_cli_process(["verify-a", "--group", spec, "--p", "2", "--out", str(out)], timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, rank


@pytest.mark.parametrize(
    "spec,p,digest",
    [
        # residue degree f = 110 at p = 2, the largest in the default corpus
        ("meta:23:1,2,3,4,6,8,9,12,13,16,18", "2",
         "6e2f901c7530d1ff4bdd20d342249fc8d650dae91d3ea32ef05e78425acdfd26"),
        # f = 84 at both primes
        ("meta:29:1,7,16,20,23,24,25", "2",
         "74a269e4928ecb50943badafaade07b11eaafa20de522384049350aa67cdeaf2"),
        ("meta:29:1,7,16,20,23,24,25", "3",
         "48382c3aa942b0254bd1795d60404b13179fbe97ca43abc210126d5035c44807"),
        # f = 30 at the Mersenne prime 2^127 - 1
        ("meta:31:2", "170141183460469231731687303715884105727",
         "6c53ff9cebec47f3c76f4adc1defe2f69a7c29107ae9d8d01fe93378187e564e"),
        # f = 210
        ("cyclic:211", "7",
         "09b61804ff72f3a83114aad3f2c0ae1d8120dc8ec39ff2b908f5232fe7f5cb07"),
    ],
)
def test_block_reports_are_unchanged(tmp_path, spec, p, digest):
    # a byte-identity gate at large residue degree f and large p; every
    # accepted prime must finish, so each report has 30 s
    out = tmp_path / "blocks.json"
    proc = _run_cli_process(["blocks", "--group", spec, "--p", p, "--out", str(out)], timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_blocks_report(capsys):
    code, out, _ = run(["blocks", "--group", "sym:4", "--p", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["p"] == 2
    assert len(obj["blocks"]) == 1
    assert obj["blocks"][0]["defect"] == 3


def test_prime_argument_validated(capsys):
    # usage errors exit 1 with an error: line; 2 is reserved for findings
    for argv in (
        ["blocks", "--group", "sym:4", "--p", "4"],
        ["blocks", "--group", "sym:3", "--p", "0"],
        ["blocks", "--group", "sym:3", "--p", "9"],
        ["blocks", "--group", "sym:3", "--p", "x"],
        ["blocks", "--p", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: "), argv


@pytest.mark.parametrize(
    "value", ["2.0", "abc", "7" * 5000], ids=["float", "letters", "5000-digits"]
)
def test_non_integer_prime_names_the_value(value, capsys):
    # int() refuses a string over 4,300 digits with the same ValueError
    with pytest.raises(SystemExit) as exc:
        main(["blocks", "--group", "sym:3", "--p", value])
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == f"error: argument --p: {value!r} is not an integer"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-a", "--help"])
    assert exc.value.code == 0


def test_verify_a_single_group_exit_zero(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["verify-a", "--p", "2", "--group", "alt:5", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["total_violations"] == 0
    assert obj["groups"][0]["height_zero_rows"] == 5


def test_verify_a_odd_prime(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify-a", "--p", "3", "--group", "sym:3", "--out", str(out)])
    assert code == 0


def test_verify_a_custom_corpus(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# comment\nsym:3\ncyclic:4\n\n")
    out = tmp_path / "r.json"
    code = main(["verify-a", "--p", "2", "--corpus", str(corpus), "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert [g["group"] for g in obj["groups"]] == ["sym:3", "cyclic:4"]


def test_verify_a_refuses_an_empty_corpus(tmp_path, capsys):
    # "checked 0 groups" with exit 0 would read as a verified theorem at p = 2
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# only a comment\n\n   \n")
    out = tmp_path / "r.json"
    code, _, err = run(["verify-a", "--p", "2", "--corpus", str(corpus), "--out", str(out)], capsys)
    assert code == 1
    assert err == f"error: corpus {corpus} names no group\n"
    assert not out.exists()


def test_verify_a_empty_group_is_not_the_default_corpus(tmp_path, capsys):
    # an empty --group names no group; it is not read as "no --group"
    out = tmp_path / "r.json"
    code, _, err = run(["verify-a", "--p", "2", "--group", "", "--out", str(out)], capsys)
    assert code == 1
    assert err == "error: unrecognized group spec ''\n"
    assert not out.exists()


def test_realize_certificate(capsys):
    code, out, _ = run(["realize", "--field", "quad:3", "--p", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["valid"] and obj["n"] == 12 and obj["degree"] == 2


@pytest.mark.parametrize(
    "field,digest",
    [
        ("cyclo:1", "3ed4c0238e11ac5be10b67ef7253ebf6e54c932527f934e18462a7645c5f5952"),
        ("quad:-5", "a717d3bcd14a5f2dacfb368fb0da2993dd5472aa2d5eda0ee824a801588bf53c"),
        ("fix:40:3", "0d28edffe1dd4cced98da8e828757090fc6d1fc315eeecb9765f3eb7c3a02a4a"),
        ("cyclo:12", "8b364becc81202f360f3b488d2c2db9c8626337dc99548aaaeb01d67a2cb8cd0"),
    ],
)
def test_realize_cross_check_bytes_are_unchanged(tmp_path, field, digest):
    out = tmp_path / "cert.json"
    argv = ["realize", "--field", field, "--p", "2", "--cross-check", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_realize_invalid_field_errors(capsys):
    for field in ("quad:2", "fix:0:1"):
        code, _, err = run(["realize", "--field", field, "--p", "2"], capsys)
        assert code == 1
        assert "error:" in err


@pytest.mark.parametrize("spec", ["meta:12:5,,7", "meta:12:5,", "meta:12:,5", "perm:(1,,2)", "perm:(1,2,)"])
def test_group_spec_refuses_an_empty_generator_token(capsys, spec):
    # a non-empty list is parsed token by token, never with one dropped
    code, out, err = run(["table", "--group", spec], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "empty entry" in err


@pytest.mark.parametrize("spec", ["fix:12:5,,7", "fix:12:5,", "fix:12:,5"])
def test_field_spec_refuses_an_empty_generator_token(capsys, spec):
    code, out, err = run(["realize", "--field", spec, "--p", "2"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "empty entry" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-a", "--group", "cyclic:1_0", "--p", "2"],
        ["table", "--group", "sym:+3"],
        ["table", "--group", "sym:\u0663"],
        ["table", "--group", "meta:1_2:5"],
        ["table", "--group", "perm:(1,2_0)"],
        ["realize", "--field", "cyclo:1_2", "--p", "2"],
        ["blocks", "--group", "sym:3", "--p", "\u0662"],
        ["corollary-c", "--max", "1_0"],
    ],
)
def test_integers_of_specs_and_options_are_ascii(capsys, argv):
    # int() alone also reads a "+", "_" separators, spaces and non-ASCII digits
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses --p and --max
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out) == (1, "")
    assert out.err.splitlines()[-1].startswith("error: ")


def test_spaces_inside_permutation_cycles_stay_allowed(capsys):
    code, out, _ = run(["table", "--group", "perm:( 1 , 2 )(3 ,4); (1, 3)"], capsys)
    assert code == 0
    assert json.loads(out)["order"] == 8


def test_specs_with_no_generators_keep_their_meaning(capsys):
    # meta:N: is C_N, and fix:N: fixes nothing, so it is Q(zeta_N)
    code, out, _ = run(["table", "--group", "meta:12:"], capsys)
    assert code == 0
    assert out == run(["table", "--group", "cyclic:12"], capsys)[1].replace('"cyclic:12"', '"meta:12:"')
    code, out, _ = run(["realize", "--field", "fix:12:", "--p", "2"], capsys)
    assert code == 0
    assert out == run(["realize", "--field", "cyclo:12", "--p", "2"], capsys)[1].replace('"cyclo:12"', '"fix:12:"')


def _run_cli_process(argv, timeout, preexec_fn=None):
    """The CLI in a child process, killed (and the test failed) past timeout;
    preexec_fn, if given, runs in the child before the interpreter starts."""
    env = dict(os.environ, PYTHONPATH=str(Path(heightzero.__file__).resolve().parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "heightzero.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=preexec_fn,
    )


# the first three moduli are above the cap; fix:4001:9 is inside it, but
# |<9> mod 4001| = 2000, so its realizer C_4001 x| H is above the order cap,
# and so is the realizer C_19997 x| H of Q(sqrt 19997), of conductor 19997
@pytest.mark.parametrize(
    "field",
    [
        "cyclo:1000000000000",
        "fix:1000000007:2",
        "quad:1000000000000000003",
        "fix:4001:9",
        "quad:19997",
    ],
)
def test_realize_fails_fast_above_the_cap(field):
    proc = _run_cli_process(["realize", "--field", field, "--p", "2"], timeout=10)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "above the cap 20000" in proc.stderr


def test_blocks_at_a_large_prime(capsys):
    # p = 4294967291 is 5 mod 6, so it stays prime in Z[zeta_3], of residue degree 2
    code, out, _ = run(["blocks", "--group", "sym:3", "--p", "4294967291"], capsys)
    assert code == 0
    blocks = json.loads(out)["blocks"]
    assert [len(b["rows"]) for b in blocks] == [1, 1, 1]
    assert all(b["defect"] == 0 for b in blocks)


@pytest.mark.parametrize("spec", ["sym:7", "alt:7", "sl2:7"])
def test_blocks_on_groups_past_the_old_limits(spec, capsys):
    from heightzero.chartab import dixon_table
    from heightzero.groups import conjugacy_classes
    from heightzero.reports import parse_group_spec

    code, out, _ = run(["blocks", "--group", spec, "--p", "2"], capsys)
    assert code == 0
    assert json.loads(out)["group"] == spec
    group = parse_group_spec(spec)
    dixon_table(group, conjugacy_classes(group)).check_orthogonality()


@pytest.mark.parametrize(
    "spec",
    ["sl2:4", "sl2:1", "sym:8", "meta:1000000007:2", "perm:(1,2)(1,2)", "perm:(1,20001)"],
)
def test_blocks_rejects_bad_or_oversized_groups(spec, capsys):
    code, _, err = run(["blocks", "--group", spec, "--p", "2"], capsys)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("spec", ["quaternion:32768", "sym:8", "alt:9", "sl2:29"])
def test_cap_errors_name_the_spec(spec, capsys):
    code, _, err = run(["table", "--group", spec], capsys)
    assert code == 1
    assert err == f"error: bad group spec {spec!r}: {spec} has order above the cap 20000\n"


def test_corollary_c_csv(capsys):
    code, out, _ = run(["corollary-c", "--max", "6"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,in_F2,expected"
    assert "3,true,true" in lines
    assert "-2,false,false" in lines


def test_corollary_c_large_max_is_fast():
    proc = _run_cli_process(["corollary-c", "--max", "1000"], timeout=30)
    assert proc.returncode == 0
    header, *rows = proc.stdout.strip().splitlines()
    assert header == "d,in_F2,expected"
    assert len(rows) == 1215  # the squarefree d with |d| <= 1000, other than 1
    assert all(row.split(",")[1] == row.split(",")[2] for row in rows)


def test_corollary_c_max_above_the_cap_fails_fast():
    proc = _run_cli_process(["corollary-c", "--max", "20001"], timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "above the cap 20000" in proc.stderr


def test_sigma_report(capsys):
    code, out, _ = run(["sigma", "--group", "semidihedral:16"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["violations"] == []
    assert any(r["height"] == 1 and r["sigma1_fixed"] for r in obj["rows"])


def test_ingest_roundtrip(tmp_path, capsys):
    table_path = tmp_path / "t.json"
    assert main(["table", "--group", "alt:5", "--out", str(table_path)]) == 0
    code, out, _ = run(
        ["ingest", "--file", str(table_path), "--p", "2", "--check", "a"], capsys
    )
    assert code == 0
    assert json.loads(out)["violations"] == []
    code, out, _ = run(
        ["ingest", "--file", str(table_path), "--p", "5", "--check", "blocks"], capsys
    )
    assert code == 0
    assert len(json.loads(out)["blocks"]) == 2
    code, out, _ = run(
        ["ingest", "--file", str(table_path), "--p", "2", "--check", "sigma"], capsys
    )
    assert code == 0


@pytest.mark.parametrize("p", ["3", "5"])
def test_ingest_sigma_refuses_an_odd_prime(tmp_path, capsys, p):
    # sigma_1 fixedness and 2-rationality are p = 2 facts; the refusal comes
    # before the file is read
    code, out, err = run(
        ["ingest", "--file", str(tmp_path / "absent.json"), "--p", p, "--check", "sigma"],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err == f"error: --check sigma is a p = 2 check, not p = {p}\n"


def test_ingest_rejects_corrupt_table(tmp_path, capsys):
    table_path = tmp_path / "t.json"
    assert main(["table", "--group", "sym:3", "--out", str(table_path)]) == 0
    obj = json.loads(table_path.read_text())
    obj["irr"][2][1]["terms"] = [[0, "9/1"]]
    table_path.write_text(json.dumps(obj))
    code, _, err = run(
        ["ingest", "--file", str(table_path), "--p", "2", "--check", "blocks"], capsys
    )
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "p,digest",
    [
        ("2", "4b28dafd81c6859c787fe0ea2832e6088392ea1ea52e3784900fd69f56a5d322"),
        ("3", "1c7d798dda61403043772f401c4abecc427fd114819b6c04d8e8d59e30d1b4cb"),
        ("5", "59d2aa34b7eb0b76671392c114225e37da1da2553c1970d7811b312ff8799b30"),
        ("7", "02228849c3f21d30343d6c32a90e8b241f7a17659291adb928189a0da2d27b12"),
    ],
)
def test_verify_a_corpus_bytes_are_unchanged(tmp_path, capsys, p, digest):
    # a byte-identity gate on the north-star output, the full default-corpus
    # sweep, written to a file and to stdout
    out = tmp_path / "sweep.json"
    assert main(["verify-a", "--p", p, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    capsys.readouterr()
    assert main(["verify-a", "--p", p, "--out", "-"]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["blocks", "--group", "sl2:3", "--p", "2", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    for path in (a, b):
        assert main(["realize", "--field", "quad:-5", "--p", "2", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _generated_corpus():
    """The rule the packaged corpus file was written from; it pins the file."""
    from heightzero.fields import AbelianField, in_class_Fp
    from oracles import all_subgroups

    specs = [f"cyclic:{n}" for n in range(1, 49)]
    specs += [f"dihedral:{m}" for m in range(4, 65, 2)]
    specs += [f"semidihedral:{1 << k}" for k in range(4, 7)]
    specs += [f"quaternion:{1 << k}" for k in range(3, 7)]
    specs += [f"sym:{n}" for n in range(3, 6)]
    specs += [f"alt:{n}" for n in (4, 5)]
    specs += ["sl2:3", "sl2:5"]
    # every conductor-normalized fixed field with conductor <= 40 passing the
    # p=2 conductor-class test, realized as its semidirect-product group
    seen = set()
    for n in range(2, 41):
        for sub in all_subgroups(n):
            field = AbelianField(n, sub)
            if field.conductor != n or not in_class_Fp(field, 2):
                continue
            spec = f"meta:{n}:{','.join(map(str, sub))}"
            if spec not in seen:
                seen.add(spec)
                specs.append(spec)
    return specs


def test_default_corpus_file_matches_generator():
    from heightzero.cli import _corpus_specs
    from heightzero.reports import default_corpus

    assert _corpus_specs("default") == default_corpus() == _generated_corpus()


# ---------------------------------------------------------------------------
# ingest validation: malformed input is an `error:` line and exit 1


def _table_json(tmp_path, spec):
    path = tmp_path / "t.json"
    assert main(["table", "--group", spec, "--out", str(path)]) == 0
    return json.loads(path.read_text())


_DELETE = object()


def _edit(*path, value=_DELETE):
    """A mutation of the table JSON: set (or delete) the entry at path."""

    def mutate(obj):
        *parents, last = path
        for key in parents:
            obj = obj[key]
        if value is _DELETE:
            del obj[last]
        else:
            obj[last] = value

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        _edit("exponent"),
        _edit("order"),
        _edit("classes"),
        _edit("irr"),
        _edit("classes", 1, "size"),
        _edit("classes", 1, "element_order"),
        _edit("classes", 1, "powermap"),
        _edit("exponent", value=0),
        _edit("exponent", value=-6),
        _edit("exponent", value="6"),
        _edit("order", value=6.0),
        _edit("classes", 1, "size", value=True),
        _edit("classes", 1, "element_order", value="2"),
        _edit("classes", 1, "powermap", value=[0, 1, 0, 1, 0, 1]),
        _edit("classes", value=3),
    ],
    ids=[
        "missing-exponent",
        "missing-order",
        "missing-classes",
        "missing-irr",
        "missing-size",
        "missing-element_order",
        "missing-powermap",
        "exponent-zero",
        "exponent-negative",
        "exponent-string",
        "order-float",
        "size-bool",
        "element_order-string",
        "powermap-list",
        "classes-not-a-list",
    ],
)
def test_ingest_rejects_malformed_json(tmp_path, capsys, mutate):
    obj = _table_json(tmp_path, "sym:3")
    mutate(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(["ingest", "--file", str(path), "--p", "2", "--check", "a"], capsys)
    assert code == 1
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("open_,close", [("[", "]"), ('{"irr": ', "}")], ids=["array", "object"])
def test_ingest_rejects_deeply_nested_json(tmp_path, open_, close):
    # json.load recurses once per level and hits the recursion limit well
    # below 5,000 levels
    path = tmp_path / "deep.json"
    path.write_text(open_ * 5000 + "0" + close * 5000)
    proc = _run_cli_process(["ingest", "--file", str(path), "--p", "2", "--check", "a"], timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_ingest_rejects_corrupt_power_map(tmp_path, capsys):
    # c^2 for a generator c of C3 lies in the other faithful class; read
    # through this map both faithful rows would look rational
    obj = _table_json(tmp_path, "cyclic:3")
    obj["classes"][1]["powermap"]["2"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(["ingest", "--file", str(path), "--p", "2", "--check", "a"], capsys)
    assert code == 1
    assert err.startswith("error: ") and "power map" in err


def test_ingest_sizes_power_maps_before_reading_them(tmp_path):
    # one 1-entry power map under a declared exponent of 10^12: the keys
    # str(a), a < e, used to be built before any length check, and the child
    # died with a MemoryError traceback; the input runs only in a child
    # process capped at 1 GiB of address space
    obj = {
        "name": "big",
        "order": 1,
        "exponent": 10**12,
        "classes": [{"size": 1, "element_order": 1, "powermap": {"0": 0}}],
        "irr": [[{"n": 1, "terms": [[0, "1/1"]]}]],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    gib = 1 << 30
    proc = _run_cli_process(
        ["ingest", "--file", str(path), "--p", "2", "--check", "a"],
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (gib, gib)),
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
    assert proc.stderr == "error: power map has 1 entries, expected exponent 1000000000000\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("check,p", [("a", "2"), ("sigma", "2"), ("blocks", "3")])
def test_ingest_rejects_a_negated_row(tmp_path, capsys, check, p):
    # -chi passes the power-map checks and both orthogonality relations, and
    # its degree -2 used to reach the blocks layer
    obj = _table_json(tmp_path, "sym:3")
    for value in obj["irr"][2]:
        for term in value["terms"]:
            neg = -Fraction(term[1])
            term[1] = f"{neg.numerator}/{neg.denominator}"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(["ingest", "--file", str(path), "--p", p, "--check", check], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "row 2 has degree -2" in err


def test_ingest_requires_the_identity_class_first(tmp_path, capsys):
    # a genuine S3 table with its classes listed in the order 2, 0, 1 (power
    # maps and rows relabelled with them) used to fail as "row 2 has degree -1"
    obj = _table_json(tmp_path, "sym:3")
    order = [2, 0, 1]
    new_index = {old: new for new, old in enumerate(order)}
    classes = [obj["classes"][old] for old in order]
    for cls in classes:
        cls["powermap"] = {a: new_index[c] for a, c in cls["powermap"].items()}
    obj["classes"] = classes
    obj["irr"] = [[row[old] for old in order] for row in obj["irr"]]
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(["ingest", "--file", str(path), "--p", "2", "--check", "a"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: the class of element order 1 must come first, not at index 1\n"


def test_ingest_refuses_a_power_map_that_changes_class_sizes(tmp_path, capsys):
    # A4 with its two classes of 3-cycles, swapped by the 5th power, given
    # sizes 5 and 3: the sizes still sum to 12 and every power-map and value
    # check passes, but sigma_5 would no longer permute the terms of the
    # orthogonality sums, so their single evaluation would not be exact
    obj = _table_json(tmp_path, "alt:4")
    assert [c["size"] for c in obj["classes"]] == [1, 3, 4, 4]
    assert [c["powermap"]["5"] for c in obj["classes"]] == [0, 1, 3, 2]
    obj["classes"][2]["size"], obj["classes"][3]["size"] = 5, 3
    path = tmp_path / "sizes.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(["ingest", "--file", str(path), "--p", "2", "--check", "a"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: power map under power 5 sends class 2 of size 5 to class 3 of size 3\n"


_FUZZ_GROUPS = ("sym:3", "dihedral:8", "quaternion:8")
_FUZZ_CHECKS = (("a", "2"), ("sigma", "2"), ("blocks", "3"))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Per group: the table JSON and, per check, the unmutated ingest output."""
    root = tmp_path_factory.mktemp("fuzz")
    base = {}
    for spec in _FUZZ_GROUPS:
        path = root / f"{spec.replace(':', '_')}.json"
        assert main(["table", "--group", spec, "--out", str(path)]) == 0
        outputs = {}
        for check, p in _FUZZ_CHECKS:
            out = root / "base.json"
            code = main(["ingest", "--file", str(path), "--p", p, "--check", check,
                         "--out", str(out)])
            outputs[check] = (code, out.read_bytes())
        base[spec] = (json.loads(path.read_text()), outputs)
    return root, base


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ingest_power_map_mutation_is_rejected_or_harmless(fuzz_dir, data):
    root, base = fuzz_dir
    spec = data.draw(st.sampled_from(_FUZZ_GROUPS))
    check, p = data.draw(st.sampled_from(_FUZZ_CHECKS))
    obj, outputs = base[spec]
    obj = json.loads(json.dumps(obj))
    k, e = len(obj["classes"]), obj["exponent"]
    j = data.draw(st.integers(0, k - 1))
    a = data.draw(st.integers(0, e - 1))
    obj["classes"][j]["powermap"][str(a)] = data.draw(st.integers(-1, k))
    path, out = root / "mutated.json", root / "out.json"
    path.write_text(json.dumps(obj))
    out.unlink(missing_ok=True)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["ingest", "--file", str(path), "--p", p, "--check", check,
                     "--out", str(out)])
    if code == 1 and err.getvalue().startswith("error: "):
        return
    assert (code, out.read_bytes()) == outputs[check]


# ---------------------------------------------------------------------------
# verify-a --timings


_META_23 = "meta:23:1,2,3,4,6,8,9,12,13,16,18"
_META_29 = "meta:29:1,7,16,20,23,24,25"


def _residue_degree(e, p):
    """The least f >= 1 with p^f = 1 mod e', e' the p'-part of e, by trying
    each f in turn."""
    eprime = e // p ** nu_p(e, p)
    f = 1
    while pow(p, f, eprime) != 1 % eprime:
        f += 1
    return f


def test_verify_a_timings_stay_out_of_the_result(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("sym:3\nmeta:12:11\n")
    plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
    args = ["verify-a", "--p", "2", "--corpus", str(corpus)]
    assert main(args + ["--out", str(plain)]) == 0
    capsys.readouterr()
    assert main(args + ["--out", str(timed), "--timings"]) == 0
    err = capsys.readouterr().err
    assert timed.read_bytes() == plain.read_bytes()
    lines = [json.loads(ln) for ln in err.splitlines() if ln.startswith("{")]
    assert [ln["group"] for ln in lines] == ["sym:3", "meta:12:11"]
    keys = {
        "group", "order", "height_zero_rows", "seconds", "route", "q", "f", "values", "galois_orbits"
    }
    for ln, order in zip(lines, (6, 24)):
        assert set(ln) == keys
        assert ln["order"] == order and ln["height_zero_rows"] > 0 and ln["seconds"] >= 0
    # S3: values 1, -1, 2, 0; exponent 6 and 12 both have 2'-part 3, and 2
    # has order 2 mod 3
    assert [(ln["route"], ln["f"]) for ln in lines] == [("dixon", 2), ("direct", 2)]
    # the least prime q = 1 mod 6 above 2 (isqrt(6) + 1) = 6; none on the direct route
    assert [ln["q"] for ln in lines] == [7, None]
    assert lines[0]["values"] == 4
    # S3's three rows are rational, each its own orbit; meta:12:11 has seven
    # rational rows and two rows over Q(sqrt 3) that the Galois group swaps
    assert [ln["galois_orbits"] for ln in lines] == [3, 8]
    # large f: e' = 253 = 11 * 23 at p = 2, 5 and 7, and e' = 203 = 7 * 29 at p = 3
    for spec, p, f in [(_META_23, 2, 110), (_META_23, 5, 110), (_META_23, 7, 110), (_META_29, 3, 84)]:
        assert main(["verify-a", "--p", str(p), "--group", spec, "--out", str(plain), "--timings"]) == 0
        (line,) = [json.loads(ln) for ln in capsys.readouterr().err.splitlines() if ln.startswith("{")]
        exponent = build_table(spec).classes.exponent
        assert line["f"] == _residue_degree(exponent, p) == f, (spec, p)



# ---------------------------------------------------------------------------
# the JSON writer and the parser, against json.dumps and a fresh process


def _stdlib_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# containers placed at several positions of one output, as table_to_json
# places one dict per distinct value at every irr cell of that value
_SHARED = {"n": 4, "terms": [[1, "1/2"], [3, "-1/1"]]}
_SHARED_LIST = [1, [2, "x"], {"k": None}]
_HOLDS_EMPTY = {"a": {}, "b": [], "c": [{}, []]}
_HOLDS_FLOAT = {"x": 0.5}


_WRITER_CALLS = [
    ["table", "--group", "meta:12:11"],
    ["table", "--group", "dihedral:8"],
    ["table", "--group", "sym:4", "--method", "dixon"],
    ["table", "--group", "sl2:3", "--method", "dixon"],
    ["blocks", "--group", "sl2:5", "--p", "2"],
    ["verify-a", "--p", "3", "--group", "alt:5"],
    ["realize", "--field", "quad:-5", "--p", "2", "--cross-check"],
    ["sigma", "--group", "semidihedral:16"],
]


def test_writer_matches_json_dumps_on_every_caller(tmp_path, capsys, monkeypatch):
    dumped = []

    def recording_dump(obj, path):
        dumped.append(obj)
        _dump(obj, path)

    monkeypatch.setattr(cli, "_dump", recording_dump)
    table = tmp_path / "table.json"
    assert main(["table", "--group", "alt:5", "--out", str(table)]) == 0
    (obj,) = dumped
    assert table.read_bytes() == _stdlib_text(obj).encode()
    calls = _WRITER_CALLS + [
        ["ingest", "--file", str(table), "--p", p, "--check", check]
        for check, p in (("a", "2"), ("sigma", "2"), ("blocks", "3"))
    ]
    out = tmp_path / "out.json"
    for argv in calls:
        dumped.clear()
        capsys.readouterr()
        main(argv)
        (obj,) = dumped
        assert capsys.readouterr().out == _stdlib_text(obj), argv
        main(argv + ["--out", str(out)])
        assert out.read_bytes() == _stdlib_text(obj).encode(), argv


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[], {}, ()], "d": [{"e": []}]},
        [{}, [[]], ({},)],
        (1, (2, 3), [4, (5,)]),
        [True, 1, False, 0, None, -0],
        {"t": True, "one": 1, "f": False, "zero": 0, "none": None},
        [-1, -(2**63), 2**64, -(2**200) - 7, 10**40],
        ['a "quoted" word', "back\\slash \\n", "/", "", "\x00\x01\x1f\x7f", "\n\t\r\b\f"],
        ["héllo", "ζ_n ∈ 𝔽_q", "\u2028\u2029", "日本語", "\ud800"],
        {"\"": 1, "\\": 2, "ключ": 3, "": 4, "\x00": 5, "B": 6, "a": 7, "é": 8},
        {"rows": [{"field": {"fixer": [1, 5]}, "row": 0}, {"field": {"fixer": []}, "row": 1}]},
        "top level",
        -12,
        None,
        True,
        [_SHARED, 1, _SHARED, _SHARED],
        [_SHARED, [_SHARED, [_SHARED, _SHARED]], _SHARED, [_SHARED]],
        {"v": _SHARED, "w": [_SHARED, _SHARED], "x": {"y": _SHARED}},
        [_SHARED_LIST, _SHARED_LIST, (_SHARED_LIST,), _SHARED_LIST],
        [_HOLDS_EMPTY, [_HOLDS_EMPTY], _HOLDS_EMPTY, _HOLDS_EMPTY],
    ],
)
def test_writer_matches_json_dumps_on_edge_cases(tmp_path, capsys, obj):
    out = tmp_path / "out.json"
    _dump(obj, str(out))
    assert out.read_bytes() == _stdlib_text(obj).encode()
    _dump(obj, "-")
    assert capsys.readouterr().out == _stdlib_text(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"rows": [1, 0.5]},
        {"rows": {1, 2}},
        {"rows": [{1: "a"}]},
        2.0,
        {(1,): 0},
        [_SHARED, _HOLDS_FLOAT, _SHARED, _HOLDS_FLOAT],
    ],
    ids=["float", "set", "int-key", "top-level-float", "tuple-key", "float-in-shared-dict"],
)
def test_writer_rejects_other_types_before_the_output_opens(tmp_path, obj):
    out = tmp_path / "out.json"
    with pytest.raises(TypeError):
        _dump(obj, str(out))
    assert not out.exists()


def test_writer_hands_a_table_one_piece_per_cell(monkeypatch):
    # each distinct value is encoded once, and each later cell of it is one
    # piece; encoding every cell anew makes about eight times as many here
    pieces = []
    monkeypatch.setattr(cli, "_write", lambda chunks, path: pieces.extend(chunks))
    table = build_table("cyclic:60")
    obj = table_to_json(table)
    _dump(obj, "-")
    assert "".join(pieces) == _stdlib_text(obj)
    k, e = len(obj["classes"]), obj["exponent"]
    cells = sum(map(len, obj["irr"]))
    # per class, six pieces of its classes entry besides its power map and
    # two of its irr row; per distinct value, its separate first encoding:
    # two keys, two closings and four pieces per term; nine for the top level
    per_value = sum(4 + 4 * len(v.terms) for v in table.values)
    assert len(pieces) <= cells + k * e + 8 * k + per_value + 9


def test_one_parser_serves_a_sequence_of_calls(tmp_path, capsys):
    # each call in one process gives the exit code and output of a fresh one
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("sym:3\ncyclic:4\n")
    calls = [
        ["verify-a", "--p", "2", "--group", "alt:5"],
        ["verify-a", "--p", "2", "--group", "sym:3", "--bogus"],
        ["verify-a", "--p", "9", "--group", "sym:3"],
        ["verify-a", "--p", "2", "--corpus", str(corpus)],
        ["verify-a", "--p", "2", "--group", "sym:3", "--corpus", "/nonexistent/file.txt"],
        ["verify-a", "--p", "2", "--group", "sym:3", "--corpus", "default"],
        ["table", "--group", "sym:3"],
    ]
    assert build_parser() is build_parser()
    results = []
    for argv in calls:
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = _run_cli_process(argv, timeout=60)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        results.append((code, err.splitlines()[-1] if err else ""))
    assert [code for code, _ in results] == [0, 1, 1, 0, 1, 1, 0]
    assert build_parser().parse_args(calls[3]).group is None
    assert results[1][1] == "error: unrecognized arguments: --bogus"
    assert results[2][1] == "error: argument --p: 9 is not prime"
    assert results[4][1] == results[5][1] == (
        "error: argument --corpus: not allowed with argument --group"
    )
    assert json.loads(out)["order"] == 6
