"""Command-line interface.

Subcommands:
  table        emit a character table as JSON
  blocks       emit the p-block report for a group
  verify-a     sweep the height-zero field containment over a corpus
  realize      realize a field as the field of values of a height-zero row
  corollary-c  quadratic-field sweep as CSV
  sigma        sigma_1 fixedness vs 2-rationality report
  ingest       run checks on an externally supplied table JSON

Exit codes: 0 success / no violations, 2 recorded findings (odd-p sweep or
failed ingest check), 1 usage error, bad input, internal error or hard
constraint violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from json.encoder import encode_basestring_ascii

from .blocks import block_report_json
from .chartab import table_from_json, table_to_json
from .cyclotomic import isprime
from .reports import (
    _integer,
    build_table,
    corollary_c_sweep,
    default_corpus,
    parse_corpus,
    parse_field_spec,
    realize_field,
    sigma_check,
    sigma_violations,
    sweep_theorem_A,
    verify_theorem_A,
)


# the JSON text of each scalar type the CLI emits; exact types, so a float,
# a set or any other object raises TypeError in _scalar
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _scalar(obj):
    try:
        encode = _SCALARS[type(obj)]
    except KeyError:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable") from None
    return encode(obj)


def _chunks(obj, out, pad):
    """Append to the list out the text json.dumps(obj, indent=2,
    sort_keys=True) gives obj, for obj on a line indented by pad.  Each
    scalar is one chunk with the separator and key before it, encoded by one
    _SCALARS lookup; any other value goes to _chunks again, which recurses
    into a dict, list or tuple and raises TypeError in _scalar for the rest.
    A key that is not a str raises TypeError in encode_basestring_ascii."""
    kind = type(obj)
    if kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep, comma = "{\n" + inner, ",\n" + inner
        encoder = _SCALARS.get
        for key, value in sorted(obj.items()):
            encode = encoder(type(value))
            if encode is None:
                out.append(sep + encode_basestring_ascii(key) + ": ")
                _chunks(value, out, inner)
            else:
                out.append(sep + encode_basestring_ascii(key) + ": " + encode(value))
            sep = comma
        out.append("\n" + pad + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep, comma = "[\n" + inner, ",\n" + inner
        encoder = _SCALARS.get
        for value in obj:
            encode = encoder(type(value))
            if encode is None:
                out.append(sep)
                _chunks(value, out, inner)
            else:
                out.append(sep + encode(value))
            sep = comma
        out.append("\n" + pad + "]")
    else:
        out.append(_scalar(obj))


def _write(pieces, path):
    """Write the strings pieces to path, or to stdout for '-'.  They are all
    built before the output opens, so a failed build leaves no partial file."""
    if path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w") as fh:
            fh.writelines(pieces)


def _dump(obj, path):
    chunks = []
    _chunks(obj, chunks, "")
    chunks.append("\n")
    _write(chunks, path)


def _corpus_specs(arg):
    if arg in (None, "default"):
        return default_corpus()
    with open(arg) as fh:
        specs = parse_corpus(fh.read())
    if not specs:
        # a sweep of no group would report a theorem checked
        raise ValueError(f"corpus {arg} names no group")
    return specs


def cmd_table(args):
    table = build_table(args.group, method=args.method)
    _dump(table_to_json(table), args.out)
    return 0


def cmd_blocks(args):
    table = build_table(args.group)
    _dump(block_report_json(table, args.p), args.out)
    return 0


def _timings():
    """A sweep progress hook writing one JSON line per group to stderr, with
    the seconds since the previous group finished (or since the sweep began)
    and the sweep's run facts for that group."""
    last = time.perf_counter()

    def progress(entry, facts):
        nonlocal last
        now = time.perf_counter()
        line = {key: entry[key] for key in ("group", "order", "height_zero_rows")}
        line.update(facts)
        line["seconds"] = round(now - last, 6)
        print(json.dumps(line, sort_keys=True), file=sys.stderr, flush=True)
        last = now

    return progress


def cmd_verify_a(args):
    if args.group is not None:
        specs = [args.group]
    else:
        specs = _corpus_specs(args.corpus)
    summary = sweep_theorem_A(specs, args.p, progress=_timings() if args.timings else None)
    _dump(summary, args.out)
    nviol = summary["total_violations"]
    line = (
        f"checked {len(specs)} groups, "
        f"{summary['total_height_zero_rows']} height-zero rows, "
        f"{nviol} violations"
    )
    print(line, file=sys.stderr)
    if nviol == 0:
        return 0
    if args.p == 2:
        # the p=2 containment is a theorem; a violation means a bug here
        print("error: containment violated at p=2", file=sys.stderr)
        return 1
    return 2


def cmd_realize(args):
    field = parse_field_spec(args.field)
    cert = realize_field(field, args.p, cross_check_dixon=args.cross_check)
    _dump(cert.to_json(), args.out)
    return 0 if cert.valid else 1


def cmd_corollary_c(args):
    rows = corollary_c_sweep(args.max)
    lines = [f"{d},{str(got).lower()},{str(want).lower()}\n" for d, got, want in rows]
    _write(["d,in_F2,expected\n", *lines], args.out)
    mismatches = [d for d, got, want in rows if got != want]
    if mismatches:
        print(f"error: classification mismatch at d={mismatches}", file=sys.stderr)
        return 1
    return 0


def _sigma_record(table, **fields):
    """The sigma report of table, fields added, with its violating rows."""
    rows = sigma_check(table)
    return {**fields, "rows": rows, "violations": sigma_violations(rows)}


def cmd_sigma(args):
    record = _sigma_record(build_table(args.group), group=args.group)
    _dump(record, args.out)
    return 0 if not record["violations"] else 1


def cmd_ingest(args):
    if args.check == "sigma" and args.p != 2:
        # sigma_1 fixedness and 2-rationality are facts at p = 2 only
        raise ValueError(f"--check sigma is a p = 2 check, not p = {args.p}")
    with open(args.file) as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError(f"{args.file}: JSON nested too deeply") from None
    table = table_from_json(obj)
    if args.check == "a":
        reports, violations = verify_theorem_A(table, args.p)
        _dump(
            {
                "p": args.p,
                "height_zero_rows": len(reports),
                "violations": violations,
                "reports": [r.to_json() for r in reports],
            },
            args.out,
        )
        return 0 if not violations else 2
    if args.check == "sigma":
        record = _sigma_record(table)
        _dump(record, args.out)
        return 0 if not record["violations"] else 2
    # argparse choices leave "blocks" as the only other check
    _dump(block_report_json(table, args.p), args.out)
    return 0


def _int_arg(value):
    try:
        return _integer(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from None


def _prime(value):
    p = _int_arg(value)
    if not isprime(p):
        raise argparse.ArgumentTypeError(f"{p} is not prime")
    return p


class _Parser(argparse.ArgumentParser):
    """Usage errors (a bad or missing argument) exit 1 with an error: line,
    like every other bad input; exit code 2 means recorded findings."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


@functools.lru_cache(maxsize=None)
def build_parser():
    """The parser, built once per process: parse_args returns a fresh
    Namespace on each call, so nothing carries over between calls."""
    ap = _Parser(
        prog="heightzero",
        description="Exact workbench for fields of values, blocks, and "
        "heights of irreducible characters of finite groups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit a character table as JSON")
    p_table.add_argument("--group", required=True)
    p_table.add_argument("--method", choices=["auto", "dixon", "direct"], default="auto")
    p_table.add_argument("--out", default="-")
    p_table.set_defaults(func=cmd_table)

    p_blocks = sub.add_parser("blocks", help="p-block report for a group")
    p_blocks.add_argument("--group", required=True)
    p_blocks.add_argument("--p", type=_prime, required=True)
    p_blocks.add_argument("--out", default="-")
    p_blocks.set_defaults(func=cmd_blocks)

    p_va = sub.add_parser("verify-a", help="height-zero containment sweep")
    p_va.add_argument("--p", type=_prime, required=True)
    # None, not "default": argparse counts an option as given only when its
    # value is not its default object, and '--corpus default' may be that object
    source = p_va.add_mutually_exclusive_group()
    source.add_argument("--corpus", default=None)
    source.add_argument("--group", default=None)
    p_va.add_argument("--out", default="-")
    p_va.add_argument(
        "--timings",
        action="store_true",
        help="write one JSON line of per-group timing to stderr",
    )
    p_va.set_defaults(func=cmd_verify_a)

    p_re = sub.add_parser("realize", help="realize a field via a height-zero row")
    p_re.add_argument("--field", required=True)
    p_re.add_argument("--p", type=_prime, required=True)
    p_re.add_argument("--cross-check", action="store_true")
    p_re.add_argument("--out", default="-")
    p_re.set_defaults(func=cmd_realize)

    p_cc = sub.add_parser("corollary-c", help="quadratic-field sweep (CSV)")
    p_cc.add_argument("--max", type=_int_arg, required=True)
    p_cc.add_argument("--out", default="-")
    p_cc.set_defaults(func=cmd_corollary_c)

    p_sig = sub.add_parser("sigma", help="sigma_1 vs 2-rationality report")
    p_sig.add_argument("--group", required=True)
    p_sig.add_argument("--out", default="-")
    p_sig.set_defaults(func=cmd_sigma)

    p_in = sub.add_parser("ingest", help="check an external table JSON")
    p_in.add_argument("--file", required=True)
    p_in.add_argument("--p", type=_prime, required=True)
    p_in.add_argument("--check", choices=["a", "sigma", "blocks"], required=True)
    p_in.add_argument("--out", default="-")
    p_in.set_defaults(func=cmd_ingest)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
