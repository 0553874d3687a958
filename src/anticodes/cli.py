"""Command-line interface.

Subcommands: construct, analyze, complement, wd-transform, swrg-verify,
catalog. Exit codes: 0 success, 1 verification mismatch, 2 usage error,
3 enumeration cap exceeded. Enumeration caps can be overridden with the
ANTICODES_ENUM_CAP and ANTICODES_MINIMAL_CAP environment variables, each
an integer >= 1; any other value exits 2.
``construct`` builds a family of ``catalog.FAMILIES`` exactly as a
manifest row with the same build would.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys

from . import catalog as cat
from . import codefile
from . import constructions as cons
from .gf import FieldError
from .linear import CapExceeded, CodeError, _cap
from .report import code_report
from .swrg import verify_swrg

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAP = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _render(data: dict, fmt: str) -> str:
    """Render a flat-ish report dict as json, csv, or an aligned table."""
    if fmt == "json":
        return json.dumps(data, indent=2, sort_keys=True)
    flat = _flatten(data)
    if fmt == "csv":
        import csv          # here, so that only --format csv loads it
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for key, value in flat:
            writer.writerow([key, value])
        return buf.getvalue().rstrip("\n")
    width = max(len(key) for key, _ in flat)
    return "\n".join(f"{key.ljust(width)}  {value}" for key, value in flat)


def _flatten(data, prefix=""):
    rows = []
    for key, value in data.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, prefix=f"{name}."))
        else:
            rows.append((name, value))
    return rows


def _write_code(code, out: str | None) -> int:
    """Save ``code`` to ``out`` and say so, or print it as JSON."""
    if out:
        codefile.save_code(code, out)
        print(f"wrote {out}", file=sys.stderr)
    else:
        doc = codefile.code_to_dict(code)
        codefile._write_json(doc, sys.stdout)
        print()
    return EXIT_OK


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_construct(args) -> int:
    params = {name: getattr(args, name) for name in cat.PARAMS
              if getattr(args, name) is not None}
    build = {"family": args.family, "params": params}
    if args.K is not None:
        build["complement_at"] = args.K
    code = cat.build_code(build)
    wd = code.weight_distribution()
    print(f"{code.label}: [{code.n},{code.k},{wd.min_weight}]_{code.field.q} "
          f"weights {wd.nonzero_weights()}", file=sys.stderr)
    return _write_code(code, args.out)


def cmd_analyze(args) -> int:
    code = codefile.load_code(args.file)
    _emit(_render(code_report(code), args.format), args.out)
    return EXIT_OK


def cmd_complement(args) -> int:
    code = codefile.load_code(args.file)
    comp = cons.complement(code, K=args.K if args.K is not None else code.k)
    return _write_code(comp, args.out)


def cmd_wd_transform(args) -> int:
    code = codefile.load_code(args.file)
    K = args.K if args.K is not None else code.k
    predicted = cons.transform_wd(code.weight_distribution(), K)
    data = {"q": predicted.q, "n": predicted.n, "k": predicted.k,
            "d": predicted.min_weight, "counts": predicted.to_dict()}
    if not code.distribution_verified:
        data["distribution_verified"] = False
    _emit(_render(data, args.format), args.out)
    return EXIT_OK


def cmd_swrg_verify(args) -> int:
    code = codefile.load_code(args.file)
    cert = verify_swrg(code, l=args.l)
    _emit(_render(cert, args.format), args.out)
    return EXIT_OK if cert["verdict"] == "is_l_swrg" else EXIT_MISMATCH


def cmd_catalog(args) -> int:
    results, summary = cat.verify_catalog(cat.load_manifest(args.manifest))
    if args.format == "json":
        _emit(json.dumps({"summary": summary, "results": results},
                         indent=2, sort_keys=True), args.out)
    else:
        width = max((len(r["id"]) for r in results), default=0)
        lines = []
        for r in results:
            line = f"{r['id'].ljust(width)}  {r['verdict']}"
            if r["mismatches"]:
                line += "  (" + "; ".join(r["mismatches"]) + ")"
            lines.append(line)
        if lines:
            lines.append("")
        lines.append(
            f"{summary['passed']}/{summary['total']} passed, "
            f"{summary['failed']} failed, "
            f"{summary['known_discrepancy']} known-discrepancy")
        _emit("\n".join(lines), args.out)
    return EXIT_OK if summary["failed"] == 0 else EXIT_MISMATCH


# ----------------------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    """The parser, built on the first call; it holds no per-call state."""
    parser = _Parser(prog="anticodes",
                     description="Projective linear codes and anticodes: "
                                 "construction, analysis, verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_file=False):
        if with_file:
            p.add_argument("file", help="JSON code file")
        p.add_argument("--format", choices=["json", "csv", "text"],
                       default="json")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("construct", help="build a code from a named family")
    p.add_argument("family", choices=list(cat.FAMILIES))
    for name in cat.PARAMS:
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--K", type=int,
                   help="take the complement in dimension K")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="full report for a code file")
    common(p, with_file=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("complement", help="complement of a code file")
    p.add_argument("file")
    p.add_argument("--K", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_complement)

    p = sub.add_parser("wd-transform",
                       help="complement distribution from the base "
                            "distribution alone")
    common(p, with_file=True)
    p.add_argument("--K", type=int)
    p.set_defaults(func=cmd_wd_transform)

    p = sub.add_parser("swrg-verify",
                       help="strong-walk-regularity certificate")
    common(p, with_file=True)
    p.add_argument("--l", type=int, default=3)
    p.set_defaults(func=cmd_swrg_verify)

    p = sub.add_parser("catalog", help="regression catalog operations")
    p.add_argument("action", choices=["verify"])
    p.add_argument("--manifest", default=None,
                   help="alternate manifest JSON (default: bundled)")
    p.add_argument("--jobs", type=int,
                   help="ignored: the rows run one after another")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _cap("ENUM_CAP"), _cap("MINIMAL_CAP")   # refuse a bad override first
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (CodeError, FieldError, cat.ManifestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
