"""Command-line front end.

Subcommands:
    dims    dimension table (a_n, b_n, w_n, c_n, running sum) for an expression
    series  coefficients of the filtered-algebra Hilbert series, or its closed form
    basis   restricted Hall basis of one graded piece for the free group
    verify  run the cross-route verification suites, as listed in SUITES

Expression grammar: free(d), cyclic(p), demushkin(d), superpyth(d), zp(d),
infix '*' for free products, infix 'x' for direct products (both
n-ary). 'x' binds tighter than '*', so "a * b x c" means "a * (b x c)";
parenthesize to override. Whitespace is ignored.

Exit codes: 0 success, 1 verification failure, 2 parse error,
3 validation error, 4 integrality failure, 5 internal error (any exception
that is not one of the program's own typed errors, reported in one line
with no traceback). A reader that closes stdout early ends the output
quietly and leaves the exit code as it was.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from itertools import accumulate

# Each command imports the program modules it runs, when it runs, so one
# launch loads only what its command needs; numpy loads with the finite
# suite alone.

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INTEGRALITY = 4
EXIT_INTERNAL = 5

# The verify suites in the order `all` runs them: name -> (--suite help,
# runner). A runner is handed the verify module and the parsed options and
# looks its check function up when it runs, so no other command loads verify.
SUITES = {
    "roundtrip": ("product identity",
                  lambda verify, a: verify.roundtrip_checks(a.prime, a.max_n)),
    "closedforms": ("closed formulas",
                    lambda verify, a: verify.closedform_checks(a.prime, a.max_n)),
    "finite": ("matrix groups up to order 32768, group-algebra checks up to order 1024",
               lambda verify, a: verify.finite_checks(a.include_slow)),
}

_GRAMMAR_HELP = (
    "group expression: free(d) | cyclic(p) | demushkin(d) | superpyth(d) | "
    "zp(d) | e * e (free product) | e x e (direct product, binds tighter) | (e)"
)


def _table_lines(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> list[str]:
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in (headers, *rows)]


def _csv_lines(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> list[str]:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue().splitlines()


# Each cmd_* is one subcommand's runner (named in build_parser, called by main):
# it returns the stdout lines and exit code, and builds the JSON, CSV and table itself.


def cmd_dims(args: argparse.Namespace) -> tuple[list[str], int]:
    from .dimensions import dims_table
    from .groupspec import parse_group_spec, to_text

    spec = parse_group_spec(args.spec)
    table = dims_table(spec, args.prime, args.max_n)
    # sums[n] = c_1 + ... + c_n, for the json galois_exponents and the sum_c column
    sums = list(accumulate(table.c[1:], initial=0))
    if args.format == "json":
        payload = {
            "spec": to_text(spec),
            "p": args.prime,
            "N": args.max_n,
            "a": list(table.a),
            "b": [str(x) for x in table.b],
            "w": list(table.w),
            "c": list(table.c),
            "galois_exponents": sums,
        }
        return [json.dumps(payload, indent=2)], EXIT_OK
    headers = ("n", "a_n", "b_n", "w_n", "c_n", "sum_c")
    columns = (range(args.max_n + 1), table.a, table.b, table.w, table.c, sums)
    rows = [tuple(map(str, row)) for row in zip(*columns)][1:]
    if args.format == "csv":
        return _csv_lines(headers, rows), EXIT_OK
    return _table_lines(headers, rows), EXIT_OK


def cmd_series(args: argparse.Namespace) -> tuple[list[str], int]:
    from .groupspec import closed_form, hp_series, parse_group_spec, to_text
    from .series import check_order, format_poly

    spec = parse_group_spec(args.spec)

    def json_lines(**fields) -> list[str]:
        payload = {"spec": to_text(spec), "p": args.prime, **fields}
        return [json.dumps(payload, indent=2)]

    if args.closed_form:
        form = closed_form(spec, args.prime)
        check_order(args.max_n)
        if isinstance(form, str):
            text, shape = form, {"kind": "product", "text": form}
        else:
            num, den = format_poly(form.num), format_poly(form.den)
            text, shape = f"({num}) / ({den})", {"kind": "rational", "num": num, "den": den}
        if args.format != "json":
            # table and csv print the same single line
            return [text], EXIT_OK
        return json_lines(closed_form=shape), EXIT_OK
    coeffs = hp_series(spec, args.prime, args.max_n)
    if args.format == "json":
        return json_lines(N=args.max_n, a=coeffs), EXIT_OK
    if args.format == "csv":
        rows = [(str(n), str(a)) for n, a in enumerate(coeffs)]
        return _csv_lines(("n", "a_n"), rows), EXIT_OK
    return ["[" + ", ".join(str(a) for a in coeffs) + "]"], EXIT_OK


def cmd_basis(args: argparse.Namespace) -> tuple[list[str], int]:
    from .hall import basis_text_lines, zassenhaus_basis

    basis = zassenhaus_basis(args.rank, args.prime, args.degree)
    if args.format == "json":
        payload = {
            "rank": args.rank,
            "p": args.prime,
            "degree": args.degree,
            "count": len(basis),
            "elements": [el._asdict() for el in basis],
        }
        return [json.dumps(payload, indent=2)], EXIT_OK
    lines = basis_text_lines(basis, args.prime)
    if args.format == "csv":
        rows = [
            (str(i), line, str(el.p_exponent))
            for i, (line, el) in enumerate(zip(lines, basis), start=1)
        ]
        return _csv_lines(("index", "element", "p_exponent"), rows), EXIT_OK
    return lines + [f"count = {len(basis)}"], EXIT_OK


def cmd_verify(args: argparse.Namespace) -> tuple[list[str], int]:
    from . import verify
    from .groupspec import check_prime
    from .series import check_order

    # every suite refuses a bad --prime or --max-n, before any suite runs
    check_prime(args.prime)
    check_order(args.max_n)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    records = [(suite, res) for suite in suites for res in SUITES[suite][1](verify, args)]
    passed = sum(res.passed for _, res in records)
    code = EXIT_OK if passed == len(records) else EXIT_VERIFY
    if args.format == "json":
        payload = {
            "checks": [
                {"name": res.name, "suite": suite, "passed": res.passed, "detail": res.detail}
                for suite, res in records
            ],
            "summary": {"passed": passed, "total": len(records)},
        }
        return [json.dumps(payload, indent=2)], code
    if args.format == "csv":
        rows = [
            (res.name, suite, str(res.passed).lower(), res.detail)
            for suite, res in records
        ]
        return _csv_lines(("name", "suite", "passed", "detail"), rows), code
    lines = [
        f"PASS {res.name}" if res.passed else f"FAIL {res.name}: {res.detail}"
        for _, res in records
    ]
    lines.append(f"{passed}/{len(records)} checks passed")
    return lines, code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zass",
        description="Exact Zassenhaus filtration dimensions for pro-p group expressions.",
        epilog=_GRAMMAR_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, max_n: bool = True) -> None:
        p.add_argument("--prime", type=int, default=2, metavar="P",
                       help="working prime (default 2)")
        if max_n:
            p.add_argument("--max-n", type=int, default=16, metavar="N",
                           help="truncation degree (default 16)")
        p.add_argument("--format", choices=("table", "csv", "json"),
                       default="table", help="output format (default table)")

    p_dims = sub.add_parser("dims", help="dimension table for a group expression")
    p_dims.set_defaults(run=cmd_dims)
    p_dims.add_argument("spec", help=_GRAMMAR_HELP)
    common(p_dims)

    p_series = sub.add_parser("series", help="Hilbert series coefficients")
    p_series.set_defaults(run=cmd_series)
    p_series.add_argument("spec", help=_GRAMMAR_HELP)
    p_series.add_argument("--closed-form", action="store_true",
                          help="print the closed form instead of coefficients")
    common(p_series)

    p_basis = sub.add_parser("basis", help="Hall basis of one graded piece (free group)")
    p_basis.set_defaults(run=cmd_basis)
    p_basis.add_argument("rank", type=int, help="number of free generators")
    p_basis.add_argument("--degree", type=int, default=4, metavar="N",
                         help="graded piece to list (default 4)")
    common(p_basis, max_n=False)

    p_verify = sub.add_parser("verify", help="run cross-route verification suites")
    p_verify.set_defaults(run=cmd_verify)
    suite_help = ", ".join(f"{name} ({text})" for name, (text, _) in SUITES.items())
    p_verify.add_argument("--suite", choices=[*SUITES, "all"], default="all",
                          help=suite_help + ", or all (default)")
    p_verify.add_argument("--include-slow", action="store_true",
                          help="include the group-algebra check of the order-729 "
                               "unitriangular group U(4, 3) (about 2 s in all)")
    common(p_verify)
    return parser


def _report_error(exc: Exception) -> int:
    """Print one stderr line for a failed command and return its exit code.

    The program's typed errors are the ValueError subclasses it defines:
    parse errors exit 2, integrality errors 4 and the others, bad input or
    a limit, 3. Anything else is a fault of the program and exits 5.
    """
    # the typed errors load here, on the error path, so no command pays for
    # modules it does not run
    from .dimensions import NegativeDimension, NonIntegralW
    from .groupspec import ParseError
    from .series import NonIntegralLog

    if isinstance(exc, ParseError):
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if isinstance(exc, (NonIntegralW, NegativeDimension, NonIntegralLog)):
        print(f"integrality error: {exc}", file=sys.stderr)
        return EXIT_INTEGRALITY
    if isinstance(exc, ValueError) and type(exc).__module__.startswith(__package__ + "."):
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    detail = str(exc).replace("\n", " ")
    print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
    return EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    # coefficients are exact and may run past the default 4300 printable digits
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    # compute everything before printing so errors never leave partial output
    try:
        lines, code = args.run(args)
    except Exception as exc:
        return _report_error(exc)

    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `zass ... | head` does: stop
        # quietly, and point stdout at devnull so that the interpreter's own
        # flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
