"""Command-line front end: run verification suites and dump eta coefficients.

Reports contain only exact strings and integers (fractions in lowest terms,
valuations, EQUAL/UNEQUAL); no floating point appears anywhere.  The JSON
form re-serializes byte-identically after a round trip, and the CSV columns
are the keys of a JSON entry, in the same fixed order (harness.REPORT_KEYS),
for diff-friendly CI artifacts.  ``main`` lifts CPython's limit on the
digits of an int turned into a string, so a value of any size renders.

Exit codes: 0 all non-conjectural cases pass (or nothing applicable),
1 some non-conjectural case failed, 2 usage error (a --cases that names no
case is one), 3 I/O error, 4 a bug: an exception that is none of these, whose
traceback goes to stderr and which writes no report.  A case instance that
raised a domain error is a failed record; ``verify`` also prints its
exception type and message on stderr, one line per record.
Warnings go to stderr too: an --r beyond the supported exponents, exponent
caps that cut the requested run, a --format without --out, and a prime
range with nothing to run.

The eta-product expansion has one fixed ceiling, EXPANSION_CEILING =
MAX_PMAX = 100000, which covers a_p at every prime --pmax admits.  It is a
ceiling, not a size: a run expands once, to the largest p^r its cases need,
and a case that needs an index above the ceiling gets an error:BudgetError
record.  ``coeffs`` obeys the same ceiling: an --n above it is a usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .exact_core import is_prime
from .harness import CASE_ORDER, R_CAPS, REPORT_KEYS, VerificationRecord, report_entry, run_suite, select_cases
from .modular_form import EXPANSION_CEILING, coefficient_at, eta_product_expansion

DEFAULT_PMIN = 5
DEFAULT_PMAX = 97

# hard ceiling on the scanned prime range; keeps a typo like --pmax 1e9 from
# looking like a hang.  It is the eta expansion ceiling, so that every a_p a
# run reads at r = 1 lies within it.
MAX_PMAX = EXPANSION_CEILING


def render_json(records: list[VerificationRecord]) -> str:
    return json.dumps([report_entry(r) for r in records], indent=2) + "\n"


def render_csv(records: list[VerificationRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_KEYS)
    for rec in records:
        writer.writerow([str(v).lower() if isinstance(v, bool) else v for v in report_entry(rec).values()])
    return buf.getvalue()


def suite_exit_code(records: list[VerificationRecord]) -> int:
    """0 iff every non-conjectural record passes; a pure function of the list."""
    return 1 if any(not r.passed and not r.conjectural for r in records) else 0


def _print_summary(records: list[VerificationRecord]) -> None:
    by_case: dict[str, list[VerificationRecord]] = {}
    for rec in records:
        by_case.setdefault(rec.case, []).append(rec)
    for tag in CASE_ORDER:
        if tag not in by_case:
            continue
        recs = by_case[tag]
        good = sum(1 for r in recs if r.passed)
        errors = sum(1 for r in recs if str(r.achieved).startswith("error:"))
        failed = len(recs) - good - errors
        counts = "".join(f", {n} {kind}" for n, kind in ((failed, "fail"), (errors, "error")) if n)
        note = " (conjectural)" if all(r.conjectural for r in recs) else ""
        print(f"{tag:<18} {good}/{len(recs)} pass{counts}{note}")


def cmd_verify(args) -> int:
    explicit_range = args.pmin is not None and args.pmax is not None
    pmin = DEFAULT_PMIN if args.pmin is None else args.pmin
    pmax = DEFAULT_PMAX if args.pmax is None else args.pmax
    if explicit_range and pmin > pmax:
        print(f"error: --pmin {pmin} exceeds --pmax {pmax}", file=sys.stderr)
        return 2
    if args.r < 1:
        print("error: --r must be a positive integer", file=sys.stderr)
        return 2
    if pmax > MAX_PMAX:
        print(f"error: --pmax {pmax} is beyond the supported scale ({MAX_PMAX})", file=sys.stderr)
        return 2
    if args.cases.strip().lower() == "all":
        cases = None
    else:
        try:
            cases = select_cases(name for name in args.cases.split(",") if name.strip())
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        if not cases:
            print("error: --cases selects no case", file=sys.stderr)
            return 2

    if args.format is not None and not args.out:
        print(f"warning: --format {args.format} has no effect without --out", file=sys.stderr)
    supported_rs = sorted({r for caps in R_CAPS.values() for r in caps})
    if args.r > supported_rs[-1]:
        print(
            f"warning: --r {args.r} exceeds the largest supported exponent; "
            f"only r = {', '.join(map(str, supported_rs))} run",
            file=sys.stderr,
        )

    primes = [p for p in range(max(pmin, 2), pmax + 1) if is_prime(p)]
    cut = [
        f"{tag} r={r} p<={cap}"
        for tag in select_cases(cases)
        for r, cap in R_CAPS.get(tag, {}).items()
        if r <= args.r and cap is not None and primes and primes[-1] > cap
    ]
    if cut:
        print(f"warning: exponent caps skip the primes above them: {', '.join(cut)}", file=sys.stderr)
    # only the supported exponents up to --r, never a range as long as --r
    records = run_suite(primes, rs=[r for r in supported_rs if r <= args.r], cases=cases)
    for rec in records:
        if rec.error is not None:
            kind = rec.achieved.removeprefix("error:")
            print(f"error: {rec.case} p={rec.p} param={rec.param}: {kind}: {rec.error}", file=sys.stderr)
    if not records:
        print(f"warning: no applicable cases for primes in [{pmin}, {pmax}]", file=sys.stderr)
    else:
        _print_summary(records)

    if args.out:
        text = render_csv(records) if args.format == "csv" else render_json(records)
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 3
    return suite_exit_code(records)


def cmd_coeffs(args) -> int:
    if args.n < 1:
        print("error: --n must be >= 1", file=sys.stderr)
        return 2
    if args.n > EXPANSION_CEILING:
        print(f"error: --n {args.n} exceeds the eta expansion ceiling {EXPANSION_CEILING}", file=sys.stderr)
        return 2
    expansion = eta_product_expansion(args.n)
    lines = []
    for n in range(1, args.n + 1):
        if args.primes_only and not is_prime(n):
            continue
        lines.append(f"{n} {coefficient_at(expansion, n)}\n")
    text = "".join(lines)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write coefficients: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercong",
        description="Exact verification of supercongruence and identity cases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify",
        help="run verification cases and emit a report",
        epilog="case tags: " + ", ".join(CASE_ORDER),
    )
    verify.add_argument("--cases", default="all", help="comma-separated case tags, or 'all'")
    verify.add_argument("--pmin", type=int, default=None, help=f"smallest prime (default {DEFAULT_PMIN})")
    verify.add_argument("--pmax", type=int, default=None, help=f"largest prime (default {DEFAULT_PMAX})")
    verify.add_argument("--r", type=int, default=1, help="run exponents 1..r where applicable")
    verify.add_argument("--out", default=None, help="report file path")
    verify.add_argument("--format", choices=("json", "csv"), default=None, help="report format (default json)")
    verify.set_defaults(func=cmd_verify)

    coeffs = sub.add_parser("coeffs", help="dump eta-product q-expansion coefficients")
    coeffs.add_argument("--n", type=int, required=True, help="expansion bound")
    coeffs.add_argument("--primes-only", action="store_true", help="emit only prime indices")
    coeffs.add_argument("--out", default=None, help="output file path")
    coeffs.set_defaults(func=cmd_coeffs)
    return parser


def main(argv=None) -> int:
    # A report carries exact values as decimal strings, and one past CPython's
    # 4300-digit limit on int-to-str conversion (THMKEY(3) from p = 1949) must
    # still render.  Releases before 3.10.7 have no limit and no setter.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except Exception:
        # A bug, not a failed congruence (1): the commands turn usage, I/O
        # and domain errors into codes 2 and 3 and into records themselves.
        import traceback

        traceback.print_exc()
        return 4


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
