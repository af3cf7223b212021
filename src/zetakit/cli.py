"""Command-line driver: scans, audits, expansion reports, tables.

Exit codes: 0 success; 2 usage or range error (a bad option, a
RangeError, a CacheFormatError, a missing cache, an audit whose cache
stops below --t-max short of the Backlund count); 1 a numerical finding
(a count mismatch, a suspect zero, a cached ordinate the fresh scan
contradicts) and every other ZetaKitError, including those where the
code gave up, such as NoConvergenceError and NonIntegerWindingError.
An exit code of their own is open (ROADMAP item 5).  All numeric output
is decimal strings; reruns with the same configuration and cache are
byte-identical regardless of worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from mpmath import mpf

from .errors import (
    CacheFormatError,
    RangeError,
    UnknownIndexError,
    ZetaKitError,
)
from .laurent import build_expansion, expansion_report
from .mobius import mertens_sublinear
from .precision import PrecisionContext, to_decimal
from .stieltjes import N_MAX, bound_check
from .zeros import (
    DIGITS_MAX,
    DIGITS_MIN,
    CountReport,
    audit_zeros,
    count_by_argument,
    density_report,
    read_cache,
    refine_zero,
    scan_with_count,
    write_cache,
)
from .zeta import HEIGHT_MAX, HEIGHT_MIN

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2

DEFAULT_CACHE = "zeta_zeros.cache"

RATIO_THRESHOLD_LOW = "0.65517241379310344827586206896551724138"  # 19/29
RATIO_THRESHOLD_HIGH = "0.84665"


# The options a subcommand may take: argparse settings, then the range
# check and message applied before any work (exit 2), in table order.  A
# value of None (``audit --digits`` omitted) is not checked.  --x >= 1 is
# mertens_sublinear's own check, and --x <= --k-max is cmd_mertens's.
_OPTIONS = {
    "--digits": ({"type": int, "default": 30, "help": f"decimal digits of working accuracy ({DIGITS_MIN}..{DIGITS_MAX})"},
                 lambda v: DIGITS_MIN <= v <= DIGITS_MAX, f"--digits must be in [{DIGITS_MIN}, {DIGITS_MAX}], got {{}}"),
    "--t-max": ({"type": float, "default": 100.0, "help": f"scan/audit height ({HEIGHT_MIN}..{HEIGHT_MAX})"},
                lambda v: HEIGHT_MIN <= v <= HEIGHT_MAX, f"--t-max must be in [{HEIGHT_MIN}, {HEIGHT_MAX}], got {{}}"),
    "--k-max": ({"type": int, "default": 10**6, "help": "largest Mobius sum checkpoint, read up to 10^6 (laurent); largest accepted --x (mertens)"},
                lambda v: 1 <= v <= 10**8, "--k-max must be in [1, 10^8], got {}"),
    "--format": ({"choices": ("csv", "json"), "default": "csv"}, None, None),
    "--cache": ({"default": None, "help": "zero cache path (env ZETA_CACHE as fallback)"}, None, None),
    "--workers": ({"type": int, "default": 1, "help": "parallel worker processes"},
                  lambda v: v >= 1, "--workers must be >= 1, got {}"),
    "--index": ({"type": int, "required": True, "help": "1-based zero index in the cache"}, None, None),
    "--terms": ({"type": int, "default": 8, "help": "number of Taylor coefficients c_n (0..12)"},
                lambda v: 0 <= v <= 12, "--terms must be in [0, 12], got {}"),
    "--n-max": ({"type": int, "default": N_MAX},
                lambda v: 0 <= v <= N_MAX, f"--n-max must be in [0, {N_MAX}], got {{}}"),
    "--x": ({"type": int, "required": True}, None, None),
}


def _resolve_cache(args: argparse.Namespace) -> str:
    return args.cache or os.environ.get("ZETA_CACHE", DEFAULT_CACHE)


def _report_fields(report: CountReport, ctx: PrecisionContext) -> dict:
    return {
        "T": to_decimal(report.T, ctx),
        "n_sign_changes": report.n_sign_changes,
        "n_winding": report.n_winding,
        "rvm_estimate": to_decimal(report.rvm_estimate, ctx),
        "n_simple": report.n_simple,
        "ratio_simple": to_decimal(report.ratio_simple, ctx),
        "flagged": report.flagged,
    }


def _print_report(report: CountReport, ctx: PrecisionContext, fmt: str,
                  extra: dict | None = None) -> None:
    fields = _report_fields(report, ctx)
    if extra:
        fields.update(extra)
    if fmt == "json":
        print(json.dumps(fields, indent=2, sort_keys=True))
    else:
        keys = list(fields)
        print(",".join(keys))
        print(",".join(str(fields[k]).lower() if isinstance(fields[k], bool) else str(fields[k]) for k in keys))


def cmd_zeros(args: argparse.Namespace) -> int:
    """Scan to t_max, extend the zero cache, print a count report.

    The cache is read and its digits checked before the scan.  Cached
    records are trusted for the overlap (cross-checked against the fresh
    scan); newly found zeros are added by rewriting the whole file
    atomically.  Exit 1 signals a count mismatch between sign changes and
    the argument-principle (Backlund) count.
    """
    ctx = PrecisionContext.from_digits(args.digits)
    path = _resolve_cache(args)
    exists = os.path.exists(path)
    cached = read_cache(path, args.digits)[1] if exists else []
    records, n_winding = scan_with_count(args.t_max, ctx, args.workers)
    with ctx.wp():
        overlap = min(len(cached), len(records))
        for rc, rs in zip(cached[:overlap], records[:overlap]):
            if abs(rc.t - rs.t) > mpf("1e-6"):
                print(
                    f"cache ordinate {to_decimal(rc.t, ctx, 12)} disagrees with fresh scan "
                    f"{to_decimal(rs.t, ctx, 12)} at index {rc.index}",
                    file=sys.stderr,
                )
                return EXIT_FINDING
    new_records = records[len(cached):]
    if new_records or not exists:
        write_cache(path, cached + new_records, ctx)
    report = density_report(args.t_max, ctx, records=records, n_winding=n_winding)
    _print_report(report, ctx, args.format, extra={"cached_total": max(len(cached), len(records))})
    return EXIT_FINDING if report.n_sign_changes != report.n_winding else EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    """Probe every cached zero's winding, update statuses, summarize.

    The audit runs at the cache's digits; a --digits that differs from
    them is refused before any probe.  So is a cache that stops below
    --t-max (no cached zero above it) with fewer zeros than the Backlund
    count: a scan never writes a cache with a zero missing below its top,
    so the missing zeros were never scanned.  Exit 1 when any zero is
    suspect or the two counts disagree.
    """
    path = _resolve_cache(args)
    if not os.path.exists(path):
        print(f"audit needs a populated cache, none at {path}", file=sys.stderr)
        return EXIT_USAGE
    cache_digits, cached = read_cache(path, args.digits)
    ctx = PrecisionContext.from_digits(cache_digits)
    with ctx.wp():
        subset = [r for r in cached if r.t <= mpf(repr(args.t_max))]
    if not subset:
        print(f"cache {path} holds no zeros at or below t={args.t_max}", file=sys.stderr)
        return EXIT_USAGE
    n_winding = count_by_argument(args.t_max)
    if len(subset) == len(cached) < n_winding:
        print(
            f"cache {path} ends at t={to_decimal(cached[-1].t, ctx, 12)} with {len(cached)} "
            f"zeros, short of the {n_winding} up to t={args.t_max}; run zeros --t-max {args.t_max}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    audited = audit_zeros(subset, ctx, args.workers)
    rest = cached[len(subset):]
    write_cache(path, audited + rest, ctx)
    report = density_report(args.t_max, ctx, records=audited, n_winding=n_winding)
    with ctx.wp():
        rows = [
            {
                "index": r.index,
                "t": to_decimal(r.t, ctx),
                "abs_zeta_prime": to_decimal(r.zeta_prime_abs, ctx),
                "winding": r.winding,
                "status": r.status,
            }
            for r in audited
        ]
    with ctx.wp():
        meets_low = report.ratio_simple >= mpf(19) / 29
        meets_high = report.ratio_simple >= mpf(RATIO_THRESHOLD_HIGH)
    extra = {
        "ratio_threshold_low": RATIO_THRESHOLD_LOW[: ctx.target_digits + 2],
        "ratio_threshold_high": RATIO_THRESHOLD_HIGH,
        "meets_threshold_low": meets_low,
        "meets_threshold_high": meets_high,
    }
    if args.format == "json":
        fields = _report_fields(report, ctx)
        fields.update(extra)
        print(json.dumps({"zeros": rows, "summary": fields}, indent=2, sort_keys=True))
    else:
        print("index,t,abs_zeta_prime,winding,status")
        for row in rows:
            print(",".join(str(row[k]) for k in ("index", "t", "abs_zeta_prime", "winding", "status")))
        _print_report(report, ctx, "csv", extra=extra)
    any_suspect = any(r.status != "simple-confirmed" for r in audited)
    return EXIT_FINDING if (any_suspect or report.flagged) else EXIT_OK


def cmd_laurent(args: argparse.Namespace) -> int:
    """Emit the JSON expansion report for one cached zero.

    The zero is refined again at --digits, so the cache may hold other
    digits than --digits.
    """
    path = _resolve_cache(args)
    if not os.path.exists(path):
        print(f"laurent needs a populated cache, none at {path}", file=sys.stderr)
        return EXIT_USAGE
    _, cached = read_cache(path)
    rec = next((r for r in cached if r.index == args.index), None)
    if rec is None:
        raise UnknownIndexError(f"no cached zero with index {args.index}")
    ctx = PrecisionContext.from_digits(args.digits)
    polished = refine_zero(rec.t, ctx)
    # The lower neighbour alone can overstate the gap, so without the upper
    # one cached the gap is walked on the scan grid.
    neighbors = None
    if any(r.index == args.index + 1 for r in cached):
        neighbors = [r.t for r in cached if r.index in (args.index - 1, args.index + 1)]
    exp = build_expansion(polished.rho, args.terms, ctx, neighbor_ts=neighbors)
    report = expansion_report(args.index, exp, ctx, args.k_max)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_stieltjes(args: argparse.Namespace) -> int:
    """Emit the gamma_n table as CSV: n,gamma_n,bound,margin."""
    ctx = PrecisionContext.from_digits(args.digits)
    table = bound_check(args.n_max, ctx)
    print("n,gamma_n,bound,margin")
    with ctx.wp():
        for n in range(args.n_max + 1):
            if n == 0:
                print(f"0,{to_decimal(table.gammas[0], ctx)},,")
            else:
                bound = table.bound(n)
                print(
                    f"{n},{to_decimal(table.gammas[n], ctx)},"
                    f"{to_decimal(bound, ctx)},{to_decimal(table.bound_margin[n - 1], ctx)}"
                )
    return EXIT_OK


def cmd_mertens(args: argparse.Namespace) -> int:
    """Print M(x) for 1 <= x <= k_max, by the hyperbola recursion."""
    if args.x > args.k_max:
        raise RangeError(f"mertens argument {args.x} exceeds --k-max {args.k_max}")
    print(mertens_sublinear(args.x))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="zetakit", description="high-precision zeta zero and Laurent-coefficient toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help, *flags):
        sp = sub.add_parser(name, help=help)
        for flag in flags:
            sp.add_argument(flag, **_OPTIONS[flag][0])
        return sp

    scan = ("--digits", "--t-max", "--format", "--cache", "--workers")
    command("zeros", "scan zeros up to t-max and extend the cache", *scan)
    # Without --digits the audit runs at the cache's digits.
    command("audit", "probe cached zeros for simplicity and report ratios", *scan).set_defaults(digits=None)
    command("laurent", "JSON Laurent expansion report for one cached zero",
            "--digits", "--k-max", "--cache", "--index", "--terms")
    command("stieltjes", "CSV table of Stieltjes constants and bound margins", "--digits", "--n-max")
    # M(x) is an integer; --digits is accepted, checked and unused, so one
    # --digits can be passed to every subcommand.
    command("mertens", "print the Mertens sum M(x)", "--digits", "--k-max", "--x")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for flag, (_, ok, message) in _OPTIONS.items():
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if ok and value is not None and not ok(value):
                raise RangeError(message.format(value))
        # Looked up at call time, so a rebound cmd_<command> is the one run.
        return globals()[f"cmd_{args.command}"](args)
    except (RangeError, CacheFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ZetaKitError as exc:
        print(f"numerical finding: {exc}", file=sys.stderr)
        return EXIT_FINDING


if __name__ == "__main__":
    sys.exit(main())
