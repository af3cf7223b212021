"""Command-line driver: scans, audits, expansion reports, tables.

Exit codes: 0 success; 2 usage or range error (a bad option, a
RangeError, a CacheFormatError, a cache path that is not a regular file
or whose directory is missing, a missing cache for audit or laurent, an
audit whose cache stops below --t-max short of the Backlund count, an
OSError such as a cache that cannot be written); 1 a numerical finding
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
from .laurent import build_expansion, expansion_at_cached_zero, expansion_report
from .mobius import mertens_sublinear
from .precision import PrecisionContext, to_decimal
from .stieltjes import N_MAX, bound_check
from .zeros import (
    DIGITS_MAX,
    DIGITS_MIN,
    STATUS_SIMPLE,
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


def _cache_refusal(args: argparse.Namespace) -> str | None:
    """Resolve args.cache in place (--cache, then ZETA_CACHE, then the
    default; an empty value counts as unset) and say why it cannot serve
    args.command, or None: the path is neither a regular file nor absent,
    its directory is missing, or audit or laurent finds no cache to read."""
    path = args.cache = args.cache or os.environ.get("ZETA_CACHE") or DEFAULT_CACHE
    if os.path.exists(path):
        return None if os.path.isfile(path) else f"cache {path} is not a regular file"
    if args.command != "zeros":
        return f"{args.command} needs a populated cache, none at {path}"
    if not os.path.isdir(os.path.dirname(path) or "."):
        return f"cache directory {os.path.dirname(path)} does not exist"
    return None


def _print_report(report: CountReport, ctx: PrecisionContext, fmt: str,
                  extra: dict, rows: list[dict] | None = None) -> None:
    """The count report with extra's fields after it, and audit's per-zero
    rows before it: one JSON document, or a CSV header and lines for each
    of rows and the report."""
    fields = {k: to_decimal(v, ctx) if isinstance(v, mpf) else v for k, v in report._asdict().items()}
    fields.update(extra)
    if fmt == "json":
        doc = fields if rows is None else {"zeros": rows, "summary": fields}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    for table in ([[fields]] if rows is None else [rows, [fields]]):
        print(",".join(table[0]))
        for row in table:
            print(",".join(str(v).lower() if isinstance(v, bool) else str(v) for v in row.values()))


def cmd_zeros(args: argparse.Namespace) -> int:
    """Scan to t_max, extend the zero cache, print a count report.

    The cache is read and its digits checked before the scan.  Cached
    records are trusted for the overlap (cross-checked against the fresh
    scan); newly found zeros are added by rewriting the whole file
    atomically.  Exit 1 signals a count mismatch between sign changes and
    the argument-principle (Backlund) count.
    """
    ctx = PrecisionContext.from_digits(args.digits)
    exists = os.path.exists(args.cache)
    cached = read_cache(args.cache, args.digits)[1] if exists else []
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
        write_cache(args.cache, cached + new_records, ctx)
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
    path = args.cache
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
        meets_low = report.ratio_simple >= mpf(19) / 29
        meets_high = report.ratio_simple >= mpf(RATIO_THRESHOLD_HIGH)
    extra = {
        "ratio_threshold_low": RATIO_THRESHOLD_LOW[: ctx.target_digits + 2],
        "ratio_threshold_high": RATIO_THRESHOLD_HIGH,
        "meets_threshold_low": meets_low,
        "meets_threshold_high": meets_high,
    }
    _print_report(report, ctx, args.format, extra, rows)
    any_suspect = any(r.status != STATUS_SIMPLE for r in audited)
    return EXIT_FINDING if (any_suspect or report.flagged) else EXIT_OK


def cmd_laurent(args: argparse.Namespace) -> int:
    """Emit the JSON expansion report for one cached zero.

    Where the cache holds --digits, the expansion is taken at the cached
    zero, and kept when one Newton step from its order-13 jet,
    t - Im(zeta(rho)/zeta'(rho)), leaves the zero's stored string as it
    is.  A cache written at those digits is a fixed point of refinement,
    so that is the zero ``refine_zero`` would give.  Otherwise, and
    always where the cache holds other digits than --digits, the zero is
    refined again at --digits and the expansion taken there.
    """
    cache_digits, cached = read_cache(args.cache)
    if not 1 <= args.index <= len(cached):
        raise UnknownIndexError(f"no cached zero with index {args.index}")
    ctx = PrecisionContext.from_digits(args.digits)
    record = cached[args.index - 1]
    # The lower neighbour alone can overstate the gap, so without the upper
    # one cached the gap is walked on the scan grid.
    neighbors = None
    if args.index < len(cached):
        neighbors = [cached[i].t for i in (args.index - 2, args.index) if i >= 0]
    exp = None
    if cache_digits == args.digits:
        exp = expansion_at_cached_zero(record, args.terms, ctx, neighbors)
    if exp is None:
        polished = refine_zero(record.t, ctx)
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
        # The one cache gate: every refusal before any cache is read.
        refusal = _cache_refusal(args) if "cache" in args else None
        if refusal:
            print(refusal, file=sys.stderr)
            return EXIT_USAGE
        # Looked up at call time, so a rebound cmd_<command> is the one run.
        return globals()[f"cmd_{args.command}"](args)
    except (RangeError, CacheFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ZetaKitError as exc:
        print(f"numerical finding: {exc}", file=sys.stderr)
        return EXIT_FINDING


if __name__ == "__main__":
    sys.exit(main())
