"""Command-line driver: scans, audits, expansion reports, tables.

Exit codes: 0 success, 1 numerical finding (count mismatch, suspect
zero, non-convergence), 2 usage or range error.  All numeric output is
decimal strings; reruns with the same configuration and cache are
byte-identical regardless of worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from mpmath import mpf

from .errors import (
    CacheFormatError,
    RangeError,
    SuspectZeroError,
    UnknownIndexError,
    ZetaKitError,
)
from .laurent import build_expansion, expansion_report
from .mobius import mertens, sieve_mobius
from .precision import PrecisionContext, to_decimal
from .stieltjes import N_MAX, bound_check
from .zeros import (
    CountReport,
    audit_zeros,
    count_by_argument,
    density_report,
    read_cache,
    refine_zero,
    scan_with_count,
    write_cache,
)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2

DEFAULT_CACHE = "zeta_zeros.cache"

RATIO_THRESHOLD_LOW = "0.65517241379310344827586206896551724138"  # 19/29
RATIO_THRESHOLD_HIGH = "0.84665"


@dataclass(frozen=True)
class RunConfig:
    digits: int = 30
    t_max: float = 100.0
    k_max: int = 10**6
    out_format: str = "csv"
    cache_path: str | None = None
    workers: int = 1

    def validated(self) -> "RunConfig":
        if not 10 <= self.digits <= 200:
            raise RangeError(f"--digits must be in [10, 200], got {self.digits}")
        if not 0 < self.t_max <= 1000:
            raise RangeError(f"--t-max must be in (0, 1000], got {self.t_max}")
        if not 1 <= self.k_max <= 10**8:
            raise RangeError(f"--k-max must be in [1, 10^8], got {self.k_max}")
        if self.out_format not in ("csv", "json"):
            raise RangeError(f"--format must be csv or json, got {self.out_format}")
        if self.workers < 1:
            raise RangeError(f"--workers must be >= 1, got {self.workers}")
        return self


def _resolve_cache(cfg: RunConfig) -> str:
    if cfg.cache_path:
        return cfg.cache_path
    return os.environ.get("ZETA_CACHE", DEFAULT_CACHE)


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


def cmd_zeros(cfg: RunConfig) -> int:
    """Scan to t_max, extend the zero cache, print a count report.

    The cache is read and its digits checked before the scan.  Cached
    records are trusted for the overlap (cross-checked against the fresh
    scan); newly found zeros are added by rewriting the whole file
    atomically.  Exit 1 signals a count mismatch between sign changes and
    the argument-principle (Backlund) count.
    """
    ctx = PrecisionContext.from_digits(cfg.digits)
    path = _resolve_cache(cfg)
    exists = os.path.exists(path)
    cached = []
    if exists:
        cache_digits, cached = read_cache(path)
        if cache_digits != ctx.target_digits:
            raise CacheFormatError(
                f"cache {path} holds digits={cache_digits}, run requested {ctx.target_digits}"
            )
    records, n_winding = scan_with_count(cfg.t_max, ctx, cfg.workers)
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
    report = density_report(cfg.t_max, ctx, records=records, n_winding=n_winding)
    _print_report(report, ctx, cfg.out_format, extra={"cached_total": max(len(cached), len(records))})
    return EXIT_FINDING if report.n_sign_changes != report.n_winding else EXIT_OK


def cmd_audit(cfg: RunConfig) -> int:
    """Probe every cached zero's winding, update statuses, summarize.

    Exit 1 when any zero is suspect or the two counts disagree.
    """
    path = _resolve_cache(cfg)
    if not os.path.exists(path):
        print(f"audit needs a populated cache, none at {path}", file=sys.stderr)
        return EXIT_USAGE
    cache_digits, cached = read_cache(path)
    ctx = PrecisionContext.from_digits(cache_digits)
    with ctx.wp():
        subset = [r for r in cached if r.t <= mpf(repr(cfg.t_max))]
    if not subset:
        print(f"cache {path} holds no zeros at or below t={cfg.t_max}", file=sys.stderr)
        return EXIT_USAGE
    audited = audit_zeros(subset, ctx, cfg.workers)
    rest = cached[len(subset):]
    write_cache(path, audited + rest, ctx)
    n_winding = count_by_argument(cfg.t_max, ctx)
    report = density_report(cfg.t_max, ctx, records=audited, n_winding=n_winding)
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
    if cfg.out_format == "json":
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


def cmd_laurent(cfg: RunConfig, zero_index: int, n_terms: int) -> int:
    """Emit the JSON expansion report for one cached zero."""
    if not 0 <= n_terms <= 12:
        raise RangeError(f"--terms must be in [0, 12], got {n_terms}")
    path = _resolve_cache(cfg)
    if not os.path.exists(path):
        print(f"laurent needs a populated cache, none at {path}", file=sys.stderr)
        return EXIT_USAGE
    _, cached = read_cache(path)
    rec = next((r for r in cached if r.index == zero_index), None)
    if rec is None:
        raise UnknownIndexError(f"no cached zero with index {zero_index}")
    ctx = PrecisionContext.from_digits(cfg.digits)
    polished = refine_zero(rec.t, ctx)
    # The lower neighbour alone can overstate the gap, so without the upper
    # one cached the gap is walked on the scan grid.
    neighbors = None
    if any(r.index == zero_index + 1 for r in cached):
        neighbors = [r.t for r in cached if r.index in (zero_index - 1, zero_index + 1)]
    table = sieve_mobius(cfg.k_max)
    exp = build_expansion(polished.rho, n_terms, ctx, neighbor_ts=neighbors)
    report = expansion_report(zero_index, exp, ctx, table)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_stieltjes(cfg: RunConfig, n_max: int) -> int:
    """Emit the gamma_n table as CSV: n,gamma_n,bound,margin."""
    if not 0 <= n_max <= N_MAX:
        raise RangeError(f"--n-max must be in [0, {N_MAX}], got {n_max}")
    ctx = PrecisionContext.from_digits(cfg.digits)
    table = bound_check(n_max, ctx)
    print("n,gamma_n,bound,margin")
    with ctx.wp():
        for n in range(n_max + 1):
            if n == 0:
                print(f"0,{to_decimal(table.gammas[0], ctx)},,")
            else:
                bound = table.bound(n)
                print(
                    f"{n},{to_decimal(table.gammas[n], ctx)},"
                    f"{to_decimal(bound, ctx)},{to_decimal(table.bound_margin[n - 1], ctx)}"
                )
    return EXIT_OK


def cmd_mertens(cfg: RunConfig, x: int) -> int:
    """Print M(x) from a sieve of size k_max."""
    if x < 1:
        raise RangeError(f"mertens argument must be >= 1, got {x}")
    if x > cfg.k_max:
        raise RangeError(f"mertens argument {x} exceeds sieve limit {cfg.k_max}")
    table = sieve_mobius(cfg.k_max)
    print(mertens(x, table))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=30, help="decimal digits of working accuracy (10..200)")
    common.add_argument("--t-max", type=float, default=100.0, dest="t_max", help="scan/audit height (<= 1000)")
    common.add_argument("--k-max", type=int, default=10**6, dest="k_max", help="Mobius sieve limit")
    common.add_argument("--format", choices=("csv", "json"), default="csv", dest="out_format")
    common.add_argument("--cache", dest="cache_path", default=None, help="zero cache path (env ZETA_CACHE as fallback)")
    common.add_argument("--workers", type=int, default=1, help="parallel worker processes")

    p = argparse.ArgumentParser(prog="zetakit", description="high-precision zeta zero and Laurent-coefficient toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("zeros", parents=[common], help="scan zeros up to t-max and extend the cache")
    sub.add_parser("audit", parents=[common], help="probe cached zeros for simplicity and report ratios")
    pl = sub.add_parser("laurent", parents=[common], help="JSON Laurent expansion report for one cached zero")
    pl.add_argument("--index", type=int, required=True, help="1-based zero index in the cache")
    pl.add_argument("--terms", type=int, default=8, help="number of Taylor coefficients c_n (0..12)")
    ps = sub.add_parser("stieltjes", parents=[common], help="CSV table of Stieltjes constants and bound margins")
    ps.add_argument("--n-max", type=int, default=N_MAX, dest="n_max")
    pm = sub.add_parser("mertens", parents=[common], help="print the Mertens sum M(x)")
    pm.add_argument("--x", type=int, required=True)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(
            digits=args.digits,
            t_max=args.t_max,
            k_max=args.k_max,
            out_format=args.out_format,
            cache_path=args.cache_path,
            workers=args.workers,
        ).validated()
        if args.command == "zeros":
            return cmd_zeros(cfg)
        if args.command == "audit":
            return cmd_audit(cfg)
        if args.command == "laurent":
            return cmd_laurent(cfg, args.index, args.terms)
        if args.command == "stieltjes":
            return cmd_stieltjes(cfg, args.n_max)
        if args.command == "mertens":
            return cmd_mertens(cfg, args.x)
        parser.error(f"unknown command {args.command!r}")
    except SuspectZeroError as exc:
        print(f"numerical finding: {exc}", file=sys.stderr)
        return EXIT_FINDING
    except (RangeError, CacheFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ZetaKitError as exc:
        print(f"numerical finding: {exc}", file=sys.stderr)
        return EXIT_FINDING
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
