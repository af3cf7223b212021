"""Locating, refining, counting, and auditing nontrivial zeros.

Zeros on the critical line are found as sign changes of Hardy Z on an
adaptive grid, polished by Newton iteration on the Taylor polynomials of
Euler-Maclaurin jets of zeta, from a double-precision seed or from the
bracket midpoint, and cross-checked for completeness against an
independent count by Backlund's formula N(T) = theta(T)/pi + 1 + S(T),
with S(T) integrated along the segment from 2 + iT to 1/2 + iT.  Each
zero's multiplicity is then measured directly as the winding number of
zeta'/zeta around a small circle; the audit records |zeta'(rho)| against
a simplicity floor rather than asserting simplicity axiomatically.

The count, the probe, the Newton start and the scan grid's sign each try
the double-precision pair :func:`zetakit.zeta.em_pair_float` first.  That
tier may only accept: a count not within 0.1 of an integer, a winding not
within 1e-3, a Newton iterate that leaves the bracket's basin, a |Z| that
does not clear twice its stated error, or any float failure hands the
same question to the mpmath path (for refinement, the jets from the
midpoint), and only that path raises.  Both tiers share each step: one
walker, :func:`_sign_brackets`, signs every grid of Z, one :func:`_newton`
iterates, on the double pair and on a jet's Taylor polynomial, and
:func:`_near_integer` reads every count and winding.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import os
from types import SimpleNamespace
from typing import NamedTuple

import mpmath as mp
from mpmath import mpc, mpf

from .errors import (
    CacheFormatError,
    ContourNearZeroError,
    GridTooCoarseError,
    NoConvergenceError,
    NonIntegerWindingError,
    RangeError,
)
from .mobius import fixed_pair, fixed_to_mpc
from .parallel import map_ordered
from .precision import PrecisionContext, real_from, to_decimal
from .zeta import (
    HEIGHT_MAX,
    HEIGHT_MIN,
    em_float_error,
    em_pair_float,
    hardy_Z_fast,
    ring_samples,
    rs_error_bound,
    theta_float,
    theta_float_error,
    zeta_and_deriv_raw,
    zeta_jet,
    zeta_logderiv,
)

STATUS_REFINED = "refined"
STATUS_SIMPLE = "simple-confirmed"
STATUS_SUSPECT = "suspect"

SIMPLICITY_FLOOR = mpf("1e-6")

CACHE_HEADER_PREFIX = "# zeta-zeros v1 digits="

# The working digits a run accepts (the CLI's --digits), and so the
# digits a cache header may name.
DIGITS_MIN, DIGITS_MAX = 10, 200

# Internal precision of the grid's sign tests and of integer-valued
# contour work: the quadrature only needs to land within 0.1 of an
# integer, and zeta'/zeta refuses points where |zeta| < 1e-12.
_LOW_CTX = PrecisionContext.from_digits(12)

# Multiplicity probes start at this many nodes and double up to the cap.
_PROBE_MIN_NODES = 16
_PROBE_NODES = 128

# A pool worker costs the parent 20-30 ms of wall time to start (fork,
# the pool's threads, the worker's cold first item): the cost of about
# 10 zero refinements at 30 digits below t = 100 (2-3 ms each, one
# Euler-Maclaurin jet), and of more probes (0.5-3 ms each).  A worker is
# started only for at least this many items; fewer run on fewer workers,
# or inline.  On a shared 2-core x86 host, 29 zeros to t = 100.3 took
# 55-116 ms of wall time on two workers and 62-97 ms inline: no clear
# winner, so the split stays at 8.
_MIN_ITEMS_PER_WORKER = 8


def _useful_workers(workers: int, n_items: int) -> int:
    """workers, cut to one per _MIN_ITEMS_PER_WORKER items (at least one)."""
    return max(1, min(workers, n_items // _MIN_ITEMS_PER_WORKER))


# The 16-point Gauss-Legendre rule on [-1, 1] in double precision, as
# numpy.polynomial.legendre.leggauss(16) gives it, bit for bit: nodes
# within one ulp of the exact ones, weights within 1e-14 relative.
_GL_X = (
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_GL_W = (
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
)

# The names the Backlund count takes from mpmath, in double precision, so
# one formula runs in either tier.
_FLOAT = SimpleNamespace(mpf=float, mpc=complex, arg=cmath.phase, pi=math.pi)


class ZeroRecord(NamedTuple):
    index: int
    t: mpf
    rho: mpc
    zeta_prime_abs: mpf
    winding: int
    status: str


class CountReport(NamedTuple):
    T: mpf
    n_sign_changes: int
    n_winding: int  # count_by_argument's Backlund count, printed as n_winding
    rvm_estimate: mpf
    n_simple: int
    ratio_simple: mpf
    flagged: bool


# ----------------------------------------------------------------------
# The double-precision tier
# ----------------------------------------------------------------------


def _float_tier(fn):
    """A float-tier step returns its accepted result or None; an
    arithmetic failure (a division by zero, an overflow) is a None too."""

    @functools.wraps(fn)
    def run(*args):
        try:
            return fn(*args)
        except ArithmeticError:
            return None

    return run


def _near_integer(x, tol: float) -> int | None:
    """The integer within tol of x, a real or complex float or mpmath
    number, else None; a NaN or an infinity is never near one."""
    if not cmath.isfinite(x):
        return None
    n = round(x.real)
    return n if abs(x - n) <= tol else None


def _float_logderiv(s: complex) -> complex:
    v, dv = em_pair_float(s)
    return dv / v


@functools.lru_cache(maxsize=None)
def _float_ring(nodes: int) -> tuple:
    """The unit-circle nodes of ring_samples, in double."""
    with _LOW_CTX.wp():
        return tuple(ring_samples(complex, 1, nodes))


@_float_tier
def _float_grid_sign(t: float) -> int | None:
    """Sign of Z(t) = Re(e^(i theta) zeta(1/2 + it)) from the float pair,
    where |Z| clears twice its error: the pair's stated bound plus |zeta|
    times the error of the float theta."""
    s = complex(0.5, t)
    v, _ = em_pair_float(s)
    z = (cmath.exp(1j * theta_float(t)) * v).real
    if abs(z) > 2 * (em_float_error(s) + abs(v) * theta_float_error(t)):
        return 1 if z > 0 else -1
    return None


@_float_tier
def _float_count(T: float) -> int | None:
    """The Backlund count at T from the float pair, if within 0.1 of an
    integer."""
    c = _backlund_count(T, lambda s: em_pair_float(s)[0], _float_logderiv, _FLOAT)
    return _near_integer(c, 0.1)


@_float_tier
def _float_winding(rho: complex, r: float) -> int | None:
    """The 16-node winding of zeta'/zeta around |s - rho| = r from the
    float pair, if within 1e-3 of an integer."""
    hs = [r * w for w in _float_ring(_PROBE_MIN_NODES)]
    val = sum(_float_logderiv(rho + h) * h for h in hs) / len(hs)
    return _near_integer(val, 1e-3)


# ----------------------------------------------------------------------
# Grid scan and Newton refinement
# ----------------------------------------------------------------------

def _grid_sign(t: float) -> int:
    """Sign of Z(t) for scanning, t >= HEIGHT_MIN: float Riemann-Siegel
    when |Z| clears twice its error bound, else the float Euler-Maclaurin
    Z when |Z| clears twice its stated error, else Re(e^(i theta_float(t))
    zeta(1/2 + it)), zeta at 12 digits.  An error d in theta_float only
    scales that Z by cos d, so its sign is right wherever zeta is."""
    z = hardy_Z_fast(t)
    if abs(z) > 2 * rs_error_bound(t):
        return 1 if z > 0 else -1
    sign = _float_grid_sign(t)
    if sign is not None:
        return sign
    v = complex(zeta_jet(complex(0.5, t), 0, _LOW_CTX)[0])
    return 1 if (cmath.exp(1j * theta_float(t)) * v).real >= 0 else -1


def _sign_brackets(ts):
    """Each (a, b) of consecutive points of ts between which the sign of
    Z changes.  Points, all at or above HEIGHT_MIN, are signed lazily and in order."""
    a = sa = None
    for b in ts:
        sb = _grid_sign(b)
        if sa is not None and sb != sa:
            yield a, b
        a, sa = b, sb


def neighbor_distance(t_val: float) -> float:
    """Distance from ordinate t to the nearest other zero, located by
    walking the scan grid outward until Z changes sign.  The walk down
    stops at HEIGHT_MIN, below the first zero; the walk up has no cap, so
    the last zero below HEIGHT_MAX finds the next one."""
    h = 0.25 / math.log(max(t_val, HEIGHT_MIN))
    up = (t_val + (h / 2 + i * h) for i in range(4000))
    down = (t_val - (h / 2 + i * h) for i in range(4000))
    gaps = []
    for ts in (up, itertools.takewhile(lambda t: t >= HEIGHT_MIN, down)):
        bracket = next(_sign_brackets(ts), None)
        if bracket is not None:
            gaps.append(abs(bracket[1] - t_val) - h)  # nearer bracket edge: conservative
    return min(gaps) if gaps else 2 * t_val  # nothing found: conjugate partner bounds the gap


def _scan_brackets(T: float, step: float) -> list[tuple[float, float]]:
    lo = float(HEIGHT_MIN)
    if T <= lo:
        return []
    n = int(math.ceil((T - lo) / step))
    return list(_sign_brackets([lo] + [min(lo + i * step, T) for i in range(1, n + 1)]))


def _newton(pair, t, start, basin, tol):
    """Newton on zeta(1/2 + it), whose t-derivative is i zeta'(s):
    t <- t - Im(zeta/zeta'), with (zeta, zeta') = pair(t).  Returns the
    iterate after the first step below tol, or None on zeta' = 0, on an
    iterate farther than basin from start, or after 60 steps."""
    for _ in range(60):
        v, dv = pair(t)
        if dv == 0:
            return None
        dt = (v / dv).imag
        t -= dt
        if not abs(t - start) <= basin:
            return None
        if abs(dt) < tol:
            return t
    return None


def _jet_orders(digits: int, t: float) -> tuple[int, int]:
    """(first, second): the orders of the Taylor jets of
    :func:`_newton_refine` at height t.

    An order-k jet delta from the zero leaves zeta'(rho) off by about
    e(k, delta) = (k + 1) A delta^k, which has to fall below the tail
    threshold 10^-(digits + 15) of one Euler-Maclaurin sum at the guard
    digits.  The double seed lies within about an ulp of t,
    delta = t 2^-52, and the Taylor coefficients of zeta there stay below
    about A = 1 + t/35 (both measured on a sample of zeros 1-649).  One
    jet then needs the least order K >= 2 with e(K, delta) below it; two
    jets of order k, the second at the first's root, about A delta^(k+1)
    off, need e(k, A delta^(k+1)) below it.  An order-k jet costs about
    1 + (k - 1)/3 order-1 sums, so the two jets serve where they cost
    less, from about 90 digits on.  Otherwise the jets after the first
    are of order 2, taken only where the one before rejects.
    """
    thresh = 10.0 ** -(digits + 15)
    delta = t * 2.0**-52
    A = 1 + t / 35

    def e(k, off):
        return (k + 1) * A * off**k

    one = next(k for k in itertools.count(2) if e(k, delta) <= thresh)
    two = next(k for k in itertools.count(2) if e(k, A * delta ** (k + 1)) <= thresh)
    return (two, two) if one > 2 * two + 2 else (one, 2)


def _taylor_pair(jet, tc, wp: int):
    """(pair, [|a_j|] in double) for the Taylor polynomial
    P(d) = sum_j a_j d^j, d = t - tc, of zeta(1/2 + it) at tc, with
    a_j = i^j jet[j]/j!: pair(t) = (P(d), -i P'(d)) are zeta and zeta' at
    1/2 + it up to the truncation after a_k, k = len(jet) - 1, as
    d/dt = i d/ds.  The a_j are wp-bit fixed-point pairs, so each
    evaluation is Horner's rule on ints, off by a few units of 2^-wp, and
    is rounded once to the working precision."""
    a = []
    for j, c in enumerate(jet):
        re, im = fixed_pair(c, wp)
        for _ in range(j % 4):
            re, im = -im, re
        f = math.factorial(j)
        a.append((re // f, im // f))

    def pair(t):
        d = fixed_pair(t - tc, wp)[0]
        vr, vi = a[-1]
        dr = di = 0
        for cr, ci in reversed(a[:-1]):
            dr, di = (dr * d >> wp) + vr, (di * d >> wp) + vi
            vr, vi = (vr * d >> wp) + cr, (vi * d >> wp) + ci
        prec = mp.mp.prec
        return fixed_to_mpc(vr, vi, wp, prec), fixed_to_mpc(di, -dr, wp, prec)

    return pair, [abs(complex(c)) / math.factorial(j) for j, c in enumerate(jet)]


def _newton_refine(a: float, b: float, ctx: PrecisionContext) -> tuple[mpf, mpc]:
    """(t, zeta'(1/2 + it)) at the zero in [a, b], from Taylor jets.

    :func:`_newton` runs from the bracket midpoint, basin max(0.05, b - a),
    on the double pair to a step below 1e-7, about 1e-13 from the zero;
    where the double tier rejects, the jets start at the midpoint itself.
    Each jet is [zeta^(j)(1/2 + i tc) for j <= k] from one Euler-Maclaurin
    sum at ten guard digits (:func:`zetakit.zeta.zeta_jet`), the first of
    :func:`_jet_orders`' first order at the start and each next one of
    its second order at the last root.  :func:`_newton` solves the jet's
    Taylor polynomial in t - tc to a step below 10^-digits, within the
    basin.  The truncation is checked at the solved delta = |t - tc|, in
    double, with |a_(k+1)| taken as max(|a_(k-1)|, |a_k|^2/|a_(k-1)|), the
    geometric continuation of the last two coefficients where they grow:
    |a_(k+1)| delta^(k+1)/|a_1| for the root and (k + 1) |a_(k+1)| delta^k
    for zeta'.  Where both are below the tail threshold
    10^-(guard digits + 5) of the sum itself, t is rounded to ctx.bits and
    zeta'(rho) is the polynomial's at that t, with no further sum.  From
    the double seed that is one jet a zero (of order 4 at 30 digits), or
    two of lower order where they cost less than one (from about 90
    digits); from the midpoint, two to four.  A None from :func:`_newton`,
    or a jet whose delta is not below the one before, raises
    NoConvergenceError."""
    guard = PrecisionContext(ctx.bits + 34, ctx.target_digits + 10)
    thresh = 10.0 ** -(guard.target_digits + 5)
    mid = (a + b) / 2
    basin = max(0.05, b - a)
    seed = _float_tier(_newton)(lambda t: em_pair_float(complex(0.5, t)), mid, mid, basin, 1e-7)
    start = mid if seed is None else seed
    k, second = _jet_orders(ctx.target_digits, start)
    last = math.inf
    with guard.wp():
        tol = mpf(10) ** (-ctx.target_digits)
        t = mpf(start)
        while True:
            tc = t
            pair, size = _taylor_pair(zeta_jet(mpc(0.5, tc), k, guard), tc, guard.bits)
            t = _newton(pair, tc, mid, basin, tol)
            if t is None:
                raise NoConvergenceError(f"Newton did not converge near t={mid}")
            nxt = max(size[k - 1], size[k] ** 2 / size[k - 1]) if size[k - 1] else math.inf
            delta = abs(float(t - tc))
            if nxt * delta ** (k + 1) < thresh * size[1] and (k + 1) * nxt * delta**k < thresh:
                with ctx.wp():
                    t = +t
                return t, pair(t)[1]
            if not delta < last:
                raise NoConvergenceError(f"Taylor jets made no progress near t={mid}")
            k, last = second, delta


def _refine_bracket_worker(args: tuple) -> tuple:
    """Refine one bracket; string-typed in and out so results are
    byte-identical whether run inline or in a worker process."""
    a_str, b_str, bits, digits = args
    ctx = PrecisionContext(bits, digits)
    t, zp = _newton_refine(float(a_str), float(b_str), ctx)
    with ctx.wp():
        return _stored(t, ctx), _stored(abs(zp), ctx)


def _stored(x, ctx: PrecisionContext) -> str:
    """x as the cache stores it and workers receive it: a decimal string
    with five guard digits past ctx's."""
    return to_decimal(x, ctx, ctx.target_digits + 5)


def _record(index, t, zeta_prime_abs, ctx: PrecisionContext, winding=0,
            status: str = STATUS_REFINED) -> ZeroRecord:
    """The ZeroRecord of stored fields: t and |zeta'(rho)| as decimal
    strings, rounded at ctx.bits, index and winding as ints or their
    strings; rho is rebuilt from t.  A field that does not parse raises
    ValueError or RangeError."""
    index, winding = int(index), int(winding)
    t = real_from(t, ctx)
    zeta_prime_abs = real_from(zeta_prime_abs, ctx)
    if status not in (STATUS_REFINED, STATUS_SIMPLE, STATUS_SUSPECT):
        raise ValueError(f"unknown status {status!r}")
    with ctx.wp():
        return ZeroRecord(index, t, mpc(mpf(1) / 2, t), zeta_prime_abs, winding, status)


def refine_zero(t0, ctx: PrecisionContext) -> ZeroRecord:
    """Polish the zero whose Z sign change lies within 0.05 of t0, for
    t0 - 0.05 >= HEIGHT_MIN (else RangeError).  Returned record carries
    index 0 and winding 0; scan and audit fill those in."""
    seed = float(t0)
    bracket = next(_sign_brackets(seed + k * 0.01 for k in range(-5, 6)), None)
    if bracket is None:
        raise NoConvergenceError(f"no Z sign change within 0.05 of t={seed}")
    t, zp_abs = _refine_bracket_worker(
        (repr(bracket[0]), repr(bracket[1]), ctx.bits, ctx.target_digits)
    )
    return _record(0, t, zp_abs, ctx)


def scan_with_count(T, ctx: PrecisionContext, workers: int = 1) -> tuple[list[ZeroRecord], int]:
    """(records, argument-principle count) for zeros with 0 < t <= T."""
    Tf = float(T)
    n_winding = count_by_argument(T)
    step = 0.25 / math.log(Tf)
    for _ in range(3):
        brackets = _scan_brackets(Tf, step)
        if len(brackets) == n_winding:
            args = [
                (repr(a), repr(b), ctx.bits, ctx.target_digits) for a, b in brackets
            ]
            packs = map_ordered(_refine_bracket_worker, args, _useful_workers(workers, len(args)))
            records = [_record(i, t, zp_abs, ctx) for i, (t, zp_abs) in enumerate(packs, start=1)]
            if all(r2.t > r1.t for r1, r2 in zip(records, records[1:])):
                return records, n_winding
        step /= 2
    raise GridTooCoarseError(
        f"sign-change count {len(brackets)} disagrees with Backlund count {n_winding} "
        f"at T={Tf} after two grid refinements"
    )


# ----------------------------------------------------------------------
# Argument-principle machinery
# ----------------------------------------------------------------------


def _gl_panel(sa, sb, logderiv, lib):
    """16-point Gauss-Legendre integral of logderiv along [sa, sb], in the
    numbers of lib (mpmath, or _FLOAT)."""
    half = (sb - sa) / 2
    mid = (sa + sb) / 2
    acc = lib.mpc(0)
    for x, w in zip(_GL_X, _GL_W):
        acc += lib.mpf(w) * logderiv(mid + half * lib.mpf(x))
    return acc * half


def _backlund_count(T, value, logderiv, lib=mp):
    """N(T) = theta(T)/pi + 1 + S(T) (Backlund 1914; Edwards 1974, ch. 6).

    pi S(T) = arg zeta(1/2 + iT), continued along the segment from 2 + iT,
    where the principal arg is right because |zeta(2 + iT) - 1| <=
    zeta(2) - 1 < 1.  The segment is integrated as Im of zeta'/zeta on
    panels refined toward sigma = 1/2.  ``value`` and ``logderiv`` supply
    zeta and zeta'/zeta, and ``lib`` the numbers: mpmath for the 12-digit
    path, _FLOAT for the float tier.  Both take theta_float(T), within
    3.8e-9 of theta, far inside the 0.1 a count is accepted within.
    """
    arg = lib.arg(value(lib.mpc(2, T)))
    breaks = [lib.mpf("0.5") + lib.mpf("1.5") / 2**k for k in range(6)] + [lib.mpf("0.5")]
    for a, b in zip(breaks, breaks[1:]):
        arg += _gl_panel(lib.mpc(a, T), lib.mpc(b, T), logderiv, lib).imag
    return theta_float(float(T)) / lib.pi + 1 + arg / lib.pi


def _sign_changes(a: float, b: float) -> int:
    """Z sign changes on a uniform grid of spacing at most 0.005 over (a, b]."""
    n = math.ceil((b - a) / 0.005)
    return sum(1 for _ in _sign_brackets(a + (b - a) * i / n for i in range(n + 1)))


def count_by_argument(T) -> int:
    """Number of zeros with 0 < t <= T, for HEIGHT_MIN <= T <= HEIGHT_MAX,
    by Backlund's formula N(T) = theta(T)/pi + 1 + S(T).

    S(T) comes from integrating zeta'/zeta along the half of the line
    t = T from sigma = 2 to 1/2, so the count is independent of the Z
    sign-change scan it checks.  If that segment lands too near a zero,
    it is moved up by 0.05, at most five times, to T'; the zeros in
    (T, T'] are then taken off the count as Z sign changes on a 0.005
    grid, so the result is always the count at T itself.  The range is
    the double tiers'; near T = 0 the segment would pass by the pole at
    s = 1.  At each height the float pair counts first; where its count
    is not within 0.1 of an integer the 12-digit path counts again.  When
    the shifts run out, the last height's error is raised again:
    ContourNearZeroError or NonIntegerWindingError.
    """
    if not HEIGHT_MIN <= float(T) <= HEIGHT_MAX:
        raise RangeError(f"count height must satisfy {HEIGHT_MIN} <= T <= {HEIGHT_MAX}")
    shift = mpf(0)
    last_err: Exception | None = None
    for _ in range(6):
        with _LOW_CTX.wp():
            Ts = mpf(T) + shift
            n = _float_count(float(Ts))
            if n is None:
                try:
                    c = _backlund_count(Ts, lambda s: zeta_and_deriv_raw(s, _LOW_CTX)[0],
                                        lambda s: zeta_logderiv(s, _LOW_CTX))
                except ContourNearZeroError as exc:
                    last_err = exc
                    shift += mpf("0.05")
                    continue
                n = _near_integer(c, 0.1)
                if n is None:
                    last_err = NonIntegerWindingError(
                        f"Backlund count {mp.nstr(c, 8)} is not near an integer at T={Ts}"
                    )
                    shift += mpf("0.05")
                    continue
            return n - _sign_changes(float(T), float(Ts)) if shift else n
    raise type(last_err)(f"count_by_argument failed after 5 shifts: {last_err}")


def multiplicity_probe(rho, r) -> int:
    """Winding number of zeta'/zeta around |s - rho| = r: the
    multiplicity of rho as a zeta zero.

    The n-node trapezoid rule on the circle is off by about (r/R)^n, R
    the distance from rho to the nearest singularity of zeta'/zeta
    outside the circle (Trefethen & Weideman, SIAM Rev. 56 (2014),
    sec. 3); an enclosed zero at distance a from rho adds about (a/r)^n.
    The caller keeps r <= 0.4 times the zero gap (see
    :func:`audit_zeros`), so R >= 2.5r and 16 nodes are off by at most
    2.5^-16, about 4e-7.  The winding is the mean of zeta'/zeta(rho + h) h
    over the nodes h of :func:`zetakit.zeta.ring_samples`.  The float
    pair takes the first 16 nodes; if its winding is not within 1e-3 of
    an integer, the 12-digit probe starts over at 16 nodes and doubles,
    evaluating only the new nodes, while the winding is not within 1e-3
    of an integer.  At the 128-node cap it accepts within 0.1 or raises
    :class:`NonIntegerWindingError`.
    """
    with _LOW_CTX.wp():
        rho = mpc(rho)
        r = mpf(r)
        if not 0 < r <= mpf(1) / 4:
            raise RangeError("probe radius must satisfy 0 < r <= 1/4")
        m = _float_winding(complex(rho), float(r))
        if m is not None:
            return m

        def f(h):
            return zeta_logderiv(rho + h, _LOW_CTX) * h

        n, samples = _PROBE_MIN_NODES, ()
        while True:
            samples = ring_samples(f, r, n, samples)
            val = mp.fsum(samples) / n
            m = _near_integer(val, 1e-3 if n < _PROBE_NODES else 0.1)
            if m is not None:
                return m
            if n >= _PROBE_NODES:
                raise NonIntegerWindingError(
                    f"circle winding {mp.nstr(val, 8)} at rho={rho} is not near an integer"
                )
            n *= 2


def rvm_estimate(T) -> mpf:
    """Smooth zero-count estimate (T/2pi) log(T/2pi) - T/2pi + 7/8."""
    T = mpf(T)
    if T < 2:
        raise RangeError("rvm_estimate needs T >= 2")
    u = T / (2 * mp.pi)
    return u * mp.log(u) - u + mpf(7) / 8


# ----------------------------------------------------------------------
# Audit and reporting
# ----------------------------------------------------------------------


def _probe_worker(args: tuple) -> int:
    rho_re, rho_im, r_str, bits, digits = args
    ctx = PrecisionContext(bits, digits)
    with ctx.wp():
        rho = mpc(mpf(rho_re), mpf(rho_im))
        r = mpf(r_str)
    return multiplicity_probe(rho, r)


def audit_zeros(records: list[ZeroRecord], ctx: PrecisionContext, workers: int = 1) -> list[ZeroRecord]:
    """Fill winding and status for each record via multiplicity probes.

    Probe radius shrinks with the local zero gap so circles never
    enclose a neighbor.
    """
    if not records:
        return []
    args = []
    with ctx.wp():
        ts = [r.t for r in records]
        for i, rec in enumerate(records):
            gap_lo = ts[i] - ts[i - 1] if i > 0 else mpf(100)
            gap_hi = ts[i + 1] - ts[i] if i + 1 < len(ts) else mpf(100)
            r = min(mpf(1) / 32, mpf("0.4") * min(gap_lo, gap_hi))
            args.append(
                (_stored(rec.rho.real, ctx), _stored(rec.rho.imag, ctx), _stored(r, ctx),
                 ctx.bits, ctx.target_digits)
            )
    windings = map_ordered(_probe_worker, args, _useful_workers(workers, len(args)))
    out = []
    with ctx.wp():
        for rec, w in zip(records, windings):
            simple = w == 1 and rec.zeta_prime_abs > SIMPLICITY_FLOOR
            out.append(
                rec._replace(winding=w, status=STATUS_SIMPLE if simple else STATUS_SUSPECT)
            )
    return out


def density_report(T, ctx: PrecisionContext, records: list[ZeroRecord],
                   n_winding: int) -> CountReport:
    """CountReport at height T from the scanned (and possibly audited)
    records and the count_by_argument count.

    The report is flagged when the two counts disagree or when the range
    is empty (ratio undefined).
    """
    with ctx.wp():
        T = mpf(T)
        n_sign = len(records)
        n_simple = sum(1 for r in records if r.status == STATUS_SIMPLE)
        flagged = n_sign != n_winding or n_winding == 0
        ratio = mpf(n_simple) / n_winding if n_winding > 0 else mpf(0)
        return CountReport(
            T=T,
            n_sign_changes=n_sign,
            n_winding=n_winding,
            rvm_estimate=rvm_estimate(T),
            n_simple=n_simple,
            ratio_simple=ratio,
            flagged=flagged,
        )


# ----------------------------------------------------------------------
# Zero cache file
# ----------------------------------------------------------------------


def format_cache_line(rec: ZeroRecord, ctx: PrecisionContext) -> str:
    """One cache record as its stored line (trailing newline included)."""
    with ctx.wp():
        return (
            f"{rec.index},{_stored(rec.t, ctx)},{_stored(rec.zeta_prime_abs, ctx)},"
            f"{rec.winding},{rec.status}\n"
        )


def write_cache(path: str, records: list[ZeroRecord], ctx: PrecisionContext) -> None:
    """Write the full cache atomically (used for fresh scans and for
    audit rewrites that update winding/status in place)."""
    tmp = path + ".tmp"
    lines = [f"{CACHE_HEADER_PREFIX}{ctx.target_digits}\n"]
    lines.extend(format_cache_line(rec, ctx) for rec in records)
    with open(tmp, "w") as fh:
        fh.writelines(lines)
    os.replace(tmp, path)


def read_cache(path: str, digits: int | None = None) -> tuple[int, list[ZeroRecord]]:
    """(digits, records) from a cache file.

    Stored fields round-trip exactly and rho is rebuilt from t.  The
    cache keeps |zeta'(rho)|, which is all a ZeroRecord holds of zeta'.
    The header must name digits in [DIGITS_MIN, DIGITS_MAX], equal to
    ``digits`` where that is given, and the records must carry the
    indices 1, 2, ... in order and increasing ordinates in
    [HEIGHT_MIN, HEIGHT_MAX], the heights the pipeline can have found;
    anything else raises CacheFormatError, a bad header before any record
    is read.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(CACHE_HEADER_PREFIX):
            raise CacheFormatError(f"bad cache header: {header!r}")
        try:
            cache_digits = int(header[len(CACHE_HEADER_PREFIX):])
        except ValueError as exc:
            raise CacheFormatError(f"bad digits in cache header: {header!r}") from exc
        if not DIGITS_MIN <= cache_digits <= DIGITS_MAX:
            raise CacheFormatError(
                f"cache {path} holds digits={cache_digits}, outside [{DIGITS_MIN}, {DIGITS_MAX}]"
            )
        if digits is not None and cache_digits != digits:
            raise CacheFormatError(f"cache {path} holds digits={cache_digits}, run requested {digits}")
        ctx = PrecisionContext.from_digits(cache_digits)
        records = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise CacheFormatError(f"line {lineno}: expected 5 fields, got {len(parts)}")
            index, t, zp_abs, winding, status = parts
            try:
                rec = _record(index, t, zp_abs, ctx, winding, status)
            except (ValueError, RangeError) as exc:
                raise CacheFormatError(f"line {lineno}: {exc}") from exc
            if not HEIGHT_MIN <= rec.t <= HEIGHT_MAX:
                raise CacheFormatError(f"line {lineno}: ordinate {t} outside [{HEIGHT_MIN}, {HEIGHT_MAX}]")
            if rec.index != len(records) + 1:
                raise CacheFormatError(
                    f"line {lineno}: index {rec.index} where record {len(records) + 1} belongs"
                )
            if records and not rec.t > records[-1].t:
                raise CacheFormatError(f"line {lineno}: ordinates not increasing")
            records.append(rec)
    return cache_digits, records
