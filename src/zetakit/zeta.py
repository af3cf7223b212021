"""Evaluation of zeta(s), its derivatives, 1/zeta(s), and the Hardy Z function.

The correctness reference at every height is Euler-Maclaurin summation,

    zeta(s) = sum_{n<=N} n^-s + N^(1-s)/(s-1) - N^-s/2
              + sum_{m=1..M} B_2m/(2m)! (s)_{2m-1} N^(-s-2m+1),

with N = ceil(|Im s| q/(2 pi)) + digits, q = max(2, 10^((digits+5)/360)),
and M grown until the last term kept drops below 10^-(digits+5), 5 being
``mobius.EM_STOP_DIGITS``: N is a double's, the stop an exact int.  Tail
terms shrink by about (|Im s|/(2 pi N))^2 a step: q holds that ratio to
1/4, or lower where 180 terms must gain digits+5 digits (the cap is 200),
and the added digits cover small |Im s|, where the terms go like
(2m)!/(2 pi N)^(2m).  Differentiated j times,

    zeta^(j)(s) = (-1)^j (sum_{n<=N} ln^j(n) n^-s + T_j(N)),

and the remainder past N, T_j(N) = sum_{n>N} ln^j(n) n^-s, is the
Euler-Maclaurin jet :func:`zetakit.mobius.tail_jet` at ``order``: 0 for
zeta, 1 with zeta' for contour work, and any order for :func:`zeta_jet`,
whose Taylor polynomials zero refinement solves (one jet a zero from a
double seed, of order 4 at 30 digits).  Both
parts are jets of the same layout in
Python-int fixed point at wp = prec + bit_length(N) + 24 bits, prec the
working precision: ln^j(n) n^-s comes from the multiplicative power
kernel :func:`zetakit.mobius.dirichlet_powers`, so only primes take an
exp, and each tail term, with N^-s factored out, is the last one times
the exact ratio of consecutive B_2m/(2m)!, two linear factors and 1/N^2.
Each power carries at most about bit_length(N) + 2 units of 2^(-wp), and
its order-j entry ln^j(N) times that and j more, so the N terms of order
j are off by about N ln^j(N) (bit_length(N) + 2) 2^(-wp) < 2^(-prec)
while (bit_length(N) + 2) ln^j(N) < 2^24, below the last bit kept when
each order is rounded once to prec.  :func:`zeta` and :func:`zeta_jet`
sum directly for Re(s) >= EM_SIGMA_MIN; left of it :func:`zeta` reflects
through the symmetric functional equation.  Two double-precision tiers
serve the zero pipeline only, each with a stated error: a Riemann-Siegel main sum
for scanning, and :func:`em_pair_float`, this formula in Python complex
arithmetic, for the integer-valued work (counts, windings, Newton seeds)
and the grid signs Riemann-Siegel leaves open.

Taylor coefficients are the orders of one jet over j!: route one of
:mod:`zetakit.laurent` takes them at each zero from :func:`zeta_jet`, and
the Laurent coefficients at the pole s = 1, the Stieltjes constants, come
from one jet too (:func:`zetakit.mobius.stieltjes_fixed`), so no DFT is
left in the package.  Every circle of the package, the ring
:func:`zeta_ring` that the residual sweep of :mod:`zetakit.laurent`
inverts for its 1/zeta targets through the basin check of
:func:`inverse_zeta_value`, and the multiplicity probe of
:mod:`zetakit.zeros`, takes its nodes radius e^(2 pi i j/n) from
:func:`ring_samples`.  It takes an exp only on the first octant and
builds the other nodes by exact swaps and sign flips, so the ring is
exactly symmetric about both axes and nests each ring in the one of
twice its nodes, bit for bit.  A ring on the critical line (every zero) evaluates
n/2 + 1 of its n nodes, 4 dividing n: the other node of each mirror pair
is chi times the conjugate of its partner's value.  The evaluated nodes
share one Dirichlet jet at the centre rho, sum_{k<=N} ln^m(k) k^-rho for
m <= M, whose Taylor series in h = s - rho gives each node's main sum,
and each takes its own Euler-Maclaurin tail, so a node keeps the bits of
:func:`zeta`.  The other nodes take chi from one Taylor jet of log Gamma
at rho/2, :func:`zetakit.mobius.log_gamma_jet`.  The 64-node residual
circle at a zero so takes one Dirichlet jet pass, 33 tails, one log
Gamma jet and 31 of its sums.  The process
caches here (the unit nodes per node count and precision, the basin
threshold per context, the double logs per main-sum length) are
``functools.lru_cache``d functions.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from typing import NamedTuple

import mpmath as mp
from mpmath import mpc, mpf

from .errors import ContourNearZeroError, NearZeroError, PoleError, PrecisionEscalationError, RangeError
from .mobius import (
    EM_STOP_DIGITS,
    dirichlet_powers,
    em_terms,
    exp_fixed_pair,
    fixed_pair,
    fixed_to_mpc,
    log_gamma_jet,
    tail_jet,
)
from .precision import PrecisionContext, certified, log_gamma

EULER_MACLAURIN = "euler-maclaurin"
REFLECTED = "reflected"

EM_SIGMA_MIN = -1.5  # zeta and zeta_jet sum directly for Re(s) >= this
HEIGHT_MIN, HEIGHT_MAX = 10, 1000  # the heights t of the double tiers and the zero pipeline


class ZetaValue(NamedTuple):
    """A certified zeta evaluation: value, producing method, digit count."""

    value: mpc
    method: str
    certified_digits: int


def _em_pair(s: mpc, digits: int, order: int, main=None):
    """[zeta^(j)(s) for j <= order] by Euler-Maclaurin at current workprec.

    N is ``em_terms(Im s, digits)`` (see the module docstring); the
    Bernoulli tail runs until its last term is below 10^-(digits+5), and if
    it stalls first the main sum is doubled and the evaluation retried,
    up to 8 N.  ``main`` of :func:`_em_attempt` serves the first N only.
    """
    N = em_terms(s.imag, digits)
    for _ in range(4):
        out = _em_attempt(s, N, digits, order, main)
        if out is not None:
            return out
        last, N, main = N, 2 * N, None
    raise PrecisionEscalationError(f"Euler-Maclaurin stalled at s={s}, N={last}")


def _em_attempt(s: mpc, N: int, digits: int, order: int, main=None):
    """[zeta^(j)(s) for j <= order] = (-1)^j (sum_{n<=N} ln^j(n) n^-s + T_j(N)),
    the remainder T_j(N) from :func:`zetakit.mobius.tail_jet`, or None where
    its Bernoulli tail, stopped at floor(2^wp/10^(digits + EM_STOP_DIGITS))
    units of 2^(-wp), stalls.  The tail jet and the main sum are summed at
    wp bits, and each order is rounded once to the working precision.  The
    main sum is the N jets of one :func:`zetakit.mobius.dirichlet_powers`
    pass at s, or ``main(s, N, wp)``, its summed jet, where that is given
    (the Taylor shift of :func:`_shifted_main_sums`, of order 0)."""
    prec = mp.mp.prec
    wp = prec + N.bit_length() + 24
    tail = tail_jet(s, N, order, wp, (1 << wp) // 10 ** (digits + EM_STOP_DIGITS))
    if tail is None:
        return None  # asymptotic tail stalled; caller doubles N
    jets = (main(s, N, wp),) if main else dirichlet_powers(s, N, wp, order)
    sums = list(map(sum, zip(tail, *jets)))
    out = []
    for j in range(order + 1):
        v = fixed_to_mpc(sums[2 * j], sums[2 * j + 1], wp, prec)
        out.append(-v if j % 2 else v)
    return out


def _is_trivial_zero(s: mpc) -> bool:
    return s.imag == 0 and s.real < 0 and mp.isint(s.real) and int(s.real) % 2 == 0


def _chi(s: mpc, ctx: PrecisionContext) -> mpc:
    """chi(s) = pi^(s-1/2) Gamma((1-s)/2) / Gamma(s/2), so zeta = chi * zeta(1-s)."""
    lg1 = log_gamma((1 - s) / 2, ctx)
    lg2 = log_gamma(s / 2, ctx)
    return mp.exp((s - mpf(1) / 2) * mp.log(mp.pi) + lg1 - lg2)


def _reflected(s: mpc, v: mpc, bits: int, ctx: PrecisionContext) -> mpc:
    """zeta(s) = chi(s) zeta(1-s) rounded to ``bits``, from v = zeta(1-s);
    the product is taken at bits + 40.  Both log Gamma values of chi are
    rounded to max(bits, ctx.bits) before the exp, so chi is good to
    about |log Gamma| 2^-bits, not to 2^-(bits+40): which bits of
    log Gamma it took decides the last bits of the product.  Only
    :func:`zeta` reflects here, left of EM_SIGMA_MIN."""
    with mp.workprec(bits + 40):
        v = v * _chi(s, PrecisionContext(max(bits, ctx.bits), ctx.target_digits))
    with mp.workprec(bits):
        return +v


def zeta(s, ctx: PrecisionContext, certify: bool = False) -> ZetaValue:
    """zeta(s) to ctx.target_digits.

    For Re(s) >= EM_SIGMA_MIN the Euler-Maclaurin sum, bit for bit
    ``zeta_jet(s, 0, ctx)[0]``; left of it the value is reflected through
    the functional equation from zeta(1 - s), and zeta(-2k) is exactly 0.
    ``certify=True`` re-runs the evaluation at escalated precision and
    reports the measured agreement.

    Accuracy is relative to |zeta(s)|: next to the pole a component that
    cancels against 1/(s-1), as Re zeta(1 + 10^-300 i), loses about log10(1/|s-1|) digits.
    """
    with ctx.wp():
        s = mpc(s)
    if s == 1:
        raise PoleError("zeta pole at s=1")
    reflect = s.real < EM_SIGMA_MIN
    if _is_trivial_zero(s):
        with ctx.wp():
            return ZetaValue(mpc(0), REFLECTED, ctx.target_digits)

    def run(bits):
        with mp.workprec(bits + 40):
            v = _em_pair(1 - s if reflect else s, ctx.target_digits, 0)[0]
        if reflect:
            return _reflected(s, v, bits, ctx)
        with mp.workprec(bits):
            return +v

    value, digits = certified(run, ctx) if certify else (run(ctx.bits), ctx.target_digits)
    return ZetaValue(value, REFLECTED if reflect else EULER_MACLAURIN, digits)


def zeta_jet(s, order: int, ctx: PrecisionContext) -> list:
    """[zeta^(j)(s) for j <= order] by direct differentiated Euler-Maclaurin.

    One sum of :func:`_em_pair` at ctx.bits + 40 bits, each order rounded
    to ctx.bits, valid for Re(s) >= EM_SIGMA_MIN.  The accuracy is set not
    by ctx but by the Bernoulli tail's stop at 10^-(digits+5), which waits
    for every order, so jets of different orders differ by about an ulp of
    ctx in each entry: :func:`zetakit.laurent.build_expansion` takes one
    order-13 jet for every N.  Zero refinement solves the Taylor
    polynomials of these jets, and route one of :mod:`zetakit.laurent`
    inverts them at each zero.
    Accuracy is relative, as in :func:`zeta`; next to the pole zeta^(j)
    cancels against (-1)^j j!/(s-1)^(j+1) and loses about
    (j + 1) log10(1/|s-1|) digits, as Im zeta'(1 + 10^-30 i) does.
    """
    if order < 0:
        raise RangeError("zeta_jet needs order >= 0")
    with ctx.wp():
        s = mpc(s)
    if s == 1:
        raise PoleError("zeta pole at s=1")
    if s.real < EM_SIGMA_MIN:
        raise RangeError(f"direct Euler-Maclaurin derivative limited to Re(s) >= {EM_SIGMA_MIN}")
    with ctx.wp(40):
        jet = _em_pair(s, ctx.target_digits, order)
    with ctx.wp():
        return [+v for v in jet]


def zeta_and_deriv_raw(s, ctx: PrecisionContext) -> tuple[mpc, mpc]:
    """(zeta(s), zeta'(s)): :func:`zeta_jet` at order 1, the workhorse of
    the 12-digit Backlund count and winding-number quadrature."""
    return tuple(zeta_jet(s, 1, ctx))


def zeta_logderiv(s, ctx: PrecisionContext) -> mpc:
    """zeta'(s)/zeta(s) for contour quadrature; raises
    ContourNearZeroError where |zeta(s)| < ctx.tol, a point that lies
    numerically on a zero."""
    v, dv = zeta_and_deriv_raw(s, ctx)
    with ctx.wp():
        if abs(v) < ctx.tol:
            raise ContourNearZeroError(f"contour point {s} lies numerically on a zero")
        return dv / v


def inverse_zeta(s, ctx: PrecisionContext) -> mpc:
    """1/zeta(s); refuses evaluation inside a zero's numerical basin."""
    return inverse_zeta_value(zeta(s, ctx).value, s, ctx)


def inverse_zeta_value(zv, s, ctx: PrecisionContext) -> mpc:
    """1/zv for zv = zeta(s), raising NearZeroError where
    |zv| < 10^(-digits/2): s then lies in a zero's numerical basin."""
    with ctx.wp():
        if abs(zv) < _basin(ctx):
            raise NearZeroError(f"|zeta({s})| = {mp.nstr(abs(zv), 6)} is inside a zero basin")
        return 1 / zv


def basin_radius(ctx: PrecisionContext) -> mpf:
    """The basin threshold of :func:`inverse_zeta_value`, 10^(-digits/2) at
    ctx's precision, for checks that test |zeta| against it."""
    return _basin(ctx)


@functools.lru_cache(maxsize=None)
def _basin(ctx: PrecisionContext) -> mpf:
    """10^(-digits/2) at ctx's precision, the radius of a zero's basin in
    |zeta|."""
    with ctx.wp():
        return mpf(10) ** (-mpf(ctx.target_digits) / 2)


# ----------------------------------------------------------------------
# Circle samples
# ----------------------------------------------------------------------


def ring_samples(f, radius, nodes: int) -> list:
    """[f(h_j) for j < nodes], h_j = radius e^(2 pi i j / nodes).

    The package's one source of circle nodes, at the ambient working
    precision; the unit nodes are built once per (nodes, precision) by
    :func:`_unit_nodes`.  For n = nodes divisible by 8 only the first octant,
    j <= n/8, takes an exp, with 20 guard bits, so each part of a node is
    within half an ulp of e^(2 pi i j/n) (times radius, rounded once).
    The other nodes are exact swaps and sign flips of the octant: bit for
    bit, h_(n-j) = conj(h_j), h_(n/2-j) = -conj(h_j) and
    h_(n/4-j) = i conj(h_j), so n/8 + 1 exps build the ring.  Other n use
    the symmetries their divisibility allows.  For n divisible by 8, node
    j of the ring with n/2 nodes is node 2j here, bit for bit.
    """
    return [f(radius * z) for z in _unit_nodes(nodes, mp.mp.prec)]


@functools.lru_cache(maxsize=None)
def _unit_nodes(n: int, prec: int) -> tuple:
    """The unit nodes e^(2 pi i j/n), j < n, of :func:`ring_samples`,
    built at the ambient precision, which is prec."""
    w = []
    for j in range(n):
        if 2 * j > n:
            w.append(mp.conj(w[n - j]))
        elif n % 2 == 0 and 4 * j > n:
            w.append(-mp.conj(w[n // 2 - j]))
        elif n % 4 == 0 and 8 * j > n:
            z = w[n // 4 - j]
            w.append(mpc(z.imag, z.real))
        else:
            with mp.extraprec(20):
                z = mp.exp(mpc(0, 2) * mp.pi * j / n)
            w.append(+z)
    return tuple(w)


def zeta_ring(center: mpc, radius: mpf, nodes: int, ctx: PrecisionContext) -> tuple:
    """(points, values): the nodes s_j = center + h_j of
    :func:`ring_samples`, formed at ctx, and zeta(s_j) at ctx.

    On a centre with real part 1/2, an even node count and a radius at
    most min(1/4, |Im center|/16), the nodes with Re h >= 0 (n/2 + 1 of
    the n where 4 divides n) are evaluated directly, and node n/2 - j,
    Re h < 0, is placed at 1 - conj(s), s = center + h_j, and reflected
    through the functional equation from zeta(conj s) = conj zeta(s): it
    costs a chi in place of a sum.  An odd node count, a wider radius, where
    the log Gamma jet's bound is not taken, or any other centre,
    evaluates every node directly.

    A direct node s with Re(s) >= EM_SIGMA_MIN and s != 1 is one
    :func:`_em_pair` at ctx.bits + 40, as :func:`zeta` makes it, with its
    own tail jet, rounded to ctx.bits as :func:`zeta` rounds it; only the
    main sum of its first attempt, at its own N, comes from
    :func:`_shifted_main_sums`, one Dirichlet jet at the centre for every
    node.  The shift is off by about one unit of 2^(-wp) where the direct
    main sum is off by about N (bit_length(N) + 2), and the sum moves only
    in its last bits of wp = ctx.bits + 40 + bit_length(N) + 24 before it
    is rounded twice, so a node differs from ``zeta(s, ctx).value`` with
    odds of about 2^-58.  A stalled node is retried at 2 N with a direct
    main sum, as in :func:`zeta`; one left of EM_SIGMA_MIN takes :func:`zeta`.

    A reflected node takes its partner's value rounded to ctx and
    multiplies it by chi of :func:`_mirror_chi`, rounding once to ctx, so
    it need not have the bits of a fresh evaluation, but it stays within
    the Euler-Maclaurin tail threshold 10^-(digits+5) of one: up to 0.47
    of it at 30 digits and 0.83 at 60, zeros 1, 27 and 649, where both
    differ from mpmath's zeta by about as much, as both carry a tail cut
    at that threshold.  chi takes its two log Gamma values from one jet at
    center/2 and rounds them to ctx.bits, as :func:`_reflected` takes them
    from :func:`zetakit.precision.log_gamma`: chi is then good to about
    |log Gamma| 2^-ctx.bits, and those rounded bits set the node's last
    bits: a chi exact to ctx.bits + 40 moved the ``laurent`` residuals at
    zeros 1 and 29 at 30 digits.  mpmath's ``loggamma`` rounds correctly
    there (1980 of 1980 reflected-node arguments at 10 zeros from 1 to
    649, 30 to 200 digits), and so does the jet, summed well past
    ctx.bits, unless a value lies within a few units of 2^-W of a rounding
    boundary: at every node of rings of radius 1/32 and 1/4 at 15 zeros
    from 1 to 649, at 30, 60 and 200 digits, the two gave the same bits.
    """
    n = nodes
    out = [None] * n
    on_line = n % 2 == 0 and center.real == mpf(1) / 2 and radius <= min(mpf(1) / 4, abs(center.imag) / 16)
    chi = _mirror_chi(center, radius, ctx) if on_line else None
    digits = ctx.target_digits
    with ctx.wp():
        hs = ring_samples(mpc, radius, n)
        points = tuple(center + h for h in hs)
    direct = [j for j, h in enumerate(hs) if not (on_line and h.real < 0)]
    summed = [points[j] for j in direct]
    with mp.workprec(ctx.bits + 40):
        Ns = [em_terms(s.imag, digits) if s.real >= EM_SIGMA_MIN and s != 1 else 0 for s in summed]
        main = _shifted_main_sums(center, radius, set(Ns) - {0}, mp.mp.prec) if any(Ns) else None
        jets = [N and _em_pair(s, digits, 0, main) for s, N in zip(summed, Ns)]
    with ctx.wp():
        for j, s, jet in zip(direct, summed, jets):
            out[j] = v = +jet[0] if jet else zeta(s, ctx).value
            k = (n // 2 - j) % n
            if on_line and k != j:
                out[k] = chi(s) * mp.conj(v)
    return points, tuple(out)


def _mirror_chi(center: mpc, radius: mpf, ctx: PrecisionContext):
    """The function d -> chi(s), s = 1 - conj(d), for a ring's direct
    nodes d, |d - center| <= radius: chi at their mirror nodes, as an mpc
    of W = ctx.bits + 48 + bit_length(|Im center|) bits.

    It is e^x, x = (s - 1/2) ln pi + lg_1 - lg_2 with the log Gamma values
    lg_1, lg_2 of :func:`_mirror_log_gammas`, rounded to ctx.bits as
    :func:`_chi` takes them, and x, exp, cos and sin in W-bit fixed point
    (:func:`zetakit.mobius.exp_fixed_pair`).  ln pi and the reduction of
    Im x by pi/2 are off by about |Im d| + |x| units of 2^-W, so chi is
    within a relative 2^-(ctx.bits + 44) of e^x, and within
    |chi| 2^(1 - ctx.bits) (|lg_1| + |lg_2| + 1) of the exact chi(s), the
    ctx.bits rounding of the two log Gamma values."""
    W, log_gammas = _mirror_log_gammas(center, radius, ctx)
    with mp.workprec(W + 8):
        ln_pi = fixed_pair(mp.log(mp.pi), W)[0]
    half = 1 << W - 1

    def chi(d):
        (ar, ai), (br, bi) = log_gammas(d)
        dr, di = fixed_pair(d, W)
        x = ((half - dr) * ln_pi >> W) + ar - br, (di * ln_pi >> W) + ai - bi
        return fixed_to_mpc(*exp_fixed_pair(*x, W), W, W)

    return chi


def _mirror_log_gammas(center: mpc, radius: mpf, ctx: PrecisionContext):
    """(W, lg): lg(d) = (log Gamma((1 - s)/2), log Gamma(s/2)), s = 1 -
    conj(d), for |d - center| <= radius, each part rounded to ctx.bits as
    :func:`zetakit.precision.log_gamma` rounds it, as pairs of W-bit
    fixed-point ints, W = ctx.bits + 48 + bit_length(|Im center|).

    With Re center = 1/2, (1 - s)/2 = conj(d)/2 and s/2 = z_0 + u, z_0 =
    center/2 and u = -conj(d - center)/2, so both come from the one
    :func:`zetakit.mobius.log_gamma_jet` L at z_0: log Gamma(conj(d)/2) =
    conj(L((d - center)/2)) and log Gamma(s/2) = L(u).  Each is summed by
    Horner's rule in W-bit ints, within a few units of 2^-W of log Gamma,
    so it rounds as the exact value does unless that lies within those
    units of a rounding boundary: odds of about 2^(ctx.bits + 4 - W) a
    part where the parts exceed 1/2."""
    bits = ctx.bits
    W = bits + 48 + int(abs(center.imag)).bit_length()
    with mp.workprec(W):
        jet = log_gamma_jet(center / 2, float(radius) * (1 + 2.0**-20) / 2, W)
    top, rest = jet[-1], jet[-2::-1]
    cr, ci = fixed_pair(center, W)

    def lg(d):
        dr, di = fixed_pair(d, W)
        wr, wi = dr - cr >> 1, di - ci >> 1
        ar, ai = br, bi = top
        for lr, li in rest:
            ar, ai = lr + (ar * wr - ai * wi >> W), li + (ar * wi + ai * wr >> W)
            br, bi = lr - (br * wr + bi * wi >> W), li + (br * wi - bi * wr >> W)
        return (_round_bits(ar, bits), _round_bits(-ai, bits)), (_round_bits(br, bits), _round_bits(bi, bits))

    return W, lg


def _round_bits(x: int, bits: int) -> int:
    """The int x rounded to nearest at its leading ``bits`` bits, as mpmath
    rounds each part of an mpc."""
    n = x.bit_length() - bits
    return x if n <= 0 else (x + (1 << n - 1)) >> n << n


def _shifted_main_sums(center: mpc, radius: mpf, Ns: set, prec: int):
    """main(s, N, wp) = sum_{k<=N} k^-s as a pair of wp-bit fixed-point
    ints, for |s - center| <= radius and N in Ns, from one
    :func:`zetakit.mobius.dirichlet_powers` pass at the centre.

    With h = s - center and S_m(N) = sum_{k<=N} ln^m(k) k^-center,

        sum_{k<=N} k^-s = sum_{m<=M} (-h)^m/m! S_m(N) + R,

    |R| <= N^max(1, 1 - Re center) e^x x^(M+1)/(M+1)!, x = radius ln N_max:
    each |k^-center| <= N^max(0, -Re center), and the exponential series
    of e^(-h ln k) past order M is at most e^x x^(M+1)/(M+1)!.  M is the
    least order with that bound below 2^-W, and the pass runs at
    W = wp + 8 + ceil(2 x log2 e) bits, wp = prec + bit_length(N_max) + 24
    the largest of :func:`_em_attempt`.  The shift weighs the errors of
    the S_m by up to e^x, and a node right of the centre has terms, and
    so direct-sum errors, up to e^x smaller: the 2 x log2 e bits keep the
    shift's error below the direct sum's.  The partial sums S_m(N) are
    kept at every N in Ns, and h is exact: s and the centre are read from
    all their bits.  Each node sums the series by Horner's rule, one
    product and one division by m an order, and is shifted down to its wp.
    """
    top = max(Ns)
    x = float(radius) * math.log(top)
    wp = prec + top.bit_length() + 24
    W = wp + 8 + math.ceil(2 * x / math.log(2))
    lead = max(1, 1 - float(center.real)) * math.log2(top) + x / math.log(2)
    M = 0
    while x and lead + ((M + 1) * math.log(x) - math.lgamma(M + 2)) / math.log(2) >= -W:
        M += 1
    powers = dirichlet_powers(center, top, W, M)
    sums, acc, k = {}, (0,) * (2 * M + 2), 0
    for N in sorted(Ns):
        sums[N] = acc = tuple(map(sum, zip(acc, *itertools.islice(powers, N - k))))
        k = N
    cr, ci = fixed_pair(center, W)

    def main(s, N, wp):
        sr, si = fixed_pair(s, W)
        hr, hi = cr - sr, ci - si  # -h
        S = sums[N]
        ar, ai = S[2 * M], S[2 * M + 1]
        for m in range(M, 0, -1):
            ar, ai = S[2 * m - 2] + (hr * ar - hi * ai >> W) // m, S[2 * m - 1] + (hr * ai + hi * ar >> W) // m
        return ar >> W - wp, ai >> W - wp

    return main


# ----------------------------------------------------------------------
# Hardy Z and the Riemann-Siegel scanning tier
# ----------------------------------------------------------------------


def theta(t, ctx: PrecisionContext) -> mpf:
    """Riemann-Siegel theta: Im log Gamma(1/4 + it/2) - (t/2) log pi.

    Computed from log_gamma, not its asymptotic series.  It serves
    :func:`hardy_Z`; every tier of the zero pipeline takes theta_float.
    """
    with ctx.wp(20):
        t = mpf(t)
        lg = log_gamma(mpc(mpf(1) / 4, t / 2), ctx)
        val = lg.imag - t / 2 * mp.log(mp.pi)
    with ctx.wp():
        return +val


def hardy_Z(t, ctx: PrecisionContext) -> mpf:
    """Z(t) = e^(i theta(t)) zeta(1/2 + it), real-valued for real t >= 0."""
    with ctx.wp():
        t = mpf(t)
    if t < 0:
        raise RangeError("hardy_Z requires t >= 0")
    with ctx.wp(20):
        z = zeta(mpc(mpf(1) / 2, t), ctx).value
        rot = mp.exp(mpc(0, 1) * theta(t, ctx))
        val = (rot * z).real
    with ctx.wp():
        return +val


def theta_float(t: float) -> float:
    """Riemann-Siegel theta in double precision, for t >= HEIGHT_MIN, by the
    asymptotic series t/2 log(t/2pi) - t/2 - pi/8 + 1/(48t) + 7/(5760t^3).

    Its error is about the first term left out, 31/(80640 t^5), 3.8e-9 at
    t = 10 (see :func:`theta_float_error`)."""
    u = t / (2 * math.pi)
    return (
        t / 2 * math.log(u)
        - t / 2
        - math.pi / 8
        + 1 / (48 * t)
        + 7 / (5760 * t**3)
    )


def theta_float_error(t: float) -> float:
    """Bound on |theta_float(t) - theta(t)| for t >= HEIGHT_MIN: twice the first
    omitted term 31/(80640 t^5) (the next one is 0.77/t^2 times it), plus
    2^-51 |theta| for the rounding of the sum."""
    return 62 / (80640 * t**5) + abs(theta_float(t)) * 2.0**-51


def rs_error_bound(t: float) -> float:
    """Error bound for the Riemann-Siegel sum with correction C0.

    For t >= 200 this is Gabcke's proven bound on the remainder after C0,
    0.127 tau^(-3/4), tau = t/2pi (Gabcke 1979; after C1 it would be
    0.053 tau^(-5/4)).  Below t = 200, where the proof does not apply, a
    conservative 0.5 tau^(-3/4) is used, checked against mpmath's siegelz.
    Scanning treats any |Z| under twice this bound as sign-indeterminate
    and re-evaluates by Euler-Maclaurin.
    """
    a = t / (2 * math.pi)
    c = 0.127 if t >= 200 else 0.5
    return c * a ** (-0.75)


def hardy_Z_fast(t: float) -> float:
    """Float-precision Riemann-Siegel main sum with the first correction.

    Scanning tier only: error is bounded by :func:`rs_error_bound`, far
    from certified digits.  Below HEIGHT_MIN it raises RangeError.
    """
    if t < HEIGHT_MIN:
        raise RangeError(f"riemann-siegel tier needs t >= {HEIGHT_MIN}")
    a = math.sqrt(t / (2 * math.pi))
    nu = int(a)
    p = a - nu
    th = theta_float(t)
    acc = 0.0
    for n in range(1, nu + 1):
        acc += math.cos(th - t * math.log(n)) / math.sqrt(n)
    acc *= 2.0
    den = math.cos(2 * math.pi * p)
    if abs(den) < 1e-4:
        # removable point of the correction factor; average across it
        c0 = (_rs_c0(p - 1e-3) + _rs_c0(p + 1e-3)) / 2
    else:
        c0 = _rs_c0(p)
    return acc + (-1) ** (nu - 1) * (t / (2 * math.pi)) ** (-0.25) * c0


def _rs_c0(p: float) -> float:
    return math.cos(2 * math.pi * (p * p - p - 1.0 / 16.0)) / math.cos(2 * math.pi * p)


# ----------------------------------------------------------------------
# The double-precision tier
# ----------------------------------------------------------------------

# A Bernoulli tail term, with N^-s factored out, below this ends the tail.
_FLOAT_TAIL_EPS = 1e-17
# The main sum is sized as at 15 digits: N = ceil(|t|/pi) + 15, so the
# tail ratio (|s|/(2 pi N))^2 is at most about 1/4.
_FLOAT_DIGITS = 15


@functools.lru_cache(maxsize=None)
def _float_logs(N: int) -> tuple:
    """(ln 1, ..., ln N) in double, memoized per main-sum length."""
    return tuple(math.log(n) for n in range(1, N + 1))


# c_(m+1)/c_m, c_m = B_2m/(2m)!, for m = 1..32, in double: the ratios
# mobius.bernoulli_ratio(m, 64) / 2**64, written out so that no process
# computes a Bernoulli number for the float tier.  With the tail ratio at
# most about 1/4 and u_1 about 1/4, the tail reaches 1e-17 by m = 29 at
# any height.
_FLOAT_BERNOULLI_RATIOS = (
    -0.016666666666666666, -0.023809523809523808, -0.025,
    -0.025252525252525252, -0.02531135531135531, -0.02532561505065123,
    -0.025329131652661065, -0.025330005504037488, -0.02533022338183393,
    -0.025330277786482922, -0.025330291380456796, -0.025330294778152237,
    -0.025330295627487467, -0.025330295839811428, -0.025330295892891326,
    -0.02533029590616118, -0.025330295909478627, -0.025330295910307988,
    -0.02533029591051533, -0.025330295910567166, -0.025330295910580124,
    -0.02533029591058336, -0.025330295910584173, -0.025330295910584374,
    -0.025330295910584427, -0.025330295910584437, -0.02533029591058444,
    -0.025330295910584444, -0.025330295910584444, -0.025330295910584444,
    -0.025330295910584444, -0.025330295910584444,
)


def em_pair_float(s: complex) -> tuple[complex, complex]:
    """(zeta(s), zeta'(s)) by Euler-Maclaurin in double precision.

    The formula of the module docstring in Python ``complex`` arithmetic,
    with N = ceil(|t|/pi) + 15 terms, ln n memoized per N, and the
    Bernoulli tail summed until a term, with N^-s factored out, is below
    1e-17.  Meant for HEIGHT_MIN <= |Im s| <= HEIGHT_MAX and 1/4 <= Re s <= 2,
    where the tail ends by its 28th term, before its 32 tabulated ratios run out.

    Rounding.  Each power n^-s = exp(-s ln n) carries a phase error of
    about t ln n 2^-52 (the rounding of ln n, times t, and of the
    product) and a few units of 2^-53 in its modulus; summing N terms in
    double adds at most (N - 1) 2^-53 sum n^-sigma.  The error in zeta(s)
    is therefore about (N + t ln N) 2^-53 sum_{n<=N} n^-sigma, which
    :func:`em_float_error` bounds with a factor 4 to spare; zeta'(s),
    whose terms carry ln n, is within ln N times that.  The result is a
    first tier only: its callers accept it where an integer or a sign is
    decided with room to spare, and otherwise rerun in mpmath.
    """
    t = s.imag
    N = em_terms(t, _FLOAT_DIGITS)
    ms = -s
    acc = dacc = 0j
    for ln in _float_logs(N):
        p = cmath.exp(ms * ln)
        acc += p
        dacc -= ln * p
    lnN, NmS = ln, p  # the last power is N^-s
    # Tail N^-s sum_m u_m and its s-derivative sum_m v_m, the Bernoulli part
    # of mobius.tail_jet at order 1.
    u = s / (12 * N)
    v = 1 / (12 * N)
    tail = dtail = 0j
    N2 = N * N
    for m, r in enumerate(_FLOAT_BERNOULLI_RATIOS, start=1):
        d = v - lnN * u
        tail += u
        dtail += d
        if abs(u) < _FLOAT_TAIL_EPS and abs(d) < _FLOAT_TAIL_EPS:
            break
        for j in (2 * m - 1, 2 * m):
            a = s + j
            v = v * a + u
            u = u * a
        v *= r / N2
        u *= r / N2
    sm1 = s - 1
    T1 = NmS * N / sm1
    zeta_s = acc + T1 - NmS / 2 + NmS * tail
    dzeta_s = dacc - lnN * T1 - T1 / sm1 + lnN * NmS / 2 + NmS * dtail
    return zeta_s, dzeta_s


def em_float_error(s: complex) -> float:
    """Stated bound on |em_pair_float(s)[0] - zeta(s)|:
    4 (N + t ln N) 2^-53 (1 + int_1^N x^-sigma dx), the rounding argument
    of :func:`em_pair_float` with sum n^-sigma bounded by its integral.
    The error in zeta'(s) is within ln N times this."""
    sigma, t = s.real, abs(s.imag)
    N = em_terms(t, _FLOAT_DIGITS)
    lnN = math.log(N)
    if sigma == 1:
        total = 1 + lnN
    else:
        total = 1 + (N ** (1 - sigma) - 1) / (1 - sigma)
    return 4 * (N + t * lnN) * total * 2.0**-53


def functional_equation_sides(s, ctx: PrecisionContext) -> tuple[mpc, mpc]:
    """Both sides of pi^(-s/2) Gamma(s/2) zeta(s) = (s -> 1-s), independently.

    Where s and 1 - s both lie at or right of EM_SIGMA_MIN, as on the whole
    critical strip, each side is a direct Euler-Maclaurin sum, so the
    comparison never reuses the reflection it is meant to test.
    """
    with ctx.wp():
        s = mpc(s)

    def side(z):
        with ctx.wp(20):
            val = (
                mp.exp(-z / 2 * mp.log(mp.pi) + log_gamma(z / 2, ctx))
                * zeta(z, ctx).value
            )
        with ctx.wp():
            return +val

    return side(s), side(1 - s)
