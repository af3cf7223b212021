"""Stieltjes constants and the Euler constant.

gamma_n are the coefficients of zeta at its pole, under the normalization
zeta(s) = 1/(s-1) + sum (-1)^n gamma_n (s-1)^n / n!.  All of
gamma_0..gamma_N_MAX come from one Euler-Maclaurin jet at s = 1,
:func:`zetakit.mobius.stieltjes_fixed`: the main sum of ln^n(k)/k over
k <= N, the closed-form terms of N and the Bernoulli tail, in Python-int
fixed point, so every gamma_n is real by construction and no zeta is
evaluated.  The slowly convergent telescoping series
sum (1/k - log(1+1/k)) is kept alongside as the calibration object: its
partial sums increase monotonically to the Euler constant with an O(1/K)
tail.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import mpmath as mp
from mpmath import mpf

from .errors import PrecisionEscalationError, RangeError
from .mobius import checkpoint_ladder, fixed_to_mpf, log_int_fixed, stieltjes_fixed
from .precision import PrecisionContext
from .series import PartialSumSeries, build_partial_series

N_MAX = 20


# The Bernoulli tail of the jet has to end within this many terms, short
# of the 200 after which :func:`zetakit.mobius.stieltjes_fixed` calls it
# stalled.
_TAIL_TERMS = 150


def _jet_size(bits: int) -> tuple[int, int]:
    """(N, wp) of the jet at s = 1 that gives gamma_0..gamma_N_MAX to bits.

    The N powers of :func:`zetakit.mobius.dirichlet_powers` carry at most
    about bit_length(N) + 2 units of 2^(-wp) each, and their order-n entry
    (n + 1) ln^n(N) times that, so the main sum is off by at most
    err = N (N_MAX + 1) (bit_length(N) + 2) ln^N_MAX(N) units.  err
    exceeds ln^(n+1)(N)/(n+1), the size of the terms that cancel against
    gamma_n, so it bounds what that cancellation leaves too.  The
    smallest |gamma_n|, n <= 20, is 2^-15.2 (n = 13 and 17), so wp runs
    16 bits past bits, and 24 past err, as every fixed-point sum of the
    package does: wp = bits + 16 + 24 + ceil(log2 err).

    N is the least with two properties.  First, pi N >= wp ln 2: the
    Bernoulli tail at s = 1 falls to about e^(-2 pi N) before it grows,
    and twice the exponent one unit needs keeps it far from that floor,
    so it ends within about pi N / 5 terms.  Second, its term
    m = _TAIL_TERMS is below one unit: at s = 1 the m-th term is
    2 zeta(2m) (2m-1)!/(2 pi N)^(2m), zeta(2m) < 2, times at most
    ln^n(2 pi N) at order n, so the tail ends in time even where pi N / 5
    would pass _TAIL_TERMS, above about 400 digits."""
    N = math.ceil(bits * math.log(2) / math.pi)
    while True:
        err = N * (N_MAX + 1) * (N.bit_length() + 2) * math.log(N) ** N_MAX
        wp = bits + 40 + math.ceil(math.log2(err))
        x = math.log(2 * math.pi * N)
        last = 2 + (math.lgamma(2 * _TAIL_TERMS) - 2 * _TAIL_TERMS * x) / math.log(2) + N_MAX * math.log2(x)
        if math.pi * N >= wp * math.log(2) and last < -wp:
            return N, wp
        N += 1


@functools.lru_cache(maxsize=None)
def _gammas(ctx: PrecisionContext) -> tuple:
    """(gamma_0, ..., gamma_N_MAX) rounded to ctx.bits, from one jet per
    context."""
    N, wp = _jet_size(ctx.bits)
    gammas = stieltjes_fixed(N_MAX, N, wp)
    if gammas is None:
        raise PrecisionEscalationError(f"Bernoulli tail of the Stieltjes jet stalled at N={N}")
    return tuple(fixed_to_mpf(g, wp, ctx.bits) for g in gammas)


def stieltjes_gamma(n: int, ctx: PrecisionContext) -> mpf:
    """gamma_n, the n-th Stieltjes constant, rounded to ctx.bits.

    Every n reads the one jet that serves gamma_0..gamma_N_MAX."""
    if not 0 <= n <= N_MAX:
        raise RangeError(f"stieltjes_gamma supports 0 <= n <= {N_MAX}")
    return _gammas(ctx)[n]


def euler_gamma_partial(checkpoints, ctx: PrecisionContext) -> PartialSumSeries:
    """Partial sums of sum_{k<=K} (1/k - log(1+1/k)) at each checkpoint.

    The sum runs in fixed point at wp = ctx.bits + ceil(log2 K) + 24 bits,
    K the last checkpoint, under the policy of
    :func:`zetakit.mobius.dirichlet_partial`: 1/k is the int 2^wp // k and
    log(1+1/k) is ``log_int_fixed(k+1) - log_int_fixed(k)``, whose sum over
    k <= K telescopes exactly to ``log_int_fixed(K+1)``.  Each checkpoint
    is rounded once to ctx.bits."""
    checkpoints = checkpoint_ladder(checkpoints)
    wp = ctx.bits + math.ceil(math.log2(checkpoints[-1])) + 24
    one = 1 << wp
    raws = []
    harmonic = 0
    for lo, K in zip([0] + checkpoints, checkpoints):
        harmonic += sum(one // k for k in range(lo + 1, K + 1))
        raws.append(fixed_to_mpf(harmonic - log_int_fixed(K + 1, wp), wp, ctx.bits))
    with ctx.wp():
        return build_partial_series(checkpoints, raws)


class StieltjesTable(NamedTuple):
    """gamma_0..gamma_n_max plus margins of the classical bound
    |gamma_n| <= e n! / (2^n sqrt(n)) for n >= 1."""

    n_max: int
    gammas: tuple
    bound_margin: tuple  # entry i is the margin at n = i + 1

    @staticmethod
    def bound(n: int) -> mpf:
        """e n! / (2^n sqrt(n)) at the ambient precision."""
        if n < 1:
            raise RangeError("the growth bound applies for n >= 1")
        return mp.e * mp.factorial(n) / (mpf(2) ** n * mp.sqrt(n))


def bound_check(n_max: int, ctx: PrecisionContext) -> StieltjesTable:
    """Tabulate gamma_n and the bound margins e n!/(2^n sqrt(n)) - |gamma_n|."""
    if not 0 <= n_max <= N_MAX:
        raise RangeError(f"bound_check supports 0 <= n_max <= {N_MAX}")
    gammas = _gammas(ctx)[: n_max + 1]
    with ctx.wp():
        margins = [StieltjesTable.bound(n) - abs(gammas[n]) for n in range(1, n_max + 1)]
        return StieltjesTable(n_max=n_max, gammas=gammas, bound_margin=tuple(margins))
