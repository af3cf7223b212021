"""Stieltjes constants and the Euler constant.

gamma_n comes from the Laurent coefficients a_n of zeta at its pole,
under the normalization zeta(s) = 1/(s-1) + sum (-1)^n gamma_n (s-1)^n / n!.
They are the Taylor coefficients of the entire function zeta(s) - 1/(s-1),
which the shared Cauchy ring :func:`zetakit.zeta.taylor_ring` returns
when centred at s = 1 (here with radius 1/2).  The slowly
convergent telescoping series sum (1/k - log(1+1/k)) is kept alongside
as the calibration object: its partial sums increase monotonically to
the Euler constant with an O(1/K) tail.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath as mp
from mpmath import mpf

from .errors import PrecisionEscalationError, RangeError
from .mobius import checkpoint_ladder, fixed_to_mpf, log_int_fixed
from .precision import PrecisionContext
from .series import PartialSumSeries, build_partial_series
from .zeta import taylor_ring

N_MAX = 20


def _gammas(n_max: int, ctx: PrecisionContext) -> list:
    """gamma_0..gamma_n_max, complex as extracted, rounded to ctx.

    gamma_n = (-1)^n n! a_n scales the ring's error in a_n by n!, so the
    ring at s = 1 runs with ceil(log10(n_max!)) extra digits."""
    guard = math.ceil(math.log10(math.factorial(n_max)))
    inner = PrecisionContext.from_digits(ctx.target_digits + guard)
    a = taylor_ring(1, mpf(1) / 2, n_max + 1, inner)
    with inner.wp():
        gammas = [mp.factorial(n) * a[n] * (-1) ** n for n in range(n_max + 1)]
    with ctx.wp():
        return [+g for g in gammas]


def stieltjes_gamma(n: int, ctx: PrecisionContext) -> mpf:
    """gamma_n = (-1)^n n! a_n, a_n the n-th Laurent coefficient at s=1.

    Every n reads the one ring that serves gamma_0..gamma_N_MAX, so a
    run over several n samples zeta once."""
    if not 0 <= n <= N_MAX:
        raise RangeError(f"stieltjes_gamma supports 0 <= n <= {N_MAX}")
    val = _gammas(N_MAX, ctx)[n]
    with ctx.wp():
        if abs(val.imag) > ctx.tol * max(1, abs(val.real)):
            raise PrecisionEscalationError(
                f"gamma_{n} extraction left imaginary residue {mp.nstr(val.imag, 5)}"
            )
        return val.real


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
    gammas = [g.real for g in _gammas(n_max, ctx)]
    with ctx.wp():
        margins = [StieltjesTable.bound(n) - abs(gammas[n]) for n in range(1, n_max + 1)]
        return StieltjesTable(n_max=n_max, gammas=tuple(gammas), bound_margin=tuple(margins))
