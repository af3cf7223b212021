"""Partial-sum diagnostics, and the compensated accumulators kept for callers.

Partial sums of conditionally convergent Dirichlet-type series are the
object of study here, not just a means to a limit, so they are kept
faithfully under one summation policy: guard bits.  Each sum over K
terms runs in Python-int fixed point at ctx.bits + ceil(log2 K) + 24
bits and is rounded once to ctx.bits at each checkpoint, so its rounding
errors stay below the last bit kept
(:func:`zetakit.stieltjes.euler_gamma_partial`; the Mobius sums of
:func:`zetakit.mobius.dirichlet_partial` size their guard bits from
their own error bound, never fewer than these).  The series record
keeps raw values, Cesaro-smoothed values, and an oscillation statistic
side by side.

:class:`KahanSum` and :class:`KahanComplexSum` (Neumaier compensation at
the working precision) stay public for outside callers; the package
itself no longer uses them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from mpmath import mpc, mpf


class KahanSum:
    """Neumaier-compensated running sum of mpf values.

    Not used by the package, whose sums take guard bits instead."""

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = mpf(0)
        self.c = mpf(0)

    def add(self, x) -> None:
        t = self.s + x
        if abs(self.s) >= abs(x):
            self.c += (self.s - t) + x
        else:
            self.c += (x - t) + self.s
        self.s = t

    @property
    def total(self) -> mpf:
        return self.s + self.c


class KahanComplexSum:
    """Componentwise Neumaier accumulator for mpc values.

    Not used by the package, whose sums take guard bits instead."""

    __slots__ = ("re", "im")

    def __init__(self):
        self.re = KahanSum()
        self.im = KahanSum()

    def add(self, z) -> None:
        z = mpc(z)
        self.re.add(z.real)
        self.im.add(z.imag)

    @property
    def total(self) -> mpc:
        return mpc(self.re.total, self.im.total)


class _Series(NamedTuple):
    """The fields of :class:`PartialSumSeries`, unchecked."""

    checkpoints: tuple
    raw: tuple
    smoothed: tuple
    oscillation: mpf


class PartialSumSeries(_Series):
    """Partial sums at checkpoint truncations, raw and smoothed.

    smoothed[i] averages the trailing quarter of the raw values up to i
    (single Cesaro pass); oscillation is the largest pairwise |raw_i -
    raw_j| over the final quarter of the ladder, widened to at least two
    entries so the short default ladder still yields a spread.  The
    fields are checked here because ``typing.NamedTuple`` forbids a
    ``__new__`` in its own class body; ``_make`` and ``_replace`` skip
    that check, so nothing calls them on this type.
    """

    __slots__ = ()

    def __new__(cls, checkpoints: tuple, raw: tuple, smoothed: tuple, oscillation: mpf):
        if len(raw) != len(checkpoints) or len(smoothed) != len(checkpoints):
            raise ValueError("checkpoint, raw, smoothed lengths differ")
        if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        return super().__new__(cls, checkpoints, raw, smoothed, oscillation)


def build_partial_series(checkpoints, raw) -> PartialSumSeries:
    """Assemble a PartialSumSeries, deriving smoothing and oscillation."""
    checkpoints = tuple(int(k) for k in checkpoints)
    raw = tuple(raw)
    smoothed = []
    for i in range(len(raw)):
        w = max(1, math.ceil((i + 1) / 4))
        window = raw[i + 1 - w : i + 1]
        acc = window[0]
        for v in window[1:]:
            acc = acc + v
        smoothed.append(acc / w)
    if raw:
        w = max(2, math.ceil(len(raw) / 4))
        tail = raw[-w:]
        osc = mpf(0)
        for i in range(len(tail)):
            for j in range(i + 1, len(tail)):
                d = abs(tail[i] - tail[j])
                if d > osc:
                    osc = d
        oscillation = osc
    else:
        oscillation = mpf(0)
    return PartialSumSeries(checkpoints, raw, tuple(smoothed), oscillation)
