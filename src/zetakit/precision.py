"""Arbitrary-precision arithmetic contract used by every numeric module.

All values are mpmath ``mpf``/``mpc`` numbers created and combined under an
explicit :class:`PrecisionContext`.  Nothing in the package reads or writes
``mpmath.mp`` global state outside a ``workprec`` block, so values are
immutable and safe to share across threads or worker processes.

Tolerances always derive from ``target_digits``; no operation carries a
hidden epsilon of its own.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath as mp
from mpmath import mpc, mpf

from .errors import GammaPoleError, PrecisionEscalationError, RangeError

_LOG2_10 = math.log2(10.0)

# Factor by which bits grow when a two-precision agreement check fails and
# the computation is retried.
ESCALATION_FACTOR = 2.0


class _Precision(NamedTuple):
    """The fields and methods of :class:`PrecisionContext`, unchecked."""

    bits: int
    target_digits: int

    @staticmethod
    def min_bits(digits: int) -> int:
        # 32 guard bits on top of the decimal-to-binary conversion.
        return max(64, math.ceil(digits * _LOG2_10) + 32)

    @classmethod
    def from_digits(cls, digits: int) -> "PrecisionContext":
        return cls(cls.min_bits(digits), digits)

    def wp(self, extra_bits: int = 0):
        """Context manager setting the working precision for a block."""
        return mp.workprec(self.bits + extra_bits)

    @property
    def tol(self) -> mpf:
        """10^(-target_digits), the package-wide certification tolerance."""
        with mp.workprec(self.bits):
            return mpf(10) ** (-self.target_digits)


class PrecisionContext(_Precision):
    """Working mantissa precision and the tolerance policy derived from it.

    ``bits`` is the mantissa size every operation computes with and
    ``target_digits`` the number of decimal digits the caller wants
    certified.  The fields are checked here because ``typing.NamedTuple``
    forbids a ``__new__`` in its own class body; ``_make`` and ``_replace``
    skip that check, so nothing calls them on this type.
    """

    __slots__ = ()

    def __new__(cls, bits: int, target_digits: int):
        if target_digits < 1:
            raise RangeError("target_digits must be >= 1")
        if bits < 64:
            raise RangeError("bits must be >= 64")
        if bits < cls.min_bits(target_digits):
            raise RangeError(
                f"bits={bits} too small for {target_digits} digits "
                f"(need >= {cls.min_bits(target_digits)})"
            )
        return super().__new__(cls, bits, target_digits)


def real_from(value, ctx: PrecisionContext) -> mpf:
    """Build an mpf from a decimal string, int, or float.

    Decimal strings convert exactly-to-precision (correctly rounded at
    ``ctx.bits``).  Non-finite inputs are rejected at construction.
    """
    with ctx.wp():
        x = mpf(value)
    if not mp.isfinite(x):
        raise RangeError(f"non-finite real rejected: {value!r}")
    return x


def to_decimal(x, ctx: PrecisionContext, digits: int | None = None) -> str:
    """Round-trippable decimal representation at target_digits.

    Parsing the returned string with :func:`real_from` under the same
    context reproduces the stored value to within one unit in the last
    emitted digit; this is the cache and report serialization format.
    """
    d = digits if digits is not None else ctx.target_digits
    return mp.nstr(x, d, strip_zeros=False)


def agreement_digits(a, b) -> int:
    """Decimal digits to which two evaluations of the same quantity agree."""
    diff = abs(mpc(a) - mpc(b))
    if diff == 0:
        return 10**9
    scale = max(abs(mpc(a)), abs(mpc(b)), mpf(1))
    return int(mp.floor(-mp.log10(diff / scale)))


def certified(fn, ctx: PrecisionContext, retries: int = 3):
    """Two-precision agreement harness.

    Evaluates ``fn(bits)`` at the context precision and again at
    ``ESCALATION_FACTOR * bits``.  On agreement to ``target_digits`` the
    higher-precision value is returned together with the measured digit
    count; otherwise the precision is escalated and the pair re-run, at
    most ``retries`` times before raising.
    """
    bits = ctx.bits
    for _ in range(retries):
        hi_bits = int(math.ceil(bits * ESCALATION_FACTOR))
        lo = fn(bits)
        hi = fn(hi_bits)
        digits = agreement_digits(lo, hi)
        if digits >= ctx.target_digits:
            return hi, min(digits, ctx.target_digits + int((hi_bits - ctx.bits) / _LOG2_10))
        bits = hi_bits
    raise PrecisionEscalationError(
        f"no {ctx.target_digits}-digit agreement after {retries} escalations"
    )


def _is_nonpositive_integer(z: mpc) -> bool:
    return z.imag == 0 and z.real <= 0 and mp.isint(z.real)


def log_gamma(z, ctx: PrecisionContext) -> mpc:
    """Principal branch of log Gamma(z), from mpmath's ``loggamma``.

    The branch is continuous on C minus the real ray (-inf, 0] and
    conjugate symmetric, so exp(log_gamma(z)) equals Gamma(z) but the
    imaginary part is not reduced mod 2 pi.  Non-positive integers are
    poles and raise :class:`GammaPoleError`.  The result is an ``mpc``
    rounded to ``ctx.bits``, whatever the ambient mpmath precision: an
    mpmath argument is taken as it is, not rounded first.
    """
    z = mp.mpmathify(z)
    if _is_nonpositive_integer(z):
        raise GammaPoleError(f"log_gamma pole at z={z}")
    with ctx.wp():
        return mpc(mp.loggamma(z))


def cpow(k: int, s, ctx: PrecisionContext) -> mpc:
    """k^(-s) = exp(-s log k) with the principal (real) log of k >= 1."""
    if k < 1:
        raise RangeError("cpow requires k >= 1")
    if k == 1:
        with ctx.wp():
            return mpc(1)
    with ctx.wp():
        s = mpc(s)
        if s.imag == 0 and mp.isint(s.real) and abs(s.real) <= 64:
            return mpc(mpf(k) ** (-int(s.real)))
        return mp.exp(-s * mp.log(mpf(k)))
