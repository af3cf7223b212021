"""Mobius function tables, Mertens sums, and weighted Dirichlet partial sums.

The sieve runs over 1..N in segments of ``SEGMENT`` integers.  Each prime
p <= sqrt(N) flips the sign of its multiples, zeroes the multiples of p^2
and multiplies itself into a per-segment product of the small prime
factors of k.  A squarefree k whose product is still below k has exactly
one prime factor above sqrt(N), so its sign flips once more.  The result
is mu(1..N) as one int8 array.  That table is the package's only source
of mu(k): the Dirichlet sweep below, the Mertens sums and the Laurent
module's spot terms all read it.  :func:`mertens_sublinear` needs it
only up to about x^(2/3), by the hyperbola recursion for M(x).

The Dirichlet sums run in Python-int fixed point, the idiom of mpmath's
own ``zetasum_sieved``: a real x is the int floor(x 2^wp).
:func:`dirichlet_powers` is the one power kernel of every Dirichlet sum:
the sweep below and the Euler-Maclaurin main sum of :mod:`zetakit.zeta`.
A prime p takes ln p, exp(-Re(s) ln p) and cos, sin of Im(s) ln p in
fixed point.
k -> k^(-s) is completely multiplicative, so a composite k = p q, with p
its smallest prime factor, takes p^(-s) q^(-s) and ln p + ln q from a
memo of earlier values: integer products and a shift.  s itself is
converted to fixed point from all of its bits, never rounded to the
working precision first.

:func:`dirichlet_partial` is the one loop over k that weights by mu(k).
It sums mu(k) log^n(k) k^(-rho) in increasing k, for several log powers
n at once.  Its summation policy is guard bits: integer sums at
wp = ctx.bits + ceil(log2 K) + 24 bits, rounded once to ctx.bits at each
checkpoint.  Each power carries an error of at most about
ceil(log2 K) + 2 units of 2^(-wp), one per product along its factor
chain, so the K terms of the sweep are off by about
K (ceil(log2 K) + 2) 2^(-wp), below the last bit kept.

This module is the package's only user of mpmath's internal ``libmp``
layer, which carries no API promise.  Other modules take the conversions
:func:`fixed_pair`, :func:`fixed_to_mpf` and :func:`fixed_to_mpc`, and
``log_int_fixed``, from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath.libmp import fzero, from_man_exp, ln2_fixed, pi_fixed, to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed, log_int_fixed

from .errors import LimitTooLargeError, RangeError
from .precision import PrecisionContext

SIEVE_CAP = 10**8

# Integers per sieve segment and per block of the power kernel; an int8
# segment and its int32 product then stay within a core's cache.
SEGMENT = 1 << 18

@dataclass
class MobiusTable:
    limit: int
    values: np.ndarray  # values[k-1] = mu(k), dtype int8

    def mobius(self, k: int) -> int:
        if not 1 <= k <= self.limit:
            raise RangeError(f"mobius index {k} outside table limit {self.limit}")
        return int(self.values[k - 1])


def _small_primes(n: int) -> list:
    """The primes <= n, by a boolean Eratosthenes sieve."""
    comp = np.zeros(n + 1, dtype=bool)
    comp[:2] = True
    for p in range(2, math.isqrt(n) + 1):
        if not comp[p]:
            comp[p * p :: p] = True
    return np.flatnonzero(~comp).tolist()


def sieve_mobius(N: int) -> MobiusTable:
    """MobiusTable for 1..N, sieved in segments by the primes <= sqrt(N)."""
    if N < 1:
        raise RangeError("sieve limit must be >= 1")
    if N > SIEVE_CAP:
        raise LimitTooLargeError(f"sieve limit {N} exceeds cap {SIEVE_CAP}")
    primes = _small_primes(math.isqrt(N))
    mu = np.empty(N, dtype=np.int8)
    for lo in range(1, N + 1, SEGMENT):
        hi = min(lo + SEGMENT, N + 1)
        seg = np.ones(hi - lo, dtype=np.int8)
        prod = np.ones(hi - lo, dtype=np.int32)  # <= k <= SIEVE_CAP < 2^31
        for p in primes:
            i = -lo % p  # offset of the first multiple of p in the segment
            flip = seg[i::p]
            np.negative(flip, out=flip)
            part = prod[i::p]
            part *= p
            pp = p * p
            seg[-lo % pp :: pp] = 0
        big = prod < np.arange(lo, hi, dtype=np.int32)  # one prime factor > sqrt(N) left
        np.negative(seg, out=seg, where=big)
        mu[lo - 1 : hi - 1] = seg
    return MobiusTable(limit=N, values=mu)


def smallest_prime_factors(K: int) -> np.ndarray:
    """spf with spf[k] the smallest prime factor of k for 2 <= k <= K.

    The sieve's small-prime step: every prime p <= sqrt(K), largest
    first, writes itself on its multiples from p^2, so the smallest one
    writes last; k left unmarked is prime and keeps spf[k] = k, as do 0
    and 1.
    """
    spf = np.arange(K + 1, dtype=np.int32)
    for p in reversed(_small_primes(math.isqrt(K))):
        spf[p * p :: p] = p
    return spf


def fixed_pair(z, wp: int) -> tuple:
    """(Re z, Im z) as wp-bit fixed-point ints, truncated from every bit of
    z; z is never rounded to the working precision first."""
    z = mp.mpmathify(z)
    re, im = z._mpc_ if isinstance(z, mp.mpc) else (z._mpf_, fzero)
    return to_fixed(re, wp), to_fixed(im, wp)


def fixed_to_mpf(x: int, wp: int, prec: int):
    """The wp-bit fixed-point int x as an mpf rounded to nearest at prec bits."""
    return mp.make_mpf(from_man_exp(x, -wp, prec, "n"))


def fixed_to_mpc(re: int, im: int, wp: int, prec: int):
    """re + i im, wp-bit fixed-point ints, as an mpc rounded to nearest at
    prec bits."""
    return mp.make_mpc((from_man_exp(re, -wp, prec, "n"), from_man_exp(im, -wp, prec, "n")))


def dirichlet_powers(s, K: int, wp: int, mu=None, spf=None):
    """Yield (k, ln, re, im) for k = 1..K in increasing order, with
    ln k and k^(-s) = re + i im as wp-bit fixed-point ints.

    With ``mu`` (``mu[k-1] = mu(k)``, e.g. ``MobiusTable.values``) only the
    squarefree k are visited.  ``spf`` is ``smallest_prime_factors(M)``
    for some M >= K, built here when omitted.

    A prime p takes ln p from ``log_int_fixed`` and p^(-s) as
    exp(-Re(s) ln p) (cos, sin)(-Im(s) ln p).  A composite k = p q,
    p = spf[k], takes k^(-s) = p^(-s) q^(-s) and ln k = ln p + ln q from a
    memo.  A value is memoized only if it can serve as a factor later: its
    k is at most K/2, and in a squarefree sweep it is odd or 2, since an
    even q > 2 makes p q divisible by 4.
    """
    sre, sim = fixed_pair(s, wp)
    ln2 = ln2_fixed(wp)
    pi2 = pi_fixed(wp - 1)  # pi/2 at wp bits
    if spf is None:
        spf = smallest_prime_factors(K)
    memo = {}
    for lo in range(1, K + 1, SEGMENT):
        hi = min(lo + SEGMENT, K + 1)
        ks = np.arange(lo, hi) if mu is None else np.flatnonzero(mu[lo - 1 : hi - 1]) + lo
        for k, p in zip(ks.tolist(), spf[ks].tolist()):
            if p != k:
                a_ln, a_re, a_im = memo[p]
                b_ln, b_re, b_im = memo[k // p]
                ln = a_ln + b_ln
                re = (a_re * b_re - a_im * b_im) >> wp
                im = (a_re * b_im + a_im * b_re) >> wp
            elif k == 1:
                ln, re, im = 0, 1 << wp, 0
            else:
                ln = log_int_fixed(k, wp, ln2)
                cos, sin = cos_sin_fixed(-sim * ln >> wp, wp, pi2)
                u = exp_fixed(-sre * ln >> wp, wp, ln2)
                re = u * cos >> wp
                im = u * sin >> wp
            if 1 < k <= K // 2 and (mu is None or k & 1 or k == 2):
                memo[k] = (ln, re, im)
            yield k, ln, re, im


def mertens(x: int, table: MobiusTable) -> int:
    """M(x) = sum_{n <= x} mu(n)."""
    if not 1 <= x <= table.limit:
        raise RangeError(f"mertens argument {x} outside table limit {table.limit}")
    return int(table.values[:x].sum(dtype=np.int64))


def mertens_sublinear(x: int) -> int:
    """M(x) = sum_{n <= x} mu(n) from a sieve to y = min(x, ceil(2 x^(2/3))).

    The hyperbola recursion (Lehman 1960; Deleglise and Rivat 1996):
    sum_{m <= v} M(floor(v/m)) = 1 for every v >= 1.  Splitting m at
    r = isqrt(v), and grouping the m > r by j = floor(v/m) <= r,

        M(v) = 1 - sum_{2 <= m <= r} M(floor(v/m))
                 - sum_{1 <= j <= floor(v/(r+1))} M(j) (floor(v/j) - floor(v/(j+1))).

    Every floor(x/n) is a floor(x/q) again, so the v that need the
    recursion are v = floor(x/q) > y, q <= Q = floor(x/(y+1)), taken in
    decreasing q: M(floor(v/m)) is the already computed big[q m] when
    q m <= Q, and otherwise floor(x/(q m)) <= y is read from the int64
    prefix sums of the sieve, as are the M(j), j <= r <= y.  The cost is
    the sieve to y plus about 2 sqrt(x Q) ~ 2 x^(2/3) vector terms.  At
    x = 10^7, y = c x^(2/3) with c = 1/2, 1, 2 and 4 took 11, 7, 5 and
    5 ms on one core of a 2-core x86 host; c = 2 is the smaller sieve of
    the fastest two.

    Each of the three sums is exact in int64: the first has at most
    sqrt(x) terms |M(w)| <= w <= x, the second the same, and in the third
    |M(j)| <= j <= sqrt(x) while the counts floor(v/j) - floor(v/(j+1))
    add up to at most v <= x.  With x <= SIEVE_CAP = 10^8 every partial
    sum is below x^(3/2) = 10^12, far from 2^63.
    """
    if x < 1:
        raise RangeError(f"mertens argument must be >= 1, got {x}")
    if x > SIEVE_CAP:
        raise LimitTooLargeError(f"mertens argument {x} exceeds cap {SIEVE_CAP}")
    y = min(x, math.ceil(2 * x ** (2 / 3)))
    small = np.zeros(y + 1, dtype=np.int64)  # small[v] = M(v) for v <= y
    np.cumsum(sieve_mobius(y).values, out=small[1:])
    Q = x // (y + 1)
    big = np.zeros(Q + 1, dtype=np.int64)  # big[q] = M(floor(x/q)) for q <= Q
    for q in range(Q, 0, -1):
        v = x // q
        r = math.isqrt(v)
        cut = min(r, Q // q)  # m <= cut have q m <= Q
        total = int(big[2 * q : cut * q + 1 : q].sum())
        total += int(small[x // (q * np.arange(cut + 1, r + 1))].sum())
        js = np.arange(1, v // (r + 1) + 1)
        total += int(small[js] @ (v // js - v // (js + 1)))
        big[q] = 1 - total
    return int(big[1]) if Q else int(small[x])


def dirichlet_partial(rho, ns, checkpoints, table: MobiusTable, ctx: PrecisionContext) -> dict:
    """{n: [D_n(K) for K in checkpoints]}, D_n(K) = sum_{k<=K} mu(k) log^n(k) k^(-rho).

    One sweep over the squarefree k <= max(checkpoints) serves every
    requested log power 0 <= n <= 6, with the powers from
    :func:`dirichlet_powers`.  The sums are ints at
    wp = ctx.bits + ceil(log2 K) + 24 bits, rounded to ctx.bits at each
    checkpoint.
    """
    ns = sorted(set(int(n) for n in ns))
    if not ns or any(n < 0 or n > 6 for n in ns):
        raise RangeError("log powers must be nonempty with 0 <= n <= 6")
    checkpoints = [int(K) for K in checkpoints]
    if not checkpoints or any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise RangeError("checkpoints must be nonempty and strictly increasing")
    if checkpoints[0] < 1:
        raise RangeError("checkpoints start at K >= 1")
    if checkpoints[-1] > table.limit:
        raise RangeError(f"checkpoint {checkpoints[-1]} exceeds table limit {table.limit}")
    K = checkpoints[-1]
    mu = table.values[:K]
    wp = ctx.bits + math.ceil(math.log2(K)) + 24
    powers = range(1, ns[-1] + 1)
    acc_re = [0] * (ns[-1] + 1)  # every log power up to the largest requested
    acc_im = [0] * (ns[-1] + 1)
    sums = {n: [] for n in ns}

    def close():
        for n in ns:
            sums[n].append(fixed_to_mpc(acc_re[n], acc_im[n], wp, ctx.bits))

    i = 0
    for k, ln, re, im in dirichlet_powers(rho, K, wp, mu):
        while k > checkpoints[i]:
            close()
            i += 1
        if mu[k - 1] < 0:
            re, im = -re, -im
        acc_re[0] += re
        acc_im[0] += im
        for n in powers:
            re = re * ln >> wp
            im = im * ln >> wp
            acc_re[n] += re
            acc_im[n] += im
    for _ in checkpoints[i:]:
        close()
    return sums
