"""Mobius function tables, Mertens sums, and weighted Dirichlet partial sums.

The sieve runs over 1..N in segments of ``SEGMENT`` integers.  Each prime
p <= sqrt(N) flips the sign of its multiples, zeroes the multiples of p^2
and multiplies itself into a per-segment product of the small prime
factors of k.  A squarefree k whose product is still below k has exactly
one prime factor above sqrt(N), so its sign flips once more.  The result
is mu(1..N) as one int8 array.  That table is the package's only source
of mu(k): the Dirichlet sweep below, the Mertens sums and the Laurent
module's spot terms all read it.

:func:`dirichlet_powers` is the one power kernel of every Dirichlet sum:
the sweep below and the Euler-Maclaurin main sum of :mod:`zetakit.zeta`.
k -> k^(-s) is completely multiplicative, so a composite k = p q, with p
its smallest prime factor, takes p^(-s) q^(-s) and ln p + ln q from a
memo of earlier values, and only primes take an ``exp``.

:func:`dirichlet_partial` is the one loop over k that weights by mu(k).
It sums mu(k) log^n(k) k^(-rho) in increasing k, for several log powers
n at once.  Its summation policy is guard bits: plain sums at
ctx.bits + ceil(log2 K) + 8 bits, rounded once to ctx.bits at each
checkpoint, so the K rounding errors of the sweep stay below the last
bit kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath import mpc

from .errors import LimitTooLargeError, RangeError
from .precision import PrecisionContext

SIEVE_CAP = 10**8

# Integers per sieve segment and per block of the power kernel; an int8
# segment and its int32 product then stay within a core's cache.
SEGMENT = 1 << 18

# Most memoized k^(-s) values one power kernel keeps, about 0.9 kB each at
# 30 digits; past it a power whose factors are not memoized takes an exp.
POWER_MEMO_CAP = 1 << 17


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


def dirichlet_powers(s, K: int, mu=None, spf=None):
    """Yield (k, ln k, k^(-s)) for k = 1..K in increasing order.

    Everything is computed at the ambient working precision.  With
    ``mu`` (``mu[k-1] = mu(k)``, e.g. ``MobiusTable.values``) only the
    squarefree k are visited.  ``spf`` is ``smallest_prime_factors(M)``
    for some M >= K, built here when omitted.

    Composite k = p q, p = spf[k], takes k^(-s) = p^(-s) q^(-s) and
    ln k = ln p + ln q from a memo, so only primes pay ln and exp.  A
    value is memoized only if it can serve as a factor later: its k is
    at most K/2, and in a squarefree sweep it is odd or 2, since an even
    q > 2 makes p q divisible by 4.  The memo holds at most
    ``POWER_MEMO_CAP`` values; a k with a factor past the cap takes
    ln k and exp(-s ln k) directly.
    """
    s = mpc(s)
    if spf is None:
        spf = smallest_prime_factors(K)
    memo = {}
    for lo in range(1, K + 1, SEGMENT):
        hi = min(lo + SEGMENT, K + 1)
        ks = np.arange(lo, hi) if mu is None else np.flatnonzero(mu[lo - 1 : hi - 1]) + lo
        for k, p in zip(ks.tolist(), spf[ks].tolist()):
            a = memo.get(p)
            b = memo.get(k // p)
            if a is None or b is None:  # k = 1 (exactly 0 and 1), a prime, or past the cap
                ln_k = mp.ln(k)
                kp = mp.exp(-s * ln_k)
            else:
                ln_k = a[0] + b[0]
                kp = a[1] * b[1]
            if 1 < k <= K // 2 and (mu is None or k & 1 or k == 2) and len(memo) < POWER_MEMO_CAP:
                memo[k] = (ln_k, kp)
            yield k, ln_k, kp


def mertens(x: int, table: MobiusTable) -> int:
    """M(x) = sum_{n <= x} mu(n)."""
    if not 1 <= x <= table.limit:
        raise RangeError(f"mertens argument {x} outside table limit {table.limit}")
    return int(table.values[:x].sum(dtype=np.int64))


def dirichlet_partial(rho, ns, checkpoints, table: MobiusTable, ctx: PrecisionContext) -> dict:
    """{n: [D_n(K) for K in checkpoints]}, D_n(K) = sum_{k<=K} mu(k) log^n(k) k^(-rho).

    One sweep over the squarefree k <= max(checkpoints) serves every
    requested log power 0 <= n <= 6, with the powers from
    :func:`dirichlet_powers`.  The sums run plainly at
    ctx.bits + ceil(log2 K) + 8 bits and are rounded to ctx.bits at each
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
    sums = {n: [] for n in ns}

    def close():
        with ctx.wp():
            for n in ns:
                sums[n].append(+acc[n])

    with ctx.wp(math.ceil(math.log2(K)) + 8):
        acc = {n: mpc(0) for n in ns}
        i = 0
        for k, ln_k, kp in dirichlet_powers(rho, K, mu):
            while k > checkpoints[i]:
                close()
                i += 1
            if mu[k - 1] < 0:
                kp = -kp
            for n in ns:
                acc[n] += kp if n == 0 else kp * ln_k**n
        for _ in checkpoints[i:]:
            close()
    return sums
