"""Mobius function tables, Mertens sums, and weighted Dirichlet partial sums.

The sieve marks each prime's multiples with a sign flip and kills every
index with a squared prime factor, giving mu(1..N) as one int8 array.
That table is the package's only source of mu(k): the Dirichlet sweep
below, the Mertens sums and the Laurent module's spot terms all read it.

:func:`dirichlet_partial` is the one loop over k that weights by mu(k).
It sums mu(k) log^n(k) k^(-rho) in increasing k, for several log powers
n at once, with one Neumaier-compensated accumulator per n at working
precision, so the checkpointed values are faithful, not merely
convergent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
from mpmath import mpc

from .errors import LimitTooLargeError, RangeError
from .precision import PrecisionContext
from .series import KahanComplexSum

SIEVE_CAP = 10**8


@dataclass
class MobiusTable:
    limit: int
    values: np.ndarray  # values[k-1] = mu(k), dtype int8
    _mertens: np.ndarray | None = field(default=None, repr=False)

    def mobius(self, k: int) -> int:
        if not 1 <= k <= self.limit:
            raise RangeError(f"mobius index {k} outside table limit {self.limit}")
        return int(self.values[k - 1])

    def mertens_prefix(self) -> np.ndarray:
        if self._mertens is None:
            self._mertens = np.cumsum(self.values, dtype=np.int64)
        return self._mertens


def sieve_mobius(N: int) -> MobiusTable:
    """MobiusTable for 1..N.

    Boolean composite sieve finds the primes; each prime p contributes a
    sign flip on its multiples and zeroes multiples of p^2.
    """
    if N < 1:
        raise RangeError("sieve limit must be >= 1")
    if N > SIEVE_CAP:
        raise LimitTooLargeError(f"sieve limit {N} exceeds cap {SIEVE_CAP}")
    comp = np.zeros(N + 1, dtype=bool)
    comp[:2] = True
    p = 2
    while p * p <= N:
        if not comp[p]:
            comp[p * p :: p] = True
        p += 1
    mu = np.ones(N + 1, dtype=np.int8)
    mu[0] = 0
    for p in np.flatnonzero(~comp):
        p = int(p)
        mu[p::p] *= -1
        pp = p * p
        if pp <= N:
            mu[pp::pp] = 0
    return MobiusTable(limit=N, values=mu[1:])


def mertens(x: int, table: MobiusTable) -> int:
    """M(x) = sum_{n <= x} mu(n)."""
    if not 1 <= x <= table.limit:
        raise RangeError(f"mertens argument {x} outside table limit {table.limit}")
    return int(table.mertens_prefix()[x - 1])


def dirichlet_partial(rho, ns, checkpoints, table: MobiusTable, ctx: PrecisionContext) -> dict:
    """{n: [D_n(K) for K in checkpoints]}, D_n(K) = sum_{k<=K} mu(k) log^n(k) k^(-rho).

    One sweep over k = 1..max(checkpoints) serves every requested log
    power 0 <= n <= 6.  log k and k^(-rho) are computed only where
    mu(k) != 0 (about 61 % of k), and each n keeps one KahanComplexSum at
    the context precision.
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
    sums = {n: [] for n in ns}
    with ctx.wp():
        rho = mpc(rho)
        acc = {n: KahanComplexSum() for n in ns}
        lo = 1
        for K in checkpoints:
            for k, m in enumerate(table.values[lo - 1 : K].tolist(), start=lo):
                if m == 0:
                    continue
                ln_k = mp.ln(k)
                kp = mp.exp(-rho * ln_k)  # exactly 1 at k = 1
                if m < 0:
                    kp = -kp
                for n in ns:
                    acc[n].add(kp if n == 0 else kp * ln_k**n)
            for n in ns:
                sums[n].append(acc[n].total)
            lo = K + 1
    return sums
