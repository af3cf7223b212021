"""Independent reference computations used by the test suite.

Everything here deliberately avoids the library's own evaluation paths:
direct summation with hand-rolled tail corrections, trial division,
finite differences, and plain bisection.  Oracle error terms are stated
next to each formula so tolerances in the tests can be audited.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp, mpf


def zeta2_direct(terms: int = 2000, dps: int = 45) -> mpf:
    """Sum 1/n^2 directly, then correct the tail with the first few
    Euler-Maclaurin terms of the integral remainder.

    Tail after N: 1/N - 1/(2N^2) + 1/(6N^3) - 1/(30N^5) + 1/(42N^7)
    - 1/(30N^9), next omitted term O(N^-11): ~4e-37 at N = 2000.
    """
    with mp.workdps(dps):
        N = terms
        acc = mpf(0)
        for n in range(N, 0, -1):
            acc += mpf(1) / (mpf(n) * n)
        Nf = mpf(N)
        tail = 1 / Nf - 1 / (2 * Nf**2) + 1 / (6 * Nf**3) - 1 / (30 * Nf**5)
        tail += 1 / (42 * Nf**7) - 1 / (30 * Nf**9)
        return acc + tail


def gamma0_harmonic(K: int = 10**5, dps: int = 40) -> mpf:
    """Euler's constant from the harmonic sum: H_K - ln K - 1/(2K)
    + 1/(12K^2) - 1/(120K^4).  Error O(K^-6): ~4e-32 at K = 1e5."""
    with mp.workdps(dps):
        acc = mpf(0)
        for k in range(K, 0, -1):
            acc += mpf(1) / k
        Kf = mpf(K)
        return acc - mp.ln(Kf) - 1 / (2 * Kf) + 1 / (12 * Kf**2) - 1 / (120 * Kf**4)


def gamma1_limit(K: int = 10**5, dps: int = 40) -> mpf:
    """gamma_1 from its defining limit, accelerated by the trapezoid and
    first Bernoulli correction of sum(ln k / k):

        sum_{k<=K} ln k / k - ln(K)^2/2 - ln(K)/(2K) - (1 - ln K)/(12 K^2)

    with f(x) = ln x / x, f'(x) = (1 - ln x)/x^2.  The omitted correction
    involves f'''(K), so the error is O(ln K / K^4)."""
    with mp.workdps(dps):
        acc = mpf(0)
        for k in range(K, 1, -1):
            acc += mp.ln(k) / k
        Kf = mpf(K)
        lnK = mp.ln(Kf)
        return acc - lnK**2 / 2 - lnK / (2 * Kf) - (1 - lnK) / (12 * Kf**2)


def mu_factor(k: int) -> int:
    """Mobius function by trial division."""
    if k < 1:
        raise ValueError("mu needs k >= 1")
    if k == 1:
        return 1
    sign = 1
    p = 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            sign = -sign
        else:
            p += 1 if p == 2 else 2
    if k > 1:
        sign = -sign
    return sign


def mu_eratosthenes(N: int) -> np.ndarray:
    """mu(1..N) as int8 by one slice per prime: flip the sign on the
    multiples of p, zero the multiples of p^2."""
    comp = np.zeros(N + 1, dtype=bool)
    comp[:2] = True
    for p in range(2, math.isqrt(N) + 1):
        if not comp[p]:
            comp[p * p :: p] = True
    mu = np.ones(N + 1, dtype=np.int8)
    for p in np.flatnonzero(~comp).tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu[1:]


def mertens_brute(x: int) -> int:
    return sum(mu_factor(k) for k in range(1, x + 1))


def bisect_sign_change(f, a, b, tol, max_iter: int = 200) -> mpf:
    """Plain bisection on a sign change of f; no derivative anywhere."""
    fa = f(a)
    fb = f(b)
    if fa == 0:
        return mpf(a)
    if fb == 0:
        return mpf(b)
    assert fa * fb < 0, "bisection needs a sign change"
    lo, hi = mpf(a), mpf(b)
    for _ in range(max_iter):
        mid = (lo + hi) / 2
        if hi - lo < tol:
            return mid
        fm = f(mid)
        if fm == 0:
            return mid
        if fa * fm < 0:
            hi = mid
        else:
            lo, fa = mid, fm
    return (lo + hi) / 2


def zeta_derivative(s, k: int, digits: int):
    """zeta^(k)(s) by mpmath's own ``zeta(s, derivative=k)`` at digits + 10,
    a route that shares no code with the library's Euler-Maclaurin jets.
    mpmath sizes its sum to the working precision, so the value is good to
    about digits + 10 digits relative; 3-10 ms a call at 30 digits and
    t <= 100."""
    with mp.workdps(digits + 10):
        return mp.zeta(s, derivative=k)


def fd_derivative(f, s, h, dps: int = 60):
    """5-point central difference, error O(h^4)."""
    with mp.workdps(dps):
        hh = mpf(h)
        return (-f(s + 2 * hh) + 8 * f(s + hh) - 8 * f(s - hh) + f(s - 2 * hh)) / (12 * hh)
