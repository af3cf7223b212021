"""Mobius function tables, Mertens sums, and weighted Dirichlet partial sums.

The sieve runs over 1..N in segments of ``SEGMENT`` integers, one byte
each.  Each prime p <= sqrt(N) flips the sign bit of its multiples and
adds about 3 log2 p to their log sum, in one ``bytes.translate`` of
their strided slice.  A squarefree k whose log sum falls well short of
3 log2 k has exactly one prime factor above sqrt(N), so its sign flips
once more; then the multiples of p^2 are zeroed (see
:func:`sieve_mobius` for the margin).  The result is mu(1..N) as one
``array('b')``, the package's only source of mu(k).  This module alone
sieves it, to the range each sum reads: :func:`dirichlet_partial` to
about 2 K^(2/3) for the recursion below, or to K where it runs at y = K,
and :func:`mertens_sublinear` to about 2 x^(2/3).

The Dirichlet sums run in Python-int fixed point, the idiom of mpmath's
own ``zetasum_sieved``: a real x is the int floor(x 2^wp).  Every
Dirichlet and Euler-Maclaurin sum here is a sum of jets: the flat tuple
(re_0, im_0, ..., re_order, im_order) of ln^j(k) k^(-s), j <= order.
:func:`dirichlet_powers` is the one kernel that yields them, for the
sums below and the Euler-Maclaurin main sum of :mod:`zetakit.zeta`.
A prime p takes ln p from the package's one table of fixed-point
logarithms, :func:`log_int_fixed`, and exp(-Re(s) ln p) and cos, sin of
Im(s) ln p in fixed point.
k -> k^(-s) is completely multiplicative, so a composite k = p q, with p
its smallest prime factor from a table cached per size class, takes
p^(-s) q^(-s) and ln p + ln q from a memo of earlier values: integer
products and a shift.  s itself is converted to fixed point from all of
its bits, never rounded to the working precision first.  The
Euler-Maclaurin remainder is here too, as the same jet:
:func:`tail_jet` gives T_j(w) = sum_{m>w} ln^j(m) m^(-s) for j <= order,
its Bernoulli part carrying each term as its jet in s, from the
package's one table of Bernoulli ratios, :func:`bernoulli_ratio`.  It is
the remainder past N of the Euler-Maclaurin sum of :mod:`zetakit.zeta`,
at order 0 for zeta and 1 with zeta', and the tail of the recursion
below.  :func:`stieltjes_fixed` is the whole Euler-Maclaurin jet at the
pole s = 1, main sum and Bernoulli tail, whose orders are the Stieltjes
constants.  :func:`log_gamma_jet` is the Taylor jet of log Gamma at one
point from Stirling's series, with the same Bernoulli table, for the chi
of the mirror nodes of :func:`zetakit.zeta.zeta_ring`.

:func:`dirichlet_partial` gives D_n(K) = sum_{k<=K} mu(k) ln^n(k) k^(-s)
for several log powers n and checkpoints K at once, rounded once to
ctx.bits at each checkpoint, by one pass of the hyperbola recursion
(Lehman 1960; Deleglise and Rivat 1996) in about K^(2/3) steps.  Write
f(m) for the jet (ln^j(m) m^(-s))_j, F(x) = sum_{m<=x} f(m) and
D(x) = sum_{k<=x} mu(k) f(k), and multiply jets by
sum_j C(n, j) a_j b_(n-j), the product rule of (-d/ds)^n.  Since
mu * 1 = delta, sum_{m<=v} f(m) D(floor(v/m)) is 1 at n = 0 and 0 above,
and the hyperbola split at r = isqrt(v), J = floor(v/(r+1)) gives

    D(v) = [n = 0] - sum_{2<=m<=r} f(m) D(floor(v/m))
                   - sum_{i<=J} mu(i) f(i) F(floor(v/i)) + F(r) D(J).

One :func:`dirichlet_powers` pass runs to y = max(ceil(2 K^(2/3)),
em_terms(Im s, digits)) and gives f(m) for m <= sqrt(K) and D, F at
every v <= y the recursion reads.  The floor values v = floor(K_i/q) > y
of the checkpoints take the formula in increasing order, each
floor(v/m) being a floor value again, so every checkpoint shares one
memo.  Above y, F(w) = F(y) + T(y) - T(w): zeta(s) cancels.  The cost
is the pass to y plus about 3 K/sqrt(y) jet products and K/y tails.
At K = 10^6, n <= 1 and 30 digits that is 0.13 s at zero 1 in a fresh
process on one core of a 2-core x86 host, where a direct sum over the
squarefree k <= K took 4 s.

Errors of the recursion, for Re(s) >= 1/2, in units of 2^(-wp):
|f(m)| <= m^(-1/2), and |D(x)|, |F(x)| <= 2 sqrt(x) at log power 0.  A
power carries an error of at most about bit_length(y) + 2 units, one per
product along its factor chain, and n more from its log powers, so each
D and F at v <= y, a sum of at most y terms, is off by at most about
e = y (bit_length(y) + 2 + n).  A tail is off by about
2 sqrt(K)/|s - 1| units of rounding and |Im s| of truncation, below e/2
since y >= 2 K^(2/3) and y >= |Im s|/pi, so an F above y is off by 2 e
at most.  One v then adds 2 v^(1/4) e through the D(floor(v/m)) <= y,
4 v^(1/4) e through the F(floor(v/i)), 4 v^(1/4) e through F(r) D(J),
and 8 v^(3/4) (bit_length(y) + 2 + n) <= 4 v^(1/4) e through the powers
f(m), f(i) themselves, as y >= 2 sqrt(v): at most 14 K^(1/4) e.  An
error in D(w), w = floor(v/m) > y, reaches D(v) times m^(-1/2), along
chains m_1 m_2 ... with product d < X = K/y.  With c(d) the ordered
factorizations of d, sum_{d<X} c(d) d^(-1/2) <= X^(3/2) sum_d c(d) d^(-2)
= X^(3/2)/(2 - zeta(2)) < 2.83 X^(3/2).  At log power l every bound
above grows by ln^l(K), and the jet products weigh an error at power l
by C(n, l) ln^(n-l)(d) on its way to power n: sum_l C(n, l) ln^n(K) =
(2 ln K)^n covers both.  So D_n is off by at most about
40 K^(1/4) (K/y)^(3/2) e (2 ln K)^n units, and the recursion runs at 24
bits past that: 67 guard bits at K = 10^6, n = 1.  The bound needs
Re(s) >= 1/2 and |s - 1| >= 1/2, which the zeros on the critical line
meet.

Elsewhere, where y >= K, or where a tail stalls, the pass runs at
y = K.  No floor value lies above y, so no tail is taken, and the
power pass itself sums every k <= K: D at each checkpoint is the direct
sum, off by at most e = K (bit_length(K) + 2 + n) units where
|k^(-s)| <= 1.  Its guard, the bound above at y = K and at least one
unit (at K = 1, ln K = 0), is never below ceil(log2 K) + 24 bits: 64 at
K = 10^6 and n <= 1.  It keeps F and visits every k, so off the
recursion's range it costs more than a sum over the squarefree k alone:
4.7 s CPU and 209 MB against 2.8 s and 99 MB at s = 0.3 + 14i, n <= 1,
with checkpoints 10^4, 10^5 and 10^6, so above K = 10^6 it raises
LimitTooLargeError before it sieves.  No zero the CLI reaches lies
there.  At K = 10^6 the recursion and the pass at y = K gave the same
bits after rounding at zeros 1, 29 and 649 at 30 digits and at zeros 2
and 649 at 60.

This module is the package's only user of mpmath's internal ``libmp``
layer, which carries no API promise.  Other modules take the conversions
:func:`fixed_pair`, :func:`fixed_to_mpf` and :func:`fixed_to_mpc`, and
the fixed-point logarithms of :func:`log_int_fixed`, from here.  The
table of those logarithms replaces mpmath's ``log_int_fixed``, whose
cache is empty in every fresh process: a prime's entry is built in ints
from the entries of smaller primes, without calling mpmath.
"""

from __future__ import annotations

import functools
import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, compress, islice
from operator import mul
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import fzero, from_man_exp, ln2_fixed, pi_fixed, to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed

from .errors import LimitTooLargeError, RangeError
from .precision import PrecisionContext

SIEVE_CAP = 10**8
_DIRECT_CAP = 10**6  # the largest K of dirichlet_partial's direct pass
EM_STOP_DIGITS = 5  # zeta's Euler-Maclaurin tail stops below 10^-(digits + EM_STOP_DIGITS)
_CHUNK = 1 << 10  # jets of the power pass _hyperbola_partial reads into columns at a time

# Integers per sieve segment: a segment of one byte per integer then
# stays within a core's cache.
SEGMENT = 1 << 18


class MobiusTable(NamedTuple):
    limit: int
    values: array  # values[k-1] = mu(k), typecode 'b'

    def mobius(self, k: int) -> int:
        if not 1 <= k <= self.limit:
            raise RangeError(f"mobius index {k} outside table limit {self.limit}")
        return self.values[k - 1]


def _small_primes(n: int) -> list:
    """The primes <= n, by an Eratosthenes sieve over one byte per integer."""
    flags = bytearray(2) + bytearray([1]) * (n - 1)
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), flags))


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) for an int n >= 0."""
    k = round(n ** (1 / 3))
    while k**3 > n:
        k -= 1
    while (k + 1) ** 3 <= n:
        k += 1
    return k


@functools.lru_cache(maxsize=None)
def _prime_step(log: int) -> bytes:
    """The byte map of one small prime p with log = round(3 log2 p): flip
    bit 7 and add log to bits 0-6."""
    return bytes((b ^ 0x80) & 0x80 | (b + log) & 0x7F for b in range(256))


def _mu_step(t: int) -> bytes:
    """The byte map to mu(k) as an int8 byte at threshold 0 <= t < 128: a
    log sum below t is one more prime factor, above sqrt(N)."""
    plus, minus = b"\x01", b"\xff"
    return minus * t + plus * (128 - t) + plus * t + minus * (128 - t)


def sieve_mobius(N: int) -> MobiusTable:
    """MobiusTable for 1..N, sieved in segments by the primes <= sqrt(N).

    Each k has one byte: bit 7 holds the parity of the number of small
    primes p <= sqrt(N) that divide k, and bits 0-6 the sum L of their
    l_p = round(3 log2 p).  Each small prime is one ``bytes.translate``
    on its strided slice, which flips the sign and adds l_p in one step.

    A squarefree k <= N is s q, with s the product of its small prime
    factors and q = 1 or one prime above sqrt(N); two would exceed N.
    Then L = 3 log2 s + E, where l_2 = 3 exactly and every odd l_p is off
    by at most 1/2.  At most log3 N odd primes divide s <= N, so
    |E| <= log3(N)/2 < 0.32 log2 N, and L < 3.32 log2 N < 128 fits in
    bits 0-6 for N <= SIEVE_CAP.  With M = floor(N^(3/4)), let t(k) be
    the least t >= 0 with 2^t M >= k^3; then L < t(k) exactly when
    L + log2 M < 3 log2 k.  For q = 1 that fails, as E = 0 for N < 9
    (only p = 2 is small) and log2 M >= 0.75 log2 N - 1 >= |E| for
    N >= 5.  For q > sqrt(N) it holds, as L + log2 M <= 3 log2 s +
    1.07 log2 N while 3 log2 k > 3 log2 s + 1.5 log2 N.  So one more
    translate per run of equal t(k) sets mu(k) = +-1, and a last pass
    zeroes the multiples of each p^2.
    """
    if N < 1:
        raise RangeError("sieve limit must be >= 1")
    if N > SIEVE_CAP:
        raise LimitTooLargeError(f"sieve limit {N} exceeds cap {SIEVE_CAP}")
    primes = _small_primes(math.isqrt(N))
    steps = [(p, _prime_step(round(3 * math.log2(p)))) for p in primes]
    M = math.isqrt(math.isqrt(N**3))
    runs = []  # (first k, last k + 1, map) for each run of equal t(k)
    k = 1
    while k <= N:
        t = (-(-(k**3) // M) - 1).bit_length()
        end = min(N, _icbrt(M << t)) + 1
        runs.append((k, end, _mu_step(t)))
        k = end
    mu = array("b", [0]) * N
    out = memoryview(mu).cast("B")
    for lo in range(1, N + 1, SEGMENT):
        hi = min(lo + SEGMENT, N + 1)
        seg = bytearray(hi - lo)
        for p, step in steps:
            i = -lo % p  # offset of the first multiple of p in the segment
            seg[i::p] = seg[i::p].translate(step)
        for a, b, step in runs:
            a, b = max(a, lo) - lo, min(b, hi) - lo
            if a < b:
                seg[a:b] = seg[a:b].translate(step)
        for p in primes:
            pp = p * p
            if pp >= hi:
                break
            i = -lo % pp
            seg[i::pp] = bytes(len(range(i, hi - lo, pp)))
        out[lo - 1 : hi - 1] = seg
    return MobiusTable(limit=N, values=mu)


def smallest_prime_factors(K: int) -> array:
    """spf with spf[k] the smallest prime factor of k for 2 <= k <= K.

    The sieve's small-prime step: every prime p <= sqrt(K), largest
    first, writes itself on its multiples from p^2, so the smallest one
    writes last; k left unmarked is prime and keeps spf[k] = k, as do 0
    and 1.
    """
    spf = array("i", range(K + 1))
    for p in reversed(_small_primes(math.isqrt(K))):
        spf[p * p :: p] = array("i", [p]) * len(range(p * p, K + 1, p))
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


# The package's one table of fixed-point logarithms: _LOGS[k] = (v, W),
# v = 2^W ln k as _log_at fills it, at the highest W filled so far.  The
# table serves wp bits only from W >= wp + _LOG_GUARD, by one shift.
_LOGS: dict = {}
_LOG_GUARD = 20

# smallest_prime_factors(size) for each size class the power kernel has
# asked for, the power of two above its K.
_SPF: dict = {}


def _spf_table(size: int) -> array:
    """``smallest_prime_factors(size)``, built once per size class."""
    if size not in _SPF:
        _SPF[size] = smallest_prime_factors(size)
    return _SPF[size]


def _prime_factors(n: int) -> list:
    """The prime factors of n >= 1 with multiplicity, read from the power
    kernel's table where it has built n's size class, else by trial
    division."""
    spf = _SPF.get(1 << n.bit_length())
    out = []
    if spf is not None:
        while n > 1:
            out.append(spf[n])
            n //= spf[n]
        return out
    twos = (n & -n).bit_length() - 1
    out += [2] * twos
    n >>= twos
    d = 3
    while d * d <= n:
        while not n % d:
            out.append(d)
            n //= d
        d += 2
    return out + [n] if n > 1 else out


def _log_at(k: int, W: int) -> int:
    """2^W ln k, k >= 1, to within 1.3 log2(k) (W + 8) units, from the
    table, filled at W bits where it holds fewer.

    A prime p takes ln(p - 1) + 2 atanh(1/m), m = 2p - 1, with ln(p - 1)
    the sum of the entries of its prime factors at W bits and the atanh
    summed in ints: its j-th term floor(2^W/((2j + 1) m^(2j+1))) is exact,
    by one division by m^2 and one by 2j + 1, so the sum is off by less
    than one unit a term, and by under 9/8 units for the terms dropped:
    2 atanh is within W/log2(m) + 3.25 units, under 0.64 W + 3.25.  A
    composite is the sum of its prime factors' entries.  Each entry read
    at fewer bits than it holds adds one unit.  The chain of p - 1's
    factors down to the leaves 2 (Pratt's tree of p) holds at most
    log2(p) leaves 2, since their logs add up to at most log2(p), and no
    more odd primes than leaves 2, since each odd prime's p - 1 is even:
    at most 2 log2(k) nodes, each within 0.64 W + 5 units."""
    entry = _LOGS.get(k)
    if entry is not None and entry[1] >= W:
        return entry[0] >> entry[1] - W
    factors = _prime_factors(k)
    v = 0
    if factors == [k]:
        m = 2 * k - 1
        u, mm, j = (1 << W) // m, m * m, 1
        while u:
            v += u // j
            u //= mm
            j += 2
        v *= 2
        factors = _prime_factors(k - 1)
    for q in factors:
        v += _log_at(q, W)
    _LOGS[k] = v, W
    return v


def log_int_fixed(k: int, wp: int) -> int:
    """ln k, k >= 1, as a wp-bit fixed-point int within one unit of
    floor(2^wp ln k): the package's one source of fixed-point logarithms,
    in place of mpmath's ``log_int_fixed``.

    Each entry of the table keeps the highest precision computed so far,
    W bits, and serves every wp <= W - _LOG_GUARD by one shift, as
    mpmath's cache does.  A miss fills it at wp + _LOG_GUARD bits by
    :func:`_log_at`.  Its error, plus one unit for a read from a higher
    fill, is below 2^_LOG_GUARD units, which the shift takes below one
    unit of 2^(-wp), for every k <= 2^27 (past the 10^8 of --k-max) at
    wp up to 29800 bits (the 200 digits of DIGITS_MAX escalated eight
    times by ``certified`` take about 5600).  Floor shifts compose, so a
    hit returns the entry shifted once by W - wp."""
    return _log_at(k, wp + _LOG_GUARD) >> _LOG_GUARD


def exp_fixed_pair(xr: int, xi: int, wp: int) -> tuple:
    """e^(xr + i xi) for wp-bit fixed-point ints, as the pair of wp-bit ints
    exp(xr) (cos xi, sin xi)."""
    cos, sin = cos_sin_fixed(xi, wp)
    u = exp_fixed(xr, wp)
    return u * cos >> wp, u * sin >> wp


def _power(k: int, sre: int, sim: int, wp: int, ln2: int, pi2: int) -> tuple:
    """(ln k, Re k^(-s), Im k^(-s)) as wp-bit ints from ln k of
    :func:`log_int_fixed` and e^(-s ln k); s = sre + i sim in fixed point.

    On the critical line, sre = 2^(wp-1) exactly, the amplitude |k^(-s)|
    is k^(-1/2), taken as isqrt(floor(2^(2 wp)/k)), the exact floor of
    2^wp k^(-1/2), in place of exp(-Re(s) ln k), which lay 0 to 3 units
    below it for the primes to 10^4 at 64 to 800 bits.  For the 158 primes
    to 929 the roots took 0.23 ms against 1.17 ms for the exps at 188
    bits, and 0.70 against 7.7 ms at 800 bits."""
    ln = log_int_fixed(k, wp)
    cos, sin = cos_sin_fixed(-sim * ln >> wp, wp, pi2)
    u = math.isqrt((1 << 2 * wp) // k) if sre == 1 << wp - 1 else exp_fixed(-sre * ln >> wp, wp, ln2)
    return ln, u * cos >> wp, u * sin >> wp


def dirichlet_powers(s, K: int, wp: int, order: int):
    """Yield the jet of each k = 1..K in increasing order: the flat tuple
    (re_0, im_0, ..., re_order, im_order) of ln^j(k) k^(-s) as wp-bit
    fixed-point ints.

    A prime p takes ln p from the table of :func:`log_int_fixed`, filled
    in increasing p from the entries of p - 1's factors, and p^(-s) as
    exp(-Re(s) ln p) (cos, sin)(-Im(s) ln p).  A composite k = p q,
    p its smallest prime factor from the cached table of the size class
    of K, takes k^(-s) = p^(-s) q^(-s) and ln k = ln p + ln q from a
    memo.  A value is memoized only if it can serve as a factor later:
    its k is at most K/2.  Each log power is the one below times ln k,
    shifted back to wp bits.
    """
    sre, sim = fixed_pair(s, wp)
    ln2 = ln2_fixed(wp)
    pi2 = pi_fixed(wp - 1)  # pi/2 at wp bits
    spf = _spf_table(1 << K.bit_length())
    orders = range(order)
    memo = {}
    for k, p in zip(range(1, K + 1), spf[1 : K + 1]):  # (k, spf[k])
        if p != k:
            a_ln, a_re, a_im = memo[p]
            b_ln, b_re, b_im = memo[k // p]
            ln = a_ln + b_ln
            re = (a_re * b_re - a_im * b_im) >> wp
            im = (a_re * b_im + a_im * b_re) >> wp
        elif k == 1:
            ln, re, im = 0, 1 << wp, 0
        else:
            ln, re, im = _power(k, sre, sim, wp, ln2, pi2)
        if 1 < k <= K // 2:
            memo[k] = (ln, re, im)
        jet = (re, im)
        for _ in orders:
            re = re * ln >> wp
            im = im * ln >> wp
            jet += (re, im)
        yield jet


def mertens(x: int, table: MobiusTable) -> int:
    """M(x) = sum_{n <= x} mu(n), from the counts of the bytes +1 and -1."""
    if not 1 <= x <= table.limit:
        raise RangeError(f"mertens argument {x} outside table limit {table.limit}")
    data = memoryview(table.values)[:x].tobytes()
    return data.count(1) - data.count(0xFF)


def mertens_sublinear(x: int) -> int:
    """M(x) = sum_{n <= x} mu(n) from a sieve to y = min(x, ceil(2 x^(2/3))).

    The hyperbola recursion (Lehman 1960; Deleglise and Rivat 1996):
    sum_{m <= v} M(floor(v/m)) = 1 for every v >= 1.  Splitting m at
    r = isqrt(v), and grouping the m > r by j = floor(v/m) <= r,

        M(v) = 1 - sum_{2 <= m <= r} M(floor(v/m))
                 - sum_{1 <= j <= J} M(j) (floor(v/j) - floor(v/(j+1))),

    J = floor(v/(r+1)).  By Abel summation the last sum is
    sum_{j <= J} mu(j) floor(v/j) - M(J) floor(v/(J+1)), a sum over the
    squarefree j alone, split into the lists of j with mu(j) = +1 and
    with mu(j) = -1.

    Every floor(x/n) is a floor(x/q) again, so the v that need the
    recursion are v = floor(x/q) > y, q <= Q = floor(x/(y+1)), taken in
    decreasing q: M(floor(v/m)) is the already computed big[q m] when
    q m <= Q, and otherwise floor(v/m) = floor(x/(q m)) <= y is read from
    the prefix sums of the sieve, as are the M(J), J <= r <= y.  The
    cost is the sieve to y plus about (1 + 6/pi^2) sqrt(x Q) terms, each
    summed by ``map`` over Python ints, so every sum is exact.  M(10^8)
    takes about 45 ms on one core of a 2-core x86 host.
    """
    if x < 1:
        raise RangeError(f"mertens argument must be >= 1, got {x}")
    if x > SIEVE_CAP:
        raise LimitTooLargeError(f"mertens argument {x} exceeds cap {SIEVE_CAP}")
    y = min(x, math.ceil(2 * x ** (2 / 3)))
    mu = sieve_mobius(y).values
    small = [0, *accumulate(mu)]  # small[v] = M(v) for v <= y
    Q = x // (y + 1)
    S = math.isqrt(x)  # every J <= S
    plus = list(compress(range(1, S + 1), map((1).__eq__, mu[:S])))
    minus = list(compress(range(1, S + 1), map((-1).__eq__, mu[:S])))
    big = [0] * (Q + 1)  # big[q] = M(floor(x/q)) for q <= Q
    for q in range(Q, 0, -1):
        v = x // q
        r = math.isqrt(v)
        J = v // (r + 1)
        cut = min(r, Q // q)  # m <= cut have q m <= Q
        total = sum(big[2 * q : cut * q + 1 : q])
        total += sum(map(small.__getitem__, map(v.__floordiv__, range(cut + 1, r + 1))))
        total += sum(map(v.__floordiv__, plus[: bisect_right(plus, J)]))
        total -= sum(map(v.__floordiv__, minus[: bisect_right(minus, J)]))
        big[q] = 1 - total + small[J] * (v // (J + 1))
    return big[1] if Q else small[x]


def em_terms(t, digits: int) -> int:
    """Euler-Maclaurin main-sum length N = ceil(|t| q/(2 pi)) + digits,
    q = max(2, 10^((digits + EM_STOP_DIGITS)/360)), in doubles for Im s = t,
    a float or an mpf (see :mod:`zetakit.zeta`).  A Bernoulli tail started
    at N or above shrinks by about (|t|/(2 pi N))^2 <= 1/4 a term."""
    q = max(2, 10 ** ((digits + EM_STOP_DIGITS) / 360))
    return int(math.ceil(abs(float(t)) * q / (2 * math.pi))) + digits


@functools.lru_cache(maxsize=None)
def _tangent_numbers(size: int) -> tuple:
    """(0, T_1, ..., T_size), T_k the tangent numbers 1, 2, 16, 272, ...,
    so that B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), built once per size
    class on first use by the integer recurrence of Brent and Harvey,
    "Fast computation of Bernoulli, tangent and secant numbers" (2011,
    arXiv:1108.0286, Algorithm TangentNumbers)."""
    T = [0, 1]
    for k in range(2, size + 1):
        T.append((k - 1) * T[k - 1])
    for k in range(2, size + 1):
        for j in range(k, size + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return tuple(T)


@functools.lru_cache(maxsize=None)
def _bernoulli_ratio_fraction(m: int) -> tuple[int, int]:
    """(p, q), q > 0, p/q = c_(m+1)/c_m exactly, c_m = B_2m/(2m)!: with
    B_2k from the tangent numbers, c_(m+1)/c_m =
    -T_(m+1) (4^m - 1) / (8 m (2m + 1) T_m (4^(m+1) - 1))."""
    T = _tangent_numbers(1 << (m + 1).bit_length())
    return -T[m + 1] * (4**m - 1), 8 * m * (2 * m + 1) * T[m] * (4 ** (m + 1) - 1)


@functools.lru_cache(maxsize=None)
def bernoulli_ratio(m: int, wp: int) -> int:
    """c_(m+1)/c_m, c_m = B_2m/(2m)!, as a wp-bit fixed-point int: the
    floor of the exact fraction times 2^wp, so results never depend on
    evaluation order."""
    p, q = _bernoulli_ratio_fraction(m)
    return (p << wp) // q


def _fixed_powers(x: int, order: int, wp: int) -> list:
    """[x^k for k <= order], x and its powers wp-bit fixed-point ints."""
    out = [1 << wp]
    for _ in range(order):
        out.append(out[-1] * x >> wp)
    return out


def _bernoulli_tail(s: tuple, N: int, lnN: int, scale2: int, order: int, wp: int, thresh2: int):
    """The Bernoulli part of the Euler-Maclaurin tail at N, as a jet in s.

    With u_m(s) = B_2m/(2m)! (s)_{2m-1} N^(1-2m), returns
    [sum_m N^s (d/ds)^i (N^(-s) u_m(s)) for i <= order] as pairs of wp-bit
    ints; ``s`` is the pair ``fixed_pair(s, wp)`` and lnN the fixed-point
    ln N.  The term of order i is D^i u_m, D = d/ds - ln N, so each u_m is
    carried as the jet w_l = D^l u_m, l <= order, starting from
    D^l u_1 = (s (-ln N)^l + l (-ln N)^(l-1))/(12 N).  D differentiates
    one factor of a product, so the factor Q_m = (s + 2m - 1)(s + 2m) of
    the rising factorial maps the jet to
    D^l (u Q_m) = Q_m w_l + l Q_m' w_(l-1) + l (l - 1) w_(l-2),
    after which all are scaled by c_(m+1)/c_m/N^2, w_0 last.  The loop
    ends with the first m whose terms all have |term|^2 scale2 below
    thresh2 > 0, scale2 = |N^(-s)|^2 at 2 wp bits and thresh2 at 4 wp
    bits: the largest |term|^2 is compared, as an exact int, with
    ceil(thresh2/scale2).  It returns None where the terms grow before
    that, or at m = 200: the asymptotic series has stalled.  At order 0
    the loops over the orders above 0 are empty.
    """
    sre, sim = s
    one = 1 << wp
    w_re, w_im = [sre // (12 * N)], [sim // (12 * N)]
    c = one // (12 * N)  # (-ln N)^(l-1)/(12 N)
    for l in range(1, order + 1):
        d = -(c * lnN >> wp)
        w_re.append((sre * d >> wp) + l * c)
        w_im.append(sim * d >> wp)
        c = d
    qr, qi = (sre * sre - sim * sim >> wp) + 3 * sre + 2 * one, (sre * sim >> wp - 1) + 3 * sim  # Q_1
    dr, di = 2 * sre + 3 * one, 2 * sim  # Q_1'
    ups, downs = range(1, order + 1), range(order, 0, -1)
    tail_re, tail_im = [0] * (order + 1), [0] * (order + 1)
    # |term|^2 scale2 < thresh2 exactly where |term|^2 < ceil(thresh2/scale2)
    limit = -(-thresh2 // scale2) if scale2 else math.inf
    N2 = N * N
    m = 1
    prev = math.inf
    while True:
        xr, xi = w_re[0], w_im[0]
        tail_re[0] += xr
        tail_im[0] += xi
        size2 = xr * xr + xi * xi
        for l in ups:
            xr, xi = w_re[l], w_im[l]
            tail_re[l] += xr
            tail_im[l] += xi
            x2 = xr * xr + xi * xi
            if x2 > size2:
                size2 = x2
        if size2 < limit:
            return list(zip(tail_re, tail_im))
        if size2 > prev or m >= 200:
            return None
        prev = size2
        r = bernoulli_ratio(m, wp)
        for l in downs:  # downwards, so w_(l-1) and w_(l-2) are still those of u_m
            xr, xi = w_re[l], w_im[l]
            yr, yi = xr * qr - xi * qi >> wp, xr * qi + xi * qr >> wp
            xr, xi = w_re[l - 1], w_im[l - 1]
            yr += l * (xr * dr - xi * di >> wp)
            yi += l * (xr * di + xi * dr >> wp)
            if l > 1:
                yr += l * (l - 1) * w_re[l - 2]
                yi += l * (l - 1) * w_im[l - 2]
            w_re[l], w_im[l] = (yr * r >> wp) // N2, (yi * r >> wp) // N2
        xr, xi = w_re[0], w_im[0]
        yr, yi = xr * qr - xi * qi >> wp, xr * qi + xi * qr >> wp
        w_re[0], w_im[0] = (yr * r >> wp) // N2, (yi * r >> wp) // N2
        # Q_(m+1) - Q_m = 2 Q_m' + 4, Q_(m+1)' - Q_m' = 4
        qr += 2 * dr + 4 * one
        qi += 2 * di
        dr += 4 * one
        m += 1


def tail_jet(s, w: int, order: int, wp: int, stop: int = 1):
    """The jet (Re T_0, Im T_0, ..., Re T_order, Im T_order) of
    T_j(w) = sum_{m>w} ln^j(m) m^(-s), as a flat tuple of wp-bit ints in
    the layout of :func:`dirichlet_powers`, by Euler-Maclaurin from w;
    None where its Bernoulli tail stalls.

    T_0(w) = w^(-s) (w/(s-1) - 1/2 + sum_m u_m(s)) with the u_m of
    :func:`_bernoulli_tail`, and T_j = (-d/ds)^j T_0.  The first part gives
    w^(-s) sum_l C(j, l) ln^(j-l)(w) l! w/(s-1)^(l+1), with w^(1-s) formed
    as an exact int product before it is divided by (s-1)^(l+1).  s - 1 is
    read from every bit of s with -log2|s - 1| bits more where it is below
    1, so next to the pole 1/(s-1) keeps its relative precision; where the
    fixed pair of s puts |s - 1| at 1 or above, those are 0 and the pair
    is s - 1 as it stands.  The
    Bernoulli tail ends with its first term below ``stop`` units of
    2^(-wp): one unit for the recursion below, 10^-(digits+5) for the
    Euler-Maclaurin sum of :mod:`zetakit.zeta`.  It is meant for w at or
    above ``em_terms(Im s, digits)``; below that the terms may stall.
    Everything runs at g = 8 + 5 order bits past wp: a term rounded
    towards -infinity stays at -1 unit instead of reaching 0, and its
    order-j term then carries about ln^j(w) < 2^(5 j) units for
    w < 10^10, which the g bits keep below one unit of the result.
    """
    g = 8 + 5 * order
    wp += g
    sre, sim = fixed_pair(s, wp)
    ln, pre, pim = _power(w, sre, sim, wp, ln2_fixed(wp), pi_fixed(wp - 1))
    bern = _bernoulli_tail((sre, sim), w, ln, pre * pre + pim * pim, order, wp, stop * stop << 2 * wp + 2 * g)
    if bern is None:
        return None
    a, b, e = sre - (1 << wp), sim, 0  # s - 1
    if max(a, ~a) ** 2 + max(b, ~b) ** 2 < 1 << 2 * wp:  # |s - 1| may be below 1
        d = mp.mpmathify(s) - 1
        e = max(0, -mp.mag(d)) if d else 0
        a, b = fixed_pair(s, wp + e)
        a -= 1 << wp + e  # s - 1 at wp + e bits, of about wp bits where e > 0
    den = a * a + b * b
    ir, ii = (a << 2 * wp + e) // den, (-b << 2 * wp + e) // den  # 1/(s-1)
    xr, xi = w * pre, w * pim  # w^(1-s)
    terms = []  # l! w^(1-s)/(s-1)^(l+1)
    for l in range(order + 1):
        xr, xi = xr * ir - xi * ii >> wp, xr * ii + xi * ir >> wp
        if l:
            xr, xi = l * xr, l * xi
        terms.append((xr, xi))
    terms[0] = terms[0][0] + (-pre >> 1), terms[0][1] + (-pim >> 1)
    lnp = _fixed_powers(ln, order, wp)
    jet = ()
    for j in range(order + 1):
        br, bi = bern[j]
        sign = (-1) ** j
        tr = sign * (pre * br - pim * bi >> wp)
        ti = sign * (pre * bi + pim * br >> wp)
        for l in range(j + 1):
            c = math.comb(j, l)
            tr += c * (lnp[j - l] * terms[l][0] >> wp)
            ti += c * (lnp[j - l] * terms[l][1] >> wp)
        jet += (tr >> g, ti >> g)
    return jet


def stieltjes_fixed(order: int, N: int, wp: int):
    """[gamma_j for j <= order], the Stieltjes constants, as wp-bit
    fixed-point ints from one Euler-Maclaurin jet at the pole s = 1; None
    where its Bernoulli tail stalls.

    zeta(s) - 1/(s-1) = sum_{k<=N} k^(-s) + (N^(1-s) - 1)/(s-1) - N^(-s)/2
    + N^(-s) sum_m u_m(s), with the u_m of :func:`_bernoulli_tail`, and its
    j-th derivative at s = 1 is (-1)^j gamma_j, so

        gamma_j = sum_{k<=N} ln^j(k)/k - ln^(j+1)(N)/(j+1) - ln^j(N)/(2N)
                  + (-1)^j B_j/N,

    B_j the order-j entry of :func:`_bernoulli_tail` at s = 1.  The main
    sum is the jet of :func:`dirichlet_powers` at s = 1, whose imaginary
    parts are exactly 0, and the tail ends with its first term below one
    unit of 2^(-wp) in gamma_j.  At s = 1 the tail terms fall to about
    e^(-2 pi N) before they grow, so N needs 2 pi N > wp ln 2 at least.
    """
    one = 1 << wp
    ln = log_int_fixed(N, wp)
    bern = _bernoulli_tail((one, 0), N, ln, (one // N) ** 2, order, wp, 1 << 2 * wp)
    if bern is None:
        return None
    sums = list(map(sum, zip(*dirichlet_powers(1, N, wp, order))))
    lnp = _fixed_powers(ln, order + 1, wp)
    return [
        sums[2 * j] - lnp[j + 1] // (j + 1) - lnp[j] // (2 * N) + (-1) ** j * bern[j][0] // N
        for j in range(order + 1)
    ]


def _stirling_size(zr: float, zi: float, bits: int) -> tuple:
    """(n, K) for :func:`log_gamma_jet` at z = zr + i zi: n >= 1 starts
    where |z + n| reaches bits/6.4 + 1, about where the least term of the
    bound, near 2^(-6.4 (|z + n| - 1)), reaches 2^-bits, and is raised by
    one until 2^K |B_2K|/(2K (2K - 1) (|z + n| - 1)^(2K-1)) falls below
    2^-bits at some K before it grows; K is the least such."""
    n = max(1, math.ceil(math.sqrt(max(0.0, (bits / 6.4 + 1) ** 2 - zi * zi)) - zr))
    while True:
        R = math.hypot(zr + n, zi) - 1
        if R > 1:
            lr = math.log2(R)
            lg, K = -math.log2(12), 1  # log2 |B_2K|/(2K (2K - 1))
            while K + lg - (2 * K - 1) * lr >= -bits:
                p, q = _bernoulli_ratio_fraction(K)
                step = math.log2(-p * 2 * K * (2 * K - 1)) - math.log2(q)
                if step + 1 >= 2 * lr:
                    break
                lg += step
                K += 1
            else:
                return n, K
        n += 1


def log_gamma_jet(z, radius: float, wp: int) -> list:
    """[(Re l_m, Im l_m) for m <= M] as wp-bit fixed-point ints, the
    Taylor jet log Gamma(z + w) = sum_m l_m w^m of the principal branch at
    z with Re z >= 0 and Im z != 0, truncated for |w| <= radius < |Im z|.

    Taylor truncation.  l_m = (-1)^m zeta(m, z)/m for m >= 2 (Hurwitz
    zeta), and |z + j|^2 >= a^2 + j^2, a = |Im z|, so |zeta(m, z)| <=
    a^-m + int_0^inf (a^2 + x^2)^(-m/2) dx <= a^-m (1 + pi a/2): the terms
    past M add at most (1 + pi a/2) q^(M+1)/((M + 1)(1 - q)), q =
    radius/a, and M is the least order with that below 2^-(wp+2).

    Stirling truncation.  With Z = z + n, n >= 1 (DLMF 5.5.1, 5.11.1),

        log Gamma(z + w) = S_K(Z + w) - sum_{j<n} log(z + j + w) + R_K(Z + w),
        S_K(x) = (x - 1/2) ln x - x + ln(2 pi)/2 + sum_{k<K} g_k x^(1-2k),

    g_k = B_2k/(2k (2k - 1)), and |R_K(x)| <= sec^(2K)(ph(x)/2) |g_K|
    |x|^(1-2K) (DLMF 5.11(ii)), sec^2 at most 2 where Re x >= 0.  On the
    disk |x - Z| <= 1, Re x >= Re z >= 0 and |x| >= |Z| - 1 > 1, so
    Cauchy's estimate bounds every Taylor coefficient of R_K(Z + w) by
    B = 2^K |g_K| (|Z| - 1)^(1-2K), and their sum at |w| <= 1/8 by 8B/7;
    :func:`_stirling_size` takes n and K with B below 2^-(wp+3).

    So for |w| <= min(radius, 1/8) the jet summed to M is within
    2^-(wp+1) of log Gamma(z + w), plus its rounding.  Its coefficients are
    those of S_K(Z + w) and of the logs, with y = 1/Z, T_k = g_k y^(2k-1)
    and u_j = -1/(z + j):

        l_0 = (Z - 1/2) ln Z - Z + ln(2 pi)/2 + sum_k T_k - sum_j ln(z + j),
        l_1 = ln Z - y/2 - y sum_k (2k - 1) T_k + sum_j u_j,
        l_m = (-y)^m (sum_k C(2k-2+m, m) T_k + 1/(2m)) - (-y)^(m-1)/(m (m-1))
              + sum_j u_j^m/m.

    sum_j ln(z + j) is the log of the product plus the multiple of 2 pi i
    that the doubles' sum of the arguments picks.  Everything runs at
    wp + 32 bits, ln Z, ln(2 pi) and the product's log from mpmath, and
    T_k as T_(k-1) times the exact ratio g_k/g_(k-1) of
    :func:`_bernoulli_ratio_fraction` and y^2.  Their rounding stays far
    below the 2^32 units the last shift drops, so each l_m is within
    about a unit of 2^-wp of the coefficient of the truncated series:
    at most 1.4 units at t = 14, 92 and 1000, 200 to 800 bits, against
    mpmath's psi."""
    z = mp.mpmathify(z)
    zr, zi = float(z.real), float(z.imag)
    a = abs(zi)
    q = radius / a
    lead = math.log2(1 + math.pi * a / 2) - math.log2(1 - q)
    M = 1
    while lead + (M + 1) * math.log2(q) - math.log2(M + 1) > -wp - 2:
        M += 1
    n, K = _stirling_size(zr, zi, wp + 3)
    g = 32
    W = wp + g
    one = 1 << W
    with mp.workprec(W + n.bit_length() + 8):
        ln_Z = fixed_pair(mp.log(z + n), W)
        ln_r, ln_i = fixed_pair(mp.log(mp.fprod(z + j for j in range(n))), W)
        half_ln_2pi = fixed_pair(mp.log(2 * mp.pi) / 2, W)[0]
        two_pi = fixed_pair(2 * mp.pi, W)[0]
    args = math.fsum(math.atan2(zi, zr + j) for j in range(n))
    ln_i += round((args - ln_i / one) / (2 * math.pi)) * two_pi
    xr, xi = fixed_pair(z, W)
    Zr, Zi = xr + n * one, xi
    den = Zr * Zr + Zi * Zi
    yr, yi = (Zr << 2 * W) // den, (-Zi << 2 * W) // den
    y2r, y2i = yr * yr - yi * yi >> W, yr * yi >> W - 1
    Tr, Ti = [], []
    tr, ti = yr // 12, yi // 12
    for k in range(1, K):
        Tr.append(tr)
        Ti.append(ti)
        p, qk = _bernoulli_ratio_fraction(k)
        f = p * 2 * k * (2 * k - 1)
        tr, ti = tr * f // qk, ti * f // qk
        tr, ti = tr * y2r - ti * y2i >> W, tr * y2i + ti * y2r >> W
    U = [[0, 0] for _ in range(M + 1)]  # sum_j u_j^m
    for j in range(n):
        wr = xr + j * one
        d = wr * wr + xi * xi
        ur, ui = -(wr << 2 * W) // d, (xi << 2 * W) // d
        pr, pi = ur, ui
        for m in range(1, M + 1):
            U[m][0] += pr
            U[m][1] += pi
            pr, pi = pr * ur - pi * ui >> W, pr * ui + pi * ur >> W
    hr = Zr - (one >> 1)  # Z - 1/2
    jet = [((hr * ln_Z[0] - Zi * ln_Z[1] >> W) - Zr + half_ln_2pi + sum(Tr) - ln_r,
            (hr * ln_Z[1] + Zi * ln_Z[0] >> W) - Zi + sum(Ti) - ln_i)]
    pr, pi = one, 0  # (-y)^(m-1)
    for m in range(1, M + 1):
        vr, vi = -pr * yr + pi * yi >> W, -pr * yi - pi * yr >> W  # (-y)^m
        c = [math.comb(2 * k - 2 + m, m) for k in range(1, K)]
        sr = sum(map(mul, c, Tr)) + one // (2 * m)
        si = sum(map(mul, c, Ti))
        lr = (vr * sr - vi * si >> W) + U[m][0] // m
        li = (vr * si + vi * sr >> W) + U[m][1] // m
        if m == 1:
            lr, li = lr + ln_Z[0], li + ln_Z[1]
        else:
            lr, li = lr - pr // (m * (m - 1)), li - pi // (m * (m - 1))
        jet.append((lr, li))
        pr, pi = vr, vi
    return [(r >> g, i >> g) for r, i in jet]


def checkpoint_ladder(checkpoints) -> list:
    """The checkpoints as ints, checked integral, nonempty, increasing and
    >= 1."""
    checkpoints = list(checkpoints)
    ladder = [int(K) for K in checkpoints]
    if ladder != checkpoints or not ladder or ladder[0] < 1 or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise RangeError("checkpoints must be nonempty integers, strictly increasing and start at K >= 1")
    return ladder


def dirichlet_partial(rho, ns, checkpoints, ctx: PrecisionContext) -> dict:
    """{n: [D_n(K) for K in checkpoints]}, D_n(K) = sum_{k<=K} mu(k) log^n(k) k^(-rho).

    Every requested log power 0 <= n <= 6 comes from one pass of the
    hyperbola recursion of the module docstring, rounded to ctx.bits at
    each checkpoint.  With K <= SIEVE_CAP the last checkpoint, it sieves
    mu to y = max(ceil(2 K^(2/3)), em_terms(Im rho, ctx.target_digits)),
    the range of its error bound, where Re(rho) >= 1/2 and
    |rho - 1| >= 1/2.  Where y >= K, outside that range, or where a tail
    stalls, it runs at y = K: the direct sum over every k <= K, refused
    with LimitTooLargeError, before it sieves, for K above 10^6.
    """
    ns = set(ns)
    if not ns or any(n not in range(7) for n in ns):
        raise RangeError("log powers must be nonempty integers with 0 <= n <= 6")
    ns = sorted(int(n) for n in ns)
    checkpoints = checkpoint_ladder(checkpoints)
    K = checkpoints[-1]
    if K > SIEVE_CAP:
        raise LimitTooLargeError(f"checkpoint {K} exceeds cap {SIEVE_CAP}")
    s = mp.mpmathify(rho)
    y = max(math.ceil(2 * K ** (2 / 3)), em_terms(mp.im(s), ctx.target_digits))
    direct = y >= K or mp.re(s) < 0.5 or abs(s - 1) < 0.5
    sums = None if direct else _hyperbola_partial(rho, ns[-1], checkpoints, y, ctx)
    if sums is None:
        if K > _DIRECT_CAP:
            raise LimitTooLargeError(f"direct sum to checkpoint {K} exceeds cap {_DIRECT_CAP}")
        sums = _hyperbola_partial(rho, ns[-1], checkpoints, K, ctx)
    return {n: sums[n] for n in ns}


def _hyperbola_guard(K: int, y: int, top: int) -> int:
    """Guard bits of the recursion: 24 past the error bound of the module
    docstring, 40 K^(1/4) (K/y)^(3/2) e (2 ln K)^top units of 2^(-wp) with
    e = y (bit_length(y) + 2 + top), taken as at least 1 unit (at K = 1,
    ln K = 0)."""
    e = y * (y.bit_length() + 2 + top)
    bound = 40 * K**0.25 * (K / y) ** 1.5 * e * (2 * math.log(K)) ** top
    return 24 + math.ceil(math.log2(max(bound, 1)))


def _hyperbola_partial(rho, top: int, checkpoints: list, y: int, ctx: PrecisionContext):
    """The sums of :func:`dirichlet_partial` by the hyperbola recursion, or
    None where a tail stalls.  At y = K no floor value lies above y: the
    power pass is the direct sum, and no tail is taken.

    Jets are flat (re_0, im_0, ..., re_top, im_top) of wp-bit ints, as
    :func:`dirichlet_powers` yields them: f(m) = (ln^j(m) m^(-rho))_j,
    and D(v), F(v) with D_j(v), F_j(v) the mu-weighted and the plain sums
    of f(k) over k <= v.  Dirichlet convolution of two sums pairs their
    jets by sum_j C(n, j) a_j b_(n-j).

    The power pass is read _CHUNK jets at a time into one column per jet
    entry.  F and D are ``accumulate`` passes over a chunk's columns, mu
    folded into D's by one ``map(mul)``, and only the values the recursion
    reads are kept: D and F at the floor values up to y, at k <= sqrt(K)
    and at y, and f(m) for m <= sqrt(K), as columns.  So the memory beyond
    the power kernel's memo is a chunk's columns and the kept values.
    Each floor value v > y then takes its convolutions as dot products
    ``sum(map(mul, ...))`` of columns: the f(m), 2 <= m <= isqrt(v), with
    the D(floor(v/m)), and the mu(i) f(i) of the squarefree i <= J with the
    F(floor(v/i)).  Every sum is exact in Python ints, so the grouping
    leaves every bit as it is.
    """
    K = checkpoints[-1]
    wp = ctx.bits + _hyperbola_guard(K, y, top)
    width = 2 * (top + 1)
    R = math.isqrt(K)
    mu = sieve_mobius(y).values  # mu[k - 1] = mu(k)
    # The floor values v = floor(K_i/q) of the checkpoints: those above y
    # take the recursion in increasing order, and each floor(v/m) is a
    # floor value again.  Below y the recursion reads D and F only there
    # and at v <= R, so the power pass to y keeps them only there.
    floors = {Ki // q for Ki in checkpoints for q in range(1, math.isqrt(Ki) + 1)}
    V = sorted(v for v in floors if v > y)
    keep = sorted(k for k in floors.union(range(1, R + 1), (y,)) if k <= y)
    F, D = {0: (0,) * width}, {0: (0,) * width}
    f = [[0] for _ in range(width)]  # f[c][m] = entry c of f(m), m <= R
    f_acc, d_acc = [0] * width, [0] * width
    powers = dirichlet_powers(rho, y, wp, top)
    for lo in range(1, y + 1, _CHUNK):
        n = min(_CHUNK, y + 1 - lo)
        kept = keep[bisect_left(keep, lo) : bisect_left(keep, lo + n)]
        at = [k - lo + 1 for k in kept]  # their places in a column's prefix sums
        mus = mu[lo - 1 : lo - 1 + n]
        f_kept, d_kept = [], []
        for c, col in enumerate(zip(*islice(powers, n))):
            if lo <= R:
                f[c] += col[: R + 1 - lo]
            sums = list(accumulate(col, initial=f_acc[c]))
            f_acc[c] = sums[-1]
            f_kept.append(list(map(sums.__getitem__, at)))
            sums = list(accumulate(map(mul, mus, col), initial=d_acc[c]))
            d_acc[c] = sums[-1]
            d_kept.append(list(map(sums.__getitem__, at)))
        F.update(zip(kept, zip(*f_kept)))
        D.update(zip(kept, zip(*d_kept)))
    # Above y, F(w) = Z - T(w) with Z = F(y) + T(y), so zeta(rho) cancels
    # from every difference of two F.
    if V:
        tails = {}
        for w in (y, *V):
            tails[w] = tail_jet(rho, w, top, wp)
            if tails[w] is None:
                return None
        Z = [a + b for a, b in zip(F[y], tails[y])]
        F.update((v, tuple(z - t for z, t in zip(Z, tails[v]))) for v in V)
    squarefree = list(compress(range(1, R + 1), mu[:R]))
    g = [[mu[i - 1] * col[i] for i in squarefree] for col in f]  # mu(i) f(i), i squarefree
    f = [col[2:] for col in f]  # f(m), m >= 2: each dot product below stops at its shorter column
    # (a, b, C(j + l, j), 2 (j + l)) for j + l <= top, a = 2 j and b = 2 l
    pairs = [(2 * j, 2 * l, math.comb(j + l, j), 2 * (j + l)) for j in range(top + 1) for l in range(top + 1 - j)]
    for v in V:
        r = math.isqrt(v)
        J = v // (r + 1)
        dm = list(zip(*map(D.__getitem__, map(v.__floordiv__, range(2, r + 1)))))
        fi = list(zip(*map(F.__getitem__, map(v.__floordiv__, squarefree[: bisect_right(squarefree, J)]))))
        Fr, DJ = F[r], D[J]
        out = [0] * width
        out[0] = 1 << 2 * wp
        for a, b, c, n in pairs:
            # F(r) D(J) - sum_m f(m) D(v/m) - sum_i mu(i) f(i) F(v/i), entries a of
            # the first factor and b of the second, at 2 wp bits
            re = (Fr[a] * DJ[b] - Fr[a + 1] * DJ[b + 1]
                  - _dot(f[a], dm[b]) + _dot(f[a + 1], dm[b + 1]) - _dot(g[a], fi[b]) + _dot(g[a + 1], fi[b + 1]))
            im = (Fr[a] * DJ[b + 1] + Fr[a + 1] * DJ[b]
                  - _dot(f[a], dm[b + 1]) - _dot(f[a + 1], dm[b]) - _dot(g[a], fi[b + 1]) - _dot(g[a + 1], fi[b]))
            out[n] += c * re
            out[n + 1] += c * im
        D[v] = tuple(x >> wp for x in out)
    sums = [[] for _ in range(top + 1)]
    for Ki in checkpoints:
        jet = D[Ki]
        for n in range(top + 1):
            sums[n].append(fixed_to_mpc(jet[2 * n], jet[2 * n + 1], wp, ctx.bits))
    return sums


def _dot(a, b) -> int:
    """sum_i a_i b_i, exact in Python ints."""
    return sum(map(mul, a, b))
