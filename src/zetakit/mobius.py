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
A prime p takes ln p, exp(-Re(s) ln p) and cos, sin of Im(s) ln p in
fixed point.
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
constants.

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
At K = 10^6, n <= 1 and 30 digits that is 0.3 s on one core of a
2-core x86 host, where a direct sum over the squarefree k <= K took 4 s.

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
with checkpoints 10^4, 10^5 and 10^6.  No zero the CLI reaches lies
there.  At K = 10^6 the recursion and the pass at y = K gave the same
bits after rounding at zeros 1, 29 and 649 at 30 digits and at zeros 2
and 649 at 60.

This module is the package's only user of mpmath's internal ``libmp``
layer, which carries no API promise.  Other modules take the conversions
:func:`fixed_pair`, :func:`fixed_to_mpf` and :func:`fixed_to_mpc`, and
``log_int_fixed``, from here.
"""

from __future__ import annotations

import functools
import math
from array import array
from itertools import accumulate, compress
from operator import mul, sub
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import fzero, from_man_exp, ln2_fixed, pi_fixed, to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed, log_int_fixed

from .errors import LimitTooLargeError, RangeError
from .precision import PrecisionContext

SIEVE_CAP = 10**8

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


def _power(k: int, sre: int, sim: int, wp: int, ln2: int, pi2: int) -> tuple:
    """(ln k, Re k^(-s), Im k^(-s)) as wp-bit ints from ln k, exp(-Re(s) ln k)
    and (cos, sin)(-Im(s) ln k); s = sre + i sim in fixed point, ln2 and pi2
    the fixed-point ln 2 and pi/2."""
    ln = log_int_fixed(k, wp, ln2)
    cos, sin = cos_sin_fixed(-sim * ln >> wp, wp, pi2)
    u = exp_fixed(-sre * ln >> wp, wp, ln2)
    return ln, u * cos >> wp, u * sin >> wp


@functools.lru_cache(maxsize=None)
def _spf_table(size: int) -> array:
    """``smallest_prime_factors(size)``, built once per size class: the
    power kernel calls it with the power of two above K."""
    return smallest_prime_factors(size)


def dirichlet_powers(s, K: int, wp: int, order: int):
    """Yield the jet of each k = 1..K in increasing order: the flat tuple
    (re_0, im_0, ..., re_order, im_order) of ln^j(k) k^(-s) as wp-bit
    fixed-point ints.

    A prime p takes ln p from ``log_int_fixed`` and p^(-s) as
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
                 - sum_{1 <= j <= floor(v/(r+1))} M(j) (floor(v/j) - floor(v/(j+1))).

    Every floor(x/n) is a floor(x/q) again, so the v that need the
    recursion are v = floor(x/q) > y, q <= Q = floor(x/(y+1)), taken in
    decreasing q: M(floor(v/m)) is the already computed big[q m] when
    q m <= Q, and otherwise floor(v/m) = floor(x/(q m)) <= y is read from
    the prefix sums of the sieve, as are the M(j), j <= r <= y.  The
    cost is the sieve to y plus about 2 sqrt(x Q) ~ 2 x^(2/3) terms, each
    summed by ``map`` over Python ints, so every sum is exact.
    """
    if x < 1:
        raise RangeError(f"mertens argument must be >= 1, got {x}")
    if x > SIEVE_CAP:
        raise LimitTooLargeError(f"mertens argument {x} exceeds cap {SIEVE_CAP}")
    y = min(x, math.ceil(2 * x ** (2 / 3)))
    small = [0, *accumulate(sieve_mobius(y).values)]  # small[v] = M(v) for v <= y
    Q = x // (y + 1)
    big = [0] * (Q + 1)  # big[q] = M(floor(x/q)) for q <= Q
    for q in range(Q, 0, -1):
        v = x // q
        r = math.isqrt(v)
        cut = min(r, Q // q)  # m <= cut have q m <= Q
        total = sum(big[2 * q : cut * q + 1 : q])
        total += sum(map(small.__getitem__, map(v.__floordiv__, range(cut + 1, r + 1))))
        ends = list(map(v.__floordiv__, range(1, v // (r + 1) + 2)))  # floor(v/j), j <= J + 1
        total += sum(map(mul, small[1 : len(ends)], map(sub, ends, ends[1:])))
        big[q] = 1 - total
    return big[1] if Q else small[x]


def em_terms(t, digits: int) -> int:
    """Euler-Maclaurin main-sum length N = ceil(|t| q/(2 pi)) + digits,
    q = max(2, 10^((digits+5)/360)), for Im s = t (see :mod:`zetakit.zeta`).
    A Bernoulli tail started at N or above shrinks by about
    (|t|/(2 pi N))^2 <= 1/4 a term."""
    q = max(2, 10 ** ((digits + 5) / 360))
    return int(math.ceil(abs(t) * q / (2 * math.pi))) + digits


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
    after which all are scaled by c_(m+1)/c_m/N^2.  The loop ends with the
    first m whose terms all have |term|^2 scale2 below thresh2, scale2 =
    |N^(-s)|^2 at 2 wp bits and thresh2 at 4 wp bits, compared as exact
    ints.  It returns None where the terms grow before that, or at
    m = 200: the asymptotic series has stalled.
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
    orders = range(order, -1, -1)
    tail_re, tail_im = [0] * (order + 1), [0] * (order + 1)
    N2 = N * N
    m = 1
    prev = math.inf
    while True:
        size2 = 0
        for l in orders:
            xr, xi = w_re[l], w_im[l]
            tail_re[l] += xr
            tail_im[l] += xi
            x2 = xr * xr + xi * xi
            if x2 > size2:
                size2 = x2
        size2 *= scale2
        if size2 < thresh2:
            return list(zip(tail_re, tail_im))
        if size2 > prev or m >= 200:
            return None
        prev = size2
        r = bernoulli_ratio(m, wp)
        for l in orders:  # downwards, so w_(l-1) and w_(l-2) are still those of u_m
            xr, xi = w_re[l], w_im[l]
            yr, yi = xr * qr - xi * qi >> wp, xr * qi + xi * qr >> wp
            if l:
                xr, xi = w_re[l - 1], w_im[l - 1]
                yr += l * (xr * dr - xi * di >> wp)
                yi += l * (xr * di + xi * dr >> wp)
                if l > 1:
                    yr += l * (l - 1) * w_re[l - 2]
                    yi += l * (l - 1) * w_im[l - 2]
            w_re[l], w_im[l] = (yr * r >> wp) // N2, (yi * r >> wp) // N2
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
    1, so next to the pole 1/(s-1) keeps its relative precision.  The
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
    stalls, it runs at y = K: the direct sum over every k <= K.
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
    y = max(math.ceil(2 * K ** (2 / 3)), em_terms(float(mp.im(s)), ctx.target_digits))
    if y >= K or mp.re(s) < 0.5 or abs(s - 1) < 0.5:
        y = K
    sums = _hyperbola_partial(rho, ns[-1], checkpoints, y, ctx)
    if sums is None:
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
    and D(v), F(v) with D_j(v), F_j(v) the
    mu-weighted and the plain sums of f(k) over k <= v.  Dirichlet
    convolution of two sums pairs their jets by sum_j C(n, j) a_j b_(n-j).
    """
    K = checkpoints[-1]
    wp = ctx.bits + _hyperbola_guard(K, y, top)
    width = 2 * (top + 1)
    R = math.isqrt(K)
    mus = [0] + sieve_mobius(y).values.tolist()  # mus[k] = mu(k)
    # The floor values v = floor(K_i/q) of the checkpoints: those above y
    # take the recursion in increasing order, and each floor(v/m) is a
    # floor value again.  Below y the recursion reads D and F only there
    # and at v <= R, so the power pass to y keeps them only there.
    floors = {Ki // q for Ki in checkpoints for q in range(1, math.isqrt(Ki) + 1)}
    V = sorted(v for v in floors if v > y)
    keep = floors.union(range(R + 1), (y,))
    f = [None] * (R + 1)
    D = {0: (0,) * width}
    F = {0: (0,) * width}
    d_acc = [0] * width
    f_acc = [0] * width
    for k, fk in enumerate(dirichlet_powers(rho, y, wp, top), 1):
        f_acc = [a + b for a, b in zip(f_acc, fk)]
        if mus[k] > 0:
            d_acc = [a + b for a, b in zip(d_acc, fk)]
        elif mus[k] < 0:
            d_acc = [a - b for a, b in zip(d_acc, fk)]
        if k in keep:
            F[k] = tuple(f_acc)
            D[k] = tuple(d_acc)
        if k <= R:
            f[k] = fk
    # Above y, F(w) = Z - T(w) with Z = F(y) + T(y), so zeta(rho) cancels
    # from every difference of two F.
    Fbig = {}
    if V:
        tails = {}
        for w in (y, *V):
            tails[w] = tail_jet(rho, w, top, wp)
            if tails[w] is None:
                return None
        Z = [a + b for a, b in zip(F[y], tails[y])]
        Fbig = {v: tuple(z - t for z, t in zip(Z, tails[v])) for v in V}
    pairs = [(2 * j, 2 * l) for j in range(top + 1) for l in range(top + 1 - j)]
    binom = [(math.comb(j + l, j), j + l) for j in range(top + 1) for l in range(top + 1 - j)]

    def convolve(S, a, b):
        # S[2 p], S[2 p + 1] += a_j b_l for the p-th pair (j, l), at 2 wp bits
        for p, (j2, l2) in enumerate(pairs):
            ar, ai, br, bi = a[j2], a[j2 + 1], b[l2], b[l2 + 1]
            S[2 * p] += ar * br - ai * bi
            S[2 * p + 1] += ar * bi + ai * br

    Dbig = {}
    for v in V:
        r = math.isqrt(v)
        J = v // (r + 1)
        minus = [0] * (2 * len(pairs))
        plus = [0] * (2 * len(pairs))
        for m in range(2, r + 1):
            w = v // m
            convolve(minus, f[m], Dbig[w] if w > y else D[w])
        for i in range(1, J + 1):
            if mus[i]:
                w = v // i
                convolve(minus if mus[i] > 0 else plus, f[i], Fbig[w] if w > y else F[w])
        convolve(plus, F[r], D[J])
        out = [0] * width
        out[0] = 1 << 2 * wp
        for p, (c, n) in enumerate(binom):
            out[2 * n] += c * (plus[2 * p] - minus[2 * p])
            out[2 * n + 1] += c * (plus[2 * p + 1] - minus[2 * p + 1])
        Dbig[v] = tuple(x >> wp for x in out)
    sums = [[] for _ in range(top + 1)]
    for Ki in checkpoints:
        jet = Dbig[Ki] if Ki > y else D[Ki]
        for n in range(top + 1):
            sums[n].append(fixed_to_mpc(jet[2 * n], jet[2 * n + 1], wp, ctx.bits))
    return sums
