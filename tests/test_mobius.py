import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed

import oracles
from zetakit.errors import LimitTooLargeError, RangeError
import zetakit.mobius as mobius
from zetakit.mobius import (
    MobiusTable,
    bernoulli_ratio,
    dirichlet_partial,
    dirichlet_powers,
    em_terms,
    fixed_pair,
    fixed_to_mpc,
    fixed_to_mpf,
    log_gamma_jet,
    log_int_fixed,
    mertens,
    mertens_sublinear,
    sieve_mobius,
    smallest_prime_factors,
    tail_jet,
)
from zetakit.precision import PrecisionContext

CTX = PrecisionContext.from_digits(30)


def test_first_values():
    table = sieve_mobius(30)
    expected = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert [table.mobius(k) for k in range(1, 11)] == expected


def test_sieve_against_trial_division(monkeypatch):
    N = 2 * 10**4
    want = [oracles.mu_factor(k) for k in range(1, N + 1)]
    # A 997-integer segment puts 20 segment boundaries below N.
    for segment in (mobius.SEGMENT, 997):
        monkeypatch.setattr(mobius, "SEGMENT", segment)
        assert sieve_mobius(N).values.tolist() == want, segment


def test_sieve_at_tiny_limits_and_segment_edges():
    # Limits whose square root is or is not an integer, and the default
    # segment size +-1, against the one-slice-per-prime Eratosthenes sieve.
    for N in (1, 2, 3, 4, 5, 9, 25):
        assert sieve_mobius(N).values.tolist() == [oracles.mu_factor(k) for k in range(1, N + 1)]
    for N in (mobius.SEGMENT - 1, mobius.SEGMENT, mobius.SEGMENT + 1):
        assert np.array_equal(sieve_mobius(N).values, oracles.mu_eratosthenes(N)), N


def test_sieve_log_margin_at_every_small_limit():
    # The cut between one prime factor above sqrt(N) and none moves with N
    # and has the least room at small N: every N to 300, and the Mertens
    # sum of each table by its byte counts.
    want = [oracles.mu_factor(k) for k in range(1, 301)]
    for N in range(1, 301):
        table = sieve_mobius(N)
        assert table.values.tolist() == want[:N], N
        assert mertens(N, table) == oracles.mertens_brute(N), N


def test_sieve_log_margin_at_a_million():
    N = 10**6
    assert sieve_mobius(N).values.tobytes() == oracles.mu_eratosthenes(N).tobytes()


def test_mertens_small_values():
    table = sieve_mobius(1000)
    assert mertens(10, table) == -1
    assert mertens(100, table) == 1
    assert mertens(1000, table) == 2
    for x in (10, 100, 500):
        assert mertens(x, table) == oracles.mertens_brute(x)


def test_mertens_rejects_x_beyond_table():
    table = sieve_mobius(100)
    with pytest.raises(RangeError):
        mertens(101, table)
    with pytest.raises(RangeError):
        mertens(0, table)


def _sublinear_sieve_limit(x):
    """The y = min(x, ceil(2 x^(2/3))) of mertens_sublinear's docstring."""
    return min(x, math.ceil(2 * x ** (2 / 3)))


def _spy_on_sieve(monkeypatch) -> list:
    """The limits of every sieve_mobius call, in order."""
    limits = []
    sieve = mobius.sieve_mobius
    monkeypatch.setattr(mobius, "sieve_mobius", lambda N: limits.append(N) or sieve(N))
    return limits


def test_mertens_sublinear_every_x_to_2000():
    table = sieve_mobius(2000)
    assert [mertens_sublinear(x) for x in range(1, 2001)] == [mertens(x, table) for x in range(1, 2001)]


def test_mertens_sublinear_structured_edges(monkeypatch):
    limits = _spy_on_sieve(monkeypatch)
    mertens_sublinear(10**6)
    assert limits == [_sublinear_sieve_limit(10**6)]
    monkeypatch.undo()

    xs = set()
    for k in [*range(1, 200), 999, 1000, 1414]:
        xs |= {k * k - 1, k * k, k * k + 1, k * (k + 1)}
    # Near x = (2q)^3, floor(x/q) passes y(x): floor(x/q) = y reads the
    # last table value and floor(x/q) = y + 1 is the first recursed one.
    # Each q contributes the first and last x of both kinds.
    for q in range(1, 40):
        for d in (0, 1):
            run = [x for x in range(max(1, (2 * q) ** 3 - 20 * q), (2 * q) ** 3 + 20 * q)
                   if x // q - _sublinear_sieve_limit(x) == d]
            xs |= {run[0], run[-1]}
    xs.discard(0)
    table = sieve_mobius(max(xs))
    for x in sorted(xs):
        assert mertens_sublinear(x) == mertens(x, table), x


def test_mertens_sublinear_seeded_x_to_2e6():
    rng = random.Random(20261019)
    table = sieve_mobius(2 * 10**6)
    for x in (rng.randint(1, 2 * 10**6) for _ in range(200)):
        assert mertens_sublinear(x) == mertens(x, table), x


def test_mertens_sublinear_published_values():
    for k, m in enumerate((1, -1, 1, 2, -23, -48, 212, 1037, 1928)):
        assert mertens_sublinear(10**k) == m, k


def test_mertens_sublinear_validation():
    with pytest.raises(RangeError):
        mertens_sublinear(0)
    with pytest.raises(LimitTooLargeError):
        mertens_sublinear(mobius.SIEVE_CAP + 1)


def test_sieve_limit_validation():
    with pytest.raises(RangeError):
        sieve_mobius(0)
    with pytest.raises(LimitTooLargeError):
        sieve_mobius(10**8 + 1)


def test_dirichlet_partial_trivial_truncations():
    sums = dirichlet_partial(mpc(2, 0), (0, 1), (1,), CTX)
    # K=1: only k=1 contributes; ln(1)=0 kills every n >= 1.
    assert sums[0] == [1]
    assert sums[1] == [0]


def test_dirichlet_partial_matches_direct_loop():
    rho = mpc(mpf(1) / 2, 14)
    cps = (1, 100, 300)  # 100 is not squarefree
    ours = dirichlet_partial(rho, (0, 2), cps, CTX)
    with CTX.wp():
        for n in (0, 2):
            direct = mpc(0)
            want = []
            for k in range(1, 301):
                muk = oracles.mu_factor(k)
                if muk:
                    direct += muk * mp.ln(k) ** n * mp.exp(-rho * mp.ln(k))
                if k in cps:
                    want.append(direct)
            for got, ref in zip(ours[n], want):
                assert abs(got - ref) < mpf(10) ** -27


def test_dirichlet_partial_validation():
    rho = mpc(mpf(1) / 2, 14)
    for ns, cps in (((), (10,)), ((7,), (10,)), ((-1,), (10,)), ((0.7, 1), (10,)), ((0,), ()),
                    ((0,), (0, 10)), ((0,), (10, 10)), ((0,), (10.5, 100)),
                    ((0,), (10, mobius.SIEVE_CAP + 1))):
        with pytest.raises(RangeError):
            dirichlet_partial(rho, ns, cps, CTX)


def test_dirichlet_partial_sieves_the_range_it_reads(monkeypatch):
    # The recursion reads mu to y = ceil(2 K^(2/3)), or to K where y >= K;
    # past SIEVE_CAP nothing is sieved.
    limits = _spy_on_sieve(monkeypatch)
    rho = mpc(mpf(1) / 2, 14)
    dirichlet_partial(rho, (0,), (100, 10**4), CTX)
    assert limits == [math.ceil(2 * (10**4) ** (2 / 3))]
    limits.clear()
    dirichlet_partial(rho, (0, 1), (10, 30), CTX)  # K <= y = em_terms(14, 30) = 35: y = K
    assert limits == [30]
    limits.clear()
    with pytest.raises(LimitTooLargeError):
        dirichlet_partial(rho, (0,), (10, mobius.SIEVE_CAP + 1), CTX)
    assert limits == []


def test_dirichlet_partial_approximates_inverse_zeta_at_2():
    # sum mu(k)/k^2 -> 6/pi^2 like O(1/K).
    ours = dirichlet_partial(mpc(2, 0), (0,), (5000,), CTX)[0][0]
    with CTX.wp():
        assert abs(ours - 6 / mp.pi**2) < mpf(10) ** -3


def test_smallest_prime_factors_by_trial_division():
    spf = smallest_prime_factors(2000).tolist()
    for k in range(2, 2001):
        p = next(d for d in range(2, k + 1) if k % d == 0)
        assert spf[k] == p, k


def test_dirichlet_powers_every_k():
    # Every entry of every jet, ln^j(k) k^(-s) for j <= 2, against mpmath.
    s = mpc(mpf(1) / 2, 21)
    wp = CTX.bits
    with CTX.wp():
        every = list(dirichlet_powers(s, 200, wp, 2))
        assert len(every) == 200
        for k, jet in enumerate(every, 1):
            assert len(jet) == 6, k
            for j in range(3):
                want = mp.ln(k) ** j * mp.exp(-s * mp.ln(k))
                assert abs(fixed_to_mpc(jet[2 * j], jet[2 * j + 1], wp, CTX.bits) - want) < mpf(10) ** -36, (k, j)


@pytest.mark.parametrize("wp", [64, 188, 300, 800])
def test_critical_line_amplitude_is_the_exact_floor(wp):
    """On Re s = 1/2 the power kernel takes |p^(-s)| = p^(-1/2) as the
    floor of 2^wp p^(-1/2), read here at Im s = 0, where cos is exactly
    2^wp; the exp path, exp(-ln(p)/2) from the truncated ln p, lies at most
    3 units below it for every prime to 10^4."""
    half = 1 << wp - 1
    ln2, pi2 = mobius.ln2_fixed(wp), mobius.pi_fixed(wp - 1)
    for p in mobius._small_primes(10**4):
        ln, u, im = mobius._power(p, half, 0, wp, ln2, pi2)
        assert im == 0 and u * u * p <= 1 << 2 * wp < (u + 1) ** 2 * p, (p, wp)
        assert 0 <= u - exp_fixed(-half * ln >> wp, wp, ln2) <= 3, (p, wp)
    # Off the line the amplitude is still the exp.
    ln, u, _ = mobius._power(97, half + 1, 0, wp, ln2, pi2)
    assert u == exp_fixed(-(half + 1) * ln >> wp, wp, ln2)


LOG_WPS = (64, 100, 137, 230, 333, 500, 700, 5600)


def _log_floor(k: int, wp: int) -> int:
    with mp.workprec(wp + 64):
        return int(mp.floor(mp.ln(k) * mpf(2) ** wp))


def test_log_table_is_within_one_unit_of_the_floor(monkeypatch):
    """Every ln k of the table is within one unit of floor(2^wp ln k):
    the primes <= 3000, the primes below and above 10^8 and composites up
    to 10^8 + 1, each filled at its own wp in a fresh table, and again
    served by a shift after a fill at a higher precision.  The highest wp
    is about that of 200 digits escalated eight times by certified()."""
    rng = random.Random(5)
    composites = [4, 1000, 1024, 720720, 999999, 10**6, 10**6 + 1, 3**12, 2003 * 211, 10**8, 10**8 + 1]
    composites += [k for k in rng.sample(range(4, 10**6 + 2), 300) if mobius._prime_factors(k) != [k]]
    ks = mobius._small_primes(3000) + [99999989, 100000007] + composites
    floors = {wp: [_log_floor(k, wp) for k in ks] for wp in LOG_WPS}
    for wp in LOG_WPS:
        monkeypatch.setattr(mobius, "_LOGS", {})
        for k, floor in zip(ks, floors[wp]):
            assert abs(log_int_fixed(k, wp) - floor) <= 1, (k, wp)
    monkeypatch.setattr(mobius, "_LOGS", {})
    for wp in sorted(LOG_WPS, reverse=True):
        for k, floor in zip(ks, floors[wp]):
            assert abs(log_int_fixed(k, wp) - floor) <= 1, (k, wp)
    assert all(mobius._LOGS[k][1] == LOG_WPS[-1] + mobius._LOG_GUARD for k in ks)


def test_a_fresh_log_table_fills_without_mpmath(monkeypatch):
    """The 170 primes <= 1013 at 230 bits, the power kernel's logs at 30
    digits, from an empty table without one call into mpmath."""
    monkeypatch.setattr(mobius, "_LOGS", {})
    monkeypatch.setattr(mobius, "_SPF", {})
    primes = mobius._small_primes(1013)
    entered = []

    def watch(frame, event, arg):
        if event == "call" and "mpmath" in Path(frame.f_code.co_filename).parts:
            entered.append(frame.f_code.co_name)

    sys.setprofile(watch)
    try:
        logs = [log_int_fixed(p, 230) for p in primes]
    finally:
        sys.setprofile(None)
    assert not entered, entered
    assert len(primes) == 170
    assert all(abs(v - _log_floor(p, 230)) <= 1 for p, v in zip(primes, logs))


@pytest.mark.parametrize("digits", [12, 30, 200])
def test_mpmath_fixed_point_internals(digits):
    """The libmp functions the power kernel rests on are mpmath internals
    with no API promise; pin them against mp.ln, mp.exp, mp.cos and mp.sin.
    The phases reach t ln K = 1000 ln 10^6, about 1.4e4."""
    wp = PrecisionContext.from_digits(digits).bits + 24
    ulp = mpf(2) ** -wp
    with mp.workprec(wp + 40):
        for n in (2, 3, 97, 1999, 2003, 65537, 999983, 10**6):
            assert abs(fixed_to_mpf(log_int_fixed(n, wp), wp, mp.prec) - mp.ln(n)) < 4 * ulp, n
        for x in (-35, -13.8, -1, -0.25, 0, 0.5, 2.5, 20):
            got = fixed_to_mpf(exp_fixed(fixed_pair(x, wp)[0], wp), wp, mp.prec)
            assert abs(got - mp.exp(x)) < 8 * ulp * max(1, mp.exp(x)), x
        for x in (-14000, -1000 * mp.ln(10**6), -3.5, -1, 0, 0.7, 1.6, 3.2, 100, 13815.5):
            cos, sin = cos_sin_fixed(fixed_pair(x, wp)[0], wp)
            tol = (abs(x) + 16) * ulp
            assert abs(fixed_to_mpf(cos, wp, mp.prec) - mp.cos(x)) < tol, x
            assert abs(fixed_to_mpf(sin, wp, mp.prec) - mp.sin(x)) < tol, x
    # fixed_pair truncates from every bit of z; fixed_to_mpc rounds back to nearest.
    prec = PrecisionContext.from_digits(digits).bits
    with mp.workprec(prec):
        z = mpc(1, 1000) / 3 + mp.pi
        assert fixed_to_mpc(*fixed_pair(z, wp), wp, prec) == z
        for x in (mp.pi * 10**6, -mp.e / 10**6):
            man = fixed_pair(x, wp)[0]
            assert man == mp.floor(x * 2**wp)
            assert fixed_to_mpf(man, wp, prec) == mpf(man) / 2**wp


def _direct_partial(rho, ns, checkpoints):
    """sum_{k<=K} mu(k) ln^n(k) exp(-rho ln k), one exp per k, 20 bits past CTX."""
    table = sieve_mobius(checkpoints[-1])
    want = {n: [] for n in ns}
    with CTX.wp(20):
        acc = {n: mpc(0) for n in ns}
        for k in range(1, checkpoints[-1] + 1):
            muk = table.mobius(k)
            if muk:
                ln_k = mp.ln(k)
                kp = muk * mp.exp(-rho * ln_k)
                for n in ns:
                    acc[n] += kp * ln_k**n
            if k in checkpoints:
                for n in ns:
                    want[n].append(+acc[n])
    return want


@pytest.mark.parametrize("rho", [mpc(0.3, 14), mpc(1.2, 0.1)])
def test_dirichlet_partial_against_exp_loop_off_the_recursions_range(rho):
    # Re(rho) < 1/2 and |rho - 1| < 1/2 lie outside the recursion's error
    # bound, so the sums there are the direct ones.
    ns = (0, 1, 2)
    cps = (100, 2000)
    want = _direct_partial(rho, ns, cps)
    got = dirichlet_partial(rho, ns, cps, CTX)
    with CTX.wp():
        for n in ns:
            for g, w, K in zip(got[n], want[n], cps):
                assert abs(g - w) < mpf(10) ** -27, (n, K)


def test_dirichlet_partial_against_exp_loop_at_zeros():
    ns = (0, 1, 2)
    cps = (10**3, 10**4, 2 * 10**4)
    for index in (1, 2, 3):
        with mp.workdps(40):
            rho = mp.zetazero(index)
        want = _direct_partial(rho, ns, cps)
        got = dirichlet_partial(rho, ns, cps, CTX)
        with CTX.wp():
            for n in ns:
                for g, w, K in zip(got[n], want[n], cps):
                    assert abs(g - w) < mpf(10) ** -27, (index, n, K)


def _recursion_only(monkeypatch):
    """Make dirichlet_partial fail unless the hyperbola recursion serves it
    with y < K, not as the direct sweep at y = K."""
    recursion = mobius._hyperbola_partial

    def checked(rho, top, checkpoints, y, ctx):
        assert y < checkpoints[-1], "the direct sweep ran"
        return recursion(rho, top, checkpoints, y, ctx)

    monkeypatch.setattr(mobius, "_hyperbola_partial", checked)


def _direct_sweep(rho, top, checkpoints, ctx):
    """The sums of dirichlet_partial by the direct sweep over every k <= K:
    the recursion at y = K."""
    return mobius._hyperbola_partial(rho, top, list(checkpoints), checkpoints[-1], ctx)


@pytest.mark.parametrize("index,digits", [(1, 30), (29, 30), (2, 60)])
def test_hyperbola_recursion_equals_the_direct_sweep_bit_for_bit(index, digits, monkeypatch):
    # The direct sweep at y = K is the oracle: after rounding to ctx.bits
    # both give the same bits, at K = 10^4 and 10^5 and at a checkpoint
    # that is not a floor value of the others.
    ctx = PrecisionContext.from_digits(digits)
    ns = (0, 1, 2, 6)
    cps = (1000, 10**4, 12345, 10**5)
    with mp.workdps(digits + 20):
        rho = mp.zetazero(index)
    want = _direct_sweep(rho, 6, cps, ctx)
    _recursion_only(monkeypatch)
    got = dirichlet_partial(rho, ns, cps, ctx)
    for n in ns:
        assert got[n] == want[n], n


def _chunk_edge_ladder(y0):
    """(K, checkpoints): the least K whose recursion runs the power pass to
    y = y0, with checkpoints C - 1, C, C + 1 and 11 (C - 1), 11 C,
    11 (C + 1), C the chunk, so that floor values at and next to the
    chunk's edge are read from the pass and taken by the recursion."""
    C = mobius._CHUNK
    K = next(K for K in range(1, 10**6) if math.ceil(2 * K ** (2 / 3)) == y0)
    return K, sorted({C - 1, C, C + 1, 11 * (C - 1), 11 * C, 11 * (C + 1), K})


@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_hyperbola_recursion_at_a_chunk_edge_equals_the_direct_sweep(edge, monkeypatch):
    # y on, before and after the last jet of the first chunk of the power
    # pass, and floor values C - 1, C and C + 1 on both sides of y: the
    # recursion gives the direct sweep's bits.
    C = mobius._CHUNK
    K, cps = _chunk_edge_ladder(C + edge)
    with mp.workdps(50):
        rho = mp.zetazero(1)
    want = _direct_sweep(rho, 3, cps, CTX)
    ys = []
    recursion = mobius._hyperbola_partial
    monkeypatch.setattr(mobius, "_hyperbola_partial", lambda *args: ys.append(args[3]) or recursion(*args))
    got = dirichlet_partial(rho, (0, 1, 3), cps, CTX)
    assert ys == [C + edge]
    assert {Ki // q for Ki in cps for q in (1, 11)} >= {C - 1, C, C + 1}
    for n in (0, 1, 3):
        assert got[n] == want[n], n


@pytest.mark.parametrize("chunk", [1, 7, 16, 100])
def test_hyperbola_recursion_in_small_chunks_equals_the_direct_sweep(chunk, monkeypatch):
    # Chunks far smaller than the pass put chunk edges at every kind of
    # kept value, at sqrt(K) (the columns of f(m)) and at y; the recursion
    # and the direct sweep, each in those chunks, keep the bits of the
    # direct sweep in the usual chunk.
    with mp.workdps(50):
        rho = mp.zetazero(2)
    cps = [100, 1000, 2024, 5000]
    want = _direct_sweep(rho, 2, cps, CTX)
    monkeypatch.setattr(mobius, "_CHUNK", chunk)
    assert _direct_sweep(rho, 2, cps, CTX) == want
    _recursion_only(monkeypatch)
    got = dirichlet_partial(rho, (0, 1, 2), cps, CTX)
    assert [got[n] for n in (0, 1, 2)] == want


def test_bernoulli_ratio_is_the_floor_of_the_exact_ratio():
    # c_(m+1)/c_m, c_m = B_2m/(2m)!, times 2^wp and floored, at every
    # precision from the one memoized fraction per m, for m <= 200, with
    # mpmath's Bernoulli fractions as the oracle of the tangent numbers.
    c = [mp.bernfrac(2 * m) for m in range(1, 202)]
    for wp in (53, 64, 200, 201):
        for m in range(1, 201):
            (p1, q1), (p2, q2) = c[m - 1], c[m]
            want = (p2 * q1 << wp) // (q2 * p1 * (2 * m + 1) * (2 * m + 2))
            assert bernoulli_ratio(m, wp) == want, (m, wp)


@pytest.mark.parametrize("digits", [30, 60])
def test_tail_jet_against_hurwitz_zeta(digits):
    # T_j(w) = sum_{m>w} ln^j(m) m^(-s) = (-1)^j zeta^(j)(s, w+1), for w
    # from the main-sum length rule up; below the rule at t = 1000 the
    # tail stalls and says so.
    ctx = PrecisionContext.from_digits(digits)
    wp = ctx.bits + 20
    for t in (14.13, 400.5, 999.79):
        s = mpc(mpf(1) / 2, t)
        rule = em_terms(t, digits)
        for w in (rule, 2 * rule + 1, 10**4):
            jet = tail_jet(s, w, 6, wp)
            assert len(jet) == 14
            with mp.workdps(digits + 20):
                for j, (re, im) in enumerate(zip(jet[::2], jet[1::2])):
                    ref = (-1) ** j * mp.zeta(s, w + 1, derivative=j)
                    assert abs(fixed_to_mpc(re, im, wp, wp) - ref) < abs(ref) * mpf(2) ** -ctx.bits, (t, w, j)
    assert tail_jet(mpc(0.5, 999.79), 200, 1, wp) is None
    # Stopped at the threshold of zeta's Euler-Maclaurin sum, as zeta calls
    # it, the remainder is within that threshold of the reference.
    thresh = mpf(10) ** -(digits + 5)
    stop = fixed_pair(thresh, wp)[0]
    for t in (14.13, 999.79):
        s = mpc(mpf(1) / 2, t)
        w = em_terms(t, digits)
        jet = tail_jet(s, w, 3, wp, stop)
        assert len(jet) == 8
        with mp.workdps(digits + 20):
            for j, (re, im) in enumerate(zip(jet[::2], jet[1::2])):
                ref = (-1) ** j * mp.zeta(s, w + 1, derivative=j)
                assert abs(fixed_to_mpc(re, im, wp, wp) - ref) < thresh, (t, j)
    # Next to the pole the remainder, about (-1)^j j! w^(1-s)/(s-1)^(j+1),
    # keeps its relative precision, at |s - 1| from 10^-300 to 0.56.
    with mp.workprec(400):
        near = mpc(1, mpf(10) ** -16 / 3)  # s - 1 not exact at wp bits
    for s in (mpc(1, 1e-40), mpc(1, -1e-300), near, mpc(0.75, 0.5)):
        jet = tail_jet(s, digits, 3, wp)
        assert len(jet) == 8
        with mp.workdps(digits + 20):
            for j, (re, im) in enumerate(zip(jet[::2], jet[1::2])):
                ref = (-1) ** j * mp.zeta(s, digits + 1, derivative=j)
                assert abs(fixed_to_mpc(re, im, wp, wp) - ref) < abs(ref) * mpf(2) ** -ctx.bits, (s, j)


def test_dirichlet_partial_falls_back_where_a_tail_stalls(monkeypatch):
    # With the length rule cut to 1, y = ceil(2 K^(2/3)) = 200 lies below
    # the rule at t = 1000: every tail stalls, the direct sweep at y = K
    # serves the sums, and nothing raises.
    rho = mpc(mpf(1) / 2, mpf("999.79"))
    want = _direct_sweep(rho, 1, [100, 1000], CTX)
    calls = []
    recursion = mobius._hyperbola_partial

    def recorded(*args):
        calls.append((args[3], recursion(*args)))
        return calls[-1][1]

    monkeypatch.setattr(mobius, "em_terms", lambda t, digits: 1)
    monkeypatch.setattr(mobius, "_hyperbola_partial", recorded)
    got = dirichlet_partial(rho, (0, 1), (100, 1000), CTX)
    assert [(y, sums is None) for y, sums in calls] == [(200, True), (1000, False)]
    assert [got[0], got[1]] == want


def test_dirichlet_partial_refuses_a_direct_sum_above_its_cap(monkeypatch):
    # Off the recursion's range, or where a tail stalls, the sums run as
    # the direct sweep at y = K, which holds K values in lists: above 10^6
    # it is refused before anything is sieved.
    monkeypatch.setattr(mobius, "sieve_mobius", lambda N: pytest.fail(f"sieved to {N}"))
    with pytest.raises(LimitTooLargeError):
        dirichlet_partial(mpc("0.3", 14), (0,), (2 * 10**6,), CTX)
    calls = []

    def stalled(rho, top, checkpoints, y, ctx):
        calls.append(y)
        return None if y < checkpoints[-1] else [[0]]

    monkeypatch.setattr(mobius, "_hyperbola_partial", stalled)
    with pytest.raises(LimitTooLargeError):
        dirichlet_partial(mpc("0.5", 14), (0,), (2 * 10**6,), CTX)
    assert calls == [math.ceil(2 * (2 * 10**6) ** (2 / 3))]
    # At K = 10^6 the direct sweep still serves a stalled tail and an s
    # off the recursion's range.
    calls.clear()
    assert dirichlet_partial(mpc("0.5", 14), (0,), (10**6,), CTX) == {0: [0]}
    assert dirichlet_partial(mpc("0.3", 14), (0,), (10**6,), CTX) == {0: [0]}
    assert calls == [math.ceil(2 * (10**6) ** (2 / 3)), 10**6, 10**6]


def test_dirichlet_partial_recursion_at_real_s_and_every_k(monkeypatch):
    # At s = 2 and s = 3/2 + 5i, every third K from 70 to 400 against the
    # direct sweep, so checkpoints fall on and between the floor values of K.
    cps = list(range(70, 401, 3))
    for s in (mpc(2, 0), mpc(1.5, 5)):
        want = _direct_sweep(s, 2, cps, CTX)
        with monkeypatch.context() as m:
            _recursion_only(m)
            got = dirichlet_partial(s, (0, 1, 2), cps, CTX)
        for n in (0, 1, 2):
            assert got[n] == want[n], (s, n)


@pytest.mark.parametrize("wp", [100, 300, 800])
@pytest.mark.parametrize("im, radius", [(7.07, 1 / 64), (7.07, 1 / 8), (46.2, 1 / 64), (500.0, 1 / 8)])
def test_log_gamma_jet_within_its_stated_bound(wp, im, radius):
    # Summed exactly from its wp-bit coefficients, the jet is within
    # 2^-(wp+1) of log Gamma(z + w) for |w| <= radius, plus under one unit
    # of 2^-wp for each coefficient's rounding, weighted by |w|^m.  Small
    # Im z takes the shift of DLMF 5.5.1 as well as Stirling's series.
    with mp.workprec(wp):
        z = mpc(mpf(1) / 4, im)
    jet = log_gamma_jet(z, radius, wp)
    with mp.workprec(wp + 60):
        coeffs = [mpc(a, b) / 2**wp for a, b in jet]
        for j in range(9):
            w = radius * mp.expjpi(mpf(j) / 4) if j < 8 else mpc(0)
            got = mp.polyval(coeffs[::-1], w)
            assert abs(got - mp.loggamma(z + w)) <= 3 * mpf(2) ** -wp, (j, len(jet))
