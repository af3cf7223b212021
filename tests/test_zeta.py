import functools
import math
import random
import sys

import mpmath
import pytest
from mpmath import mp, mpc, mpf

import oracles
from zetakit import zeros
from zetakit.errors import ContourNearZeroError, NearZeroError, PoleError, PrecisionEscalationError, RangeError
from zetakit.laurent import taylor_at_zero
from zetakit.mobius import bernoulli_ratio, em_terms, fixed_pair, fixed_to_mpc
from zetakit.precision import PrecisionContext, log_gamma
from zetakit.zeta import (
    EULER_MACLAURIN,
    REFLECTED,
    _FLOAT_BERNOULLI_RATIOS,
    em_float_error,
    em_pair_float,
    functional_equation_sides,
    hardy_Z,
    hardy_Z_fast,
    inverse_zeta,
    ring_samples,
    rs_error_bound,
    theta,
    theta_float,
    theta_float_error,
    zeta,
    zeta_and_deriv_raw,
    zeta_jet,
    zeta_logderiv,
    zeta_ring,
)

CTX = PrecisionContext.from_digits(30)
TOL = mpf(10) ** -27


def test_zeta2_against_direct_sum():
    ours = zeta(2, CTX).value
    ref = oracles.zeta2_direct()
    with CTX.wp():
        assert abs(ours - ref) < mpf(10) ** -30
        assert abs(ours - mp.pi**2 / 6) < mpf(10) ** -30


def test_special_values():
    with CTX.wp():
        assert abs(zeta(0, CTX).value + mpf(1) / 2) < TOL
        assert zeta(-2, CTX).value == 0
        assert zeta(-4, CTX).value == 0
        assert zeta(-10, CTX).value == 0


def test_method_tags():
    assert zeta(3, CTX).method == EULER_MACLAURIN
    assert zeta(mpc(-3, 4), CTX).method == REFLECTED
    assert zeta(mpc(-1.5, 4), CTX).method == EULER_MACLAURIN
    assert zeta(mpc(-1.5625, 4), CTX).method == REFLECTED


@pytest.mark.parametrize("digits", [30, 60])
def test_zeta_sums_directly_wherever_zeta_jet_runs(digits):
    # One domain: from Re s = -3/2 rightward zeta is the Euler-Maclaurin
    # sum, bit for bit the order-0 entry of zeta_jet; left of it zeta
    # reflects, and the trivial zeros stay exactly 0.
    ctx = PrecisionContext.from_digits(digits)
    for sigma in (-1.5, -1, -0.5, 0, 0.25, 0.5, 2):
        for t in (0.001, 20, 1000):
            s = mpc(sigma, t)
            out = zeta(s, ctx)
            assert out.method == EULER_MACLAURIN, s
            assert out.value == zeta_jet(s, 0, ctx)[0], s
    for sigma in (-1.75, -3):
        assert zeta(mpc(sigma, 20), ctx).method == REFLECTED, sigma
    assert zeta(-2, ctx).value == 0


def test_pole_raises():
    with pytest.raises(PoleError):
        zeta(1, CTX)


def test_matches_mpmath_at_random_points():
    rng = random.Random(23)
    with mp.workdps(45):
        for _ in range(20):
            s = mpc(rng.uniform(-6, 6), rng.uniform(-40, 40))
            if abs(s - 1) < 0.1:
                continue
            ours = zeta(s, CTX).value
            ref = mp.zeta(s)
            scale = max(1, abs(ref))
            assert abs(ours - ref) / scale < TOL, f"s={s}"


@pytest.mark.parametrize("digits", [30, 60])
def test_reflected_zeta_matches_mpmath_at_cli_heights(digits):
    ctx = PrecisionContext.from_digits(digits)
    with mp.workdps(digits + 20):
        tol = mpf(10) ** -(digits + 3)
        for sigma in (-3, -1.75):
            for t in (100, 1000):
                s = mpc(sigma, t)
                out = zeta(s, ctx)
                assert out.method == REFLECTED
                ref = mp.zeta(s)
                assert abs(out.value - ref) / abs(ref) < tol, f"s={s}"


def test_high_ordinate_point():
    s = mpc(0.5, 1000)
    with mp.workdps(45):
        ref = mp.zeta(s)
        ours = zeta(s, CTX).value
        assert abs(ours - ref) < TOL


def test_certified_evaluation_reports_digits():
    out = zeta(mpc(0.5, 25), CTX, certify=True)
    assert out.certified_digits >= 30


def test_derivative_against_finite_differences():
    with mp.workdps(60):
        for s in (mpc(2, 1), mpc(0.5, 14), mpc(3, -5)):
            _, dv = zeta_and_deriv_raw(s, CTX)
            fd = oracles.fd_derivative(lambda z: mp.zeta(z), s, mpf(10) ** -8)
            assert abs(dv - fd) < mpf(10) ** -12, f"s={s}"


def test_derivative_against_mpmath():
    with mp.workdps(45):
        for s in (mpc(2, 0), mpc(0.5, 21.0), mpc(-1, 3)):
            _, dv = zeta_and_deriv_raw(s, CTX)
            ref = mp.zeta(s, derivative=1)
            assert abs(dv - ref) < TOL, f"s={s}"


def test_em_pair_matches_mpmath_across_heights_and_digits():
    # The main-sum length follows |t| and the digits, so pin the accuracy
    # over the whole desk range: sigma from -1.5 to 2, t from 0.001 to 1000.
    grid = [
        mpc(sigma, t)
        for sigma in (-1.5, -1, 0.25, 0.5, 2)
        for t in (0.001, 3, 17, 45, 120, 333, 640, 1000)
    ]
    for digits in (12, 30, 60):
        ctx = PrecisionContext.from_digits(digits)
        with mp.workdps(digits + 20):
            tol = mpf(10) ** -(digits + 3)
            for s in grid:
                v, dv = zeta_and_deriv_raw(s, ctx)
                ref, dref = mp.zeta(s), mp.zeta(s, derivative=1)
                assert abs(v - ref) / abs(ref) < tol, f"zeta({s}), {digits} digits"
                assert abs(dv - dref) / abs(dref) < tol, f"zeta'({s}), {digits} digits"


def test_em_pair_at_200_digits():
    # At 200 digits the fixed-point ints of the Bernoulli tail pass 2^1024,
    # the range of a float, so its stop test must compare them exactly.
    digits = 200
    ctx = PrecisionContext.from_digits(digits)
    with mp.workdps(digits + 20):
        tol = mpf(10) ** -(digits + 3)
        for s in (mpc(0.5, 3), mpc(0.5, 1000)):
            v, dv = zeta_and_deriv_raw(s, ctx)
            ref, dref = mp.zeta(s), mp.zeta(s, derivative=1)
            assert abs(v - ref) / abs(ref) < tol, f"zeta({s})"
            assert abs(dv - dref) / abs(dref) < tol, f"zeta'({s})"


@pytest.mark.parametrize("digits", [30, 60])
def test_next_to_the_pole(digits):
    # 1/(s-1) and -1/(s-1)^2 carry zeta and zeta' here: the remainder past
    # N keeps them to the target digits however close s comes to 1.
    ctx = PrecisionContext.from_digits(digits)
    for s in (mpc(1, 1e-30), mpc(1, 1e-40), mpc(1, 1e-300), mpc(1, -1e-300)):
        v = zeta(s, ctx).value
        a, b = zeta_and_deriv_raw(s, ctx)
        with mp.workdps(digits + 20):
            for got, j in ((v, 0), (a, 0), (b, 1)):
                ref = mp.zeta(s, derivative=j)
                assert abs(got - ref) < abs(ref) * mpf(10) ** -digits, (s, j)


def test_em_pair_never_stalls_in_cli_range(monkeypatch):
    # A stalled Bernoulli tail throws away a whole main sum and redoes it at
    # twice the length, so across the CLI's digits and heights every
    # evaluation has to succeed with its first N.
    em = sys.modules["zetakit.zeta"]
    attempts = []
    attempt = em._em_attempt

    def recording(s, N, digits, order, main=None):
        out = attempt(s, N, digits, order, main)
        attempts.append((N, out is not None))
        return out

    monkeypatch.setattr(em, "_em_attempt", recording)
    for digits in (10, 12, 30, 60, 100, 200):
        ctx = PrecisionContext.from_digits(digits)
        for t in (0.001, 20, 100, 1000):
            for sigma in (-1.5, -1, 0.5, 2):
                attempts.clear()
                zeta_and_deriv_raw(mpc(sigma, t), ctx)
                assert len(attempts) == 1 and attempts[0][1], (digits, t, sigma, attempts)
                if digits == 30 and t == 1000:
                    assert attempts[0][0] <= 400, attempts


def test_em_pair_stall_names_the_last_length_tried(monkeypatch):
    # Four attempts run at N0, 2 N0, 4 N0 and 8 N0; the error names the last.
    em = sys.modules["zetakit.zeta"]
    tried = []

    def stalled(s, N, digits, order, main=None):
        tried.append(N)

    monkeypatch.setattr(em, "_em_attempt", stalled)
    N0 = em_terms(14.13, 30)
    with mp.workprec(CTX.bits + 40):
        with pytest.raises(PrecisionEscalationError) as err:
            em._em_pair(mpc(0.5, 14.13), 30, 0)
    assert tried == [N0, 2 * N0, 4 * N0, 8 * N0]
    assert str(err.value).endswith(f"N={8 * N0}"), str(err.value)


def test_values_keep_their_bits_after_higher_precision_fills(monkeypatch):
    """zeta and zeta_jet at 30 digits give the same bits before and after
    the same process has asked for 60- and 200-digit values at the same
    heights, which fill the table of fixed-point logarithms at higher
    precisions that then serve 30 digits by a shift.  The repeat check of
    the points benchmark and every byte gate rest on this."""
    from zetakit import mobius

    monkeypatch.setattr(mobius, "_LOGS", {})
    points = [mpc(0.5, t) for t in (14.1, 90.3, 999.2)]

    def values(ctx):
        return [(zeta(s, ctx).value, *zeta_jet(s, 2, ctx)) for s in points]

    before = values(CTX)
    for digits in (60, 200):
        values(PrecisionContext.from_digits(digits))
    assert values(CTX) == before


def test_em_stop_is_the_exact_int_of_the_digits(monkeypatch):
    # Wherever zeta is summed (zeta, zeta_jet at ctx and at refinement's
    # guard, the ring's direct nodes), _em_pair stops the Bernoulli tail at
    # floor(2^wp/10^(digits + 5)) units of 2^-wp, an exact int.  At each of
    # these precisions it also equals 10^-(digits+5) rounded to the working
    # precision and truncated to wp bits, so either stop ends every tail at
    # the same term and gives the same bits.
    em = sys.modules["zetakit.zeta"]
    calls = []
    real = em.tail_jet

    def spy(s, w, order, wp, stop=1):
        calls.append((mp.prec, wp, stop))
        return real(s, w, order, wp, stop)

    monkeypatch.setattr(em, "tail_jet", spy)
    rho = mpc(0.5, "14.134725141734693790457251983562470")
    for digits in (10, 12, 30, 60, 100, 200):
        ctx = PrecisionContext.from_digits(digits)
        guard = PrecisionContext(ctx.bits + 34, digits + 10)
        runs = [
            (digits, lambda: zeta(mpc(0.5, 999.79), ctx)),
            (digits, lambda: zeta_jet(mpc(2, 21.02), 3, ctx)),
            (digits + 10, lambda: zeta_jet(mpc(0.5, 236.52), 4, guard)),
            (digits, lambda: zeta_ring(rho, mpf(1) / 32, 8, ctx)),
        ]
        for d, run in runs:
            calls.clear()
            run()
            assert calls, (digits, d)
            for prec, wp, stop in calls:
                assert stop == (1 << wp) // 10 ** (d + 5), (digits, d, wp)
                with mp.workprec(prec):
                    assert stop == fixed_pair(mpf(10) ** -(d + 5), wp)[0], (digits, d, wp)
    assert len(calls) == 5  # the ring's direct nodes: 8/2 + 1


def test_em_stop_matches_the_rounded_threshold_at_every_cli_precision():
    # The CLI sums zeta at ctx.bits + 40 for every --digits (the 12-digit
    # tier among them) and refines at ten guard digits, bits + 74; wp adds
    # bit_length(N) + 24 to either, N below 2^15.  At each of these the
    # exact stop equals 10^-(digits+5) rounded to the precision and
    # truncated to wp bits, so the CLI's bytes do not depend on which of
    # the two stops a sum takes.
    for digits in range(zeros.DIGITS_MIN, zeros.DIGITS_MAX + 1):
        bits = PrecisionContext.min_bits(digits)
        for prec, d in ((bits + 40, digits), (bits + 74, digits + 10)):
            with mp.workprec(prec):
                thresh = mpf(10) ** -(d + 5)
            for nbits in range(1, 16):
                wp = prec + nbits + 24
                assert fixed_pair(thresh, wp)[0] == (1 << wp) // 10 ** (d + 5), (digits, d, wp)


@pytest.mark.parametrize("digits", [30, 60, 200])
def test_em_pair_orders_against_mpmath(digits):
    # Every order of the jet, main sum plus tail_jet's remainder, against
    # mpmath's own zeta derivatives on the critical line, up to the highest
    # order zero refinement takes at 60 digits (at t = 1000), and at 200
    # digits at one point.
    em = sys.modules["zetakit.zeta"]
    ctx = PrecisionContext.from_digits(digits)
    ts = (14.13,) if digits == 200 else (14.13, 95.3, 999.79)
    order = max(*zeros._jet_orders(60, 1000.0), *zeros._jet_orders(digits, max(ts)))
    for t in ts:
        with mp.workprec(ctx.bits + 40):
            s = mpc(mpf(1) / 2, t)
            jet = em._em_pair(s, digits, order)
        assert len(jet) == order + 1
        with mp.workdps(digits + 20):
            for j, got in enumerate(jet):
                ref = mp.zeta(s, derivative=j)
                assert abs(got - ref) < abs(ref) * mpf(10) ** -(digits + 3), (t, j)


def test_zeta_jet_rounds_the_em_jet_and_extends_the_pair():
    # zeta_jet is _em_pair at 40 guard bits rounded to ctx, and at order 1
    # it is zeta_and_deriv_raw, bit for bit.  (Higher orders run the
    # Bernoulli tail until every order is below the threshold, which moves
    # the last bits of the low orders.)
    em = sys.modules["zetakit.zeta"]
    s = mpc(0.5, 21.02)
    jet = zeta_jet(s, 5, CTX)
    with CTX.wp(40):
        raw = em._em_pair(s, CTX.target_digits, 5)
    with CTX.wp():
        assert jet == [+v for v in raw]
    assert tuple(zeta_jet(s, 1, CTX)) == zeta_and_deriv_raw(s, CTX)
    with pytest.raises(RangeError):
        zeta_jet(s, -1, CTX)


def test_logderiv_consistency():
    s = mpc(2, 2)
    with CTX.wp():
        v, dv = zeta_and_deriv_raw(s, CTX)
        assert abs(zeta_logderiv(s, CTX) - dv / v) < TOL


def test_logderiv_near_zero_guard():
    """zeta'/zeta refuses a point where |zeta| is below the context's
    tolerance: the first zero at 12 digits, but not 1e-3 above it."""
    ctx = PrecisionContext.from_digits(12)
    t1 = mpf("14.134725141734693790457251983562")
    with pytest.raises(ContourNearZeroError):
        zeta_logderiv(mpc(0.5, t1), ctx)
    assert abs(zeta_logderiv(mpc(0.5, t1 + mpf("1e-3")), ctx)) > 100


def test_inverse_zeta_near_zero_guard():
    # Nearly on top of the first zero: 1/zeta blows past the floor.
    t1 = mpf("14.134725141734693790457251983562")
    with pytest.raises(NearZeroError):
        inverse_zeta(mpc(0.5, t1), CTX)


def test_functional_equation_residuals():
    rng = random.Random(5)
    with CTX.wp():
        for _ in range(10):
            s = mpc(rng.uniform(0.05, 0.95), rng.uniform(2, 50))
            lhs, rhs = functional_equation_sides(s, CTX)
            scale = max(1, abs(lhs))
            assert abs(lhs - rhs) / scale < mpf(10) ** -32


def test_ring_node_rule_near_height_1000():
    # Near t = 1000 the scaled coefficients |a_j R^j| (R = 1/4) fall only to
    # about 1e-32 at j = 32, so a Cauchy ring would need a node count that
    # grows with the height and the digits.  The jet of taylor_at_zero has
    # no node rule: its error is relative in each order, and a_1..a_13 stay
    # within 4 digits of the target at zero 649 and 60 digits, and at
    # zero 5 and 200 digits.  The oracle is mpmath's zeta(derivative=k).
    for digits, zero in ((60, 649), (200, 5)):
        ctx = PrecisionContext.from_digits(digits)
        with mp.workdps(40):
            t = mp.zetazero(zero).imag
        with ctx.wp():
            rho = mpc(mpf(1) / 2, t)
        coeffs = taylor_at_zero(rho, 12, ctx)
        assert len(coeffs) == 13
        with mp.workdps(digits + 30):
            for k, got in enumerate(coeffs, start=1):
                ref = mp.zeta(rho, derivative=k) / mp.factorial(k)
                assert abs(got - ref) < mpf(10) ** -(digits - 4), (zero, k)


def test_ring_nodes_take_their_exps_once_per_size_and_precision(monkeypatch):
    # 331 bits is a precision no other test builds a ring at.
    exps = []
    exp = mpmath.exp
    monkeypatch.setattr(mpmath, "exp", lambda z: exps.append(z) or exp(z))
    with mp.workprec(331):
        first = ring_samples(mpc, mpf(1) / 8, 64)
        assert len(exps) == 64 // 8 + 1
        assert ring_samples(mpc, mpf(1) / 8, 64) == first
        assert ring_samples(mpc, mpf(1) / 4, 64) == [2 * h for h in first]
    assert len(exps) == 64 // 8 + 1


RING_SIZES = [2**k for k in range(4, 13)]


@pytest.mark.parametrize("bits", [53, 100, 700])
def test_ring_nodes_are_exactly_symmetric(bits):
    # Bit for bit: h_(n-j) = conj(h_j), h_(n/2-j) = -conj(h_j), and node 2j
    # of an n-node ring is node j of the n/2-node ring.
    with mp.workprec(bits):
        half = None
        for n in RING_SIZES:
            for r in (mpf(1), mpf(1) / 4, mpf("0.3")):
                h = ring_samples(mpc, r, n)
                for j in range(n):
                    assert h[-j % n] == mp.conj(h[j]), (n, j)
                    assert h[(n // 2 - j) % n] == -mp.conj(h[j]), (n, j)
            nodes = ring_samples(mpc, 1, n)
            if half is not None:
                assert nodes[::2] == half, n
            half = nodes


@pytest.mark.parametrize("bits", [53, 100, 700])
def test_ring_nodes_are_within_one_ulp_of_exp(bits):
    for n in RING_SIZES:
        with mp.workprec(bits):
            nodes = ring_samples(mpc, 1, n)
        with mp.workprec(bits + 60):
            for j, h in enumerate(nodes):
                exact = mp.exp(2j * mp.pi * j / n)
                for got, want in ((h.real, exact.real), (h.imag, exact.imag)):
                    ulp = mpf(2) ** (mp.frexp(want)[1] - bits) if abs(want) > 2**-bits else mpf(2) ** -bits
                    assert abs(got - want) <= ulp, (n, j)


@pytest.mark.parametrize("center, radius", [
    (mpc("0.5", "14.13"), mpf(1) / 4),
    (mpc("0.5", "87.4"), mpf(1) / 4),
])
def test_symmetric_ring_sums_one_node_of_each_mirror_pair(monkeypatch, center, radius):
    # On rings centred on the critical line, n/2 + 1 Euler-Maclaurin tails
    # and one Dirichlet pass give all n samples, and every sample agrees
    # with a fresh evaluation of zeta(center + h).
    em = sys.modules["zetakit.zeta"]
    tails, passes = [], []
    real_tail, real_powers = em.tail_jet, em.dirichlet_powers
    monkeypatch.setattr(em, "tail_jet", lambda *args: tails.append(args[0]) or real_tail(*args))
    monkeypatch.setattr(em, "dirichlet_powers", lambda *args: passes.append(args[0]) or real_powers(*args))
    for n in (16, 32, 64):
        tails.clear()
        passes.clear()
        points, samples = zeta_ring(center, radius, n, CTX)
        assert len(tails) == n // 2 + 1, n
        assert passes == [center], n
    with CTX.wp():
        assert points == tuple(center + h for h in ring_samples(mpc, radius, 64))
        for s, got in zip(points, samples):
            fresh = zeta(s, CTX).value
            assert abs(got - fresh) <= CTX.tol, s


@pytest.mark.parametrize("digits", [30, 60])
@pytest.mark.parametrize("index", [1, 4])
def test_mirror_nodes_within_the_em_threshold_of_fresh_zeta(digits, index):
    # On a zero's ring a node with Re h >= 0 has the bits of a fresh zeta;
    # a reflected node takes chi times its partner's rounded value, which
    # need not, but stays within the Euler-Maclaurin tail threshold
    # 10^-(digits+5) of it (measured: about 1e-40 at 30 digits).
    ctx = PrecisionContext.from_digits(digits)
    with ctx.wp():
        center = mpc(mpf(1) / 2, mp.zetazero(index).imag)
        for radius in (mpf(1) / 4, mpf(1) / 32):
            points, samples = zeta_ring(center, radius, 64, ctx)
            for h, s, got in zip(ring_samples(mpc, radius, 64), points, samples):
                fresh = zeta(s, ctx).value
                if h.real >= 0:
                    assert got == fresh, h
                else:
                    assert abs(got - fresh) <= mpf(10) ** -(digits + 5), h


@pytest.mark.parametrize("index, digits", [(27, 30), (649, 30), (27, 60), (649, 60), (1, 200)])
def test_direct_ring_nodes_have_the_bits_of_fresh_zeta(index, digits):
    # A node with Re h >= 0 takes its main sum from the Dirichlet jet at
    # the zero, shifted by h, and its own tail: bit for bit a fresh zeta.
    ctx = PrecisionContext.from_digits(digits)
    with ctx.wp():
        center = mpc(mpf(1) / 2, mp.zetazero(index).imag)
        for radius in (mpf(1) / 4, mpf(1) / 32):
            points, samples = zeta_ring(center, radius, 64, ctx)
            for h, s, got in zip(ring_samples(mpc, radius, 64), points, samples):
                if h.real >= 0:
                    assert got == zeta(s, ctx).value, (radius, h)


def test_ring_node_whose_tail_stalls_is_retried_at_twice_its_length(monkeypatch):
    # Node 3's tail stalls at its first length N0 whenever it is asked:
    # _em_pair retries it at 2 N0, as zeta() does, so node 3 equals a
    # fresh zeta() under the same stall and its mirror, node 29, that
    # value reflected; every other node keeps its bits, and the stalled
    # N0 runs once.
    em = sys.modules["zetakit.zeta"]
    center, radius = mpc("0.5", "87.4"), mpf(1) / 4
    points, before = zeta_ring(center, radius, 64, CTX)
    target = points[3]
    N0 = em_terms(target.imag, CTX.target_digits)
    real_tail, real_zeta = em.tail_jet, em.zeta
    stalled, fresh = [], []

    def tail(s, w, *args):
        if s == target and w == N0:
            stalled.append(w)
            return None
        return real_tail(s, w, *args)

    monkeypatch.setattr(em, "tail_jet", tail)
    monkeypatch.setattr(em, "zeta", lambda s, ctx: fresh.append(s) or real_zeta(s, ctx))
    after = zeta_ring(center, radius, 64, CTX)[1]
    assert stalled == [N0] and fresh == []
    want = real_zeta(target, CTX).value
    with CTX.wp():
        assert after[3] == want and after[29] == em._reflected(1 - mp.conj(target), mp.conj(want), CTX.bits, CTX)
    assert [v for j, v in enumerate(after) if j not in (3, 29)] == [v for j, v in enumerate(before) if j not in (3, 29)]
    assert after[3] != before[3]


@pytest.mark.parametrize("nodes", [17, 18, 24, 40])
@pytest.mark.parametrize("center", [mpc(2), mpc("0.5", "14.13"), mpc(2, 3)])
def test_ring_of_any_node_count_matches_fresh_zeta(center, nodes):
    # An odd count, or a centre off the critical line, evaluates every
    # node; an even count on the line pairs mirror nodes.  Every sample is
    # within 10^-(digits+5) of a fresh evaluation.
    radius = mpf(1) / 4
    points, samples = zeta_ring(center, radius, nodes, CTX)
    assert len(points) == len(samples) == nodes
    with CTX.wp():
        for s, got in zip(points, samples):
            fresh = zeta(s, CTX).value
            assert abs(got - fresh) <= mpf(10) ** -(CTX.target_digits + 5), s


# The zeros whose rings the mirror tests below take, across the heights
# the CLI reaches.
MIRROR_ZEROS = (1, 2, 3, 4, 24, 25, 26, 27, 28, 29, 73, 315, 316, 453, 649)


@functools.lru_cache(maxsize=None)
def _zero_ordinate(index):
    """Im of mpmath's index-th zero at 30 digits: a mirror ring needs only a
    centre on the critical line near a zero."""
    with mp.workdps(30):
        return mp.zetazero(index).imag


def _mirror_rings(digits):
    """(ctx, zero, centre, radius, direct nodes) of the 64-node rings of
    radius 1/32 and 1/4 at MIRROR_ZEROS, the direct nodes rounded to ctx
    as zeta_ring forms them."""
    ctx = PrecisionContext.from_digits(digits)
    for index in MIRROR_ZEROS:
        for radius in (mpf(1) / 32, mpf(1) / 4):
            with ctx.wp():
                center = mpc(mpf(1) / 2, _zero_ordinate(index))
                nodes = [center + h for h in ring_samples(mpc, radius, 64) if h.real >= 0]
            yield ctx, index, center, radius, nodes


@pytest.mark.parametrize("digits", [30, 60, 200])
def test_mirror_log_gammas_are_log_gamma_bit_for_bit(digits):
    # A mirror node keeps the bits that chi from precision.log_gamma gave
    # it because the jet's log Gamma values, rounded to ctx.bits, are
    # log_gamma's at the arguments _chi forms, (1 - s)/2 and s/2 at
    # ctx.bits + 40, s = 1 - conj(d).
    em = sys.modules["zetakit.zeta"]
    for ctx, index, center, radius, nodes in _mirror_rings(digits):
        W, lg = em._mirror_log_gammas(center, radius, ctx)
        for d in nodes:
            with ctx.wp():
                s = 1 - mp.conj(d)
            with mp.workprec(ctx.bits + 40):
                args = (1 - s) / 2, s / 2
            got = [fixed_to_mpc(*pair, W, ctx.bits) for pair in lg(d)]
            assert got == [log_gamma(z, ctx) for z in args], (index, radius, d)


@pytest.mark.parametrize("digits", [30, 60, 200])
def test_mirror_chi_within_its_bound_of_a_gamma_ratio(digits):
    # The oracle is mpmath's gamma at ctx.bits + 100, not its loggamma; the
    # bound is _mirror_chi's, |chi| 2^(1 - bits) (|lg_1| + |lg_2| + 1).
    em = sys.modules["zetakit.zeta"]
    for ctx, index, center, radius, nodes in _mirror_rings(digits):
        chi = em._mirror_chi(center, radius, ctx)
        for d in nodes:
            with ctx.wp():
                s = 1 - mp.conj(d)
            got = chi(d)
            with mp.workprec(ctx.bits + 100):
                a, b = (1 - s) / 2, s / 2
            with mp.workprec(53):
                size = abs(mp.loggamma(a)) + abs(mp.loggamma(b)) + 1
            with mp.workprec(ctx.bits + 100):
                want = mp.gamma(a) / mp.gamma(b) * mp.pi ** (s - mpf(1) / 2)
                assert abs(got - want) <= abs(want) * 2 ** (1 - ctx.bits) * size, (index, radius, d)


def test_a_zero_ring_takes_no_log_gamma_and_zeta_still_reflects_by_chi(monkeypatch):
    # The ring at a zero takes chi from the log Gamma jet alone; zeta()
    # left of EM_SIGMA_MIN still takes _chi, and the bits it gave before
    # the ring had a jet.
    em = sys.modules["zetakit.zeta"]
    calls = []
    for owner, name in ((mpmath, "loggamma"), (em, "log_gamma"), (em, "_chi")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    with CTX.wp():
        center = mpc(mpf(1) / 2, _zero_ordinate(27))
    zeta_ring(center, mpf(1) / 32, 64, CTX)
    assert calls == []
    value = zeta(mpc(-3, 20), CTX).value
    assert calls == ["_chi", "log_gamma", "loggamma", "log_gamma", "loggamma"]
    with CTX.wp():
        assert repr(value) == (
            "mpc(real='-24.7966966045406554357251474691795556148105', "
            "imag='-53.3095128074740984737780589949037617881674')"
        )


@pytest.mark.parametrize("center, radius", [(mpc("0.5", "3"), mpf(1) / 4), (mpc("0.5", "14.13"), mpf(1) / 2)])
def test_a_ring_wide_against_its_height_sums_every_node(monkeypatch, center, radius):
    # Beyond radius min(1/4, |Im center|/16) the log Gamma jet's bound is
    # not taken: every node is a direct sum, with the bits of a fresh zeta.
    em = sys.modules["zetakit.zeta"]
    tails = []
    real_tail = em.tail_jet
    monkeypatch.setattr(em, "tail_jet", lambda *args: tails.append(args[0]) or real_tail(*args))
    points, samples = zeta_ring(center, radius, 16, CTX)
    assert len(tails) == 16
    with CTX.wp():
        for s, got in zip(points, samples):
            assert got == zeta(s, CTX).value, s


def test_float_bernoulli_ratios_are_the_exact_ratios_in_double():
    assert len(_FLOAT_BERNOULLI_RATIOS) == 32
    for m, got in enumerate(_FLOAT_BERNOULLI_RATIOS, start=1):
        assert got == bernoulli_ratio(m, 64) / 2**64, m


def test_zeta_deriv_orders():
    s = mpc(2, 2)
    jet = zeta_jet(s, 8, CTX)
    with mp.workdps(45):
        for k in (1, 2, 4, 8):
            ref = mp.zeta(s, derivative=k)
            assert abs(jet[k] - ref) < mpf(10) ** -24, f"k={k}"


def test_theta_and_hardy_Z():
    with mp.workdps(45):
        for t in (14.1, 25.0, 50.0, 100.0, 500.0, 1000.0):
            assert abs(theta(t, CTX) - mp.siegeltheta(t)) < TOL, f"t={t}"
        for t in (14.1, 25.0, 50.0):
            assert abs(hardy_Z(t, CTX) - mp.siegelz(t)) < mpf(10) ** -25


def test_hardy_Z_is_real_rotation():
    # |Z(t)| must equal |zeta(1/2 + it)|.
    with CTX.wp():
        for t in (17.5, 33.0):
            z = zeta(mpc(0.5, t), CTX).value
            assert abs(abs(hardy_Z(t, CTX)) - abs(z)) < mpf(10) ** -25


def test_fast_Z_stays_within_error_bound():
    rng = random.Random(99)
    for _ in range(20):
        t = rng.uniform(10, 200)
        fast = hardy_Z_fast(t)
        slow = float(hardy_Z(t, CTX))
        assert abs(fast - slow) <= rs_error_bound(t), f"t={t}"


def test_fast_Z_error_bound_against_siegelz():
    # rs_error_bound on [200, 1000] is Gabcke's proven 0.127 tau^(-3/4); pin it
    # against an independent oracle (the largest error seen is ~0.03 tau^(-3/4)).
    rng = random.Random(2014)
    with mp.workdps(20):
        for _ in range(200):
            t = rng.uniform(200, 1000)
            err = abs(hardy_Z_fast(t) - mp.siegelz(t))
            assert err <= rs_error_bound(t), f"t={t}"


def test_fast_Z_error_bound_below_200_against_siegelz():
    # Below t = 200 the bound is 0.5 tau^(-3/4); check it against an oracle
    # outside the package, not against its own hardy_Z.
    rng = random.Random(1979)
    with mp.workdps(20):
        for _ in range(200):
            t = rng.uniform(10, 200)
            err = abs(hardy_Z_fast(t) - mp.siegelz(t))
            assert err <= rs_error_bound(t), f"t={t}"


def test_fast_Z_domain():
    with pytest.raises(RangeError):
        hardy_Z_fast(5.0)


@pytest.mark.parametrize("sigma", [0.5, 0.75, 1.0, 1.5, 2.0])
def test_em_pair_float_within_its_stated_bound(sigma):
    """The float pair against mpmath's zeta and zeta' across the heights
    the CLI accepts: zeta within em_float_error, zeta' within ln N times
    it, and the bound itself far below what an integer test needs."""
    for t in (10.0, 14.13, 31.5, 100.3, 237.7, 500.1, 999.9):
        s = complex(sigma, t)
        v, dv = em_pair_float(s)
        bound = em_float_error(s)
        with mp.workdps(25):
            z = complex(mp.zeta(s))
            dz = complex(mp.zeta(s, derivative=1))
        assert abs(v - z) <= bound, f"s={s}"
        assert abs(dv - dz) <= bound * math.log(math.ceil(t / math.pi) + 15), f"s={s}"
        assert bound < 1e-10, f"s={s}"


def test_theta_float_within_its_stated_error():
    """The float theta against mpmath's siegeltheta; at t = 10 the error
    is within 1 % of the first omitted term, 31/(80640 t^5), about 3.8e-9."""
    for t in (10.0, 12.5, 20.0, 50.0, 100.0, 300.0, 1000.0):
        with mp.workdps(30):
            ref = float(mp.siegeltheta(t))
        assert abs(theta_float(t) - ref) <= theta_float_error(t), f"t={t}"
    with mp.workdps(30):
        err10 = abs(theta_float(10.0) - mp.siegeltheta(10))
    first_omitted = mpf(31) / (80640 * 10**5)
    assert abs(err10 - first_omitted) < first_omitted / 100
