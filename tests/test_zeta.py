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
from zetakit.mobius import bernoulli_ratio, em_terms
from zetakit.precision import PrecisionContext
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

    def recording(s, N, thresh, order):
        out = attempt(s, N, thresh, order)
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

    def stalled(s, N, thresh, order):
        tried.append(N)

    monkeypatch.setattr(em, "_em_attempt", stalled)
    N0 = em_terms(14.13, 30)
    with mp.workprec(CTX.bits + 40):
        with pytest.raises(PrecisionEscalationError) as err:
            em._em_pair(mpc(0.5, 14.13), 30, 0)
    assert tried == [N0, 2 * N0, 4 * N0, 8 * N0]
    assert str(err.value).endswith(f"N={8 * N0}"), str(err.value)


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


def test_ring_samples_doubles_by_evaluating_the_odd_nodes():
    calls = []

    def f(h):
        calls.append(h)
        return h * h

    with CTX.wp():
        half = ring_samples(f, mpf(1) / 4, 16)
        calls.clear()
        doubled = ring_samples(f, mpf(1) / 4, 32, half)
        assert len(calls) == 16
        assert doubled == ring_samples(f, mpf(1) / 4, 32)
        assert doubled[::2] == half


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
        samples = zeta_ring(center, radius, n, CTX)
        assert len(tails) == n // 2 + 1, n
        assert passes == [center], n
    with CTX.wp():
        for h, got in zip(ring_samples(mpc, radius, 64), samples):
            fresh = zeta(center + h, CTX).value
            assert abs(got - fresh) <= CTX.tol, h


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
            samples = zeta_ring(center, radius, 64, ctx)
            for h, got in zip(ring_samples(mpc, radius, 64), samples):
                fresh = zeta(center + h, ctx).value
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
            samples = zeta_ring(center, radius, 64, ctx)
            for h, got in zip(ring_samples(mpc, radius, 64), samples):
                if h.real >= 0:
                    assert got == zeta(center + h, ctx).value, (radius, h)


def test_ring_node_whose_tail_stalls_takes_zeta(monkeypatch):
    # The first tail of one node stalls: that node, and no other, takes
    # zeta(), whose first attempt then succeeds, so every sample keeps its
    # bits.
    em = sys.modules["zetakit.zeta"]
    center, radius = mpc("0.5", "87.4"), mpf(1) / 4
    before = zeta_ring(center, radius, 64, CTX)
    with CTX.wp():
        target = center + ring_samples(mpc, radius, 64)[3]
    real_tail, real_zeta = em.tail_jet, em.zeta
    stalled, fresh = [], []

    def tail(s, *args):
        if s == target and not stalled:
            stalled.append(s)
            return None
        return real_tail(s, *args)

    monkeypatch.setattr(em, "tail_jet", tail)
    monkeypatch.setattr(em, "zeta", lambda s, ctx: fresh.append(s) or real_zeta(s, ctx))
    assert zeta_ring(center, radius, 64, CTX) == before
    assert stalled == [target] and fresh == [target]


@pytest.mark.parametrize("nodes", [17, 18, 24, 40])
@pytest.mark.parametrize("center", [mpc(2), mpc("0.5", "14.13"), mpc(2, 3)])
def test_ring_of_any_node_count_matches_fresh_zeta(center, nodes):
    # An odd count, or a centre off the critical line, evaluates every
    # node; an even count on the line pairs mirror nodes.  Every sample is
    # within 10^-(digits+5) of a fresh evaluation.
    radius = mpf(1) / 4
    samples = zeta_ring(center, radius, nodes, CTX)
    assert len(samples) == nodes
    with CTX.wp():
        for h, got in zip(ring_samples(mpc, radius, nodes), samples):
            fresh = zeta(center + h, CTX).value
            assert abs(got - fresh) <= mpf(10) ** -(CTX.target_digits + 5), h


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
