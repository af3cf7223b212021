import random

import pytest
from mpmath import mp, mpc, mpf

from zetakit.errors import GammaPoleError, PrecisionEscalationError, RangeError
from zetakit.precision import (
    PrecisionContext,
    agreement_digits,
    certified,
    cpow,
    log_gamma,
    real_from,
    to_decimal,
)


def test_context_bits_cover_digits():
    for d in (10, 30, 80, 200):
        ctx = PrecisionContext.from_digits(d)
        assert ctx.target_digits == d
        # 3.33 bits per digit plus guard room
        assert ctx.bits >= int(d * 3.32) + 10


def test_wp_restores_ambient_precision():
    ctx = PrecisionContext.from_digits(40)
    before = mp.prec
    with ctx.wp():
        assert mp.prec >= ctx.bits
    assert mp.prec == before


def test_wp_extra_bits_stack():
    ctx = PrecisionContext.from_digits(20)
    with ctx.wp(64):
        assert mp.prec >= ctx.bits + 64


def test_to_decimal_round_trip():
    ctx = PrecisionContext.from_digits(30)
    rng = random.Random(7)
    with ctx.wp():
        for _ in range(25):
            x = mpf(rng.uniform(-50, 50)) * mpf(10) ** rng.randint(-8, 8)
            s = to_decimal(x, ctx)
            y = real_from(s, ctx)
            if x == 0:
                assert y == 0
            else:
                assert abs(x - y) / abs(x) < mpf(10) ** (-(ctx.target_digits - 2))


def test_agreement_digits_scales():
    with mp.workdps(40):
        assert agreement_digits(mpf(1), mpf(1) + mpf(10) ** -20) in (19, 20)
        assert agreement_digits(mpf(2), mpf(2)) > 100
        assert agreement_digits(mpf(1), mpf(2)) <= 1


def test_certified_agrees_on_stable_function():
    ctx = PrecisionContext.from_digits(25)

    def f(bits):
        with mp.workprec(bits):
            return mp.sqrt(mpf(2))

    val, digits = certified(f, ctx)
    assert digits >= 25
    with ctx.wp():
        assert abs(val - mp.sqrt(mpf(2))) < mpf(10) ** -24


def test_certified_raises_on_unstable_function():
    ctx = PrecisionContext.from_digits(25)
    state = {"n": 0}

    def jitter(bits):
        # Different answer every call: no two precisions can ever agree.
        state["n"] += 1
        return mpf(state["n"])

    with pytest.raises(PrecisionEscalationError):
        certified(jitter, ctx)


def test_log_gamma_matches_mpmath():
    rng = random.Random(11)
    pts = [mpc(rng.uniform(-8, 12), rng.uniform(0.1, 40)) for _ in range(12)]
    pts += [mpc(5.5, 0), mpc(0.25, 0.5), mpc(-2.5, 0.01)]
    for digits in (12, 30, 60):
        ctx = PrecisionContext.from_digits(digits)
        with mp.workdps(digits + 15):
            for z in pts:
                ours = log_gamma(z, ctx)
                ref = mp.loggamma(z)
                assert abs(ours - ref) < mpf(10) ** -(digits - 3), f"z={z}, {digits} digits"


def test_log_gamma_ignores_the_ambient_precision():
    """The result is rounded to ctx.bits, and an mpmath argument is used as
    it is, whatever precision the caller has set."""
    ctx = PrecisionContext.from_digits(30)
    with mp.workprec(400):
        z = mpc(1, 2000) / 7
    results = []
    for prec in (53, 400):
        with mp.workprec(prec):
            results.append(log_gamma(z, ctx))
    assert results[0] == results[1]


def test_log_gamma_conjugate_symmetry():
    ctx = PrecisionContext.from_digits(30)
    z = mpc(0.25, 7.0)
    with ctx.wp():
        a = log_gamma(z, ctx)
        b = log_gamma(mpc(z.real, -z.imag), ctx)
        assert abs(a - mpc(b.real, -b.imag)) < mpf(10) ** -27


def test_log_gamma_poles():
    ctx = PrecisionContext.from_digits(20)
    for z in (0, -1, -7):
        with pytest.raises(GammaPoleError):
            log_gamma(z, ctx)


def test_cpow_small_integer_fast_path():
    ctx = PrecisionContext.from_digits(30)
    with ctx.wp():
        assert cpow(7, 3, ctx) == mpf(7) ** -3
        assert cpow(1, mpc(2, 3), ctx) == 1
        z = cpow(5, mpc(0.5, 14.0), ctx)
        ref = mp.exp(-mpc(0.5, 14.0) * mp.log(5))
        assert abs(z - ref) < mpf(10) ** -28


def test_cpow_rejects_k_below_one():
    ctx = PrecisionContext.from_digits(15)
    with pytest.raises(RangeError):
        cpow(0, 2, ctx)
