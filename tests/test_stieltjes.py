import sys

import pytest
from mpmath import mp, mpf

import oracles
from zetakit import mobius, stieltjes
from zetakit.errors import PrecisionEscalationError, RangeError
from zetakit.precision import PrecisionContext
from zetakit.stieltjes import (
    StieltjesTable,
    bound_check,
    euler_gamma_partial,
    stieltjes_gamma,
)

CTX = PrecisionContext.from_digits(30)


def test_gamma0_against_harmonic_oracle():
    ours = stieltjes_gamma(0, CTX)
    ref = oracles.gamma0_harmonic(K=10**4)
    with CTX.wp():
        # oracle error O(K^-6) ~ 1e-25 at K = 1e4
        assert abs(ours - ref) < mpf(10) ** -22
        assert abs(ours - mp.euler) < mpf(10) ** -28


def test_gamma1_against_limit_oracle():
    ours = stieltjes_gamma(1, CTX)
    lo = oracles.gamma1_limit(K=10**3)
    hi = oracles.gamma1_limit(K=10**4)
    with CTX.wp():
        # two truncations agree, certifying the oracle itself
        assert abs(lo - hi) < mpf(10) ** -11
        assert abs(ours - hi) < mpf(10) ** -12


def test_higher_constants_against_mpmath():
    with mp.workdps(45):
        for n in (2, 3, 6, 12, 20):
            ours = stieltjes_gamma(n, CTX)
            ref = mp.stieltjes(n)
            assert abs(ours - ref) < mpf(10) ** -27, f"n={n}"


@pytest.mark.parametrize("digits", [30, 60])
def test_bound_check_gammas_to_full_digits(digits):
    # gamma_20 cancels about 2^40 against the main sum of ln^20(k)/k; the
    # jet's guard bits keep it to full relative precision.
    ctx = PrecisionContext.from_digits(digits)
    table = bound_check(20, ctx)
    with mp.workdps(digits + 20):
        for n, g in enumerate(table.gammas):
            ref = mp.stieltjes(n)
            assert abs(g - ref) <= mpf(10) ** -digits * abs(ref), f"n={n}"


def test_expansion_reconstructs_zeta_near_one():
    """zeta(1 + h) = 1/h + sum (-1)^n gamma_n h^n / n!  at h = 0.1.

    Thirteen coefficients reach 1e-26; twelve stall near 3.5e-25, the
    gamma_12 truncation term.
    """
    from zetakit.zeta import zeta

    with CTX.wp():
        h = mpf("0.1")
        direct = zeta(1 + h, CTX).value
        acc = 1 / h
        sign = 1
        for n in range(13):
            acc += sign * stieltjes_gamma(n, CTX) * h**n / mp.factorial(n)
            sign = -sign
        assert abs(acc - direct) < mpf(10) ** -26


@pytest.mark.parametrize("digits", [10, 100])
def test_jet_gammas_against_mpmath(digits):
    ctx = PrecisionContext.from_digits(digits)
    with mp.workdps(digits + 20):
        for n in (0, 1, 7, 20):
            ref = mp.stieltjes(n)
            assert abs(stieltjes_gamma(n, ctx) - ref) <= mpf(10) ** -digits * abs(ref), f"n={n}"


def test_jet_past_the_cli_digits():
    # At 500 digits pi N / 5 would pass the tail's term cap, so N grows
    # until the tail ends within _TAIL_TERMS terms instead of stalling.
    ctx = PrecisionContext.from_digits(500)
    assert stieltjes._jet_size(ctx.bits)[0] > 5 * stieltjes._TAIL_TERMS / mp.pi
    gammas = bound_check(20, ctx).gammas
    finer = bound_check(20, PrecisionContext.from_digits(560)).gammas
    with mp.workdps(520):
        assert abs(gammas[0] - mp.euler) <= mpf(10) ** -500 * mp.euler
        for n, (g, ref) in enumerate(zip(gammas, finer)):
            assert abs(g - ref) <= mpf(10) ** -500 * abs(ref), f"n={n}"


def test_stieltjes_gamma_reads_one_jet(monkeypatch):
    calls = []
    jet = stieltjes.stieltjes_fixed
    monkeypatch.setattr(stieltjes, "stieltjes_fixed", lambda *args: calls.append(args) or jet(*args))
    stieltjes._gammas.cache_clear()
    for n in range(21):
        stieltjes_gamma(n, CTX)
    bound_check(20, CTX)
    bound_check(5, CTX)
    assert len(calls) == 1


def test_stieltjes_gammas_are_real():
    # The jet at s = 1 has exactly zero imaginary parts, so no residue
    # check is left to make.
    stieltjes._gammas.cache_clear()
    assert all(type(g) is mpf for g in bound_check(20, CTX).gammas)


def test_stalled_tail_raises(monkeypatch):
    monkeypatch.setattr(mobius, "_bernoulli_tail", lambda *args: None)
    stieltjes._gammas.cache_clear()
    with pytest.raises(PrecisionEscalationError):
        bound_check(20, CTX)


def test_bound_check_evaluates_no_zeta(monkeypatch):
    em = sys.modules["zetakit.zeta"]
    calls = []
    for name in ("zeta", "_em_pair", "zeta_ring"):
        monkeypatch.setattr(em, name, lambda *args, name=name: calls.append(name))
    stieltjes._gammas.cache_clear()
    bound_check(20, CTX)
    assert calls == []


def test_gamma_n_range_validation():
    with pytest.raises(RangeError):
        stieltjes_gamma(21, CTX)
    with pytest.raises(RangeError):
        stieltjes_gamma(-1, CTX)


def test_euler_gamma_partial_first_terms():
    series = euler_gamma_partial((1, 2), CTX)
    with CTX.wp():
        assert abs(series.raw[0] - (1 - mp.ln(2))) < mpf(10) ** -28
        want2 = 1 - mp.ln(2) + mpf(1) / 2 - (mp.ln(3) - mp.ln(2))
        assert abs(series.raw[1] - want2) < mpf(10) ** -28


def test_euler_gamma_partial_tail_shrinks_like_half_K():
    series = euler_gamma_partial((100, 1000, 10000), CTX)
    with CTX.wp():
        for K, raw in zip(series.checkpoints, series.raw):
            tail = abs(mp.euler - raw)
            assert tail < mpf(1) / (2 * K), f"K={K}"
            assert tail > mpf(1) / (4 * K), f"K={K}"


def test_euler_gamma_partial_validation():
    with pytest.raises(RangeError):
        euler_gamma_partial((100, 10), CTX)
    with pytest.raises(RangeError):
        euler_gamma_partial((), CTX)
    with pytest.raises(RangeError):
        euler_gamma_partial((10.5, 100), CTX)


def test_bound_margins_all_positive():
    table = bound_check(20, CTX)
    assert table.n_max == 20
    assert len(table.gammas) == 21
    assert len(table.bound_margin) == 20
    with CTX.wp():
        for margin in table.bound_margin:
            assert margin > 0


def test_bound_formula():
    table = bound_check(5, CTX)
    with CTX.wp():
        want = mp.e * mp.factorial(5) / (2**5 * mp.sqrt(5))
        assert abs(table.bound(5) - want) < mpf(10) ** -25
        assert abs(table.bound_margin[4] - (want - abs(table.gammas[5]))) < mpf(10) ** -25


def test_bound_check_range_validation():
    with pytest.raises(RangeError):
        bound_check(21, CTX)
    with pytest.raises(RangeError):
        bound_check(-1, CTX)
    # n_max = 0 is a bare gamma_0 table with nothing to bound
    table = bound_check(0, CTX)
    assert len(table.gammas) == 1
    assert table.bound_margin == ()
