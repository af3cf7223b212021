import random

import pytest
from mpmath import mp, mpc, mpf

import oracles
from zetakit.errors import LimitTooLargeError, RangeError
from zetakit.mobius import MobiusTable, dirichlet_partial, mertens, sieve_mobius
from zetakit.precision import PrecisionContext

CTX = PrecisionContext.from_digits(30)


def test_first_values():
    table = sieve_mobius(30)
    expected = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert [table.mobius(k) for k in range(1, 11)] == expected


def test_sieve_against_trial_division():
    table = sieve_mobius(10**4)
    rng = random.Random(41)
    for _ in range(300):
        k = rng.randint(1, 10**4)
        assert table.mobius(k) == oracles.mu_factor(k), f"k={k}"


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


def test_sieve_limit_validation():
    with pytest.raises(RangeError):
        sieve_mobius(0)
    with pytest.raises(LimitTooLargeError):
        sieve_mobius(10**8 + 1)


def test_dirichlet_partial_trivial_truncations():
    table = sieve_mobius(10)
    sums = dirichlet_partial(mpc(2, 0), (0, 1), (1,), table, CTX)
    # K=1: only k=1 contributes; ln(1)=0 kills every n >= 1.
    assert sums[0] == [1]
    assert sums[1] == [0]


def test_dirichlet_partial_matches_direct_loop():
    table = sieve_mobius(300)
    rho = mpc(mpf(1) / 2, 14)
    cps = (1, 100, 300)  # 100 is not squarefree
    ours = dirichlet_partial(rho, (0, 2), cps, table, CTX)
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
    table = sieve_mobius(100)
    rho = mpc(mpf(1) / 2, 14)
    for ns, cps in (((), (10,)), ((7,), (10,)), ((-1,), (10,)), ((0,), ()),
                    ((0,), (0, 10)), ((0,), (10, 10)), ((0,), (10, 101))):
        with pytest.raises(RangeError):
            dirichlet_partial(rho, ns, cps, table, CTX)


def test_dirichlet_partial_approximates_inverse_zeta_at_2():
    # sum mu(k)/k^2 -> 6/pi^2 like O(1/K).
    table = sieve_mobius(5000)
    ours = dirichlet_partial(mpc(2, 0), (0,), (5000,), table, CTX)[0][0]
    with CTX.wp():
        assert abs(ours - 6 / mp.pi**2) < mpf(10) ** -3


def test_mertens_prefix_matches_scalar():
    table = sieve_mobius(500)
    prefix = table.mertens_prefix()
    for x in (1, 7, 100, 499):
        assert prefix[x - 1] == mertens(x, table)
