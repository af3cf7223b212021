import random
import sys

import pytest
from mpmath import mp, mpc, mpf

import oracles
import shared
from zetakit.errors import (
    OutsideDiskError,
    RangeError,
    ZeroLeadingCoefficientError,
)
from zetakit.laurent import (
    build_expansion,
    expansion_report,
    invert_series,
    laurent_eval,
    phi_series_multi,
    residual_profile,
    residue,
    tail_bound,
    taylor_at_zero,
    v_term,
)
from zetakit.mobius import SIEVE_CAP, sieve_mobius
from zetakit.precision import PrecisionContext
from zetakit.zeros import refine_zero
from zetakit.zeta import (
    inverse_zeta,
    ring_samples,
    zeta_and_deriv_raw,
    zeta_ring,
)

CTX = PrecisionContext.from_digits(30)


def _rho1():
    records, _ = shared.zeros_to(35)
    return records[0].rho


def test_invert_series_geometric_example():
    """A(x) = x + x^2 + ... = x/(1-x), so 1/A = 1/x - 1: residue 1,
    c_0 = -1, all later coefficients zero."""
    with CTX.wp():
        a = [mpc(1)] * 6
        res, c = invert_series(a, 5)
        assert res == 1
        assert c[0] == -1
        assert all(cn == 0 for cn in c[1:])


def test_invert_series_rejects_zero_leading_coefficient():
    with pytest.raises(ZeroLeadingCoefficientError):
        invert_series([mpc(0), mpc(1)], 1)


def test_invert_series_product_identity():
    """(sum a_m x^m) * (res + sum c_n x^(n+1)) must be x + O(x^(N+1))."""
    rng = random.Random(17)
    with CTX.wp():
        for _ in range(20):
            N = rng.randint(1, 8)
            a = []
            for m in range(N + 1):
                re = rng.uniform(-3, 3)
                im = rng.uniform(-3, 3)
                a.append(mpc(re, im))
            if abs(a[0]) < 0.1:
                a[0] += 1
            res, c = invert_series(a, N)
            b = [res] + list(c)
            # coefficient n of g(x)*(1/g)(x) with g = sum a_{i+1} x^i
            for n in range(N):
                conv = mpc(0)
                for i in range(n + 1):
                    conv += a[i] * b[n - i]
                want = 1 if n == 0 else 0
                assert abs(conv - want) < mpf(10) ** -25


def test_residue_is_inverse_zeta_prime():
    rho = _rho1()
    res = residue(rho, CTX)
    with CTX.wp():
        _, dv = zeta_and_deriv_raw(rho, CTX)
        assert abs(res * dv - 1) < mpf(10) ** -28


def test_residue_is_the_expansions_bit_for_bit():
    """residue reads zeta'(rho) from the order-13 jet that build_expansion
    takes, so the two agree to the last bit: zeros 1-3 at 30 digits, zero
    1 at 60."""
    records, _ = shared.zeros_to(35)
    for rec in records[:3]:
        exp = build_expansion(rec.rho, 8, CTX, neighbor_ts=[rec.t + 1])
        assert residue(rec.rho, CTX) == exp.residue, rec.index
    ctx60 = PrecisionContext.from_digits(60)
    rho = refine_zero(records[0].t, ctx60).rho
    exp = build_expansion(rho, 8, ctx60, neighbor_ts=[rho.imag + 1])
    assert residue(rho, ctx60) == exp.residue


def test_taylor_at_zero_leading_coefficient_is_derivative():
    rho = _rho1()
    a = taylor_at_zero(rho, 2, CTX)
    with CTX.wp():
        _, dv = zeta_and_deriv_raw(rho, CTX)
        assert abs(a[0] - dv) < mpf(10) ** -27
        assert len(a) == 3


def test_c0_second_derivative_identity():
    rho = _rho1()
    a = taylor_at_zero(rho, 1, CTX)
    with CTX.wp():
        _, c = invert_series(a, 1)
        _, dv = zeta_and_deriv_raw(rho, CTX)
        zpp = oracles.zeta_derivative(rho, 2, CTX.target_digits)
        assert abs(c[0] + zpp / (2 * dv**2)) < mpf(10) ** -27


def test_v_term_telescopes_to_dirichlet_partial():
    rho = _rho1()
    res = residue(rho, CTX)
    table = sieve_mobius(64)
    with CTX.wp():
        s = mpc(2, mpf("0.3"))
        w = s - rho
        K = 50
        total = mpc(0)
        direct = mpc(0)
        for k in range(1, K + 1):
            total += v_term(k, s, rho, res, table, CTX)
            muk = table.mobius(k)
            if muk:
                direct += muk * mp.exp(-s * mp.ln(k)) if k > 1 else muk
        total += res * (1 - mp.exp(-w * mp.ln(K + 1))) / w
        assert abs(total - direct) < mpf(10) ** -28


def test_v_term_rejects_s_equal_rho():
    rho = _rho1()
    res = residue(rho, CTX)
    with pytest.raises(RangeError):
        v_term(3, rho, rho, res, sieve_mobius(10), CTX)


def test_phi_series_first_checkpoint_by_hand():
    rho = _rho1()
    res = residue(rho, CTX)
    out = phi_series_multi(rho, (0, 1), (1, 10), CTX, residue_val=res)
    with CTX.wp():
        ln2 = mp.ln(2)
        assert abs(out[0].raw[0] - (1 - res * ln2)) < mpf(10) ** -28
        assert abs(out[1].raw[0] + res * ln2**2 / 2) < mpf(10) ** -28


def test_phi_series_multi_matches_single_runs():
    rho = _rho1()
    cps = (10, 100, 500)
    multi = phi_series_multi(rho, (0, 2), cps, CTX)
    for n in (0, 2):
        single = phi_series_multi(rho, (n,), cps, CTX)[n]
        assert single.raw == multi[n].raw
        assert single.oscillation == multi[n].oscillation


def test_phi_series_validation():
    rho = _rho1()
    with pytest.raises(RangeError):
        phi_series_multi(rho, (7,), (10, 100), CTX)
    with pytest.raises(RangeError):
        phi_series_multi(rho, (0,), (100, 10), CTX)
    with pytest.raises(RangeError):
        phi_series_multi(rho, (0,), (10, SIEVE_CAP + 1), CTX)


def test_phi_series_matches_per_k_bridge_reference():
    """The closed-form bridge against the series summed term by term:
    mu(k) by trial division, the bridge added at every k, 50 digits."""
    rho = _rho1()
    res = residue(rho, CTX)
    cps = (10, 100, 1000)
    ns = (0, 1, 2)
    ours = phi_series_multi(rho, ns, cps, CTX, residue_val=res)
    with mp.workdps(50):
        want = {n: [] for n in ns}
        total = {n: mpc(0) for n in ns}
        for k in range(1, cps[-1] + 1):
            mu = oracles.mu_factor(k)
            ln_k, ln_k1 = mp.ln(k), mp.ln(k + 1)
            for n in ns:
                if mu:
                    total[n] += mu * ln_k**n * mp.exp(-rho * ln_k)
                total[n] -= res * (ln_k1 ** (n + 1) - ln_k ** (n + 1)) / (n + 1)
                if k in cps:
                    want[n].append(total[n])
        for n in ns:
            for got, ref in zip(ours[n].raw, want[n]):
                assert abs(got - ref) < mpf(10) ** -28


def test_expansion_radius_uses_neighbor_gap():
    records, _ = shared.zeros_to(35)
    rho1, t2 = records[0].rho, records[1].t
    exp = build_expansion(rho1, 4, CTX, neighbor_ts=[t2])
    with CTX.wp():
        want = mpf("0.8") * (t2 - rho1.imag)
        assert abs(exp.radius - want) < mpf(10) ** -25
        # The sign-change walk must land close below the true gap.
        walked = build_expansion(rho1, 4, CTX)
        assert mpf("5.2") < walked.radius <= want + mpf("1e-20")


def test_truncated_keeps_prefix():
    exp = build_expansion(_rho1(), 6, CTX)
    assert exp.n_terms == len(exp.coeffs) == 6
    cut = exp.truncated(2)
    assert cut.n_terms == 2
    assert cut.coeffs == exp.coeffs[:2]
    assert cut.residue == exp.residue


def test_laurent_eval_outside_disk_rejected():
    exp = build_expansion(_rho1(), 2, CTX)
    with pytest.raises(OutsideDiskError):
        laurent_eval(exp.rho + 2 * exp.radius, exp)
    with pytest.raises(OutsideDiskError):
        laurent_eval(exp.rho, exp)


def _per_point_profile(exp, r, N_list, samples, ctx) -> tuple:
    """(profile, max |1/zeta|) by the route the sweep replaced: a fresh
    inverse_zeta at every node and Horner's rule for every order."""
    with ctx.wp():
        points = ring_samples(lambda h: exp.rho + h, r, samples)
        targets = [inverse_zeta(s, ctx) for s in points]
        prof = {}
        for N in N_list:
            worst = mpf(0)
            for s, z in zip(points, targets):
                h = s - exp.rho
                acc = mpc(0)
                for c in reversed(exp.coeffs[:N]):
                    acc = acc * h + c
                worst = max(worst, abs(z - (exp.residue / h + acc)))
            prof[N] = worst
        return prof, max(abs(z) for z in targets)


def test_residual_profile_decreases_and_respects_tail_bound():
    records, _ = shared.zeros_to(35)
    exp = build_expansion(records[0].rho, 8, CTX, neighbor_ts=[records[1].t])
    r = mpf(1) / 32
    prof = residual_profile(exp, r, range(9), 32, CTX)
    with CTX.wp():
        # one sweep gives the bits of laurent_eval on the ring's targets
        points = ring_samples(lambda h: exp.rho + h, r, 32)
        targets = [1 / z for z in zeta_ring(exp.rho, r, 32, CTX)]
        for N in range(9):
            trunc = exp.truncated(N)
            assert prof[N] == max(abs(z - laurent_eval(s, trunc)) for s, z in zip(points, targets))
        for N in range(1, 9):
            assert prof[N] < prof[N - 1], f"ladder stalls at N={N}"
        for N in (4, 8):
            assert prof[N] <= tail_bound(exp.truncated(N), r)
        assert prof[8] < mpf(10) ** -10
        # and stays within 10^-(digits+3) max|1/zeta| of per-point targets
        old, top = _per_point_profile(exp, r, range(9), 32, CTX)
        for N in range(9):
            assert abs(prof[N] - old[N]) <= mpf(10) ** -(CTX.target_digits + 3) * top, N


@pytest.mark.parametrize("index, samples", [(1, 17), (1, 24), (1, 64), (4, 64)])
def test_residual_sweep_matches_per_point_inverse_zeta(index, samples):
    """At any node count, and at the 64 nodes and radius of the report at
    zeros 1 and 4, every residual is within 10^-(digits+3) max|1/zeta| of
    the per-point route's value."""
    records, _ = shared.zeros_to(35)
    exp = build_expansion(records[index - 1].rho, 8, CTX, neighbor_ts=[records[index].t])
    with CTX.wp():
        r = min(mpf(1) / 32, exp.radius / 2)
    prof = residual_profile(exp, r, range(9), samples, CTX)
    old, top = _per_point_profile(exp, r, range(9), samples, CTX)
    with CTX.wp():
        for N in range(9):
            assert abs(prof[N] - old[N]) <= mpf(10) ** -(CTX.target_digits + 3) * top, N


def test_residual_sweep_sums_one_node_of_each_mirror_pair(monkeypatch):
    """The 64 targets at zero 1 take 33 Euler-Maclaurin tails, not 64, and
    one Dirichlet pass at the zero for all their main sums: the other 31
    nodes are reflected from their mirror nodes' values."""
    em = sys.modules["zetakit.zeta"]
    tails, passes = [], []
    real_tail, real_powers = em.tail_jet, em.dirichlet_powers
    exp = build_expansion(_rho1(), 8, CTX)
    monkeypatch.setattr(em, "tail_jet", lambda *args: tails.append(args[0]) or real_tail(*args))
    monkeypatch.setattr(em, "dirichlet_powers", lambda *args: passes.append(args[0]) or real_powers(*args))
    monkeypatch.setattr(em, "zeta", lambda *args: pytest.fail("a ring node took a fresh zeta"))
    residual_profile(exp, mpf(1) / 32, range(9), 64, CTX)
    assert len(tails) == 33
    assert passes == [exp.rho]


def test_expansion_takes_one_jet_and_no_ring(monkeypatch):
    """An expansion of order 8 at zero 1 takes its Taylor data from one
    Euler-Maclaurin sum, a jet of order 13, and samples no Cauchy ring."""
    records, _ = shared.zeros_to(35)
    em = sys.modules["zetakit.zeta"]
    laurent = sys.modules["zetakit.laurent"]
    sums, rings = [], []
    real_em = em._em_pair
    monkeypatch.setattr(em, "_em_pair", lambda *args: sums.append(args[2]) or real_em(*args))
    for mod in (em, laurent):
        monkeypatch.setattr(mod, "zeta_ring", lambda *args: rings.append(args))
    exp = build_expansion(records[0].rho, 8, CTX, neighbor_ts=[records[1].t])
    assert sums == [13]
    assert rings == []
    assert exp.n_terms == 8


def test_truncated_moves_the_cut_coefficients_to_the_tail():
    """The expansion keeps three coefficients past its order, and a
    truncation hands the ones it cuts to the tail, so the tail bound of
    a truncation reads the same coefficients as one built at that order."""
    records, _ = shared.zeros_to(35)
    neighbor = [records[1].t]
    exp = build_expansion(records[0].rho, 8, CTX, neighbor_ts=neighbor)
    assert len(exp.tail) == 3
    cut = exp.truncated(3)
    assert cut.coeffs + cut.tail == exp.coeffs + exp.tail
    direct = build_expansion(records[0].rho, 3, CTX, neighbor_ts=neighbor)
    assert direct.tail == cut.tail[:3]
    with CTX.wp():
        assert tail_bound(direct, mpf(1) / 32) == tail_bound(cut, mpf(1) / 32)
    assert len(build_expansion(records[0].rho, 12, CTX, neighbor_ts=neighbor).tail) == 0


def test_residual_sweep_validation():
    exp = build_expansion(_rho1(), 2, CTX)
    with pytest.raises(RangeError):
        residual_profile(exp, mpf(1) / 32, [2], 8, CTX)
    with pytest.raises(RangeError):
        residual_profile(exp, mpf(1) / 32, [3], 32, CTX)
    with pytest.raises(RangeError):
        residual_profile(exp, mpf(1) / 32, [], 32, CTX)
    with pytest.raises(OutsideDiskError):
        residual_profile(exp, 100, [2], 32, CTX)


def test_tail_bound_validation():
    exp = build_expansion(_rho1(), 2, CTX)
    with pytest.raises(RangeError):
        tail_bound(exp, 2 * exp.radius)


def test_expansion_report_shape():
    records, _ = shared.zeros_to(35)
    rho, t2 = records[0].rho, records[1].t
    exp = build_expansion(rho, 2, CTX, neighbor_ts=[t2])
    report = expansion_report(1, exp, CTX, 1000)
    assert report["index"] == 1
    assert set(report["rho"]) == {"re", "im"}
    assert len(report["coeffs"]) == 2
    assert set(report["residuals"]) == {"0", "1", "2"}
    for n in ("0", "1"):
        diag = report["phi_diagnostics"][n]
        assert diag["checkpoints"] == [1000]
        assert len(diag["raw"]) == 1
        assert len(diag["smoothed"]) == 1
        assert len(diag["distance_to_oracle"]) == 1
        assert isinstance(diag["oscillation"], str)
    # A k_max below the first default checkpoint is the one checkpoint.
    short = expansion_report(1, exp, CTX, 500)
    assert short["phi_diagnostics"]["0"]["checkpoints"] == [500]
    assert short["residuals"] == report["residuals"]
