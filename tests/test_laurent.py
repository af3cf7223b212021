import functools
import random
import sys
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

import oracles
import shared
from zetakit.errors import (
    NearZeroError,
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
from zetakit.mobius import SIEVE_CAP, fixed_pair, sieve_mobius
from zetakit.precision import PrecisionContext
from zetakit.zeros import neighbor_distance, refine_zero
from zetakit.zeta import (
    basin_radius,
    inverse_zeta,
    inverse_zeta_value,
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


# Ordinates of zeros n - 1, n and n + 1 for the n of VALIDITY_SAMPLE, from
# mpmath.zetazero (see test_validity_radius_is_within_the_true_gap).
VALIDITY_SAMPLE = (1, 2, 3, 73, 100, 200, 337, 500, 648, 649, 315, 316, 363, 364, 453, 454, 606, 607)
ZETAZERO = {
    1: "14.134725141734693790457251983562470",
    2: "21.022039638771554992628479593896903",
    3: "25.010857580145688763213790992562822",
    4: "30.424876125859513210311897530584091",
    72: "185.59878367770747146652770426839265",
    73: "187.22892258350185199164154058613124",
    74: "189.41615865601693708485228909984532",
    99: "233.69340417890830064070449473256979",
    100: "236.52422966581620580247550795566298",
    101: "237.76982048092520400323662592638711",
    199: "395.58287001099372097087771132314164",
    200: "396.38185422259218693199945449173053",
    201: "397.91873620961424338698117971079868",
    314: "562.55920761604585110813791669532454",
    315: "564.16087911078611781387953350040653",
    316: "564.50605593814983512224596893897684",
    317: "566.69878768280795624151228066724073",
    336: "592.57135830022556982077271612031647",
    337: "593.97471468223102924380517450938163",
    338: "595.72815369738894917702092073286780",
    362: "628.32586235946036193594381566512154",
    363: "630.47388743829204587060658677634855",
    364: "630.80578092719753264187172524814689",
    365: "632.22514116711595195215470592961047",
    452: "748.24275446508454786850329469893412",
    453: "750.65595036212429986680743837029463",
    454: "750.96638106665083726845841969542879",
    455: "752.88762156720237474950770500312656",
    499: "810.08180488640709989152472990147139",
    500: "811.18435884650626033788432746488002",
    501: "812.77110838910934271980128866232484",
    605: "945.33356250304594614154223892099645",
    606: "946.76584220472785115673216721824138",
    607: "947.07918309625487796511947454302964",
    608: "948.34664625504496716660508599383598",
    647: "997.51193475193922921102984007544019",
    648: "998.82754713692963313051961544663937",
    649: "999.79157155741294046316314715784707",
    650: "1001.3494826377827371221033096531062",
}


@pytest.mark.parametrize("n", VALIDITY_SAMPLE)
def test_validity_radius_is_within_the_true_gap(n):
    """The gap walk never overshoots the gap to the nearest other zero, as
    mpmath's zetazero places it, and the walked expansion's radius stays
    at most 0.8 of that gap: the validity radius against an independent
    oracle, across the CLI's heights and at the closest pairs.  ZETAZERO
    was printed by (12 s of mpmath, so the values are literals)

        python -c "import mpmath; mpmath.mp.dps = 40; S = VALIDITY_SAMPLE;
        [print(m, mpmath.nstr(mpmath.zetazero(m).imag, 35, strip_zeros=False))
         for m in sorted({k for n in S for k in (n - 1, n, n + 1) if k})]"

    with the tuple written out for VALIDITY_SAMPLE."""
    t = mpf(ZETAZERO[n])
    gap = min(abs(mpf(ZETAZERO[m]) - t) for m in (n - 1, n + 1) if m in ZETAZERO)
    assert neighbor_distance(float(t)) <= gap
    exp = build_expansion(mpc(0.5, t), 0, CTX)
    assert exp.radius <= mpf("0.8") * gap


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
        points, values = zeta_ring(exp.rho, r, 32, CTX)
        targets = [1 / z for z in values]
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


# Double-precision ordinates of zeros, refined at each digits by the tests.
ORDINATES = {1: 14.134725141734695, 4: 30.424876125859512, 27: 94.65134404051989,
             315: 564.1608791107861, 316: 564.5060559381499, 649: 999.7915715574129}


@functools.lru_cache(maxsize=None)
def _expansion(index, digits):
    ctx = shared.ctx_digits(digits)
    return build_expansion(refine_zero(ORDINATES[index], ctx).rho, 8, ctx)


def _all_node_profile(exp, r, samples, ctx, monkeypatch):
    """The residuals of the chain run at every node, max |T - laurent_eval|
    over the ring's targets T; the ring is then handed to the sweep as
    it is, so the two read the same points and targets."""
    ring = zeta_ring(exp.rho, r, samples, ctx)
    monkeypatch.setattr(sys.modules["zetakit.laurent"], "zeta_ring", lambda *args: ring)
    points, values = ring
    with ctx.wp():
        targets = [1 / z for z in values]
        return {N: max(abs(T - laurent_eval(s, exp.truncated(N))) for s, T in zip(points, targets))
                for N in range(9)}


@pytest.mark.parametrize("digits", [30, 60])
@pytest.mark.parametrize("index", sorted(ORDINATES))
def test_residual_sweep_has_the_bits_of_the_chain_at_every_node(index, digits, monkeypatch):
    """Ranked in fixed point, the sweep keeps the residuals of the mpmath
    chain run at every node, bit for bit, at 17, 24 and 64 samples, on
    the report's radius 1/32 and on 0.9 times the validity radius."""
    exp = _expansion(index, digits)
    ctx = shared.ctx_digits(digits)
    for r in (mpf(1) / 32, exp.radius * mpf("0.9")):
        for samples in (17, 24, 64):
            with monkeypatch.context() as m:
                expected = _all_node_profile(exp, r, samples, ctx, m)
                assert residual_profile(exp, r, range(9), samples, ctx) == expected, (r, samples)


@pytest.mark.parametrize("index", [1, 27])
def test_residual_sweep_runs_the_chain_at_one_node_an_order(index, monkeypatch):
    """At 64 nodes the mpmath chain runs at no more nodes than there are
    orders; with margins wide enough to admit every node, it runs at all
    64 and the residuals are the same."""
    laurent = sys.modules["zetakit.laurent"]
    exp = _expansion(index, 30)
    r = mpf(1) / 32
    chains = []
    real_sums, real_margins = laurent._laurent_sums, laurent._sweep_margins
    monkeypatch.setattr(laurent, "_laurent_sums", lambda *args: chains.append(args[1]) or real_sums(*args))
    prof = residual_profile(exp, r, range(9), 64, CTX)
    assert 1 <= len(chains) <= 9
    chains.clear()
    monkeypatch.setattr(laurent, "_sweep_margins", lambda *args: [m << 4096 for m in real_margins(*args)])
    assert residual_profile(exp, r, range(9), 64, CTX) == prof
    assert len(chains) == 64


def _ring_outcome(exp, r, ring, ctx, monkeypatch):
    """residual_profile on the ring ``ring``, its points and values: the
    profile, or the type and message of the error it raises."""
    monkeypatch.setattr(sys.modules["zetakit.laurent"], "zeta_ring", lambda *args: ring)
    try:
        return residual_profile(exp, r, range(9), len(ring[1]), ctx)
    except (NearZeroError, OutsideDiskError) as err:
        return type(err), str(err)


def _checked_at_every_node(exp, r, ring, ctx):
    """The same outcome by mpmath's checks and the chain at every node, in
    node order: inverse_zeta_value and _disk_offset, then the chain."""
    laurent = sys.modules["zetakit.laurent"]
    with ctx.wp():
        try:
            rows = [(inverse_zeta_value(zv, s, ctx), laurent._disk_offset(s, exp)) for s, zv in zip(*ring)]
        except (NearZeroError, OutsideDiskError) as err:
            return type(err), str(err)
        return {N: max(abs(T - laurent._laurent_sums(exp, h)[N]) for T, h in rows) for N in range(9)}


def test_residual_sweep_raises_near_zero_from_the_node_in_the_basin(monkeypatch):
    """A ring value forced inside the basin raises NearZeroError from that
    node, the first such node where there are two, with mpmath's message;
    a value at the threshold itself, which mpmath's check passes, or an ulp
    above or rotated off the real axis, keeps the outcome of the checks at
    every node."""
    ctx = shared.ctx_digits(30)
    exp = _expansion(1, 30)
    r = mpf(1) / 32
    points, ring = zeta_ring(exp.rho, r, 64, ctx)
    with ctx.wp():
        node5 = f"zeta({points[5]})"
        basin = basin_radius(ctx)
        ulp = mpf(2) ** (mp.mag(basin) - ctx.bits)
        forced = [{5: mpc(basin - ulp)}, {5: mpc(0), 9: mpc("1e-40")}, {9: mpc(0, 1e-20), 5: mpc(1e-20)},
                  {5: mpc(basin)}, {5: mpc(basin + ulp)}, {5: basin * mp.expjpi(mpf(1) / 3)}]
    for values in forced:
        changed = points, [values.get(j, v) for j, v in enumerate(ring)]
        with monkeypatch.context() as m:
            got = _ring_outcome(exp, r, changed, ctx, m)
        assert got == _checked_at_every_node(exp, r, changed, ctx), values
        if min(values) == 5 and abs(values[5]) < basin:
            assert got[0] is NearZeroError and node5 in got[1], values


@pytest.mark.parametrize("ulps", [1, 2, 4])
def test_residual_sweep_radius_within_rounding_of_the_disk_keeps_the_outcome(ulps, monkeypatch):
    """A sweep radius an ulp or a few below the validity radius puts the
    offsets within rounding of the disk's edge, where the int test cannot
    pass a node and mpmath's check decides: at zero 1 one ulp below puts
    nodes outside, from node 5 on, and two or four keep every node in.
    The outcome is that of mpmath's checks and the chain at every node,
    also with node 0's value just inside the basin, which raises first."""
    ctx = shared.ctx_digits(30)
    exp = build_expansion(_rho1(), 8, ctx)
    with ctx.wp():
        r = exp.radius - ulps * mpf(2) ** (mp.mag(exp.radius) - ctx.bits)
        basin = basin_radius(ctx)
        inside = mpc(basin - mpf(2) ** (mp.mag(basin) - ctx.bits))
    ring = zeta_ring(exp.rho, r, 64, ctx)
    got = _ring_outcome(exp, r, ring, ctx, monkeypatch)
    assert got == _checked_at_every_node(exp, r, ring, ctx)
    assert isinstance(got, dict) == (ulps > 1)
    ring = ring[0], (inside,) + ring[1][1:]
    got = _ring_outcome(exp, r, ring, ctx, monkeypatch)
    assert got == _checked_at_every_node(exp, r, ring, ctx)
    assert got[0] is NearZeroError


def test_residual_sweep_disk_edge_at_the_largest_rounded_offset(monkeypatch):
    """With the disk radius set to the largest rounded |h| of a ring of
    radius 1/21 at zero 1, the first node whose ``abs`` reaches it, node
    13, has an exact |h| below it and is no candidate of any order: only a
    margin in the int test sends that node to mpmath's check, which raises
    OutsideDiskError there."""
    laurent = sys.modules["zetakit.laurent"]
    ctx = shared.ctx_digits(30)
    exp = _expansion(1, 30)
    r = mpf(1) / 21
    with ctx.wp():
        offsets = [s - exp.rho for s in ring_samples(lambda h: exp.rho + h, r, 64)]
        edge = exp._replace(radius=max(abs(h) for h in offsets))
        first = next(j for j, h in enumerate(offsets) if abs(h) >= edge.radius)
        assert _exact_norm(offsets[first]) < _exact_norm(mpc(edge.radius))
    picks = []
    real_candidates = laurent._sweep_candidates
    with monkeypatch.context() as m:
        m.setattr(laurent, "_sweep_candidates", lambda *args: picks.append(real_candidates(*args)) or picks[-1])
        residual_profile(exp, r, range(9), 64, ctx)
    assert first not in set().union(*picks[0].values())
    ring = zeta_ring(exp.rho, r, 64, ctx)
    got = _ring_outcome(edge, r, ring, ctx, monkeypatch)
    assert got == _checked_at_every_node(edge, r, ring, ctx)
    assert got[0] is OutsideDiskError


def test_residual_sweep_inverts_zeta_only_at_the_candidates(monkeypatch):
    """At 64 nodes inverse_zeta_value and _disk_offset run at the distinct
    candidates of the orders alone, once each, in node order."""
    laurent = sys.modules["zetakit.laurent"]
    ctx = shared.ctx_digits(30)
    exp = _expansion(1, 30)
    r = mpf(1) / 32
    inverted, offsets, picks = [], [], []
    real_inverse, real_offset, real_candidates = laurent.inverse_zeta_value, laurent._disk_offset, laurent._sweep_candidates
    monkeypatch.setattr(laurent, "inverse_zeta_value", lambda zv, s, c: inverted.append(s) or real_inverse(zv, s, c))
    monkeypatch.setattr(laurent, "_disk_offset", lambda s, e: offsets.append(s) or real_offset(s, e))
    monkeypatch.setattr(laurent, "_sweep_candidates", lambda *args: picks.append(real_candidates(*args)) or picks[-1])
    residual_profile(exp, r, range(9), 64, ctx)
    with ctx.wp():
        points = ring_samples(lambda h: exp.rho + h, r, 64)
    chosen = sorted(set().union(*picks[0].values()))
    assert 1 <= len(chosen) <= 9
    assert inverted == offsets == [points[j] for j in chosen]


def _fixed_nodes(rows):
    """The sweep's fixed-point nodes for rows [(zv, h)] of ring values and
    offsets: the quotient 1/zv and the fixed pair of h at CTX.bits + 32
    bits."""
    laurent = sys.modules["zetakit.laurent"]
    W = CTX.bits + 32
    return [(laurent._fixed_inverse(zv, W), fixed_pair(h, W)) for zv, h in rows]


def test_sweep_candidates_hold_the_chain_pick_in_near_ties():
    """Targets 1/zv a few units of the last place apart at one offset put the
    order-8 differences within the chain's rounding of each other, where
    fixed point and the chain may rank them apart; the candidates still
    hold every node whose chain difference has the largest norm."""
    laurent = sys.modules["zetakit.laurent"]
    exp = _expansion(1, 30)
    rng = random.Random(7)
    with CTX.wp():
        for trial in range(40):
            h = mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 40
            S = laurent._laurent_sums(exp, h)[8]
            ulp = mpf(2) ** (int(mp.log(abs(S), 2)) - CTX.bits)
            values = [1 / (S + mpc(rng.randint(-6, 6), rng.randint(-6, 6)) * ulp) for _ in range(12)]
            rows = [(1 / zv, h) for zv in values]
            picks = laurent._sweep_candidates(exp, _fixed_nodes([(zv, h) for zv in values]), [8], CTX.bits)[8]
            norms = [abs(T - S) for T, _ in rows]
            assert {j for j, v in enumerate(norms) if v == max(norms)} <= set(picks), trial


def test_residual_sweep_ranks_no_offset_within_units_of_zero():
    """An offset within a few units of 2^-W of zero bounds residue/h by
    nothing, so every node is a candidate of every order."""
    laurent = sys.modules["zetakit.laurent"]
    with CTX.wp():
        rows = _fixed_nodes([(mpc(1), mpc(2) ** -(CTX.bits + 34)), (mpc(1) / 2, mpc(0, 1) / 32)])
    assert laurent._sweep_candidates(_expansion(1, 30), rows, [0, 3], CTX.bits) == {0: [0, 1], 3: [0, 1]}


def _exact_norm(z) -> Fraction:
    """|z|^2 exactly, from the mantissa and exponent of each part."""
    return sum(Fraction(m * m) * Fraction(2) ** (2 * e) for m, e in (z.real.man_exp, z.imag.man_exp))


@pytest.mark.parametrize("digits", [30, 60])
def test_abs_is_monotone_in_the_exact_squared_norm(digits):
    """residual_profile takes an order's residual as the largest abs of its
    candidates' differences, which is the abs of the difference of largest
    exact norm only if abs never orders two values against their exact
    squared norms.  Each group holds a value a at ctx's precision, a
    rotated, a with one part moved by an ulp, and real and imaginary
    values around |a| by -2..2 ulps: norms a few ulps apart, a part zero
    in some.  Over every pair of a group, a no larger exact norm gives a
    no larger abs, and some pairs of distinct norms share their abs."""
    ctx = PrecisionContext.from_digits(digits)
    p = ctx.bits
    rng = random.Random(digits)
    ties = 0
    with ctx.wp():
        for _ in range(300):
            scale = rng.randint(-40, 10) - p
            a = mpc(mpf((rng.getrandbits(p), scale)), mpf((rng.getrandbits(p), scale)))
            m, e = a.real.man_exp
            group = [a, a * mp.expjpi(mpf(rng.random())), mpc(mpf((m + 1, e)), a.imag)]
            m, e = abs(a).man_exp
            for k in range(-2, 3):
                x = mpf((m + k, e))
                group += [mpc(x, 0), mpc(0, x)]
            pairs = [(_exact_norm(z), abs(z)) for z in group]
            for na, aa in pairs:
                for nb, ab in pairs:
                    if na <= nb:
                        assert aa <= ab, (a, na, nb)
                    ties += na < nb and aa == ab
    assert ties > 0


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
