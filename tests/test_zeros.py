import math
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf
from numpy.polynomial.legendre import leggauss

import shared
from zetakit import cli, zeros
from zetakit.errors import (
    CacheFormatError,
    NoConvergenceError,
    NonIntegerWindingError,
    RangeError,
)
from zetakit.precision import PrecisionContext, real_from, to_decimal
from zetakit.zeros import (
    STATUS_REFINED,
    STATUS_SIMPLE,
    audit_zeros,
    count_by_argument,
    density_report,
    multiplicity_probe,
    read_cache,
    refine_zero,
    rvm_estimate,
    scan_with_count,
    write_cache,
)
from zetakit.zeta import HEIGHT_MIN, hardy_Z_fast, rs_error_bound, zeta

CTX = PrecisionContext.from_digits(30)

# Ordinates of the first five zeros, accurate well past 25 digits.
T_FIRST_FIVE = (
    "14.134725141734693790457251983562",
    "21.022039638771554992628479593897",
    "25.010857580145688763213790992563",
    "30.424876125859513210311897530584",
    "32.935061587739189690662368964074",
)


def test_scan_to_35_finds_five_zeros():
    records, n_winding = shared.zeros_to(35)
    assert len(records) == 5
    assert n_winding == 5
    with CTX.wp():
        for rec, ref in zip(records, T_FIRST_FIVE):
            assert abs(rec.t - mpf(ref)) < mpf(10) ** -25
            assert rec.rho.real == mpf(1) / 2
            assert abs(zeta(rec.rho, CTX).value) < mpf(10) ** -28
            assert rec.status == STATUS_REFINED
    assert [rec.index for rec in records] == [1, 2, 3, 4, 5]


def test_refine_zero_from_rough_seed():
    rec = refine_zero(14.13, CTX)
    with CTX.wp():
        assert abs(rec.t - mpf(T_FIRST_FIVE[0])) < mpf(10) ** -25


@pytest.mark.parametrize("digits", [30, 60])
def test_refined_ordinates_are_correctly_rounded(digits):
    """Newton returns mp.zetazero(n) rounded to ctx.bits, and the records
    carry it through the cache's (digits + 5)-digit decimal form."""
    ctx = shared.ctx_digits(digits)
    if digits == 30:
        records = shared.zeros_to(100)[0][:5]
    else:
        records = [refine_zero(float(t), ctx) for t in T_FIRST_FIVE]
    for n, (rec, t_seed) in enumerate(zip(records, T_FIRST_FIVE), start=1):
        with mp.workprec(ctx.bits + 64):
            rho = mp.zetazero(n)
            zp_abs = abs(mp.zeta(rho, derivative=1))
        with mp.workprec(ctx.bits):
            t_exact = +rho.imag
        t, _ = zeros._newton_refine(float(t_seed) - 0.01, float(t_seed) + 0.01, ctx)
        assert t == t_exact, f"zero {n}"
        assert rec.t == real_from(to_decimal(t_exact, ctx, digits + 5), ctx), f"zero {n}"
        with mp.workprec(ctx.bits + 64):
            assert abs(rec.zeta_prime_abs - zp_abs) < zp_abs * mpf(10) ** -(digits + 3), f"zero {n}"


def test_scan_range_validation():
    with pytest.raises(RangeError):
        scan_with_count(1001, CTX)
    with pytest.raises(RangeError):
        scan_with_count(5, CTX)


def test_count_by_argument_low_heights():
    assert count_by_argument(15) == 1
    assert count_by_argument(30) == 3
    # Contours passing within 1e-4 of the first two zeros: the count
    # still refers to the requested height, below each zero.
    assert count_by_argument(14.1347) == 0
    assert count_by_argument(21.0220) == 1


@pytest.mark.parametrize("T", [10, 14.2, 20, 31.5, 50, 100, 237, 500, 1000])
def test_count_by_argument_matches_mpmath_nzeros(T):
    assert count_by_argument(T) == mp.nzeros(T)


def test_gauss_legendre_constants():
    # The literals are numpy's leggauss(16) bit for bit.  Its nodes are
    # correctly rounded; its weights come from a double-precision
    # recurrence and sit up to about 32 eps (relative) from the exact ones.
    x, w = leggauss(16)
    assert zeros._GL_X == tuple(x.tolist())
    assert zeros._GL_W == tuple(w.tolist())
    with mp.workdps(30):
        nodes, weights = mp.gauss_quadrature(16, "legendre")
        for got, want in zip(zeros._GL_X, nodes):
            assert abs(got - want) <= math.ulp(got), got
        for got, want in zip(zeros._GL_W, weights):
            assert abs(got - want) <= 1e-14 * got, got


@pytest.mark.parametrize("T", [-20, 5, 1001])
def test_count_by_argument_range(T):
    with pytest.raises(RangeError):
        count_by_argument(T)


def test_count_by_argument_raises_the_last_error_class(monkeypatch, tmp_path):
    """Where the count reads 0.5 on both tiers at every shifted height,
    count_by_argument raises NonIntegerWindingError, not
    ContourNearZeroError, and ``zeros`` still exits 1 with no cache."""
    monkeypatch.setattr(zeros, "_backlund_count", lambda *args: mpf("0.5"))
    with pytest.raises(NonIntegerWindingError, match="0.5 is not near an integer"):
        count_by_argument(50)
    cache = tmp_path / "zeros.cache"
    assert cli.main(["zeros", "--t-max", "50", "--cache", str(cache)]) == 1
    assert not cache.exists()


def _count_calls(monkeypatch, name: str) -> list:
    """First arguments of every call the zeros module makes to ``name``."""
    module = sys.modules["zetakit.zeros"]
    calls = []
    raw = getattr(module, name)

    def counting(x, *rest):
        calls.append(x)
        return raw(x, *rest)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_count_by_argument_cost_does_not_grow_with_height(monkeypatch):
    """Backlund's formula integrates one fixed half of the top edge, so a
    count costs the same number of float pairs at every height, and the
    float tier settles both counts without a 12-digit evaluation."""
    pairs = _count_calls(monkeypatch, "em_pair_float")
    raw = _count_calls(monkeypatch, "zeta_and_deriv_raw")
    logderiv = _count_calls(monkeypatch, "zeta_logderiv")
    assert count_by_argument(100) == 29
    at_100 = len(pairs)
    assert 0 < at_100 <= 100
    pairs.clear()
    assert count_by_argument(1000) == 649
    assert len(pairs) == at_100
    assert raw == [] and logderiv == []


def test_count_by_argument_mpmath_cost_does_not_grow_with_height(monkeypatch):
    """Where the float tier rejects, the 12-digit count costs the same
    number of zeta evaluations at every height."""
    monkeypatch.setattr(zeros, "em_pair_float", shared.nan_pair)
    raw = _count_calls(monkeypatch, "zeta_and_deriv_raw")
    logderiv = _count_calls(monkeypatch, "zeta_logderiv")
    assert count_by_argument(100) == 29
    at_100 = len(raw) + len(logderiv)
    assert at_100 <= 100
    raw.clear()
    logderiv.clear()
    assert count_by_argument(1000) == 649
    assert len(raw) + len(logderiv) == at_100


def test_newton_refinement_makes_no_hardy_Z_call(monkeypatch):
    """Newton starts at the bracket midpoint: refining the scan brackets of
    zeros 1-5 signs no point of them again, on any tier."""
    brackets = zeros._scan_brackets(35.0, 0.25 / math.log(35.0))
    assert len(brackets) == 5
    calls = _count_calls(monkeypatch, "_grid_sign")
    for (a, b), t_ref in zip(brackets, T_FIRST_FIVE):
        t, _ = zeros._newton_refine(a, b, CTX)
        with CTX.wp():
            assert abs(t - mpf(t_ref)) < mpf(10) ** -25
    assert calls == []


def test_neighbor_distance_walks_no_lower_than_the_floor(monkeypatch):
    """No zero lies below t = 14.13, so the gap walk from zero 1 signs no
    height below HEIGHT_MIN, and finds the gap to zero 2 all the same, bit
    for bit as a walk down to t = 0.5 did, from the double nearest zero 1
    and from the one an ulp below it."""
    calls = _count_calls(monkeypatch, "_grid_sign")
    for t1, gap in ((14.134725141734695, 6.84314868172917), (14.134725141734693, 6.843148681729172)):
        calls.clear()
        assert zeros.neighbor_distance(t1) == gap, t1
        assert calls and min(calls) >= HEIGHT_MIN, min(calls)


def _mpmath_zero(n: int, ctx: PrecisionContext) -> tuple:
    """(t, stored |zeta'(1/2 + it)|) of zero n from mpmath, outside the
    package: mp.zetazero(n) rounded to ctx.bits, and |zeta'| at that t,
    taken at 64 more bits and rounded to ctx.bits."""
    with mp.workprec(ctx.bits + 64):
        t_ref = mp.zetazero(n).imag
    with ctx.wp():
        t = +t_ref
    with mp.workprec(ctx.bits + 64):
        zp = abs(mp.zeta(mpc(0.5, t), derivative=1))
    with ctx.wp():
        return t, zeros._stored(+zp, ctx)


def _refined(t, zp, ctx: PrecisionContext) -> tuple:
    """A _newton_refine result as _mpmath_zero gives it."""
    with ctx.wp():
        return t, zeros._stored(abs(zp), ctx)


def test_float_newton_seed_saves_jets_and_keeps_the_ordinate(monkeypatch):
    """Seeded by double-precision Newton, refinement of zeros 1-5 takes one
    Euler-Maclaurin jet a zero; from the bracket midpoint, with the float
    tier rejecting, it takes two to four.  Both give mpmath's t and stored
    |zeta'(rho)|, and neither takes a zeta_and_deriv_raw pair."""
    brackets = zeros._scan_brackets(35.0, 0.25 / math.log(35.0))
    assert len(brackets) == 5
    refs = [_mpmath_zero(n, CTX) for n in range(1, 6)]
    jets = _count_calls(monkeypatch, "zeta_jet")
    raw = _count_calls(monkeypatch, "zeta_and_deriv_raw")
    for seeded in (True, False):
        if not seeded:
            monkeypatch.setattr(zeros, "em_pair_float", shared.nan_pair)
        for n, ((a, b), ref) in enumerate(zip(brackets, refs), start=1):
            jets.clear()
            assert _refined(*zeros._newton_refine(a, b, CTX), CTX) == ref, f"zero {n}"
            assert (len(jets) == 1) if seeded else (2 <= len(jets) <= 4), f"zero {n}: {len(jets)}"
    assert raw == []


@pytest.mark.parametrize("digits, jets", [(10, 1), (60, 1), (200, 2)])
def test_refinement_takes_the_planned_jets(digits, jets, monkeypatch):
    """Zero 1 takes one jet at 10 and 60 digits, and at 200 digits the two
    lower-order jets that cost less than one of high order; no
    Euler-Maclaurin pair in either case."""
    jets_taken = _count_calls(monkeypatch, "zeta_jet")
    raw = _count_calls(monkeypatch, "zeta_and_deriv_raw")
    zeros._newton_refine(14.1, 14.15, shared.ctx_digits(digits))
    assert len(jets_taken) == jets and raw == []


@pytest.mark.parametrize("shift, n_jets", [(1e-6, 2), (1e-3, 3)])
def test_seed_off_the_zero_takes_more_jets(shift, n_jets, monkeypatch):
    """A double pair shifted in t puts the accepted seed that far from zero
    1.  The first jet's estimate then rejects, and jets of the second order
    follow at each root until one accepts: two in all at 1e-6, three at
    1e-3.  The t and the stored |zeta'(rho)| are mpmath's."""
    pair = zeros.em_pair_float
    monkeypatch.setattr(zeros, "em_pair_float", lambda s: pair(s - 1j * shift))
    jets = _count_calls(monkeypatch, "zeta_jet")
    raw = _count_calls(monkeypatch, "zeta_and_deriv_raw")
    got = _refined(*zeros._newton_refine(14.1, 14.15, CTX), CTX)
    assert len(jets) == n_jets and raw == []
    assert got == _mpmath_zero(1, CTX)


def test_newton_converges_from_worst_case_midpoints_near_1000(monkeypatch):
    """Zeros 646-649 are found, correctly rounded, when the zero sits
    0.499 of a T = 1000 scan step off the bracket midpoint on either side,
    from the double seed and, with the float tier rejecting, from the
    midpoint itself; ordinates come from mpmath, outside the package."""
    step = 0.25 / math.log(1000.0)
    with mp.workprec(CTX.bits + 64):
        ts = [mp.zetazero(n).imag for n in range(646, 650)]
    for seeded in (True, False):
        if not seeded:
            monkeypatch.setattr(zeros, "em_pair_float", shared.nan_pair)
        for n, t_ref in zip(range(646, 650), ts):
            with CTX.wp():
                t_exact = +t_ref
            for side in (1, -1):
                mid = float(t_ref) + side * 0.499 * step
                t, _ = zeros._newton_refine(mid - step / 2, mid + step / 2, CTX)
                assert t == t_exact, f"zero {n}, side {side}, seeded {seeded}"


def _constant_jet(v, dv):
    """A zeta_jet whose every jet is (v, dv, 0, ...), wherever it is taken."""
    return lambda s, order, ctx: [mpc(v), mpc(dv)] + [mpc(0)] * (order - 1)


@pytest.mark.parametrize("v, dv", [(1, 0), (1j, 1)], ids=["flat-derivative", "off-basin"])
def test_newton_exits_raise_no_convergence(v, dv, monkeypatch):
    """A jet whose zeta' is 0, or whose first step Im(zeta/zeta') = 1
    leaves the 0.05 basin, makes refinement raise NoConvergenceError, the
    CLI's exit-1 path, after that one jet, and never ZeroDivisionError."""
    monkeypatch.setattr(zeros, "zeta_jet", _constant_jet(v, dv))
    jets = _count_calls(monkeypatch, "zeta_jet")
    with pytest.raises(NoConvergenceError):
        zeros._newton_refine(14.1, 14.15, CTX)
    assert len(jets) == 1


def test_jets_that_make_no_progress_raise_after_two(monkeypatch):
    """Jets whose root lies 1e-3 from their centre, wherever they are
    taken, each reject their truncation estimate, and the second steps no
    less than the first: refinement raises NoConvergenceError after two
    jets."""
    monkeypatch.setattr(zeros, "zeta_jet", _constant_jet(1e-3j, 1))
    jets = _count_calls(monkeypatch, "zeta_jet")
    with pytest.raises(NoConvergenceError, match="no progress"):
        zeros._newton_refine(14.1, 14.15, CTX)
    assert len(jets) == 2


def test_flat_float_derivative_rejects_the_seed(monkeypatch):
    """A float pair whose zeta' is 0 is a rejection of the double seed, not
    a ZeroDivisionError: refinement then returns what it returns with the
    float tier rejecting."""
    monkeypatch.setattr(zeros, "em_pair_float", lambda s: (1 + 0j, 0j))
    flat = zeros._newton_refine(14.1, 14.15, CTX)
    monkeypatch.setattr(zeros, "em_pair_float", shared.nan_pair)
    assert flat == zeros._newton_refine(14.1, 14.15, CTX)


def test_rvm_estimate_reference_points():
    with mp.workdps(30):
        # Closed form at T = 2*pi: the main terms cancel to -1/8.
        assert abs(rvm_estimate(2 * mp.pi) + mpf("0.125")) < mpf(10) ** -9
        assert abs(rvm_estimate(100) - mpf("29.0023440")) < mpf(10) ** -6
    with pytest.raises(RangeError):
        rvm_estimate(1)


def test_multiplicity_probe_counts(monkeypatch):
    """16 float pairs, and no 12-digit evaluation, while the enclosed zero
    sits well inside the circle."""
    pairs = _count_calls(monkeypatch, "em_pair_float")
    calls = _count_calls(monkeypatch, "zeta_logderiv")
    records, _ = shared.zeros_to(35)
    rho1 = records[0].rho
    for r in (mpf(1) / 32, mpf(1) / 4):
        pairs.clear()
        assert multiplicity_probe(rho1, r) == 1
        assert len(pairs) == 16
    # Disk well away from any zero or pole.
    pairs.clear()
    assert multiplicity_probe(mpc(mpf(1) / 2, 16.5), mpf(1) / 32) == 0
    assert len(pairs) == 16
    assert calls == []


def test_multiplicity_probe_mpmath_counts(monkeypatch):
    """Where the float tier rejects, the 12-digit probe takes 16 nodes
    while the enclosed zero sits well inside the circle."""
    monkeypatch.setattr(zeros, "em_pair_float", shared.nan_pair)
    calls = _count_calls(monkeypatch, "zeta_logderiv")
    records, _ = shared.zeros_to(35)
    rho1 = records[0].rho
    for r in (mpf(1) / 32, mpf(1) / 4):
        calls.clear()
        assert multiplicity_probe(rho1, r) == 1
        assert len(calls) == 16
    assert multiplicity_probe(mpc(mpf(1) / 2, 16.5), mpf(1) / 32) == 0


@pytest.mark.parametrize("n", [16, 32, 64])
def test_float_ring_nests_in_the_ring_of_twice_its_nodes(n):
    """Node 2j of the probe's ring of 2n nodes is node j of its ring of n,
    bit for bit, so a doubled probe reads its even nodes' terms from the
    ring before."""
    assert zeros._float_ring(2 * n)[::2] == zeros._float_ring(n)


def test_multiplicity_probe_nodes_grow_as_the_zero_nears_the_circle(monkeypatch):
    """On the 12-digit path the node count doubles as the enclosed zero
    nears the circle, and at 128 nodes a winding still not within 0.1 of
    an integer is an error."""
    monkeypatch.setattr(zeros, "em_pair_float", shared.nan_pair)
    calls = _count_calls(monkeypatch, "zeta_logderiv")
    with CTX.wp():
        t1 = mpf(T_FIRST_FIVE[0])
    assert multiplicity_probe(mpc(0.5, t1 + mpf("0.2")), mpf(1) / 4) == 1
    assert 16 < len(calls) < 128
    calls.clear()
    assert multiplicity_probe(mpc(0.5, t1 + mpf("0.225")), mpf(1) / 4) == 1
    assert len(calls) == 128
    calls.clear()
    with pytest.raises(NonIntegerWindingError):
        multiplicity_probe(mpc(0.5, t1 + mpf("0.2495")), mpf(1) / 4)
    assert len(calls) == 128


def test_audit_probes_take_16_nodes_to_100(monkeypatch):
    """Every zero to T = 100 winds once at the audit's radius, and every
    probe is settled by the float tier's 16 nodes, with no 12-digit
    evaluation."""
    records, _ = shared.zeros_to(100)
    assert len(records) == 29
    pairs = _count_calls(monkeypatch, "em_pair_float")
    calls = _count_calls(monkeypatch, "zeta_logderiv")
    audited = audit_zeros(records, CTX, workers=1)
    assert [rec.winding for rec in audited] == [1] * 29
    assert len(pairs) == 16 * 29
    assert calls == []


def test_audit_probes_wind_once_near_1000():
    """Zeros 646-649 wind once at the audit's radius; ordinates and
    |zeta'| come from mpmath, outside the package."""
    with mp.workdps(20):
        ts = [mp.zetazero(n).imag for n in range(645, 651)]
        zps = [abs(mp.zeta(mpc(0.5, t), derivative=1)) for t in ts]
    with CTX.wp():
        records = [
            zeros.ZeroRecord(n, +t, mpc(0.5, t), +zp, 0, STATUS_REFINED)
            for n, t, zp in zip(range(645, 651), ts, zps)
        ]
    audited = audit_zeros(records, CTX, workers=1)
    assert [rec.winding for rec in audited[1:-1]] == [1] * 4


def test_fast_tier_signs_the_scan_grid_below_30(monkeypatch):
    """Wherever the float Riemann-Siegel tier is trusted on the T = 100
    scan grid (at its finest refinement) below t = 30, its sign is that of
    mpmath's siegelz.  Only the other points cost a float Euler-Maclaurin
    Z, which signs each of them as siegelz does, and none costs a 12-digit
    zeta."""
    step = 0.25 / math.log(100.0) / 4
    grid = [10.0 + i * step for i in range(math.ceil(20 / step))]
    trusted = [t for t in grid if abs(hardy_Z_fast(t)) > 2 * rs_error_bound(t)]
    assert len(trusted) > 0.8 * len(grid)
    with mp.workdps(20):
        for t in trusted:
            assert (hardy_Z_fast(t) > 0) == (mp.siegelz(t) > 0), f"t={t}"
    pairs = _count_calls(monkeypatch, "em_pair_float")
    calls = _count_calls(monkeypatch, "zeta_jet")
    signs = {t: zeros._grid_sign(t) for t in grid}
    assert len(pairs) == len(grid) - len(trusted)
    assert calls == []
    with mp.workdps(20):
        for t in pairs:
            assert signs[t.imag] == (1 if mp.siegelz(t.imag) > 0 else -1), f"t={t.imag}"


def test_grid_sign_falls_back_inside_twice_the_error_bound(monkeypatch):
    """A Riemann-Siegel value just inside 2 x rs_error_bound is not trusted:
    the scan signs that point by one float Euler-Maclaurin Z, or, where
    that tier rejects, by one 12-digit zeta rotated by theta_float, with
    the sign of Z there, not of the injected value.  Just outside, it is
    trusted."""
    for t in (20.5, 150.0, 250.0, 999.0):
        z = mp.siegelz(t)
        sign = 1 if z > 0 else -1
        inside = -sign * 2 * rs_error_bound(t) * (1 - 1e-9)
        monkeypatch.setattr(zeros, "hardy_Z_fast", lambda _t, v=inside: v)
        pairs = _count_calls(monkeypatch, "em_pair_float")
        calls = _count_calls(monkeypatch, "zeta_jet")
        assert zeros._grid_sign(t) == sign, t
        assert len(pairs) == 1 and not calls, t
        monkeypatch.undo()
        monkeypatch.setattr(zeros, "hardy_Z_fast", lambda _t, v=inside: v)
        monkeypatch.setattr(zeros, "em_pair_float", shared.nan_pair)
        calls = _count_calls(monkeypatch, "zeta_jet")
        assert zeros._grid_sign(t) == sign, t
        assert len(calls) == 1, t
        monkeypatch.undo()
        outside = -sign * 2 * rs_error_bound(t) * (1 + 1e-9)
        monkeypatch.setattr(zeros, "hardy_Z_fast", lambda _t, v=outside: v)
        calls = _count_calls(monkeypatch, "zeta_jet")
        assert zeros._grid_sign(t) == -sign, t
        assert not calls, t
        monkeypatch.undo()


def test_multiplicity_probe_radius_guard():
    with pytest.raises(RangeError):
        multiplicity_probe(mpc(0.5, 14.1), 0.3)
    with pytest.raises(RangeError):
        multiplicity_probe(mpc(0.5, 14.1), 0)


def test_audit_marks_zeros_simple():
    records, _ = shared.zeros_to(35)
    audited = audit_zeros(records, CTX, workers=shared.workers())
    assert len(audited) == len(records)
    for rec in audited:
        assert rec.status == STATUS_SIMPLE
        assert rec.winding == 1
        assert rec.zeta_prime_abs > mpf(10) ** -6


def test_small_batches_map_inline(monkeypatch):
    """Five zeros on eight workers are refined and audited inline: a
    worker is started only for at least _MIN_ITEMS_PER_WORKER items."""
    maps = []
    map_ordered = zeros.map_ordered

    def spy(fn, items, workers=1):
        maps.append((fn.__name__, len(items), workers))
        return map_ordered(fn, items, workers)

    monkeypatch.setattr(zeros, "map_ordered", spy)
    records, _ = scan_with_count(35, CTX, workers=8)
    audit_zeros(records, CTX, workers=8)
    assert maps == [("_refine_bracket_worker", 5, 1), ("_probe_worker", 5, 1)]
    sizes = [zeros._useful_workers(w, n) for w, n in ((8, 16), (8, 15), (2, 649), (1, 649))]
    assert sizes == [2, 1, 2, 1]


def test_density_report_flags_disagreement():
    records, n_winding = shared.zeros_to(35)
    clean = density_report(35, CTX, records=records, n_winding=n_winding)
    assert not clean.flagged
    assert clean.n_sign_changes == clean.n_winding == 5
    bad = density_report(35, CTX, records=records, n_winding=n_winding + 1)
    assert bad.flagged


def test_density_report_empty_range():
    report = density_report(10, CTX, records=[], n_winding=0)
    assert report.flagged
    assert report.ratio_simple == 0


def test_cache_round_trip(tmp_path):
    records, _ = shared.zeros_to(35)
    path = str(tmp_path / "zeros.cache")
    write_cache(path, records, CTX)
    digits, loaded = read_cache(path)
    assert digits == 30
    assert len(loaded) == len(records)
    with CTX.wp():
        for a, b in zip(records, loaded):
            assert a.index == b.index
            assert abs(a.t - b.t) < mpf(10) ** -32
            assert abs(a.zeta_prime_abs - b.zeta_prime_abs) < mpf(10) ** -32
            assert a.status == b.status


@pytest.mark.parametrize("golden", ["zeros", "zeros_d60", "zeros_d200"])
def test_refining_a_cached_ordinate_returns_its_bits(golden):
    """A cache written at some digits is a fixed point of refinement at
    those digits: refine_zero(record.t) gives back record.t bit for bit
    at every zero of the golden caches, to T = 31.5 at 30 digits and to
    T = 40 at 60 and 200 digits."""
    digits, records = read_cache(str(Path(__file__).parent / "golden" / f"{golden}.cache"))
    ctx = PrecisionContext.from_digits(digits)
    assert len(records) >= 4
    for rec in records:
        assert refine_zero(rec.t, ctx).t == rec.t, rec.index


def test_cache_header_validation(tmp_path):
    path = tmp_path / "bad.cache"
    path.write_text("# something else\n")
    with pytest.raises(CacheFormatError):
        read_cache(str(path))


@pytest.mark.parametrize("digits", [0, 3, 201])
def test_cache_header_digits_out_of_range(tmp_path, digits):
    path = tmp_path / "odd.cache"
    path.write_text(f"# zeta-zeros v1 digits={digits}\n1,14.13,0.79,0,refined\n")
    with pytest.raises(CacheFormatError, match=rf"holds digits={digits}, outside \[10, 200\]"):
        read_cache(str(path))


def test_cache_digits_must_match_the_requested_digits(tmp_path):
    records, _ = shared.zeros_to(35)
    path = str(tmp_path / "zeros.cache")
    write_cache(path, records, CTX)
    with pytest.raises(CacheFormatError, match="holds digits=30, run requested 20"):
        read_cache(path, 20)
    assert read_cache(path, 30)[0] == 30


def test_cache_field_validation(tmp_path):
    path = tmp_path / "bad2.cache"
    path.write_text("# zeta-zeros v1 digits=30\n1,14.13,0.79\n")
    with pytest.raises(CacheFormatError):
        read_cache(str(path))


def test_cache_monotonicity_validation(tmp_path):
    path = tmp_path / "bad3.cache"
    path.write_text(
        "# zeta-zeros v1 digits=30\n"
        "1,21.0,1.1,0,refined\n"
        "2,14.1,0.79,0,refined\n"
    )
    with pytest.raises(CacheFormatError):
        read_cache(str(path))
