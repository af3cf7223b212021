"""Laurent data for 1/zeta at a simple zero, computed two ways.

Route one inverts the Taylor series of zeta at the zero (ground truth
for the coefficients c_n), a_j = zeta^(j)(rho)/j! from one Euler-Maclaurin
jet of :func:`zetakit.zeta.zeta_jet`.  Route two takes the Mobius-weighted
partial sums

    sum_{k<=K} [ mu(k) log^n(k) k^(-rho)
                 - residue (log^(n+1)(k+1) - log^(n+1)(k)) / (n+1) ]
      = D_n(K) - residue log^(n+1)(K+1) / (n+1),

since the bridge terms telescope and log 1 = 0.  D_n(K) comes from
:func:`zetakit.mobius.dirichlet_partial`, which sieves mu up to about
2 K^(2/3) and recurses on the floor values of K by the hyperbola method,
in about K^(2/3) steps; where its error bound does not hold, the same
pass runs to K and sums every k <= K directly.  The bridge is added in
closed form at each checkpoint.
Their behavior as K grows is recorded as a diagnostic, never asserted:
convergence of that series on the critical line is an open matter, so
the artifact measures distances to the oracle coefficients and reports
oscillation instead.  The two routes are kept strictly separate.

:func:`build_expansion` is the one constructor of route one.  The
:class:`LaurentExpansion` it returns carries the coefficients past its
truncation, so :func:`tail_bound`, the residual sweep
:func:`residual_profile` and :func:`expansion_report` all read the one
expansion instead of rebuilding it.  The sweep is route one's check on
every run: it inverts the ring :func:`zetakit.zeta.zeta_ring` at rho, so
its 64 nodes at a zero take one Dirichlet jet at rho, 33 Euler-Maclaurin
tails and 31 chi, and it builds every truncation order from one pass of
partial sums per node.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

import mpmath as mp
from mpmath import mpc, mpf

from .errors import (
    OutsideDiskError,
    RangeError,
    SuspectZeroError,
    ZeroLeadingCoefficientError,
)
from .mobius import MobiusTable, checkpoint_ladder, dirichlet_partial
from .precision import PrecisionContext, cpow, to_decimal
from .series import build_partial_series
from .zeros import SIMPLICITY_FLOOR, neighbor_distance
from .zeta import inverse_zeta_value, ring_samples, zeta_jet, zeta_ring

DEFAULT_CHECKPOINTS = (10**3, 10**4, 10**5, 10**6)


class LaurentExpansion(NamedTuple):
    """Truncated Laurent expansion of 1/zeta at a simple zero rho.

    coeffs holds the first n_terms Taylor coefficients c_0, c_1, ... from
    the inversion oracle (n_terms = 0 keeps only the residue term); the
    mapping to the coefficient series under study is c_n = (-1)^n phi_n/n!.
    tail holds the computed coefficients past the truncation, from
    c_{n_terms} on.
    """

    rho: mpc
    residue: mpc
    coeffs: tuple
    radius: mpf
    tail: tuple

    @property
    def n_terms(self) -> int:
        return len(self.coeffs)

    def truncated(self, N: int) -> "LaurentExpansion":
        """The order-N expansion; the coefficients cut off go to the tail."""
        if not 0 <= N <= self.n_terms:
            raise RangeError(f"truncation {N} outside stored order {self.n_terms}")
        return self._replace(coeffs=self.coeffs[:N], tail=self.coeffs[N:] + self.tail)


def _check_simple(rho, zp, ctx: PrecisionContext) -> None:
    """Raise SuspectZeroError where zp = zeta'(rho) is at or below the
    simplicity floor: rho may then be a multiple zero."""
    with ctx.wp():
        if abs(zp) <= SIMPLICITY_FLOOR:
            raise SuspectZeroError(
                f"|zeta'({rho})| = {mp.nstr(abs(zp), 6)} is at or below the simplicity floor"
            )


def residue(rho, ctx: PrecisionContext) -> mpc:
    """1/zeta'(rho), the residue of 1/zeta at a simple zero, bit for bit
    :func:`build_expansion`'s: zeta'(rho) comes from the same order-13 jet."""
    zp = taylor_at_zero(rho, 12, ctx)[0]
    _check_simple(rho, zp, ctx)
    with ctx.wp():
        return 1 / zp


def taylor_at_zero(rho, N: int, ctx: PrecisionContext) -> list:
    """Taylor coefficients a_1..a_{N+1} of zeta at the zero rho.

    a_j = zeta^(j)(rho)/j!, from one jet of :func:`zetakit.zeta.zeta_jet`
    of order N + 1; the constant term is dropped since zeta(rho) vanishes
    to working precision there.

    A jet's error is relative in each order, with no 1/R^k amplification
    as on a Cauchy ring of radius R, so it needs no inner precision: at
    order 13 every a_j was within 10^-(digits+8) relative of mpmath's
    zeta(rho, derivative=j)/j! at zeros 1, 27 and 649 (30 and 60 digits)
    and 1, 5 and 27 (200 digits).
    """
    if not 0 <= N <= 12:
        raise RangeError("taylor_at_zero supports N <= 12")
    jet = zeta_jet(rho, N + 1, ctx)
    with ctx.wp():
        return [jet[j] / mp.factorial(j) for j in range(1, N + 2)]


def invert_series(a: list, N: int):
    """(residue, [c_0..c_{N-1}]): formal reciprocal of x*(a_1 + a_2 x + ...).

    Standard power-series reciprocal recursion at the current working
    precision: b_0 = 1/a_1, b_n = -(1/a_1) sum_{j=1..n} a_{j+1} b_{n-j},
    then residue = b_0 and c_n = b_{n+1}.
    """
    if N < 0 or len(a) < 1:
        raise RangeError("invert_series needs N >= 0 and a_1 present")
    a0 = a[0]
    if a0 == 0:
        raise ZeroLeadingCoefficientError("a_1 = 0: zero is not simple")
    inv = 1 / a0
    b = [inv]
    for n in range(1, N + 1):
        acc = 0
        for j in range(1, n + 1):
            if j < len(a):
                acc += a[j] * b[n - j]
        b.append(-inv * acc)
    return b[0], b[1:]


def v_term(k: int, s, rho, residue_val, table: MobiusTable, ctx: PrecisionContext) -> mpc:
    """mu(k) k^(-s) + (residue/(s-rho)) ((k+1)^(-(s-rho)) - k^(-(s-rho))),
    with mu(k) read from the sieve table."""
    mu = table.mobius(k)
    with ctx.wp():
        s = mpc(s)
        rho = mpc(rho)
        w = s - rho
        if w == 0:
            raise RangeError("v_term is undefined at s = rho")
        term = mpc(0)
        if mu != 0:
            term = mu * cpow(k, s, ctx)
        bridge = (mpc(residue_val) / w) * (cpow(k + 1, w, ctx) - cpow(k, w, ctx))
        return term + bridge


def phi_series_multi(rho, ns, checkpoints, ctx: PrecisionContext, residue_val=None) -> dict:
    """PartialSumSeries of the coefficient series for each log power n.

    The raw value at checkpoint K is D_n(K) - residue ln^(n+1)(K+1)/(n+1),
    with D_n from :func:`zetakit.mobius.dirichlet_partial`, which also
    validates n and K <= SIEVE_CAP.  The second term is the per-k bridge
    -residue (ln^(n+1)(k+1) - ln^(n+1)(k))/(n+1) summed over k <= K in
    closed form: the sum telescopes and ln 1 = 0.
    """
    checkpoints = checkpoint_ladder(checkpoints)
    sums = dirichlet_partial(rho, ns, checkpoints, ctx)
    if residue_val is None:
        residue_val = residue(rho, ctx)
    with ctx.wp():
        res = mpc(residue_val)
        out = {}
        for n, D in sums.items():
            raw = [d - res * mp.ln(K + 1) ** (n + 1) / (n + 1) for d, K in zip(D, checkpoints)]
            out[n] = build_partial_series(checkpoints, raw)
        return out


def build_expansion(rho, N: int, ctx: PrecisionContext, neighbor_ts=None) -> LaurentExpansion:
    """Order-N Laurent expansion of 1/zeta at the simple zero rho.

    Validity radius is 0.8 x min(distance to neighboring zeros, |rho-1|);
    neighbors come from supplied ordinates when available, otherwise
    from a local sign-change walk.  Up to three coefficients past the
    truncation are kept in ``tail`` for :func:`tail_bound`.  The Taylor
    data come from one jet of order 13 whatever N is: a jet's last bits
    depend on its order, so the expansion of order N is bit for bit the
    one of order 12 truncated.  A zeta'(rho) at or below the simplicity
    floor raises SuspectZeroError, as in :func:`residue`.
    """
    if not 0 <= N <= 12:
        raise RangeError("expansion order limited to 0 <= N <= 12")
    with ctx.wp():
        rho_c = mpc(rho)
        t_val = rho_c.imag
        dist = None
        if neighbor_ts:
            gaps = [abs(mpf(u) - t_val) for u in neighbor_ts]
            gaps = [g for g in gaps if g > mpf("1e-6")]
            if gaps:
                dist = min(gaps)
        if dist is None:
            dist = mpf(repr(neighbor_distance(float(t_val))))
        radius = mpf("0.8") * min(dist, abs(rho_c - 1))
    M = min(N + 3, 12)
    a = taylor_at_zero(rho_c, 12, ctx)
    _check_simple(rho_c, a[0], ctx)
    with ctx.wp():
        res, c = invert_series(a, M)
    return LaurentExpansion(rho_c, res, tuple(c[:N]), radius, tuple(c[N:]))


def laurent_eval(s, exp: LaurentExpansion) -> mpc:
    """residue/(s-rho) + sum c_n (s-rho)^n inside the validity disk.

    Arithmetic runs at the ambient precision, so evaluate under the same
    context the expansion was built with.  The input is not re-rounded:
    passing rho itself hits the exact-pole guard rather than a rounded
    offset of it.
    """
    if not isinstance(s, (mpf, mpc)):
        s = mpc(s)
    return _laurent_sums(exp, _disk_offset(s, exp))[-1]


def _disk_offset(s, exp: LaurentExpansion):
    """s - rho, checked to lie inside the validity disk and off the pole."""
    h = s - exp.rho
    ah = abs(h)
    if not 0 < ah < exp.radius:
        raise OutsideDiskError(f"|s-rho| = {mp.nstr(ah, 6)} outside disk radius {mp.nstr(exp.radius, 6)}")
    return h


def _laurent_sums(exp: LaurentExpansion, h) -> list:
    """[residue/h + sum_{n<N} c_n h^n for N = 0..n_terms], one forward pass."""
    sums, hn = [exp.residue / h], mpc(1)
    for c in exp.coeffs:
        sums.append(sums[-1] + c * hn)
        hn *= h
    return sums


def tail_bound(exp: LaurentExpansion, r) -> mpf:
    """Geometric estimate of sum_{n>=N} |c_n| r^n, the tail left by the
    order-N expansion ``exp`` (N = exp.n_terms).

    Models |c_n| <= B/radius^n with B calibrated on the computed
    coefficients c_N..c_{N+2} of ``exp.tail``, or on all of them when the
    tail holds none of those; the result is B q^N/(1-q), q = r/radius.
    The validity radius understates the distance to the nearest
    singularity, so q overstates the actual term ratio.  Calibrated on
    the same expansion whose residual it bounds, it is no independent
    check: over 5823 checks at zeros 2-648 (N = 0-8, 64 nodes) the
    largest ratio residual/bound was 0.99968 (zero 73, N = 2).
    """
    r = mpf(r)
    radius = mpf(exp.radius)
    q = r / radius
    if not 0 < q < 1:
        raise RangeError("tail bound needs 0 < r < radius")
    N = exp.n_terms
    B = mpf(0)
    for j, c in enumerate(exp.tail[:3], start=N):
        B = max(B, abs(c) * radius**j)
    if B == 0:
        B = max(abs(c) * radius**j for j, c in enumerate(exp.coeffs + exp.tail))
    return B * q**N / (1 - q)


def residual_profile(exp: LaurentExpansion, r, N_list, samples: int, ctx: PrecisionContext) -> dict:
    """{N: max |1/zeta - exp truncated to order N|} over ``samples`` points
    of the circle |s-rho| = r, for every N in N_list from one pass of
    partial sums per node, with the bits of :func:`laurent_eval`.  The
    1/zeta values invert :func:`zetakit.zeta.zeta_ring` at rho: for 64
    samples, 33 Euler-Maclaurin tails on one Dirichlet jet at rho, and 31
    chi.  Each order's largest difference is picked by its exact squared
    norm (see :func:`_largest`), of which ``abs`` is a monotone rounding,
    so one ``abs`` an order gives the max of them all."""
    if samples < 16:
        raise RangeError("residual sweep needs at least 16 samples")
    N_list = sorted(set(int(N) for N in N_list))
    if not N_list or N_list[0] < 0:
        raise RangeError("truncation orders must be nonempty and >= 0")
    top = exp.truncated(N_list[-1])
    with ctx.wp():
        r = mpf(r)
        if not 0 < r < exp.radius:
            raise OutsideDiskError(f"sweep radius {mp.nstr(r, 6)} outside disk radius {mp.nstr(exp.radius, 6)}")
        points = ring_samples(lambda h: exp.rho + h, r, samples)
        rows = [(inverse_zeta_value(zv, s, ctx), _laurent_sums(top, _disk_offset(s, exp)))
                for s, zv in zip(points, zeta_ring(exp.rho, r, samples, ctx))]
        return {N: abs(_largest([target - sums[N] for target, sums in rows])) for N in N_list}


def _largest(values: list) -> mpc:
    """The first of ``values`` with the largest |z|^2, compared exactly:
    with each part m 2^e and E the least exponent of a nonzero part, |z|^2
    is the int sum of m^2 << 2 (e - E) over the parts of z, times 4^E."""
    parts = [x.man_exp for z in values for x in (z.real, z.imag)]
    E = min((e for m, e in parts if m), default=0)
    squares = [m * m << 2 * (e - E) if m else 0 for m, e in parts]
    norms = list(map(add, squares[::2], squares[1::2]))
    return values[norms.index(max(norms))]


# ----------------------------------------------------------------------
# Report assembly (consumed by the CLI)
# ----------------------------------------------------------------------


def _cplx_str(z, ctx: PrecisionContext) -> dict:
    z = mpc(z)
    return {"re": to_decimal(z.real, ctx), "im": to_decimal(z.imag, ctx)}


def expansion_report(index: int, exp: LaurentExpansion, ctx: PrecisionContext, k_max: int) -> dict:
    """JSON-ready expansion report: oracle coefficients, the residual
    ladder of ``exp`` on 64 points of |s-rho| = min(1/32, radius/2), and
    the phi_0, phi_1 diagnostics at the DEFAULT_CHECKPOINTS up to k_max
    (k_max itself if none is).  All numerics decimal strings."""
    with ctx.wp():
        r = min(mpf(1) / 32, exp.radius / 2)
    residuals = residual_profile(exp, r, range(exp.n_terms + 1), 64, ctx)
    with ctx.wp():
        report = {
            "index": index,
            "rho": _cplx_str(exp.rho, ctx),
            "residue": _cplx_str(exp.residue, ctx),
            "radius": to_decimal(exp.radius, ctx),
            "n_terms": exp.n_terms,
            "coeffs": [_cplx_str(cn, ctx) for cn in exp.coeffs],
            "residual_radius": to_decimal(r, ctx),
            "residuals": {str(N): to_decimal(v, ctx) for N, v in residuals.items()},
            "phi_diagnostics": {},
        }
    checkpoints = [K for K in DEFAULT_CHECKPOINTS if K <= k_max] or [k_max]
    diag = phi_series_multi(exp.rho, (0, 1), checkpoints, ctx, residue_val=exp.residue)
    with ctx.wp():
        for n, series in diag.items():
            # oracle coefficient under the c_n = (-1)^n phi_n / n! mapping
            oracle = exp.coeffs[n] if n < len(exp.coeffs) else None
            dist = []
            if oracle is not None:
                fact = mp.factorial(n)
                for v in series.smoothed:
                    mapped = (-1) ** n * v / fact
                    dist.append(to_decimal(abs(mapped - oracle), ctx))
            report["phi_diagnostics"][str(n)] = {
                "checkpoints": list(series.checkpoints),
                "raw": [_cplx_str(v, ctx) for v in series.raw],
                "smoothed": [_cplx_str(v, ctx) for v in series.smoothed],
                "oscillation": to_decimal(series.oscillation, ctx),
                "distance_to_oracle": dist,
            }
    return report
