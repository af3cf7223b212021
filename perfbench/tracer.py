"""Per-layer timing of zetakit from outside the program.

``install()`` replaces every module attribute of ``zetakit`` that binds a
public function with a timing wrapper.  Modules import names directly
(``zeros.hardy_Z``, ``laurent.taylor_ring``, ...), so each binding is
replaced, and one wrapper serves every binding of the same function.
Each call records a span ``[name, start, end, parent, tag]``; the hot
per-term ``KahanComplexSum.add`` is only counted and timed in aggregate.

``map_ordered`` gets a wrapper that runs each item under a fresh
recorder, in the worker process or inline, and returns the item's spans
with its result.  The parent appends them in submission order under an
``item:<fn>`` span, so the merged trace does not depend on scheduling.

Nothing is installed unless ``install()`` is called: untraced runs import
only the program.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
import types

_perf = time.perf_counter

MODULES = ("zeta", "zeros", "laurent", "series", "mobius", "stieltjes",
           "precision", "parallel", "cli")
HOT = {"series.KahanComplexSum.add": ("zetakit.series", "KahanComplexSum", "add")}

_rec = None


class Recorder:
    """Spans of one process (or of one map_ordered item)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, t0, t1, parent index or -1, tag]
        self.stack: list[int] = []
        self.hot: dict[str, list] = {name: [0, 0.0] for name in HOT}
        self.hot_child: dict[int, float] = {}  # span index -> aggregated hot time inside it


def _t_bucket(args, kwargs):
    t = abs(float(getattr(args[0] if args else kwargs["s"], "imag", 0)))
    return "t-lo" if t < 100 else ("t-mid" if t < 400 else "t-hi")


def _ctx_digits(args, kwargs):
    ctx = args[1] if len(args) > 1 else kwargs["ctx"]
    return "d12" if ctx.target_digits == 12 else "full"


def _sieve_limit(args, kwargs):
    return int(args[0] if args else kwargs["N"])


def _last_checkpoint(args, kwargs):
    return int(list(args[2] if len(args) > 2 else kwargs["checkpoints"])[-1])


TAGGERS = {
    "zeta.zeta": _t_bucket,
    "zeta.hardy_Z": _ctx_digits,
    "mobius.sieve_mobius": _sieve_limit,
    "laurent.phi_series_multi": _last_checkpoint,
}


def _wrap(name, fn):
    tagger = TAGGERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = _rec
        tag = tagger(args, kwargs) if tagger else None
        stack = rec.stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, tag]
        stack.append(len(rec.spans))
        rec.spans.append(span)
        span[1] = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = _perf()
            stack.pop()

    return traced


def _wrap_hot(name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        t0 = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _perf() - t0
            rec = _rec
            agg = rec.hot[name]
            agg[0] += 1
            agg[1] += dt
            if rec.stack:
                top = rec.stack[-1]
                rec.hot_child[top] = rec.hot_child.get(top, 0.0) + dt

    return traced


def _traced_item(fn, item):
    """Run one map_ordered item under its own recorder; return its spans."""
    global _rec
    install()
    outer, _rec = _rec, Recorder()
    t0 = _perf()
    try:
        result = fn(item)
        t1 = _perf()
        return result, (_rec.spans, _rec.hot, _rec.hot_child, t0, t1, os.getpid())
    finally:
        _rec = outer


def _wrap_map_ordered(fn):
    @functools.wraps(fn)
    def traced(work, items, workers=1):
        rec = _rec
        items = list(items)
        eff = 1 if workers <= 1 or len(items) <= 1 else min(workers, len(items))
        parent = rec.stack[-1] if rec.stack else -1
        span = [
            "parallel.map_ordered", 0.0, 0.0, parent,
            (getattr(work, "__name__", "fn"), len(items), eff),
        ]
        me = len(rec.spans)
        rec.spans.append(span)
        span[1] = _perf()
        packed = fn(functools.partial(_traced_item, work), items, workers)
        span[2] = _perf()
        results = []
        for result, (spans, hot, hot_child, t0, t1, pid) in packed:
            item = len(rec.spans)
            rec.spans.append([f"item:{span[4][0]}", t0, t1, me, "remote" if pid != os.getpid() else "inline"])
            base = len(rec.spans)
            for name, s0, s1, par, tag in spans:
                rec.spans.append([name, s0, s1, item if par < 0 else par + base, tag])
            for name, (n, dt) in hot.items():
                rec.hot[name][0] += n
                rec.hot[name][1] += dt
            for idx, dt in hot_child.items():
                rec.hot_child[idx + base] = rec.hot_child.get(idx + base, 0.0) + dt
            results.append(result)
        return results

    return traced


def install() -> None:
    """Wrap every public zetakit function binding; idempotent per process."""
    global _rec
    if _rec is not None:
        return
    _rec = Recorder()
    mods = [importlib.import_module(f"zetakit.{m}") for m in MODULES]
    mods.append(importlib.import_module("zetakit"))
    wrappers: dict[int, object] = {}
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            home = value.__module__
            if not home.startswith("zetakit."):
                continue
            key = id(value)
            if key not in wrappers:
                name = f"{home.split('.', 1)[1]}.{value.__qualname__}"
                wrappers[key] = (
                    _wrap_map_ordered(value) if name == "parallel.map_ordered" else _wrap(name, value)
                )
            setattr(mod, attr, wrappers[key])
    for name, (modname, cls, meth) in HOT.items():
        klass = getattr(sys.modules[modname], cls)
        setattr(klass, meth, _wrap_hot(name, getattr(klass, meth)))


# ----------------------------------------------------------------------
# Reduction of one process's spans to additive totals
# ----------------------------------------------------------------------

# (ancestor, descendant) pairs whose descendant calls are counted
NESTED = (
    ("zeta.taylor_ring", "zeta.zeta"),
    ("stieltjes.bound_check", "zeta.zeta"),
    ("zeros.count_by_argument", "zeta.zeta_and_deriv_raw"),
    ("zeros.multiplicity_probe", "zeta.zeta_and_deriv_raw"),
)
_REFINES = ("item:_refine_bracket_worker", "zeros.refine_zero")


def _calibrate(n: int = 20000) -> tuple[float, float]:
    """Seconds that a span wrapper and a hot-call wrapper add to one call.

    Timed on a no-op function, best of three, under a scratch recorder.
    """
    global _rec
    outer, _rec = _rec, Recorder()

    def noop():
        return None

    def per_call(fn):
        best = float("inf")
        for _ in range(3):
            t0 = _perf()
            for _ in range(n):
                fn()
            best = min(best, _perf() - t0)
        return best / n

    try:
        base = per_call(noop)
        return (max(per_call(_wrap("calibration", noop)) - base, 0.0),
                max(per_call(_wrap_hot(next(iter(HOT)), noop)) - base, 0.0))
    finally:
        _rec = outer


def summarize(wall_s: float, import_s: float = 0.0) -> dict:
    """Additive totals of the active recorder's spans.

    ``wall_s`` is the traced process's own window; the part of it that no
    top-level span covers is reported as unattributed.  The tracing
    overhead is estimated as spans and hot calls times their calibrated
    wrapper cost, against the busy time of this process and its workers:
    on a shared machine the difference between a traced and an untraced
    run is lost in the run-to-run noise.
    """
    span_cost, hot_cost = _calibrate()
    spans = _rec.spans
    n = len(spans)
    child = [0.0] * n
    for i, (_, t0, t1, par, tag) in enumerate(spans):
        if par >= 0 and tag != "remote":
            child[par] += t1 - t0
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    tagged: dict[str, list] = {}
    nested = {pair: 0 for pair in NESTED}
    ring_with_zeta: set[int] = set()
    newton_evals = 0
    items: dict[str, list] = {}
    maps = [0, 0, 0.0, 0.0, 0.0]  # calls, items, wall, item busy, wall x workers
    terms = 0
    sieve_limit = 0
    root = 0.0
    remote = 0.0
    for i, (name, t0, t1, par, tag) in enumerate(spans):
        dur = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child[i] - _rec.hot_child.get(i, 0.0)
        if par < 0:
            root += dur
        if name in ("zeta.zeta", "zeta.hardy_Z"):
            key = f"{name}.{tag}"
            agg = tagged.setdefault(key, [0, 0.0])
            agg[0] += 1
            agg[1] += dur
        elif name.startswith("item:"):
            items.setdefault(name, []).append(dur)
            if tag == "remote":
                remote += dur
        elif name == "parallel.map_ordered":
            _, n_items, eff = tag
            maps[0] += 1
            maps[1] += n_items
            maps[2] += dur
            maps[4] += dur * eff
        elif name == "laurent.phi_series_multi":
            terms += tag
        elif name == "mobius.sieve_mobius":
            sieve_limit = max(sieve_limit, tag)
        if par >= 0 and spans[par][0] == "parallel.map_ordered":
            maps[3] += dur
        # walk the ancestors once for every nested count
        full_hardy = name == "zeta.hardy_Z" and tag == "full"
        nearest_ring = True
        a = par
        while a >= 0:
            aname = spans[a][0]
            if (aname, name) in nested:
                nested[(aname, name)] += 1
            if aname == "zeta.taylor_ring" and name == "zeta.zeta" and nearest_ring:
                ring_with_zeta.add(a)
                nearest_ring = False
            if full_hardy and aname in _REFINES:
                newton_evals += 1
                full_hardy = False
            a = spans[a][3]
    ring_calls = calls.get("zeta.taylor_ring", 0)
    return {
        "calls": calls,
        "busy": busy,
        "self": self_s,
        "tagged": tagged,
        "nested": {f"{a}>{d}": v for (a, d), v in nested.items()},
        "ring_hits": ring_calls - len(ring_with_zeta),
        "newton_evals": newton_evals,
        "items": items,
        "maps": maps,
        "terms": terms,
        "sieve_limit": sieve_limit,
        "hot": {name: list(v) for name, v in _rec.hot.items()},
        "unattributed": max(0.0, wall_s - root),
        "import_s": [import_s],
        "overhead": n * span_cost + sum(c for c, _ in _rec.hot.values()) * hot_cost,
        "process_s": wall_s + remote,
    }


_SUMS = ("calls", "busy", "self", "nested")
_PAIRS = ("tagged", "hot")
_SCALARS = ("ring_hits", "newton_evals", "terms", "unattributed", "overhead", "process_s")


def merge(totals: list[dict]) -> dict:
    """Sum the totals of several processes (or ops) into one."""
    out: dict = {key: {} for key in _SUMS + _PAIRS + ("items",)}
    out.update({key: 0 for key in _SCALARS}, maps=[0, 0, 0.0, 0.0, 0.0], sieve_limit=0, import_s=[])
    for tot in totals:
        for key in _SUMS:
            for k, v in tot[key].items():
                out[key][k] = out[key].get(k, 0) + v
        for key in _PAIRS:
            for k, (n, dt) in tot[key].items():
                cur = out[key].setdefault(k, [0, 0.0])
                cur[0] += n
                cur[1] += dt
        for k, v in tot["items"].items():
            out["items"].setdefault(k, []).extend(v)
        out["maps"] = [a + b for a, b in zip(out["maps"], tot["maps"])]
        for key in _SCALARS:
            out[key] += tot[key]
        out["sieve_limit"] = max(out["sieve_limit"], tot["sieve_limit"])
        out["import_s"].extend(tot["import_s"])
    return out


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("terms_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if ".ms_per_call." in name:
        return "ms"
    if name.endswith(("_ratio", ".util", "_frac")):
        return "ratio"
    return "count"


def _p50(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(tot: dict, n_ops: int) -> dict[str, float]:
    """Per-layer metrics from merged totals; additive ones are per op."""
    per = 1.0 / max(n_ops, 1)
    calls, busy, self_s = tot["calls"], tot["busy"], tot["self"]
    tagged, nested, hot, items, maps = tot["tagged"], tot["nested"], tot["hot"], tot["items"], tot["maps"]

    def c(name):
        return calls.get(name, 0) * per

    def b(name):
        return busy.get(name, 0.0) * per

    def s(name):
        return self_s.get(name, 0.0) * per

    def ms_per_call(bucket):
        n, dt = tagged.get(f"zeta.zeta.{bucket}", [0, 0.0])
        return 1000.0 * dt / n if n else 0.0

    refine_items = items.get("item:_refine_bracket_worker", [])
    probe_items = items.get("item:_probe_worker", [])
    refined = len(refine_items) + calls.get("zeros.refine_zero", 0)
    ring_calls = calls.get("zeta.taylor_ring", 0)
    kahan = hot.get("series.KahanComplexSum.add", [0, 0.0])
    phi_busy = busy.get("laurent.phi_series_multi", 0.0)
    return {
        "zeta.zeta.calls": c("zeta.zeta"),
        "zeta.zeta.self_s": s("zeta.zeta"),
        "zeta.zeta.ms_per_call.t-lo": ms_per_call("t-lo"),
        "zeta.zeta.ms_per_call.t-mid": ms_per_call("t-mid"),
        "zeta.zeta.ms_per_call.t-hi": ms_per_call("t-hi"),
        "zeta.zeta_and_deriv_raw.calls": c("zeta.zeta_and_deriv_raw"),
        "zeta.zeta_and_deriv_raw.self_s": s("zeta.zeta_and_deriv_raw"),
        "zeta.hardy_Z.calls.d12": tagged.get("zeta.hardy_Z.d12", [0])[0] * per,
        "zeta.hardy_Z.calls.full": tagged.get("zeta.hardy_Z.full", [0])[0] * per,
        "zeta.hardy_Z.self_s": s("zeta.hardy_Z"),
        "zeta.hardy_Z_fast.calls": c("zeta.hardy_Z_fast"),
        "zeta.theta.self_s": s("zeta.theta"),
        "zeta.taylor_ring.calls": c("zeta.taylor_ring"),
        "zeta.taylor_ring.busy_s": b("zeta.taylor_ring"),
        "zeta.taylor_ring.zeta_calls": nested.get("zeta.taylor_ring>zeta.zeta", 0) * per,
        "zeta.taylor_ring.hit_ratio": tot["ring_hits"] / ring_calls if ring_calls else 0.0,
        "zeta.zeta_deriv.busy_s": b("zeta.zeta_deriv"),
        "zeta.inverse_zeta.calls": c("zeta.inverse_zeta"),
        "precision.log_gamma.calls": c("precision.log_gamma"),
        "precision.log_gamma.self_s": s("precision.log_gamma"),
        "zeros.count_by_argument.calls": c("zeros.count_by_argument"),
        "zeros.count_by_argument.busy_s": b("zeros.count_by_argument"),
        "zeros.count_by_argument.self_s": s("zeros.count_by_argument"),
        "zeros.count_by_argument.contour_evals":
            nested.get("zeros.count_by_argument>zeta.zeta_and_deriv_raw", 0) * per,
        "zeros.scan_with_count.self_s": s("zeros.scan_with_count"),
        "zeros.refine_item_s.p50": _p50(refine_items),
        "zeros.refine_item_s.max": max(refine_items, default=0.0),
        "zeros.newton_evals_per_zero": tot["newton_evals"] / refined if refined else 0.0,
        "zeros.refine_zero.busy_s": b("zeros.refine_zero"),
        "zeros.multiplicity_probe.busy_s": b("zeros.multiplicity_probe"),
        "zeros.multiplicity_probe.contour_evals":
            nested.get("zeros.multiplicity_probe>zeta.zeta_and_deriv_raw", 0) * per,
        "zeros.probe_item_s.p50": _p50(probe_items),
        "zeros.read_cache.busy_s": b("zeros.read_cache"),
        "zeros.write_cache.busy_s": b("zeros.write_cache"),
        "laurent.taylor_at_zero.busy_s": b("laurent.taylor_at_zero"),
        "laurent.residual_profile.busy_s": b("laurent.residual_profile"),
        "laurent.phi_series_multi.busy_s": b("laurent.phi_series_multi"),
        "laurent.phi_series_multi.self_s": s("laurent.phi_series_multi"),
        "laurent.phi_series_multi.terms_per_s": tot["terms"] / phi_busy if phi_busy else 0.0,
        "laurent.expansion_report.self_s": s("laurent.expansion_report"),
        "series.KahanComplexSum.add.calls": kahan[0] * per,
        "series.KahanComplexSum.add.self_s": kahan[1] * per,
        "series.build_partial_series.busy_s": b("series.build_partial_series"),
        "mobius.sieve_mobius.busy_s": b("mobius.sieve_mobius"),
        "mobius.sieve_mobius.limit": float(tot["sieve_limit"]),
        "mobius.mertens.busy_s": b("mobius.mertens"),
        "stieltjes.bound_check.busy_s": b("stieltjes.bound_check"),
        "stieltjes.bound_check.zeta_calls": nested.get("stieltjes.bound_check>zeta.zeta", 0) * per,
        "parallel.map_ordered.calls": maps[0] * per,
        "parallel.map_ordered.items": maps[1] * per,
        "parallel.map_ordered.wall_s": maps[2] * per,
        "parallel.map_ordered.item_busy_s": maps[3] * per,
        "parallel.map_ordered.util": maps[3] / maps[4] if maps[4] else 0.0,
        "cli.import_s": _p50(tot["import_s"]),
        "cli.main.self_s": s("cli.main"),
        "cli.cmd_zeros.busy_s": b("cli.cmd_zeros"),
        "cli.cmd_audit.busy_s": b("cli.cmd_audit"),
        "cli.cmd_laurent.busy_s": b("cli.cmd_laurent"),
        "cli.cmd_stieltjes.busy_s": b("cli.cmd_stieltjes"),
        "cli.cmd_mertens.busy_s": b("cli.cmd_mertens"),
        "trace.unattributed_s": tot["unattributed"] * per,
        "trace.overhead_frac": tot["overhead"] / max(tot["process_s"] - tot["overhead"], 1e-9),
    }


LAYER_METRICS = tuple(layer_metrics(merge([]), 1))
