"""Library calls on generated points, in one fresh process.

    python3 points.py INPUTS.json RESULT.json

INPUTS holds the points, the seconds to measure and the trace flag.  The
process evaluates the whole point list in passes, one call at a time,
while another pass still fits in the time; caches stay warm from pass to
pass as they would for a library user.  With tracing, every call is
traced.  Untraced, a speed kernel runs after every call, and the call's
CPU time is rescaled by the kernels on both sides of it (speed.py).
RESULT gets every call's wall, CPU and reference CPU time, each point's
output from the first pass, and whether any later pass differed.
"""

import json
import resource
import sys
import time

_start = time.perf_counter()

import zetakit  # noqa: E402
from mpmath import mpc, mpf, nstr  # noqa: E402

_import_s = time.perf_counter() - _start


def evaluate(point: dict, ctxs: dict) -> list[str]:
    ctx = ctxs[point["digits"]]
    d = point["digits"] + 5
    with ctx.wp():
        t = mpf(point["t"])
        s = mpc(mpf(point["sigma"]), t)
    if point["fn"] == "hardy_Z":
        values = [zetakit.hardy_Z(t, ctx)]
    elif point["fn"] == "zeta":
        values = [zetakit.zeta(s, ctx).value]
    else:
        values = list(zetakit.zeta_and_deriv_raw(s, ctx))
    return [nstr(v, d, strip_zeros=False) for v in values]


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    points, seconds, trace = spec["points"], spec["seconds"], spec["trace"]
    ctxs = {d: zetakit.PrecisionContext.from_digits(d) for d in {p["digits"] for p in points}}
    evals, passes = [], []
    outputs: list = [None] * len(points)
    unstable: set[int] = set()
    if trace:
        import tracer

        tracer.install()
    else:
        import speed
    t_begin = time.perf_counter()
    kernel_s = 0.0 if trace else speed.timed_kernel()
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        for i, point in enumerate(points):
            e0, p0 = time.perf_counter(), time.thread_time()
            out = evaluate(point, ctxs)
            wall, cpu = time.perf_counter() - e0, time.thread_time() - p0
            ref = 0.0
            if not trace:
                before, kernel_s = kernel_s, speed.timed_kernel()
                ref = cpu * speed.factor((before + kernel_s) / 2)
            evals.append([i, wall, cpu, ref])
            if outputs[i] is None:
                outputs[i] = out
            elif out != outputs[i]:
                unstable.add(i)
        last = time.perf_counter() - w0
        passes.append({"wall": last, "cpu": time.process_time() - c0})
        if time.perf_counter() - t_begin + last > seconds:
            break
    result = {
        "evals": evals,
        "passes": passes,
        "outputs": outputs,
        "unstable": sorted(unstable),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "import_s": _import_s,
    }
    if trace:
        result["totals"] = tracer.summarize(time.perf_counter() - t_begin, _import_s)
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
