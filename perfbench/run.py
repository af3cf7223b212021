"""zetakit benchmark: seeded workloads timed end to end and, traced, per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client: an operation starts when the last one
has finished, and another starts only while it still fits in S seconds):

  scan-audit  ``zetakit zeros`` then ``zetakit audit`` on a fresh cache,
              30 digits, 2 workers, T drawn between the 4th and 5th zeros
  expansion   ``zetakit laurent`` at a drawn zero (cache written from
              mpmath.zetazero), ``zetakit stieltjes --n-max 20`` and
              ``zetakit mertens`` at a drawn X with a 10^7 sieve
  points      one fresh process calling zeta, zeta_and_deriv_raw and
              hardy_Z on drawn points, in passes over the point list

Every output is checked against mpmath (see oracle.py).  Untraced runs
time the program in reference CPU seconds (see speed.py): CPU time
rescaled by the speed of the core it ran on, sampled every 20 ms, so that
the figures hold still on a host whose speed drifts.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (trace 0) or the per-layer metrics (trace 1).  Lines
before it name every measured figure with its unit, and the full record
(inputs, environment, per-operation results and stdout sha256) goes to
``.bench_out/<workload>-seed<N>-trace<T>.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import mpmath
import numpy

import speed
import tracer
from oracle import Oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PY = sys.executable

DIGITS = 30
WORKERS = 2
SETUP_REPEATS = 11
RUN_LIMIT_S = 165.0  # a run has to end within 180 s, its checks included
CHECK_RESERVE_S = 25.0


@dataclass(frozen=True)
class Sizes:
    t_band: tuple[float, float]  # scan-audit: zeros --t-max
    zero_band: tuple[int, int]  # expansion: laurent --index
    k_max: int  # expansion: laurent --k-max
    x_band: tuple[int, int]  # expansion: mertens --x
    sieve: int  # expansion: mertens --k-max
    n_max: int  # expansion: stieltjes --n-max
    points: int  # points: number of points in the list


# The T band lies between the zeros at 30.42 and 32.94, so every op
# refines and audits the same four zeros and the grid reaches the
# Riemann-Siegel tier (t >= 30).  Zeros 24..29 sit at t = 87..99, where
# one Euler-Maclaurin sum costs about the same for every drawn index.
FULL = Sizes((31.0, 32.0), (24, 29), 10**4, (5 * 10**6, 10**7), 10**7, 20, 72)
TINY = Sizes((20.0, 20.0), (1, 1), 10**3, (10**4, 10**4), 10**4, 20, 10)

POINT_FNS = ("zeta", "zeta_and_deriv_raw", "hardy_Z")
POINT_DIGITS = (30, 60)

END_TO_END = {
    "setup_s": "s",
    "cpu_ref_s": "s",
    "peak_rss_mb": "MB",
}
DETAIL_UNITS = {"failed_frac": "ratio", "ops": "count", "speed_samples": "count", "eval_ms.p50": "ms",
                "eval_ms.p90": "ms", "eval_ref_ms.p50": "ms"}


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "ZETA_CACHE")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _median(xs) -> float:
    return statistics.median(xs)


def _p90(xs) -> float:
    xs = list(xs)
    return xs[0] if len(xs) == 1 else statistics.quantiles(xs, n=10, method="inclusive")[-1]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool
    ref_cpu: float = 0.0  # reference CPU seconds (speed.py); 0 when traced
    samples: int = 0

    def record(self) -> dict:
        return {
            "rc": self.rc,
            "wall_s": self.wall,
            "cpu_s": self.cpu,
            "peak_rss_mb": self.rss_mb,
            "cpu_ref_s": self.ref_cpu,
            "speed_samples": self.samples,
            "stdout_sha256": _sha(self.stdout),
            "timed_out": self.timed_out,
            "stderr_tail": self.stderr[-300:],
        }


def run_proc(cmd: list[str], work: Path, tag: str, timeout: float) -> Proc:
    """Run cmd to completion in its own session; time it with wait4.

    CPU time and peak RSS come from the rusage of the process and of the
    children it reaped (the CLI's worker pool).  On timeout the whole
    session is killed.
    """
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    killed = threading.Event()

    def kill():
        killed.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=work, env=_env(), start_new_session=True)
        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        rc=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
        timed_out=killed.is_set(),
    )


@dataclass
class Op:
    inputs: dict
    steps: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    totals: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.steps.values())

    @property
    def cpu(self) -> float:
        return sum(p.cpu for p in self.steps.values())

    @property
    def rss(self) -> float:
        return max(p.rss_mb for p in self.steps.values())

    @property
    def ref_cpu(self) -> float:
        return sum(p.ref_cpu for p in self.steps.values())

    def record(self) -> dict:
        return {
            "inputs": self.inputs,
            "wall_s": self.wall,
            "cpu_s": self.cpu,
            "cpu_ref_s": self.ref_cpu,
            "steps": {k: p.record() for k, p in self.steps.items()},
            "problems": self.problems,
        }


@dataclass
class Measured:
    """What one workload measured in a run."""

    e2e: dict
    layers: dict
    detail: dict
    attempted: int
    failed: int
    problems: list
    record: object


class Run:
    """State of one benchmark run: work directory, deadline, oracle."""

    def __init__(self, work: Path, seconds: float, trace: bool, sizes: Sizes, rng: random.Random):
        self.work = work
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.rng = rng
        self.oracle = Oracle(DIGITS)
        self.started = time.perf_counter()
        self.n_procs = 0
        self.zero_cache: Path | None = None

    def remaining(self) -> float:
        return RUN_LIMIT_S - CHECK_RESERVE_S - (time.perf_counter() - self.started)

    def cli(self, op: Op, step: str, args: list[str]) -> Proc | None:
        """Run one zetakit command as a step of op; None if it failed."""
        self.n_procs += 1
        tag = f"p{self.n_procs}"
        if self.trace:
            totals_path = self.work / f"{tag}.totals.json"
            cmd = [PY, str(BENCH / "tracecli.py"), str(totals_path), *args]
        else:
            speed_dir = self.work / f"{tag}.speed"
            cmd = [PY, str(BENCH / "speedcli.py"), str(speed_dir), *args]
        proc = run_proc(cmd, self.work, tag, self.remaining())
        op.steps[step] = proc
        if self.trace and totals_path.exists():
            op.totals.append(json.loads(totals_path.read_text()))
        if not self.trace:
            proc.ref_cpu, _, proc.samples = speed.reference_cpu(speed_dir)
        if proc.rc != 0 or proc.timed_out:
            why = "timed out" if proc.timed_out else f"exit code {proc.rc}"
            op.problems.append(f"{step}: {why}: {proc.stderr.strip()[-200:]}")
            return None
        return proc

    def check(self, op: Op, step: str, fn, *args) -> None:
        try:
            op.problems.extend(fn(*args))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            op.problems.append(f"{step}: unreadable output: {exc!r}")


def measure_setup(run: Run) -> tuple[float, float]:
    """Medians of (reference CPU, raw wall) of no-work CLI invocations
    (interpreter start, import, argument parsing).

    The benchmark pins itself to one core while it measures, so that each
    invocation runs on the core of the speed kernels before and after it.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    ref, raw = [], []
    try:
        for i in range(SETUP_REPEATS + 1):
            before = speed.timed_kernel()
            proc = run_proc([PY, "-m", "zetakit.cli", "--help"], run.work, f"setup{i}", 60.0)
            after = speed.timed_kernel()
            if proc.rc != 0:
                raise SystemExit(f"zetakit does not start: {proc.stderr.strip()[-500:]}")
            if i:  # the first one warms the file cache and bytecode
                ref.append(proc.cpu * speed.factor((before + after) / 2))
                raw.append(proc.wall)
    finally:
        os.sched_setaffinity(0, cpus)
    return _median(ref), _median(raw)


# ----------------------------------------------------------------------
# CLI workloads
# ----------------------------------------------------------------------


def draw_scan_audit(run: Run) -> dict:
    lo, hi = run.sizes.t_band
    return {"T": f"{run.rng.uniform(lo, hi):.4f}"}


def op_scan_audit(run: Run, op: Op) -> None:
    T = op.inputs["T"]
    cache = run.work / f"scan{run.n_procs}.cache"
    common = ["--t-max", T, "--digits", str(DIGITS), "--workers", str(WORKERS), "--cache", str(cache)]
    zeros = run.cli(op, "zeros", ["zeros", *common])
    if zeros is None:
        return
    run.check(op, "zeros", run.oracle.check_zeros, T, zeros.stdout, cache.read_text())
    audit = run.cli(op, "audit", ["audit", *common])
    if audit is not None:
        run.check(op, "audit", run.oracle.check_audit, T, audit.stdout)


def draw_expansion(run: Run) -> dict:
    s = run.sizes
    return {"index": run.rng.randint(*s.zero_band), "X": run.rng.randint(*s.x_band)}


def write_zero_cache(run: Run) -> Path:
    """Cache of zeros 1..max index + 1 from mpmath.zetazero (input, not work)."""
    path = run.work / "expansion.cache"
    lines = [f"# zeta-zeros v1 digits={DIGITS}\n"]
    with mpmath.workdps(DIGITS + 10):
        for n in range(1, run.sizes.zero_band[1] + 2):
            rho = run.oracle.zetazero(n)
            zp = abs(mpmath.zeta(rho, derivative=1))
            t_s, zp_s = (mpmath.nstr(v, DIGITS + 5, strip_zeros=False) for v in (rho.imag, zp))
            lines.append(f"{n},{t_s},{zp_s},0,refined\n")
    path.write_text("".join(lines))
    return path


def op_expansion(run: Run, op: Op) -> None:
    s, index, X = run.sizes, op.inputs["index"], op.inputs["X"]
    digits = ["--digits", str(DIGITS)]
    laurent = run.cli(op, "laurent", ["laurent", "--index", str(index), "--terms", "8",
                                      "--k-max", str(s.k_max), "--cache", str(run.zero_cache), *digits])
    if laurent is not None:
        run.check(op, "laurent", run.oracle.check_laurent, index, laurent.stdout)
    stieltjes = run.cli(op, "stieltjes", ["stieltjes", "--n-max", str(s.n_max), *digits])
    if stieltjes is not None:
        run.check(op, "stieltjes", run.oracle.check_stieltjes, s.n_max, stieltjes.stdout)
    mertens = run.cli(op, "mertens", ["mertens", "--x", str(X), "--k-max", str(s.sieve), *digits])
    if mertens is not None:
        run.check(op, "mertens", run.oracle.check_mertens, X, mertens.stdout)


CLI_WORKLOADS = {
    "scan-audit": (draw_scan_audit, op_scan_audit, ("zeros", "audit")),
    "expansion": (draw_expansion, op_expansion, ("laurent", "stieltjes", "mertens")),
}


def bench_cli(run: Run, name: str) -> Measured:
    draw, execute, steps = CLI_WORKLOADS[name]
    if name == "expansion":
        run.zero_cache = write_zero_cache(run)
    ops: list[Op] = []
    begin = time.perf_counter()
    while True:
        ops.append(Op(draw(run)))
        execute(run, ops[-1])
        elapsed = time.perf_counter() - begin
        if elapsed + ops[-1].wall > run.seconds or ops[-1].wall > run.remaining():
            break
    e2e = {
        "cpu_ref_s": _median(op.ref_cpu for op in ops),
        "peak_rss_mb": _median(op.rss for op in ops),
    }
    detail = {
        "wall_s": _median(op.wall for op in ops),
        "wall_p90_s": _p90(op.wall for op in ops),
        "cpu_s": _median(op.cpu for op in ops),
        "speed_samples": sum(p.samples for op in ops for p in op.steps.values()),
    }
    for step in steps:
        procs = [op.steps[step] for op in ops if step in op.steps]
        if procs:
            detail[f"{step}_s"] = _median(p.wall for p in procs)
            detail[f"{step}_ref_s"] = _median(p.ref_cpu for p in procs)
    layers = {}
    if run.trace:
        layers = tracer.layer_metrics(tracer.merge([t for op in ops for t in op.totals]), len(ops))
    failed = sum(1 for op in ops if op.problems)
    problems = [p for op in ops for p in op.problems]
    return Measured(e2e, layers, detail, len(ops), failed, problems, [op.record() for op in ops])


# ----------------------------------------------------------------------
# Library workload
# ----------------------------------------------------------------------


def draw_points(run: Run) -> list[dict]:
    """Points spread evenly over every (digits, function) pair.

    Within a pair, log t sits at the midpoints of equal strata of
    [log 20, log 1000], moved by a seeded jitter of up to a tenth of a
    stratum, and sigma alternates between [-1, 1/2) (reflected) and
    [1/2, 2] along the strata, drawn uniformly.  So each seed draws new
    points with the same spread of cost.  Inputs are multiples of 2^-16,
    exact in binary at every precision.
    """
    pairs = [(d, fn) for d in POINT_DIGITS for fn in POINT_FNS]
    points = []
    for k, (digits, fn) in enumerate(pairs):
        n = run.sizes.points // len(pairs) + (k < run.sizes.points % len(pairs))
        for j in range(n):
            t = 20.0 * 50.0 ** ((j + 0.5 + 0.2 * (run.rng.random() - 0.5)) / n)
            lo, hi = (-1.0, 0.5) if (j + k) % 2 else (0.5, 2.0)
            sigma = run.rng.uniform(lo, hi)
            points.append({"fn": fn, "digits": digits,
                           "sigma": round(sigma * 65536) / 65536, "t": round(t * 65536) / 65536})
    run.rng.shuffle(points)
    return points


def point_failures(oracle: Oracle, points: list, outputs: list, unstable: list) -> tuple[list, set]:
    """(digits of agreement per point, indices of failed points).

    A point fails when it misses its digits or when a later pass gave
    other output than the first."""
    digits = [
        Oracle.point_digits(values, oracle.point_refs(p["fn"], p["sigma"], p["t"], p["digits"]))
        for p, values in zip(points, outputs)
    ]
    bad = {i for i, (p, d) in enumerate(zip(points, digits)) if d < p["digits"]} | set(unstable)
    return digits, bad


def bench_points(run: Run) -> Measured:
    points = draw_points(run)
    spec_path, result_path = run.work / "points.in.json", run.work / "points.out.json"
    spec_path.write_text(json.dumps({"points": points, "seconds": run.seconds, "trace": run.trace}))
    proc = run_proc([PY, str(BENCH / "points.py"), str(spec_path), str(result_path)],
                    run.work, "points", run.remaining())
    if proc.rc != 0 or proc.timed_out:
        raise SystemExit(f"points process failed (rc {proc.rc}): {proc.stderr.strip()[-500:]}")
    res = json.loads(result_path.read_text())
    digits_ok, bad = point_failures(run.oracle, points, res["outputs"], res["unstable"])
    evals = res["evals"]
    record = {
        "points": points,
        "digits_of_agreement": digits_ok,
        "outputs_sha256": _sha(json.dumps(res["outputs"])),
        "failed_points": sorted(bad),
        "passes": res["passes"],
        "process": proc.record(),
    }
    problems = [f"point {i} {points[i]}: {digits_ok[i]:.1f} digits" for i in sorted(bad)]
    walls = [w for _, w, _, _ in evals]
    refs: dict[int, list] = {}
    for i, _, _, ref in evals:
        refs.setdefault(i, []).append(ref)
    e2e = {
        # mean over the point list of each point's median over passes
        "cpu_ref_s": statistics.fmean(_median(r) for r in refs.values()),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    detail = {
        "cpu_s": _median(c for _, _, c, _ in evals),
        "eval_ms.p50": 1000 * _median(walls),
        "eval_ms.p90": 1000 * _p90(walls),
        "eval_ref_ms.p50": 1000 * _median(r for _, _, _, r in evals),
        "speed_samples": 0 if run.trace else len(evals) + 1,
    }
    layers = {}
    if run.trace:
        layers = tracer.layer_metrics(tracer.merge([res["totals"]]), len(evals))
    failed = sum(1 for i, _, _, _ in evals if i in bad)
    return Measured(e2e, layers, detail, len(evals), failed, problems, record)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

WORKLOADS = ("scan-audit", "expansion", "points")


def environment() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "loadavg_at_start": os.getloadavg(),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> tuple[dict, dict]:
    """(result line, full record) of one run."""
    env = environment()
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(work, seconds, trace, sizes, random.Random(f"{workload}/{seed}"))
        setup_s, setup_raw_s = measure_setup(run)
        m = bench_points(run) if workload == "points" else bench_cli(run, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    m.e2e["setup_s"] = setup_s
    m.detail["setup_raw_s"] = setup_raw_s
    m.detail["failed_frac"] = m.failed / m.attempted
    m.detail["ops"] = m.attempted
    if trace:
        metrics = {k: (m.layers[k], tracer.unit(k)) for k in tracer.LAYER_METRICS}
    else:
        metrics = {k: (m.e2e[k], unit) for k, unit in END_TO_END.items()}
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes.__dict__,
        "environment": env,
        "end_to_end": m.e2e,
        "per_layer": m.layers,
        "detail": m.detail,
        "problems": m.problems,
        "ops": m.record,
    }
    return result, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "zetakit" / "cli.py").is_file():
        print(f"no zetakit sources under {SRC}", file=sys.stderr)
        return 2
    result, record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    for name, value in record["detail"].items():
        print(f"detail {name} = {value:.6g} {DETAIL_UNITS.get(name, 's' if name.endswith('_s') else 'ms')}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
