"""Self-test of the benchmark at tiny sizes (about 2 minutes on 2 cores).

    python3 perfbench/selftest.py

Runs every workload untraced and traced at T = 20, 10 points, K = 10^3
and X = 10^4, and checks that:

- every end-to-end metric of BENCHMARK.json appears with its unit;
- every per-layer metric appears with its unit, and is nonzero on the
  workloads where its module runs;
- a corrupted output fed to the oracle gate is counted as failed;
- the reference-CPU arithmetic of speed.py gives the known answer on a
  synthetic sample file.

Exits 0 when all checks hold and prints each failed check otherwise.
"""

from __future__ import annotations

import json
import sys

import run
from run import TINY, Oracle, bench, point_failures

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that must be nonzero on each workload at tiny sizes.
# hardy_Z_fast needs t >= 30, which the tiny sizes never reach.
COMMON = ("trace.unattributed_s", "cli.import_s", "zeta.zeta.calls", "zeta.zeta.self_s",
          "precision.log_gamma.calls", "precision.log_gamma.self_s")
RUNS_ON = {
    "scan-audit": COMMON + (
        "zeta.zeta_and_deriv_raw.calls", "zeta.zeta_and_deriv_raw.self_s", "zeta.hardy_Z.calls.d12",
        "zeta.hardy_Z.calls.full", "zeta.hardy_Z.self_s", "zeta.theta.self_s", "zeta.taylor_ring.calls",
        "zeta.taylor_ring.busy_s", "zeta.taylor_ring.zeta_calls", "zeta.zeta_deriv.busy_s",
        "zeros.count_by_argument.calls", "zeros.count_by_argument.busy_s", "zeros.count_by_argument.self_s",
        "zeros.count_by_argument.contour_evals", "zeros.scan_with_count.self_s", "zeros.refine_item_s.p50",
        "zeros.refine_item_s.max", "zeros.newton_evals_per_zero", "zeros.multiplicity_probe.busy_s",
        "zeros.multiplicity_probe.contour_evals", "zeros.probe_item_s.p50", "zeros.read_cache.busy_s",
        "zeros.write_cache.busy_s", "parallel.map_ordered.calls", "parallel.map_ordered.items",
        "parallel.map_ordered.wall_s", "parallel.map_ordered.item_busy_s", "parallel.map_ordered.util",
        "cli.main.self_s", "cli.cmd_zeros.busy_s", "cli.cmd_audit.busy_s"),
    "expansion": COMMON + (
        "zeta.hardy_Z.calls.full", "zeta.taylor_ring.calls", "zeta.taylor_ring.busy_s",
        "zeta.taylor_ring.zeta_calls", "zeta.taylor_ring.hit_ratio", "zeta.zeta_deriv.busy_s",
        "zeta.inverse_zeta.calls", "zeros.newton_evals_per_zero", "zeros.refine_zero.busy_s",
        "zeros.read_cache.busy_s", "laurent.taylor_at_zero.busy_s", "laurent.residual_profile.busy_s",
        "laurent.phi_series_multi.busy_s", "laurent.phi_series_multi.self_s",
        "laurent.phi_series_multi.terms_per_s", "laurent.expansion_report.self_s",
        "series.KahanComplexSum.add.calls", "series.KahanComplexSum.add.self_s",
        "series.build_partial_series.busy_s", "mobius.sieve_mobius.busy_s", "mobius.sieve_mobius.limit",
        "mobius.mertens.busy_s", "stieltjes.bound_check.busy_s", "stieltjes.bound_check.zeta_calls",
        "cli.main.self_s", "cli.cmd_laurent.busy_s", "cli.cmd_stieltjes.busy_s", "cli.cmd_mertens.busy_s"),
    "points": COMMON + (
        "zeta.zeta_and_deriv_raw.calls", "zeta.zeta_and_deriv_raw.self_s", "zeta.hardy_Z.calls.full",
        "zeta.hardy_Z.self_s", "zeta.theta.self_s"),
}
# The modules these workloads do not run: predicted to stay at zero.
IDLE_ON = {
    "scan-audit": ("laurent.", "series.", "mobius.", "stieltjes.", "zeta.inverse_zeta."),
    "expansion": ("zeros.count_by_argument.", "zeros.multiplicity_probe.", "parallel."),
    "points": ("zeros.", "laurent.", "series.", "mobius.", "stieltjes.", "parallel.", "cli.main",
               "cli.cmd_", "zeta.taylor_ring."),
}


def check_metrics(workload: str, trace: bool, result: dict, problems: list) -> None:
    spec = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    for m in spec:
        if m["name"] not in got:
            problems.append(f"{workload} trace={trace}: {m['name']} missing")
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{workload} trace={trace}: {m['name']} has unit {got[m['name']]['unit']}")
        elif not trace and not got[m["name"]]["value"] > 0:
            problems.append(f"{workload}: end-to-end {m['name']} is {got[m['name']]['value']}")
    if set(got) != {m["name"] for m in spec}:
        problems.append(f"{workload} trace={trace}: metrics not in BENCHMARK.json: {set(got) - {m['name'] for m in spec}}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")
    if trace:
        for name in RUNS_ON[workload]:
            if not got.get(name, {}).get("value"):
                problems.append(f"{workload}: per-layer {name} is zero where its module runs")
        if not any(got[f"zeta.zeta.ms_per_call.{b}"]["value"] for b in ("t-lo", "t-mid", "t-hi")):
            problems.append(f"{workload}: no zeta.zeta.ms_per_call bucket measured")
        for name, m in got.items():
            if name.startswith(IDLE_ON[workload]) and m["value"]:
                problems.append(f"{workload}: per-layer {name} = {m['value']} where its module does not run")


def corrupt_cli_outputs(problems: list) -> None:
    """Every op whose first step's stdout is corrupted must count as failed."""
    honest = run.Run.cli

    def corrupting(self, op, step, args):
        proc = honest(self, op, step, args)
        if proc is not None and len(op.steps) == 1:
            proc.stdout = proc.stdout.replace("1", "2", 1)
        return proc

    run.Run.cli = corrupting
    try:
        for workload in ("scan-audit", "expansion"):
            result, _ = bench(workload, 7, 1, False, TINY)
            if result["correct"] or result["failed"] != result["attempted"]:
                problems.append(f"{workload}: corrupted output counted {result['failed']} failed "
                                f"of {result['attempted']}")
    finally:
        run.Run.cli = honest


def corrupt_point_output(problems: list) -> None:
    mp = run.mpmath
    point = {"fn": "zeta", "digits": 30, "sigma": 0.25, "t": 123.5}
    with mp.workdps(40):
        ref = Oracle(30).point_refs("zeta", 0.25, 123.5, 30)[0]
        good, wrong = mp.nstr(ref, 35), mp.nstr(ref * (1 + mp.mpf("1e-25")), 35)
    _, bad = point_failures(Oracle(30), [point], [[good]], [])
    if bad:
        problems.append("points: an exact value was counted as failed")
    _, bad = point_failures(Oracle(30), [point], [[wrong]], [])
    if bad != {0}:
        problems.append("points: a value wrong in the 25th digit was not counted as failed")


def check_speed_accounting(problems: list) -> None:
    """Reference CPU: program CPU between samples (sampler CPU taken out),
    times REF_KERNEL_S over the kernel time of the sample ending it."""
    ref = run.speed.REF_KERNEL_S
    lines = ["10.0 0 0", f"11.0 0.1 {ref}", f"12.5 0.2 {2 * ref}"]
    got = run.speed._process_reference_cpu(lines)
    want = (0.9 + 1.4 * 0.5, 0.9 + 1.4, 2)
    if any(abs(g - w) > 1e-9 for g, w in zip(got, want)):
        problems.append(f"speed: reference CPU of a synthetic sample file is {got}, want {want}")


def main() -> int:
    problems: list[str] = []
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result, _ = bench(workload, 1, 1, trace, TINY)
            check_metrics(workload, trace, result, problems)
    corrupt_cli_outputs(problems)
    corrupt_point_output(problems)
    check_speed_accounting(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
