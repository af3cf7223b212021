"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 20] [--json OUT]

Runs run.py once per seed, one run at a time, and prints for every
end-to-end metric the median, the quartiles (statistics.quantiles, n=4)
and the spread (Q3 - Q1) / median, plus how long each run took.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int,
                   default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--json", dest="out")
    args = p.parse_args()
    values: dict[str, list[float]] = {}
    durations, failed = [], 0
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=BENCH.parent, capture_output=True, text=True, check=True)
        durations.append(time.perf_counter() - t0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {durations[-1]:.1f} s, failed {result['failed']}/{result['attempted']}",
              file=sys.stderr)
    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
               "run_s": durations, "failed": failed, "metrics": {}}
    for name, xs in values.items():
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": xs}
        print(f"{args.workload:10s} {name:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {(q3 - q1) / med:.4f}")
    print(f"{args.workload:10s} run time median {statistics.median(durations):.1f} s, max {max(durations):.1f} s, "
          f"failed ops {failed}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
