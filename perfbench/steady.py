"""Steadiness of the benchmark on one commit.

    python3 perfbench/steady.py                          # every workload
    python3 perfbench/steady.py --workload signal-cantor --first-seed 101

Runs ``run.py --trace 0`` in two consecutive sets of ten runs per
workload, each run with its own seed.  For every end-to-end metric and
workload it prints each set's median, quartiles and spread (quartile
distance over median), and whether the sets agree within the bounds of
BENCHMARK.json: every spread, setup_s's too, within the metric's bound,
and the second set's median within the bound of the first's, in either
direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({workload}, seed {seed}):\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    agree = True
    for workload in chosen:
        sets = []
        for s in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = args.first_seed + s * RUNS + i
                result = one_run(workload, seed, spec["run_seconds"])
                runs.append(result)
                agree &= result["correct"]
                print(f"{workload} set {s + 1} seed {seed}: correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                      flush=True)
            sets.append(runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            first = stats[0][0]
            ok = all(spread <= bound and abs(med / first - 1) <= bound
                     for med, _q1, _q3, spread in stats)
            agree &= ok
            cells = "  ".join(f"median {m:.5g} [{q1:.5g} .. {q3:.5g}] spread {sp:.4f}"
                              for m, q1, q3, sp in stats)
            print(f"{workload:<16} {name:<12} bound {bound:<5} {cells}  "
                  f"{'agree' if ok else 'DISAGREE'}", flush=True)
    print("steady" if agree else "NOT steady")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
