"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --workloads exit-linear,train-tails --seeds 1-10
        [--seconds 25] [--out perfbench/out/spread.json]

Each run is a fresh ``run.py --trace 0`` process, as the benchmark is run
for a comparison.  For every workload and metric it prints the median, the
quartiles of ``statistics.quantiles(values, n=4)`` and their distance as a
share of the median (the spread), next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, ok = {}, True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds) for seed in _seeds(args.seeds)]
        ok = ok and all(r["correct"] for r in runs)
        summary[workload] = {"failed": sum(r["failed"] for r in runs),
                             "attempted": sum(r["attempted"] for r in runs)}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            summary[workload][name] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "n": len(values), "spread": spread, "bound": bound, "values": values}
            print(f"{workload:15s} {name:12s} median {statistics.median(values):12.4f} "
                  f"spread {spread:6.3f} bound {bound}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
