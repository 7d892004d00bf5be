"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

For every workload at tiny sizes it runs one untraced and two traced
benchmark runs and checks that:

- every metric BENCHMARK.json names is emitted with the unit it names;
- the two traced runs report identical counts;
- untraced and traced passes see the same payload digests.

The statistical workload checks only hold at full size and are skipped.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def check_workload(name: str, spec: dict) -> list[str]:
    problems = []
    plain, plain_report = run.measure(name, seed=1, seconds=0, trace=False, tiny=True)
    traced = [run.measure(name, seed=1, seconds=0, trace=True, tiny=True) for _ in range(2)]
    for line, section in ((plain, "end_to_end"), (traced[0][0], "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        if got != want:
            problems.append(f"{section} metrics/units {got} != BENCHMARK.json {want}")
        if set(line) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"result keys {sorted(line)}")
    first, second = (t[0]["metrics"] for t in traced)
    for metric in sorted(run._EXACT):
        if first[metric]["value"] != second[metric]["value"]:
            problems.append(f"{metric}: {first[metric]['value']} then {second[metric]['value']}")
    for line, report in (plain, plain_report), *traced:
        if report["failures"]:
            problems.append(f"failures: {report['failures']}")
        if report["digests"] != plain_report["digests"]:
            problems.append("traced run saw other payload digests than the untraced run")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in workloads.WORKLOADS:
        problems = check_workload(name, spec)
        ok = ok and not problems
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
