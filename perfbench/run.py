"""Benchmark harness for levylab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; levylab is imported from ./src.

Load model: a closed loop, one process and one caller that issues each
operation after the previous one returns, with one OpenBLAS thread.  A
pass runs every operation of the workload once on inputs made from --seed.
Passes repeat while another fits within --seconds, at least two, and
every pass after the first must reproduce the first pass's payloads byte
for byte (the wall-time provenance line excepted).

--trace 0 prints the end-to-end metrics: set-up time (median of several
fresh processes), wall time of one pass and work per second (medians over
passes), and peak resident memory.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of spans.py (medians over
traced passes; counts must repeat exactly), the tracing overhead and the
failed fraction.

An operation fails on an exception, a non-zero exit status (3, partial,
included), a payload that differs from the first pass, or a failed
workload check.  The last line of stdout is the result object; the line
before it is a report with quartiles, payload digests, failures and
provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One OpenBLAS thread, set before numpy is first imported: the load is one
# caller, and on a shared 2-vCPU host a second BLAS thread made the same
# operation's time vary by a third between calls.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PROBE = BENCH_DIR / "probe.py"
SETUP_PROBES = 9
LOAD_MODEL = ("closed loop, 1 process, 1 caller, 1 OpenBLAS thread, "
              "in-process levylab.cli.main / study calls")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "stable.calls": "count", "stable.variates": "count", "stable.busy_s": "s",
    "stable.ns_per_variate": "ns",
    "sde.noise_s": "s", "sde.engine_self_s": "s", "sde.lane_steps_computed": "count",
    "sde.lane_steps_useful": "count", "sde.useful_fraction": "fraction",
    "sde.ns_per_lane_step": "ns", "sde.us_per_step": "us",
    "sde.lanes_diverged": "count", "sde.lanes_censored": "count",
    "objectives.grad_calls": "count", "objectives.grad_busy_s": "s",
    "studies.self_s": "s",
    "convergence.chain_steps": "count", "convergence.self_s": "s",
    "convergence.ns_per_chain_step": "ns",
    "mlp.calls": "count", "mlp.examples": "count", "mlp.busy_s": "s",
    "mlp.us_per_example": "us", "mlp.accuracy_s": "s",
    "training.log_steps": "count", "training.pool_build_s_per_log": "s",
    "training.self_s": "s",
    "tail_index.samples": "count", "tail_index.busy_s": "s",
    "tail_index.ns_per_sample": "ns", "tail_index.unreliable": "count",
    "stability.samples": "count", "stability.self_s": "s", "stability.ns_per_sample": "ns",
    "datasets.build_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "count",
    "trace.overhead_frac": "fraction",
    "failed_frac": "fraction",
}
_EXACT = {name for name, unit in PER_LAYER_UNITS.items() if unit == "count"}


def _import_levylab() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import levylab

    if Path(levylab.__file__).resolve().parent != SRC / "levylab":
        raise RuntimeError(f"levylab imported from {levylab.__file__}, not from {SRC}")


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "levylab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "load_model": LOAD_MODEL,
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Time from starting a fresh interpreter to its first operation being ready."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(PROBE), workload, str(seed)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
    return elapsed


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(wl, out_dir: Path, traced: bool, first: dict | None) -> dict:
    """One pass over the workload's operations; traced passes add layer metrics."""
    wall, facts, digests, failures = 0.0, {}, {}, []
    tracer = Tracer() if traced else None
    with tracer or contextlib.nullcontext():
        for op in wl.ops:
            try:
                outcome = op.run(out_dir)
            except Exception as exc:  # an operation that raises is a failed operation
                tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
                failures.append(f"{op.name}: {tb}")
                continue
            wall += outcome.seconds
            for key, value in outcome.facts.items():
                facts[key] = facts.get(key, 0) + value
            digests[op.name] = {f: _digest(p) for f, p in outcome.payloads.items()}
            problems = list(outcome.problems)
            if first is not None and digests[op.name] != first.get(op.name):
                problems.append("payload differs from the first pass")
            if problems:
                failures.append(f"{op.name}: {'; '.join(problems)}")
    result = {"traced": traced, "wall_s": wall, "work": facts.get("work", 0),
              "digests": digests, "failures": failures, "attempted": len(wl.ops)}
    if tracer:
        result["layers"] = layer_metrics(tracer, facts)
    return result


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, dict]:
    """Run one benchmark run; returns (result line, report)."""
    _import_levylab()

    setups = [setup_seconds(workload, seed) for _ in range(SETUP_PROBES)]
    wl = workloads.build(workload, seed, tiny=tiny)
    out_dir = BENCH_DIR / "out" / f"{workload}-{seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    saved_out = os.environ.get("LEVYLAB_OUT")
    os.environ["LEVYLAB_OUT"] = str(out_dir)
    passes = []
    try:
        # Start another pass only if one as long as the longest so far still
        # ends within --seconds, so that a run of long passes does not overrun.
        start, longest = time.perf_counter(), 0.0
        while len(passes) < 2 or time.perf_counter() - start + longest <= seconds:
            first = passes[0]["digests"] if passes else None
            traced = trace and len(passes) % 2 == 1
            pass_start = time.perf_counter()
            passes.append(run_pass(wl, out_dir, traced, first))
            longest = max(longest, time.perf_counter() - pass_start)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if saved_out is None:
            os.environ.pop("LEVYLAB_OUT", None)
        else:
            os.environ["LEVYLAB_OUT"] = saved_out

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    problems = []
    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in plain]
    rates = [p["work"] / p["wall_s"] for p in plain if p["wall_s"] > 0]
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    summaries = {"setup_s": _summary(setups), "wall_s": _summary(walls),
                 wl.rate_name: _summary(rates)}
    if trace:
        layered = [p["layers"] for p in passes if p["traced"]]
        for name in _EXACT:
            if len({m[name] for m in layered}) > 1:
                problems.append(f"count {name} differs between traced passes")
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        values = {name: layered[0][name] if name in _EXACT
                  else statistics.median(m[name] for m in layered)
                  for name in layered[0]}
        values["trace.overhead_frac"] = traced_wall / summaries["wall_s"]["median"] - 1.0
        values["failed_frac"] = failed / attempted
        units = PER_LAYER_UNITS
    else:
        values = {"setup_s": summaries["setup_s"]["median"],
                  "wall_s": summaries["wall_s"]["median"],
                  "work_per_s": summaries[wl.rate_name]["median"],
                  "peak_rss_mb": rss}
        units = END_TO_END_UNITS
    line = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(seed),
        "summaries": summaries,
        "peak_rss_mb": rss,
        "failed_frac": failed / attempted,
        "passes": [{k: p[k] for k in ("traced", "wall_s", "work")} for p in passes],
        "digests": passes[0]["digests"],
        "failures": [f for p in passes for f in p["failures"]] + problems,
    }
    return line, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "levylab" / "__init__.py").is_file():
        sys.stderr.write(f"no levylab sources under {SRC}; run from a source checkout\n")
        return 2
    line, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
