"""Outside-in tracing of levylab: spans around the functions each layer exports.

Functions are wrapped at the module attribute they are called through
(``levylab.sde.sample_standard_sas``, not ``levylab.stable.sample_standard_sas``),
because levylab modules import each other's functions by name.  A span
records its name, start, end, parent and a work size; spans stay in memory
until the tracer is read.  The objective gradient of the generic scan runs
once per Euler step, so it is counted as a leaf (calls and busy time per
parent span) instead of one span per call, which would hold ~1e6 records.

A span's self time is its duration minus its child spans and leaf time.
The layer of a span is the prefix of its name.
"""

from __future__ import annotations

import copy
import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, size of the work done from (args, result))
_SPANS = (
    ("levylab.sde", "sample_standard_sas", "stable.sample_standard_sas",
     lambda a, r: r.size),
    ("levylab.convergence", "sample_standard_sas", "stable.sample_standard_sas",
     lambda a, r: r.size),
    ("levylab.sde", "noise_increments", "sde.noise_increments",
     lambda a, r: r.shape[0]),
    ("levylab.studies", "first_exit_ensemble", "sde.first_exit_ensemble", None),
    ("levylab.studies", "first_transition_ensemble", "sde.first_transition_ensemble", None),
    ("levylab.studies", "occupancy_ensemble", "sde.occupancy_ensemble", None),
    ("levylab.cli", "exit_time_study", "studies.exit_time_study", None),
    ("levylab.cli", "transition_study", "studies.transition_study", None),
    ("levylab.studies", "occupancy_study", "studies.occupancy_study", None),
    ("levylab.cli", "run_convergence", "convergence.run_convergence",
     lambda a, r: sum(a[2].ks) * a[2].replicates),
    ("levylab.cli", "estimate_sigma_gamma", "convergence.estimate_sigma_gamma", None),
    ("levylab.cli", "train_with_tail_logging", "training.train_with_tail_logging", None),
    ("levylab.training", "noise_pool_grads", "training.noise_pool_grads", None),
    ("levylab.training", "forward_backward", "mlp.forward_backward",
     lambda a, r: len(a[1])),
    ("levylab.training", "accuracy", "mlp.accuracy", None),
    ("levylab.training", "estimate_alpha", "tail_index.estimate_alpha",
     lambda a, r: a[0].size),
    ("levylab.stability", "estimate_alpha", "tail_index.estimate_alpha",
     lambda a, r: a[0].size),
    ("levylab.training", "stability_condition", "stability.stability_condition",
     lambda a, r: a[0].size),
    ("levylab.cli", "synthetic_blobs", "datasets.synthetic_blobs", None),
    ("levylab.cli", "main", "cli.main", None),
)

# Objective factories whose specs get a counted gradient.
_OBJECTIVES = (
    ("levylab.cli", "double_well"),
    ("levylab.cli", "quadratic"),
    ("levylab.objectives", "double_well"),
)

_ENSEMBLES = ("sde.first_exit_ensemble", "sde.first_transition_ensemble",
              "sde.occupancy_ensemble")


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        # span: [name, start, end, parent index, size, result]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._leaf_s: dict[int, float] = defaultdict(float)  # parent -> leaf time
        self.grad_calls = 0
        self.grad_s = 0.0
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name, fn, size):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec[5] = True  # a failed estimate counts as unreliable
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if size is not None:
                rec[4] = size(args, result)
            rec[5] = getattr(result, "unreliable", None)
            return result

        return traced

    def _grad(self, fn):
        stack, leaf_s = self._stack, self._leaf_s

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                self.grad_calls += 1
                self.grad_s += dt
                leaf_s[stack[-1] if stack else -1] += dt

        return traced

    def _objective(self, factory):
        def traced(*args, **kwargs):
            spec = copy.copy(factory(*args, **kwargs))
            object.__setattr__(spec, "grad", self._grad(spec.grad))
            return spec

        return traced

    def _patch(self, module_name, attr, replacement):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, replacement(original))

    def __enter__(self):
        for module, attr, name, size in _SPANS:
            self._patch(module, attr, lambda fn, n=name, s=size: self._span(n, fn, s))
        for module, attr in _OBJECTIVES:
            self._patch(module, attr, self._objective)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        return [rec[2] - rec[1] - child[i] - self._leaf_s.get(i, 0.0)
                for i, rec in enumerate(self.spans)]


def layer_metrics(tracer: Tracer, facts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``facts`` holds what the outputs say: useful lane-steps, diverged and
    censored lanes, and bytes written.  A ratio whose base is zero (the
    layer did no work on this workload) is reported as 0.
    """
    calls, size, total, flags = (defaultdict(int), defaultdict(int),
                                 defaultdict(float), defaultdict(int))
    layer_self = defaultdict(float)
    for rec, self_s in zip(tracer.spans, tracer.self_times()):
        name = rec[0]
        calls[name] += 1
        size[name] += rec[4]
        total[name] += rec[2] - rec[1]
        flags[name] += rec[5] is True
        layer_self[name.split(".", 1)[0]] += self_s

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    stable = "stable.sample_standard_sas"
    noise_s = total["sde.noise_increments"]
    computed = size["sde.noise_increments"]
    ensemble_s = sum(total[n] for n in _ENSEMBLES)
    engine_self = ensemble_s - noise_s
    useful = facts.get("lane_steps_useful", 0)
    chain = size["convergence.run_convergence"]
    fb = "mlp.forward_backward"
    logs = calls["training.noise_pool_grads"]
    tail = "tail_index.estimate_alpha"
    st = "stability.stability_condition"
    return {
        "stable.calls": calls[stable],
        "stable.variates": size[stable],
        "stable.busy_s": total[stable],
        "stable.ns_per_variate": ratio(total[stable], size[stable], 1e9),
        "sde.noise_s": noise_s,
        "sde.engine_self_s": engine_self,
        "sde.lane_steps_computed": computed,
        "sde.lane_steps_useful": useful,
        "sde.useful_fraction": ratio(useful, computed),
        "sde.ns_per_lane_step": ratio(ensemble_s, computed, 1e9),
        "sde.us_per_step": ratio(engine_self, tracer.grad_calls, 1e6),
        "sde.lanes_diverged": facts.get("lanes_diverged", 0),
        "sde.lanes_censored": facts.get("lanes_censored", 0),
        "objectives.grad_calls": tracer.grad_calls,
        "objectives.grad_busy_s": tracer.grad_s,
        "studies.self_s": layer_self["studies"],
        "convergence.chain_steps": chain,
        "convergence.self_s": layer_self["convergence"],
        "convergence.ns_per_chain_step": ratio(total["convergence.run_convergence"], chain, 1e9),
        "mlp.calls": calls[fb],
        "mlp.examples": size[fb],
        "mlp.busy_s": total[fb],
        "mlp.us_per_example": ratio(total[fb], size[fb], 1e6),
        "mlp.accuracy_s": total["mlp.accuracy"],
        "training.log_steps": logs,
        "training.pool_build_s_per_log": ratio(total["training.noise_pool_grads"], logs),
        "training.self_s": layer_self["training"],
        "tail_index.samples": size[tail],
        "tail_index.busy_s": total[tail],
        "tail_index.ns_per_sample": ratio(total[tail], size[tail], 1e9),
        "tail_index.unreliable": flags[tail],
        "stability.samples": size[st],
        "stability.self_s": layer_self["stability"],
        "stability.ns_per_sample": ratio(layer_self["stability"], size[st], 1e9),
        "datasets.build_s": total["datasets.synthetic_blobs"],
        "cli.self_s": layer_self["cli"],
        "cli.bytes_written": facts.get("bytes_written", 0),
    }
