"""Command-line front door: named experiments from config files or flags.

Configs are `key = value` lines with `#` comments and comma-separated
lists; command-line flags override file values.  Parsing is strict: an
unknown, duplicate, or missing required key is fatal, because a silently
ignored typo in an experiment parameter corrupts conclusions downstream.

Every key's schema entry states its whole domain, and parsing applies it:
a float or float-list value must be finite, an enumerated key takes only
the values it lists, and a key with a check must pass it (a key whose 0
means "derive it" must be >= 0), so no runner sees a value outside it.

`RULES` declares each command's cross-key rules, applied right after the
domain check: while a selector holds (an enumerated key at one value, or a
key moved off its default, or left at it), each key it leaves unread must
stay at its default, so the provenance records no setting that had no
effect, and each key it requires must be given.

Every command writes one CSV table behind a provenance block (command,
config hash, seed, the full resolved configuration, wall time) whose values
go through ``csvfmt.format_cell``.  Payloads are byte-reproducible for a
fixed config; only the wall-time line varies.
Exit status: 0 success, 2 configuration error, 3 finished-but-partial
(divergence above max_diverged_fraction; results are written and flagged).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .convergence import (
    ConvergenceConfig,
    ConvergenceRow,
    GradientNoise,
    default_gamma,
    estimate_sigma_gamma,
    fitted_rate_slope,
    run_convergence,
)
from .csvfmt import format_cell, format_row
from .datasets import DatasetSplit, load_mnist_idx, synthetic_blobs
from .errors import ConfigError, DegenerateInputError, ParameterError, ShapeError
from .metastability import solved_model
from .mlp import LOSS_KINDS, init_mlp
from .objectives import double_well, quadratic
from .rng import RngStream
from .sde import ExitTimeRecord, TransitionRecord
from .stability import StabilityReport, stability_condition
from .stable import StableParams, sample_sas
from .studies import exit_time_study, start_minimum, transition_study
from .tail_index import TailEstimate, choose_block_size, estimate_alpha
from .training import (
    SweepCell,
    SweepGroup,
    noise_scale_sweep,
    train_log_header,
    train_with_tail_logging,
)

OUT_DIR_ENV = "LEVYLAB_OUT"

_REQUIRED = object()
_NON_NEGATIVE = (lambda v: not np.signbit(v), "must be >= 0")  # -0.0 would pass as unset
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_EACH_AT_LEAST_ONE = (lambda v: all(x >= 1 for x in v), "must each be >= 1")
_POSITIVE = (lambda v: v > 0.0, "must be > 0")
_KS = (lambda v: len(set(v)) >= 2 and min(v) >= 1,
       "needs two or more distinct K values, each >= 1, to fit a slope")

# key -> (kind, default) or (kind, default, (test, wording)); kinds: int float
# str bool list_int list_float, or a tuple of the only strings an enumerated key
# takes.  Floats must be finite.  A key shared by several commands is declared
# once, in the group below that holds it; keys whose default differs by command
# stay in the command.
_COMMON = {"seed": ("int", 0), "output": ("str", "")}
_PARTIAL = {"max_diverged_fraction": ("float", 0.5, (lambda v: 0.0 <= v <= 1.0,
                                                     "must lie in [0, 1]"))}
_SAS = {"alpha": ("float", _REQUIRED), "sigma": ("float", 1.0), "n": ("int", _REQUIRED)}
_WELL = {
    "m1": ("float", -1.0),
    "m2": ("float", 2.0),
    "scale": ("float", 1.0),
    "start_basin": ("int", 0),
}
_VALLEY_RUN = {
    "alpha": ("float", _REQUIRED),
    "eps": ("float", _REQUIRED),
    "eta": ("float", 1e-3),
    "noise_scaling": (("jump", "cf"), "jump"),
    "time_cap_factor": ("float", 8.0),
    "records_output": ("str", ""),
}
_DATA = {
    "source": (("blobs", "mnist"), "blobs"),
    "dim": ("int", 20),
    "classes": ("int", 10),
    "spread": ("float", 2.0),
    "images": ("str", ""),
    "labels": ("str", ""),
    "test_images": ("str", ""),
    "test_labels": ("str", ""),
    "subsample": ("int", 0, _NON_NEGATIVE),
}

SCHEMAS: dict[str, dict[str, tuple]] = {
    "sample": {**_COMMON, **_SAS},
    "estimate": {**_COMMON, **_SAS, "k1": ("int", 0, _NON_NEGATIVE)},
    "stability": {
        **_COMMON,
        "source": (("sas", "gaussian", "mixture"), "sas"),
        "alpha": ("float", 0.0, _NON_NEGATIVE),
        "n": ("int", _REQUIRED),
        "threshold": ("float", 0.05),
        "shift": ("float", 5.0),
    },
    "exit-time": {
        **_COMMON,
        **_WELL,
        **_VALLEY_RUN,
        **_PARTIAL,
        "objective": (("quadratic", "double_well"), "quadratic"),
        "dim": ("int", 1),
        "a": ("float", _REQUIRED),
        "reps": ("int", 500),
        "sigma_brownian": ("float", 0.0),
    },
    "transition": {
        **_COMMON,
        **_WELL,
        **_VALLEY_RUN,
        **_PARTIAL,
        "delta": ("float", 0.2),
        "reps": ("int", 300),
    },
    "metastability": {
        **_COMMON,
        "minima": ("list_float", _REQUIRED),
        "saddles": ("list_float", _REQUIRED),
        "alpha": ("float", _REQUIRED),
    },
    "converge": {
        **_COMMON,
        **_PARTIAL,
        "noise": (("sas", "gaussian"), "sas"),
        "alpha": ("float", 1.5),
        "gamma": ("float", 0.0, _NON_NEGATIVE),
        "scale": ("float", 1.0),
        "d": ("int", 10),
        "w0_scale": ("float", 4.0),
        "ks": ("list_int", (100, 1000, 10000), _KS),
        "reps": ("int", 100, _AT_LEAST_ONE),
        "m_const": ("float", 1.0, _POSITIVE),
        "sigma_gamma": ("float", 0.0, _NON_NEGATIVE),
        "c": ("float", 0.0, _NON_NEGATIVE),
        "eta": ("float", 0.0, _NON_NEGATIVE),
        "sigma_samples": ("int", 20000),
    },
    "train": {
        **_COMMON,
        **_DATA,
        "n": ("int", 8000),
        "width": ("int", 128),
        "depth": ("int", 3, _AT_LEAST_ONE),
        "b": ("int", 100),
        "eta": ("float", 0.1),
        "iters": ("int", 1000),
        "loss": (LOSS_KINDS, "nll"),
        "log_every": ("int", 100),
        "measure_c_st": ("bool", False),
        "inject_alpha": ("float", 0.0, _NON_NEGATIVE),
        "inject_scale": ("float", 1.0, _POSITIVE),
        "init": (("fan_in", "mean_field"), "fan_in"),
    },
    "sweep": {
        **_COMMON,
        **_DATA,
        **_PARTIAL,
        "n": ("int", 2000),
        "widths": ("list_int", _REQUIRED, _EACH_AT_LEAST_ONE),
        "depths": ("list_int", (2,)),
        "batch_sizes": ("list_int", _REQUIRED),
        "etas": ("list_float", _REQUIRED),
        "loss": (LOSS_KINDS, "nll"),
        "iters": ("int", 300, _AT_LEAST_ONE),
        "groups_output": ("str", "sweep_groups.csv"),
    },
}

COMMANDS = tuple(SCHEMAS)

SET, UNSET = True, False  # selector values: the key moved off its default, or left at it


class Rule(NamedTuple):
    """While ``key`` takes ``value`` (one its enumeration lists, or SET or UNSET),
    each ``unread`` key stays at its default and each ``required`` key is moved off
    it.  Errors name the selector ``key = value``, or ``name`` if given."""

    key: str
    value: str | bool
    unread: tuple[str, ...] = ()
    required: tuple[str, ...] = ()
    name: str = ""


_IDX = ("images", "labels", "test_images", "test_labels")
_DATA_RULES = (
    Rule("source", "blobs", unread=(*_IDX, "subsample")),
    Rule("source", "mnist", unread=("n", "dim", "classes", "spread"), required=_IDX),
)

RULES: dict[str, tuple[Rule, ...]] = {
    "exit-time": (
        Rule("objective", "quadratic", unread=tuple(_WELL)),
        Rule("objective", "double_well", unread=("dim",)),
    ),
    "stability": (
        Rule("source", "sas", unread=("shift",), required=("alpha",)),
        Rule("source", "gaussian", unread=("alpha", "shift")),
        Rule("source", "mixture", unread=("alpha",)),
    ),
    "converge": (
        Rule("noise", "gaussian", unread=("alpha",)),
        Rule("eta", SET, unread=("c",), name="eta > 0"),
        Rule("sigma_gamma", SET, unread=("sigma_samples",), name="sigma_gamma > 0"),
    ),
    "train": (*_DATA_RULES,
              Rule("inject_alpha", UNSET, unread=("inject_scale",), name="inject_alpha <= 0")),
    "sweep": _DATA_RULES,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A resolved, validated experiment invocation."""

    command: str
    parameters: dict
    output_path: str


@dataclass(frozen=True)
class RunResult:
    """CSV header, rows, comment trailer and extra (path, header, rows) file."""

    header: str
    rows: tuple[str, ...] | list[str]
    partial: bool = False
    extra: tuple[str, str, list[str]] | None = None
    trailer: tuple[str, ...] | list[str] = ()


def _read_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(text)


def _read_list(read):
    return lambda text: tuple(read(p) for p in text.split(",") if p.strip())


_READERS = {"int": int, "float": float, "str": str, "bool": _read_bool,
            "list_int": _read_list(int), "list_float": _read_list(float)}


def _convert(command: str, key: str, value: str, kind, check=None):
    """``value`` read as ``kind`` and checked against the key's domain: a value
    outside it would reach the run, or pass its ``> 0.0`` tests as unset."""
    text = value.strip()
    if isinstance(kind, tuple):
        if text not in kind:
            raise ConfigError(
                f"{command}: key '{key}' must be one of {', '.join(kind)}, got {text!r}")
        return text
    try:
        typed = _READERS[kind](text)
    except ValueError:
        raise ConfigError(f"{command}: key '{key}' expects {kind}, got {value!r}") from None
    if kind in ("float", "list_float") and not np.isfinite(typed).all():
        raise ParameterError(f"{command}: key '{key}' must be finite, got {format_cell(typed)}")
    if check and not check[0](typed):
        raise ConfigError(f"{command}: key '{key}' {check[1]}, got {format_cell(typed)}")
    return typed


def parse_config(
    text: str, command_override: str | None = None, overrides: dict[str, str] | None = None
) -> ExperimentConfig:
    """Typed config from `key = value` text, with flag overrides applied.

    The command comes from a `command = ...` line or from the override; if
    both are given they must agree.  Unknown, duplicate, or missing required
    keys, values outside a key's domain, and breaches of the command's
    ``RULES`` are fatal and named in the diagnostic.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in raw:
            raise ConfigError(f"duplicate key '{key}' (line {lineno})")
        raw[key] = value
    command = raw.pop("command", None)
    if command_override is not None and command not in (None, command_override):
        raise ConfigError(
            f"config file names command {command!r} but {command_override!r} was asked for"
        )
    command = command_override or command
    if not command:
        raise ConfigError(f"no command given; choose one of {', '.join(COMMANDS)}")
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}; choose one of {', '.join(COMMANDS)}")
    for key, value in (overrides or {}).items():
        raw[key] = value
    schema = SCHEMAS[command]
    unknown = [k for k in raw if k not in schema]
    if unknown:
        raise ConfigError(f"{command}: unknown key '{unknown[0]}'")
    params = {}
    for key, (kind, default, *check) in schema.items():
        if key in raw:
            params[key] = _convert(command, key, raw[key], kind, *check)
        elif default is _REQUIRED:
            raise ConfigError(f"{command}: missing required key '{key}'")
        else:
            params[key] = default
    moved = {key for key in params if params[key] != schema[key][1]}
    for rule in RULES.get(command, ()):
        state = rule.key in moved if isinstance(rule.value, bool) else params[rule.key]
        if state != rule.value:
            continue
        label = rule.name or f"{rule.key} = {rule.value}"
        for key in rule.unread:
            if key in moved:
                raise ConfigError(f"{command}: key '{key}' is not read when {label}; remove it")
        for key in rule.required:
            if key not in moved:
                raise ConfigError(f"{command}: key '{key}' is required when {label}")
    output = params.pop("output") or f"{command}.csv"
    return ExperimentConfig(command=command, parameters=params, output_path=output)


def _config_lines(config: ExperimentConfig) -> list[str]:
    """``key = value`` for every parameter in key order, then output."""
    p = config.parameters
    return [*(f"{key} = {format_cell(p[key])}" for key in sorted(p)),
            f"output = {config.output_path}"]


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; parsing it back yields an equal config."""
    return "\n".join([f"command = {config.command}", *_config_lines(config)]) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(config).encode()).hexdigest()[:16]


def _provenance_lines(config: ExperimentConfig, wall_time_s: float) -> list[str]:
    """The config as comments, its seed line first, after the command and hash."""
    lines = _config_lines(config)
    seed = lines.pop(sorted(config.parameters).index("seed"))
    return [f"# levylab {config.command}", f"# config_hash = {config_hash(config)}",
            f"# {seed}", *(f"# {line}" for line in lines), f"# wall_time_s = {wall_time_s:.3f}"]


def _resolve_path(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), path)


def _check_output_dirs(config: ExperimentConfig) -> None:
    """Refuse a run whose output files (``output``, then ``records_output`` when
    set, and ``groups_output``, which ``sweep`` always writes) would land in a
    missing directory or on an existing one, or whose extra file is the
    ``output`` file."""
    p = config.parameters
    # an empty records_output writes no file; sweep writes groups_output always
    extra = [k for k in p if k == "groups_output" or k == "records_output" and p[k]]
    output = os.path.realpath(_resolve_path(config.output_path))
    for key in extra:
        if os.path.realpath(_resolve_path(p[key])) == output:
            raise ConfigError(f"{config.command}: key '{key}' names the output file {p[key]!r}")
    for key, path in (("output", config.output_path), *((k, p[k]) for k in extra)):
        folder = os.path.dirname(_resolve_path(path)) or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"output directory {folder!r} of {path!r} does not exist")
        if os.path.isdir(_resolve_path(path)):
            raise ConfigError(f"{config.command}: key '{key}' names a directory, {path!r}")


def _write_csv(path: str, config: ExperimentConfig, wall: float, result: RunResult) -> None:
    lines = _provenance_lines(config, wall)
    if result.partial:
        lines.append("# partial = true")
    lines += [result.header, *result.rows, *result.trailer]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _build_objective(config: ExperimentConfig):
    p = config.parameters
    if p["objective"] == "quadratic":
        return quadratic(p["dim"]), tuple([0.0] * p["dim"])
    spec = double_well(p["m1"], p["m2"], p["scale"])
    return spec, (start_minimum(spec, p["start_basin"]),)


def _run_sample(config: ExperimentConfig):
    p = config.parameters
    params = StableParams(p["alpha"], p["sigma"])
    draws = sample_sas(params, p["n"], RngStream(p["seed"]))
    return RunResult("value", [format_cell(v) for v in draws.tolist()])


def _run_estimate(config: ExperimentConfig):
    p = config.parameters
    params = StableParams(p["alpha"], p["sigma"])
    draws = sample_sas(params, p["n"], RngStream(p["seed"]))
    k1 = p["k1"] if p["k1"] > 0 else choose_block_size(p["n"])
    est = estimate_alpha(draws, k1)
    return RunResult(TailEstimate.CSV_HEADER, [est.csv_row()])


def _run_stability(config: ExperimentConfig):
    p = config.parameters
    gen = RngStream(p["seed"]).generator()
    n = p["n"]
    if p["source"] == "sas":
        pool = sample_sas(StableParams(p["alpha"]), n, RngStream(p["seed"]))
    else:
        pool = gen.normal(0.0, 1.0, n)
    if p["source"] == "mixture":
        signs = gen.integers(0, 2, n) * 2 - 1
        pool = pool + p["shift"] * signs
    report = stability_condition(pool, RngStream(p["seed"], 1), p["threshold"])
    return RunResult(StabilityReport.CSV_HEADER, [report.csv_row()])


def _study_result(config: ExperimentConfig, study, record_type):
    """The study's row, partial past ``max_diverged_fraction``, plus its records
    file (of ``record_type`` rows) when ``records_output`` is set."""
    p = config.parameters
    partial = study.n_diverged / p["reps"] > p["max_diverged_fraction"]
    extra = None
    if p["records_output"]:
        extra = (p["records_output"], record_type.CSV_HEADER,
                 [r.csv_row() for r in study.records])
    return RunResult(study.CSV_HEADER, [study.csv_row()], partial, extra)


def _run_exit_time(config: ExperimentConfig):
    p = config.parameters
    spec, center = _build_objective(config)
    study = exit_time_study(
        spec, center, p["alpha"], p["eps"], p["a"], p["eta"],
        RngStream(p["seed"]), n_replicates=p["reps"],
        sigma_brownian=p["sigma_brownian"],
        time_cap_factor=p["time_cap_factor"],
        noise_scaling=p["noise_scaling"],
    )
    return _study_result(config, study, ExitTimeRecord)


def _run_transition(config: ExperimentConfig):
    p = config.parameters
    spec = double_well(p["m1"], p["m2"], p["scale"])
    study = transition_study(
        spec, p["alpha"], p["eps"], p["delta"], p["eta"], RngStream(p["seed"]),
        n_replicates=p["reps"], start_basin=p["start_basin"],
        noise_scaling=p["noise_scaling"], time_cap_factor=p["time_cap_factor"],
    )
    return _study_result(config, study, TransitionRecord)


def _run_converge(config: ExperimentConfig):
    p = config.parameters
    kind = p["noise"]
    alpha = 2.0 if kind == "gaussian" else p["alpha"]
    noise = GradientNoise(kind, alpha, p["scale"])
    gamma = p["gamma"] if p["gamma"] > 0.0 else (
        1.0 if kind == "gaussian" else default_gamma(alpha)
    )
    spec = quadratic(p["d"])
    w0 = np.full(p["d"], p["w0_scale"] / np.sqrt(p["d"]))
    rng = RngStream(p["seed"])
    sigma_gamma = p["sigma_gamma"]
    if sigma_gamma <= 0.0:
        sigma_gamma = estimate_sigma_gamma(
            spec, noise, w0, gamma, rng.substream(0), p["sigma_samples"]
        )
    gap = float(spec.f(w0))
    cfg = ConvergenceConfig(
        gamma=gamma, sigma_gamma=sigma_gamma, M=p["m_const"], gap=gap,
        ks=tuple(p["ks"]), replicates=p["reps"],
        stepsize_c=(p["c"] if p["c"] > 0.0 else None),
        eta=(p["eta"] if p["eta"] > 0.0 else None),
    )
    rows = run_convergence(spec, noise, cfg, w0, rng.substream(1))
    partial = any(r.diverged_fraction > p["max_diverged_fraction"] for r in rows)
    trailer = [f"# fitted_slope = {format_cell(fitted_rate_slope(rows))}",
               f"# sigma_gamma = {format_cell(sigma_gamma)}"]
    return RunResult(ConvergenceRow.CSV_HEADER, [r.csv_row() for r in rows], partial,
                     trailer=trailer)


def _load_data(config: ExperimentConfig, rng: RngStream) -> DatasetSplit:
    p = config.parameters
    if p["source"] == "blobs":
        return synthetic_blobs(p["n"], p["dim"], p["classes"], p["spread"], rng)
    train_x, train_y = load_mnist_idx(p["images"], p["labels"])
    test_x, test_y = load_mnist_idx(p["test_images"], p["test_labels"])
    sub = p["subsample"]
    if sub > 0:
        train_x, train_y = train_x[:sub], train_y[:sub]
    return DatasetSplit(train_x=train_x, train_y=train_y, test_x=test_x, test_y=test_y,
                        n_classes=10)


def _run_train(config: ExperimentConfig):
    p = config.parameters
    injection = None
    if p["inject_alpha"] > 0.0:
        injection = StableParams(p["inject_alpha"], p["inject_scale"])
    rng = RngStream(p["seed"])
    data = _load_data(config, rng.substream(1))
    sizes = (data.input_dim, *([p["width"]] * (p["depth"] - 1)), data.n_classes)
    model = init_mlp(sizes, rng.substream(2), scheme=p["init"])
    rows = train_with_tail_logging(
        model, data, p["b"], p["eta"], p["iters"], p["loss"], rng.substream(3),
        log_every=p["log_every"], measure_c_st=p["measure_c_st"],
        injection=injection,
    )
    return RunResult(train_log_header(p["depth"]), [r.csv_row() for r in rows])


def _run_sweep(config: ExperimentConfig):
    p = config.parameters
    rng = RngStream(p["seed"])
    data = _load_data(config, rng.substream(1))
    cells, groups = noise_scale_sweep(
        data, tuple(p["widths"]), tuple(p["depths"]), tuple(p["batch_sizes"]),
        tuple(p["etas"]), p["loss"], p["iters"], rng.substream(2),
    )
    n_div = sum(c.diverged for c in cells)
    partial = n_div / len(cells) > p["max_diverged_fraction"]
    extra = (p["groups_output"], SweepGroup.CSV_HEADER, [g.csv_row() for g in groups])
    return RunResult(SweepCell.CSV_HEADER, [c.csv_row() for c in cells], partial, extra)


def _run_metastability(config: ExperimentConfig):
    p = config.parameters
    model = solved_model(tuple(p["minima"]), tuple(p["saddles"]), p["alpha"])
    q_cols = [f"q_{j}" for j in range(len(model.pi))]
    rows = [format_row(i, float(m), float(model.pi[i]), *map(float, model.Q[i]))
            for i, m in enumerate(model.minima)]
    return RunResult(",".join(["valley", "minimum", "pi", *q_cols]), rows)


_RUNNERS = {
    "sample": _run_sample,
    "estimate": _run_estimate,
    "stability": _run_stability,
    "exit-time": _run_exit_time,
    "transition": _run_transition,
    "metastability": _run_metastability,
    "converge": _run_converge,
    "train": _run_train,
    "sweep": _run_sweep,
}

USAGE = (
    "usage: levylab <command> [--config FILE] [--key value ...]\n"
    f"commands: {', '.join(COMMANDS)}\n"
    "Config files hold `key = value` lines (# comments, comma lists);\n"
    "flags override file values. Results carry a provenance header.\n"
)


def _parse_argv(argv: list[str]) -> tuple[str, str, dict[str, str]]:
    file_text = ""
    flags: dict[str, str] = {}
    tokens = iter(argv[1:])
    for tok in tokens:
        if not tok.startswith("--"):
            raise ConfigError(f"expected --key, got {tok!r}")
        key, eq, value = tok[2:].partition("=")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ConfigError(f"flag --{key} needs a value")
        if key == "config":
            try:
                with open(value) as fh:
                    file_text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file {value!r}: {exc}") from None
        elif key in flags:
            raise ConfigError(f"duplicate key '{key}'")
        else:
            flags[key] = value
    return argv[0], file_text, flags


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(USAGE)
        return 0 if argv else 2
    try:
        command, file_text, flags = _parse_argv(argv)
        config = parse_config(file_text, command_override=command, overrides=flags)
        _check_output_dirs(config)
        start = time.monotonic()
        result = _RUNNERS[config.command](config)
        wall = time.monotonic() - start
        _write_csv(_resolve_path(config.output_path), config, wall, result)
        if result.extra is not None:
            path, header, rows = result.extra
            _write_csv(_resolve_path(path), config, wall, RunResult(header, rows, result.partial))
        return 3 if result.partial else 0
    except (ConfigError, ParameterError, ShapeError, DegenerateInputError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc), "status": 2}
        sys.stderr.write(json.dumps(record) + "\n")
        return 2
