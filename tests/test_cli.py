import importlib.util
import json
import struct
import time
from pathlib import Path

import pytest

import levylab
from levylab.cli import (
    COMMANDS,
    RULES,
    SCHEMAS,
    UNSET,
    ExperimentConfig,
    config_hash,
    main,
    parse_config,
    serialize_config,
)
from levylab.csvfmt import format_cell
from levylab.errors import ConfigError

SAMPLE_TEXT = "command = sample\nalpha = 1.5\nn = 1000\nseed = 7\n"


def test_parse_types_and_defaults():
    config = parse_config(SAMPLE_TEXT)
    assert config.command == "sample"
    assert config.parameters["alpha"] == 1.5
    assert config.parameters["n"] == 1000 and isinstance(config.parameters["n"], int)
    assert config.parameters["sigma"] == 1.0
    assert config.output_path == "sample.csv"


def test_flag_overrides_beat_file_values():
    config = parse_config(SAMPLE_TEXT, overrides={"alpha": "1.2", "output": "x.csv"})
    assert config.parameters["alpha"] == 1.2
    assert config.output_path == "x.csv"


def test_list_and_bool_parsing():
    config = parse_config(
        "command = sweep\nwidths = 8, 16\nbatch_sizes = 20\netas = 0.1,0.2\n"
    )
    assert config.parameters["widths"] == (8, 16)
    assert config.parameters["etas"] == (0.1, 0.2)
    train = parse_config("command = train\nmeasure_c_st = yes\n")
    assert train.parameters["measure_c_st"] is True


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("command = sample\nalpha = 1.5\nalpha = 1.6\nn = 10\n", "duplicate key 'alpha'"),
        ("command = sample\nalhpa = 1.5\nn = 10\n", "unknown key 'alhpa'"),
        ("command = sample\nalpha = 1.5\n", "missing required key 'n'"),
        ("command = sample\nalpha = 1.5\nn = ten\n", "key 'n' expects int"),
        ("alpha = 1.5\nn = 10\n", "no command"),
        ("command = sampel\nn = 10\n", "unknown command"),
        ("command = sample\nalpha 1.5\n", "expected 'key = value'"),
        ("command = train\nmeasure_c_st = maybe\n", "expects bool"),
    ],
)
def test_strict_parse_errors_name_the_problem(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


_MINIMAL = {
    "sample": "alpha = 1.5\nn = 10\n",
    "estimate": "alpha = 1.5\nn = 100\n",
    "stability": "n = 100\nalpha = 1.5\n",
    "exit-time": "alpha = 1.5\neps = 0.1\na = 1.0\n",
    "transition": "alpha = 1.5\neps = 0.1\n",
    "metastability": "minima = -1,2\nsaddles = 0\nalpha = 1.0\n",
    "converge": "",
    "train": "",
    "sweep": "widths = 8\nbatch_sizes = 20\netas = 0.1\n",
}


@pytest.mark.parametrize("command", COMMANDS)
def test_serialize_round_trips(command):
    config = parse_config(f"command = {command}\n" + _MINIMAL[command])
    again = parse_config(serialize_config(config))
    assert again == config
    assert config_hash(again) == config_hash(config)


def test_hash_tracks_content():
    a = parse_config(SAMPLE_TEXT)
    b = parse_config(SAMPLE_TEXT.replace("seed = 7", "seed = 8"))
    c = parse_config(SAMPLE_TEXT, overrides={"output": "other.csv"})
    assert config_hash(a) != config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert config_hash(a) == config_hash(parse_config(SAMPLE_TEXT))


def test_usage_paths(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "usage: levylab" in out and "exit-time" in out
    assert all(hasattr(levylab, name) for name in levylab.__all__)


def _read(path):
    text = path.read_text()
    comments = [l for l in text.splitlines() if l.startswith("#")]
    body = [l for l in text.splitlines() if not l.startswith("#")]
    return comments, body


def test_sample_writes_provenance_and_rows(tmp_path, monkeypatch):
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path))
    assert main(["sample", "--alpha", "1.5", "--n=100", "--seed", "3"]) == 0
    comments, body = _read(tmp_path / "sample.csv")
    assert comments[0] == "# levylab sample"
    assert any(c.startswith("# config_hash = ") for c in comments)
    assert "# seed = 3" in comments
    assert any(c.startswith("# wall_time_s = ") for c in comments)
    assert body[0] == "value" and len(body) == 101
    float(body[1])


def test_reruns_differ_only_in_wall_time(tmp_path, monkeypatch):
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.setenv("LEVYLAB_OUT", str(d))
        assert main(["estimate", "--alpha", "1.8", "--n", "5000", "--seed", "9"]) == 0
    a = (tmp_path / "a" / "estimate.csv").read_text().splitlines()
    b = (tmp_path / "b" / "estimate.csv").read_text().splitlines()
    assert len(a) == len(b)
    for la, lb in zip(a, b):
        if la.startswith("# wall_time_s"):
            assert lb.startswith("# wall_time_s")
        else:
            assert la == lb


def test_estimate_recovers_alpha(tmp_path, monkeypatch):
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path))
    assert main(["estimate", "--alpha", "1.5", "--n", "100000", "--seed", "5"]) == 0
    _, body = _read(tmp_path / "estimate.csv")
    assert body[0] == "alpha_hat,k1,k2,n_used,n_dropped"
    alpha_hat = float(body[1].split(",")[0])
    assert alpha_hat == pytest.approx(1.5, abs=0.1)


def test_config_file_plus_flag_override(tmp_path, monkeypatch):
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = sample\nalpha = 1.2\nn = 10\n# a comment\n")
    assert main(["sample", "--config", str(cfg), "--alpha", "1.8"]) == 0
    comments, _ = _read(tmp_path / "sample.csv")
    assert "# alpha = 1.8" in comments


def test_error_record_is_machine_readable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path))
    assert main(["estimate", "--alpha", "1.5"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError" and record["status"] == 2
    assert "'n'" in record["message"]
    assert main(["sample", "--alpha", "1", "--alpha", "2", "--n", "5"]) == 2
    assert "duplicate" in json.loads(capsys.readouterr().err)["message"]
    assert main(["sample", "--alpha"]) == 2
    assert "needs a value" in json.loads(capsys.readouterr().err)["message"]


def test_metastability_csv_output(tmp_path, monkeypatch):
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path))
    assert main(
        ["metastability", "--minima", "-1,2", "--saddles", "0", "--alpha", "1.0"]
    ) == 0
    comments, body = _read(tmp_path / "metastability.csv")
    assert comments[0] == "# levylab metastability"
    assert "# alpha = 1.0" in comments
    assert body[0] == "valley,minimum,pi,q_0,q_1"
    rows = [[float(cell) for cell in line.split(",")] for line in body[1:]]
    assert [row[:2] for row in rows] == [[0, -1.0], [1, 2.0]]
    assert [row[2] for row in rows] == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-12)
    assert rows[0][3:] == pytest.approx([-1.0, 1.0])
    assert rows[1][3:] == pytest.approx([0.5, -0.5])


def test_metastability_wall_time_covers_the_solve(tmp_path, monkeypatch):
    import levylab.cli as cli

    solve = cli.solved_model

    def slow_solve(*args):
        time.sleep(0.05)
        return solve(*args)

    monkeypatch.setattr(cli, "solved_model", slow_solve)
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path))
    assert main(
        ["metastability", "--minima", "-1,2", "--saddles", "0", "--alpha", "1.0"]
    ) == 0
    comments, _ = _read(tmp_path / "metastability.csv")
    wall = [c for c in comments if c.startswith("# wall_time_s = ")]
    assert len(wall) == 1 and float(wall[0].partition(" = ")[2]) >= 0.05


def test_exit_time_records_file(tmp_path, monkeypatch):
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path))
    assert main(
        ["exit-time", "--objective", "quadratic", "--alpha", "1.6", "--eps", "0.5",
         "--a", "1.0", "--eta", "0.01", "--reps", "10", "--seed", "21",
         "--records_output", "records.csv"]
    ) == 0
    _, body = _read(tmp_path / "exit-time.csv")
    assert body[0].startswith("alpha,")
    _, records = _read(tmp_path / "records.csv")
    assert records[0] == "replicate,exited,exit_step,exit_time,radius_a,diverged"
    assert len(records) == 11


def test_converge_appends_fit_trailer(tmp_path, monkeypatch):
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path))
    assert main(
        ["converge", "--noise", "gaussian", "--d", "2", "--ks", "50,100",
         "--reps", "5", "--sigma_samples", "2000", "--seed", "13"]
    ) == 0
    lines = (tmp_path / "converge.csv").read_text().splitlines()
    assert any(l.startswith("# fitted_slope = ") for l in lines[-2:])
    assert any(l.startswith("# sigma_gamma = ") for l in lines[-2:])


def test_divergent_sweep_exits_partial(tmp_path, monkeypatch):
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path))
    code = main(
        ["sweep", "--n", "40", "--classes", "2", "--dim", "5", "--widths", "8",
         "--batch_sizes", "20", "--etas", "0.001,1e60", "--iters", "5",
         "--max_diverged_fraction", "0.0", "--seed", "17"]
    )
    assert code == 3
    comments, body = _read(tmp_path / "sweep.csv")
    assert "# partial = true" in comments
    assert len(body) == 3 and body[2].endswith("true")
    g_comments, g_body = _read(tmp_path / "sweep_groups.csv")
    assert "# partial = true" in g_comments
    assert g_body[0] == "ratio,n_cells,n_diverged,mean_test_error,mean_alpha_hat"


def test_output_resolution_prefers_absolute(tmp_path, monkeypatch):
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path / "env"))
    (tmp_path / "env").mkdir()
    target = tmp_path / "abs.csv"
    assert main(["sample", "--alpha", "1.5", "--n", "5", "--output", str(target)]) == 0
    assert target.exists()
    assert not (tmp_path / "env" / "abs.csv").exists()


def test_serialize_is_order_insensitive():
    a = parse_config("command = sample\nalpha = 1.5\nn = 10\nseed = 2\n")
    b = parse_config("command = sample\nseed = 2\nn = 10\nalpha = 1.5\n")
    assert serialize_config(a) == serialize_config(b)
    assert isinstance(a, ExperimentConfig)


@pytest.mark.parametrize("basin", ["5", "-1"])
def test_exit_time_rejects_start_basin_out_of_range(tmp_path, monkeypatch, capsys, basin):
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path))
    assert main(
        ["exit-time", "--objective", "double_well", "--start_basin", basin,
         "--alpha", "1.5", "--eps", "0.5", "--a", "0.5", "--eta", "0.01", "--reps", "4"]
    ) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["message"] == f"start_basin {basin} out of range for 2 minima"
    assert not (tmp_path / "exit-time.csv").exists()


@pytest.mark.parametrize("depth", ["0", "-2"])
def test_train_rejects_depth_below_one(tmp_path, monkeypatch, capsys, depth):
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path))
    assert main(["train", "--n", "40", "--classes", "2", "--dim", "3", "--width", "4",
                 "--b", "10", "--iters", "2", "--depth", depth]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError" and "depth" in record["message"]
    assert not (tmp_path / "train.csv").exists()


_TINY = {
    "sample": "--alpha 1.5 --n 50",
    "estimate": "--alpha 1.5 --n 2000",
    "stability": "--source mixture --n 600",
    "exit-time": "--objective quadratic --dim 2 --alpha 1.8 --eps 0.1 --a 1.0 --eta 0.01"
                 " --reps 12 --noise_scaling cf --time_cap_factor 1.1"
                 " --records_output records.csv",
    "transition": "--alpha 1.2 --eps 0.4 --eta 0.01 --reps 12 --records_output records.csv",
    "metastability": "--minima -1,2 --saddles 0 --alpha 1.0",
    "converge": "--d 2 --ks 20,40 --reps 3 --sigma_samples 500",
    "train": "--n 60 --classes 2 --dim 3 --width 4 --b 10 --iters 11 --log_every 5",
    "sweep": "--n 40 --classes 2 --dim 5 --widths 8 --batch_sizes 20 --etas 0.001,1e60"
             " --iters 5 --groups_output groups.csv",
}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_csv_cell_follows_the_format_rules(tmp_path, monkeypatch, command):
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path))
    assert main([command, *_TINY[command].split(), "--seed", "3"]) in (0, 3)
    paths = sorted(tmp_path.glob("*.csv"))
    assert paths
    for path in paths:
        comments, body = _read(path)
        header = body[0].split(",")
        assert all(header), f"{path.name}: blank column name in {body[0]!r}"
        assert len(body) > 1, f"{path.name}: no data rows"
        for line in body[1:] + [c.partition(" = ")[2] for c in comments]:
            cells = line.split(",")
            assert not {"True", "False", "None"} & set(cells), f"{path.name}: {line!r}"
            assert "np." not in line, f"{path.name}: {line!r}"
        assert all(len(line.split(",")) == len(header) for line in body[1:]), path.name


_MNIST = ("--source mnist --images {d}/im --labels {d}/lb --test_images {d}/im"
          " --test_labels {d}/lb")
_TRAIN = "train --width 4 --b 10 --iters 2 --log_every 1"
_SWEEP = "sweep --widths 4 --batch_sizes 10 --etas 0.1 --iters 2"
_CONVERGE = "converge --d 2 --ks 20,40 --reps 3"
_EXIT = "exit-time --alpha 1.6 --eps 0.5 --a 0.5 --eta 0.01 --reps 5"
_BLOBS = "--n 40 --classes 2 --dim 3"


@pytest.mark.parametrize(
    "argv, key",
    [
        pytest.param(f"{_EXIT} --objective quadratic --start_basin 7 --m1 5", "m1",
                     id="exit-time-quadratic-well"),
        pytest.param(f"{_EXIT} --objective quadratic --start_basin 1", "start_basin",
                     id="exit-time-quadratic-start_basin"),
        pytest.param(f"{_EXIT} --objective double_well --dim 3", "dim",
                     id="exit-time-double_well-dim"),
        pytest.param("stability --n 600 --source gaussian --alpha 1.3", "alpha",
                     id="stability-gaussian-alpha"),
        pytest.param("stability --n 600 --source mixture --alpha 1.3", "alpha",
                     id="stability-mixture-alpha"),
        pytest.param("stability --n 600 --source sas --alpha 1.5 --shift 3", "shift",
                     id="stability-sas-shift"),
        pytest.param(f"{_CONVERGE} --sigma_samples 500 --noise gaussian --alpha 1.1",
                     "alpha", id="converge-gaussian-alpha"),
        pytest.param(f"{_CONVERGE} --sigma_samples 500 --eta 0.01 --c 2", "c",
                     id="converge-eta-c"),
        pytest.param(f"{_CONVERGE} --sigma_gamma 1.0 --sigma_samples 500", "sigma_samples",
                     id="converge-sigma_gamma-sigma_samples"),
        pytest.param(f"{_TRAIN} {_BLOBS} --images foo --subsample 7", "images",
                     id="train-blobs-images"),
        pytest.param(f"{_SWEEP} {_BLOBS} --subsample 7", "subsample",
                     id="sweep-blobs-subsample"),
        pytest.param(f"{_TRAIN} {_MNIST} --n 100", "n", id="train-mnist-n"),
        pytest.param(f"{_SWEEP} {_MNIST} --spread 3", "spread", id="sweep-mnist-spread"),
        pytest.param(f"{_TRAIN} {_BLOBS} --inject_scale 50", "inject_scale",
                     id="train-inject_scale"),
    ],
)
def test_unread_key_is_rejected(tmp_path, monkeypatch, capsys, argv, key):
    data = tmp_path / "data"
    data.mkdir()
    data.joinpath("im").write_bytes(struct.pack(">IIII", 0x803, 20, 2, 2) + bytes(range(80)))
    data.joinpath("lb").write_bytes(struct.pack(">II", 0x801, 20) + bytes([0, 1] * 10))
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setenv("LEVYLAB_OUT", str(out))
    assert main(argv.format(d=data).split()) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert f"key '{key}' is not read" in record["message"]
    assert not list(out.iterdir())


_BAD_INPUT_BASES = {
    "sample": {"alpha": "1.5", "n": "50"},
    "estimate": {"alpha": "1.5", "n": "2000"},
    "stability": {"alpha": "1.5", "n": "600"},
    "exit-time": {"alpha": "1.6", "eps": "0.5", "a": "0.5", "eta": "0.01", "reps": "5"},
    "transition": {"alpha": "1.2", "eps": "0.4", "eta": "0.01", "reps": "6"},
    "metastability": {"minima": "-1,2", "alpha": "1.3", "saddles": "0"},
    "converge": {"d": "2", "ks": "20,40", "reps": "3", "sigma_samples": "500"},
    "train": {"n": "240", "dim": "5", "classes": "3", "width": "8", "b": "20", "iters": "11",
              "log_every": "10", "seed": "8"},
    "sweep": {"n": "40", "classes": "2", "dim": "5", "widths": "8", "batch_sizes": "20",
              "etas": "0.001", "iters": "5", "seed": "9"},
}


def _schema_domain_cases():
    """Every float key with nan and inf, and every enumerated key with an unlisted
    value, of every command: parsing refuses each and names the key."""
    for command, schema in SCHEMAS.items():
        for key, (kind, *_) in schema.items():
            if kind in ("float", "list_float"):
                yield from ((command, key, v, "ParameterError", f"key '{key}' must be finite")
                            for v in ("nan", "inf"))
            elif isinstance(kind, tuple):
                yield (command, key, "bogus", "ConfigError",
                       f"key '{key}' must be one of {', '.join(kind)}, got 'bogus'")


_BAD_INPUTS = [
    *_schema_domain_cases(),
    ("sweep", "etas", "0.001,nan", "ParameterError", "key 'etas' must be finite"),
    # finite values outside a library domain, which only the run itself refuses
    *[(cmd, "eta", "0", "ParameterError", "eta must") for cmd in ("exit-time", "transition")],
    ("transition", "eps", "0", "ParameterError", "epsilon must"),
    ("transition", "eps", "-0.5", "ParameterError", "epsilon must"),
    ("transition", "time_cap_factor", "0.5", "ParameterError", "time_cap_factor must"),
    *[("transition", "reps", v, "ParameterError", "n_replicates must") for v in ("-1", "0")],
    *[("sweep", "etas", v, "ParameterError", f"eta must be positive and finite, got {v}")
      for v in ("-0.5", "0")],
    # a key whose 0 means "derive it" would read a negative value as unset
    *[("converge", key, v, "ConfigError", f"converge: key '{key}' must be >= 0, got {v}")
      for key, v in (("eta", "-0.5"), ("c", "-2.0"), ("gamma", "-1.0"), ("sigma_gamma", "-1.0"),
                     ("eta", "-0.0"))],
    ("train", "inject_alpha", "-1", "ConfigError", "train: key 'inject_alpha' must be >= 0"),
    ("estimate", "k1", "-5", "ConfigError", "estimate: key 'k1' must be >= 0, got -5"),
    ("stability", "alpha", "-1", "ConfigError", "stability: key 'alpha' must be >= 0"),
    ("converge", "ks", "20,-40", "ConfigError",
     "converge: key 'ks' needs two or more distinct K values, each >= 1, to fit a slope"),
    ("converge", "reps", "0", "ConfigError", "converge: key 'reps' must be >= 1, got 0"),
    ("sweep", "iters", "-5", "ConfigError", "sweep: key 'iters' must be >= 1, got -5"),
    *[(cmd, "max_diverged_fraction", "-1", "ConfigError",
       f"{cmd}: key 'max_diverged_fraction' must lie in [0, 1], got -1.0")
      for cmd in ("exit-time", "transition", "converge", "sweep")],
    ("train", "subsample", "-3", "ConfigError", "train: key 'subsample' must be >= 0, got -3"),
    ("converge", "m_const", "0", "ConfigError", "converge: key 'm_const' must be > 0, got 0.0"),
    ("sweep", "widths", "8,0", "ConfigError", "sweep: key 'widths' must each be >= 1, got 8,0"),
    *[("train", "inject_scale", v, "ConfigError",
       f"train: key 'inject_scale' must be > 0, got {float(v)!r}") for v in ("0", "-2")],
]


@pytest.mark.parametrize("command, key, value, error, fragment", _BAD_INPUTS,
                         ids=["-".join(case[:3]) for case in _BAD_INPUTS])
def test_bad_run_input_exits_2_before_any_output(tmp_path, monkeypatch, capsys,
                                                 command, key, value, error, fragment):
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path))
    flags = {**_BAD_INPUT_BASES[command], key: value}
    assert main([command, *(t for k, v in flags.items() for t in (f"--{k}", v))]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == error and record["status"] == 2
    assert fragment in record["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    "transition --alpha 2 --eps 0.4 --eta 0.01 --reps 6 --noise_scaling cf",
    "metastability --minima -1,2 --saddles 0 --alpha 2",
], ids=["transition", "metastability"])
def test_valley_rate_commands_refuse_brownian_alpha(tmp_path, monkeypatch, capsys, argv):
    # the chain's rates come from the jumps of the driving noise, and alpha 2 has none
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path))
    assert main(argv.split()) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ParameterError"
    assert "alpha must lie in (0, 2), got 2.0" in record["message"]
    assert not list(tmp_path.iterdir())


def test_default_valued_unread_key_is_accepted(tmp_path, monkeypatch):
    for sub, extra in (("plain", []), ("flagged", ["--m1", "-1.0", "--start_basin", "0"])):
        (tmp_path / sub).mkdir()
        monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path / sub))
        assert main([*_EXIT.split(), "--objective", "quadratic", *extra]) == 0
    plain, flagged = ((tmp_path / sub / "exit-time.csv").read_text().splitlines()
                      for sub in ("plain", "flagged"))
    assert [l for l in plain if not l.startswith("# wall_time_s")] == [
        l for l in flagged if not l.startswith("# wall_time_s")
    ]


def test_config_file_command_must_match_argv(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setenv("LEVYLAB_OUT", str(out))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = sample\nalpha = 1.5\nn = 10\n")
    assert main(["estimate", "--config", str(cfg)]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert "'sample'" in message and "'estimate'" in message
    assert not list(out.iterdir())


def test_missing_idx_file_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path))
    missing = tmp_path / "nope"
    argv = (f"train --source mnist --images {missing} --labels {missing}"
            f" --test_images {missing} --test_labels {missing}")
    assert main(argv.split()) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "IdxFormatError" and str(missing) in record["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "out_dir, argv",
    [
        pytest.param("missing", "estimate --alpha 1.5 --n 10", id="out-dir-env"),
        pytest.param(".", "estimate --alpha 1.5 --n 10 --output missing/e.csv", id="output"),
        pytest.param(".", f"{_EXIT} --records_output missing/r.csv", id="records_output"),
        pytest.param(".", f"{_SWEEP} {_BLOBS} --groups_output missing/g.csv",
                     id="groups_output"),
    ],
)
def test_missing_output_directory_fails_before_the_run(tmp_path, monkeypatch, capsys,
                                                        out_dir, argv):
    import levylab.cli as cli

    def no_run(config):
        raise AssertionError("the run started before its output directory was checked")

    monkeypatch.setitem(cli._RUNNERS, argv.split()[0], no_run)
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path / out_dir))
    assert main(argv.split()) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError" and "missing" in record["message"]
    assert "does not exist" in record["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, key",
    [
        pytest.param("estimate --alpha 1.5 --n 10 --output .", "output", id="output-dot"),
        pytest.param("estimate --alpha 1.5 --n 10 --output {out}", "output", id="output-abs"),
        pytest.param(f"{_EXIT} --records_output .", "records_output", id="records_output"),
        pytest.param(f"{_SWEEP} {_BLOBS} --groups_output=", "groups_output",
                     id="groups_output-empty"),
    ],
)
def test_output_naming_a_directory_fails_before_the_run(tmp_path, monkeypatch, capsys,
                                                        argv, key):
    import levylab.cli as cli

    def no_run(config):
        raise AssertionError("the run started before its output paths were checked")

    monkeypatch.setitem(cli._RUNNERS, argv.split()[0], no_run)
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path))
    assert main(argv.format(out=tmp_path).split()) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert f"key '{key}' names a directory" in record["message"]
    assert not list(tmp_path.iterdir())


def test_converge_needs_two_ks_before_any_chain(tmp_path, monkeypatch, capsys):
    import levylab.cli as cli

    def no_chain(*args, **kwargs):
        raise AssertionError("a chain ran before ks was checked")

    monkeypatch.setattr(cli, "estimate_sigma_gamma", no_chain)
    monkeypatch.setattr(cli, "run_convergence", no_chain)
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path))
    # a K or a replicate count below 1 is refused before sigma_gamma is estimated
    for argv, key in (("--ks 20000 --reps 50", "ks"),
                      ("--d 2 --ks 20,20 --reps 3 --sigma_samples 500", "ks"),
                      ("--d 200 --ks 20,-40 --sigma_samples 200000", "ks"),
                      ("--ks 0,40", "ks"),
                      ("--reps 0", "reps")):
        assert main(["converge", *argv.split()]) == 2
        assert f"'{key}'" in json.loads(capsys.readouterr().err)["message"]
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(f"{_EXIT} --records_output exit-time.csv", id="exit-time"),
        pytest.param(f"{_EXIT} --records_output ./exit-time.csv", id="exit-time-dot"),
        pytest.param(f"{_EXIT} --output {{out}}/e.csv --records_output sub/../e.csv",
                     id="exit-time-absolute"),
        pytest.param("transition --alpha 1.2 --eps 0.4 --eta 0.01 --reps 6"
                     " --records_output transition.csv", id="transition"),
        pytest.param(f"{_SWEEP} {_BLOBS} --output sweep_groups.csv", id="sweep-default-groups"),
    ],
)
def test_extra_output_on_the_main_output_fails_before_the_run(tmp_path, monkeypatch, capsys,
                                                              argv):
    import levylab.cli as cli

    def no_run(config):
        raise AssertionError("the run started before its output paths were checked")

    monkeypatch.setitem(cli._RUNNERS, argv.split()[0], no_run)
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path))
    assert main(argv.format(out=tmp_path).split()) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert "_output' names the output file" in record["message"]
    assert not list(tmp_path.iterdir())


# a value for each key without a default, for the commands that have rules
_RULE_BASES = {
    "exit-time": {"alpha": "1.5", "eps": "0.5", "a": "0.5"},
    "stability": {"n": "600"},
    "converge": {},
    "train": {},
    "sweep": {"widths": "8", "batch_sizes": "20", "etas": "0.1"},
}


def _label(rule):
    return rule.name or f"{rule.key} = {rule.value}"


def _off_default(command, key):
    """A value of ``key`` inside its domain but off its default."""
    kind, default, *_ = SCHEMAS[command][key]
    return default + "x" if kind == "str" else format_cell(default + 1)


def _holds(command, rule, flags):
    """Whether ``rule``'s selector holds for ``flags``, which hold only moved keys."""
    if isinstance(rule.value, bool):
        return (rule.key in flags) is rule.value
    return flags.get(rule.key, SCHEMAS[command][rule.key][1]) == rule.value


def _given(command, flags, skip=None):
    """``flags`` plus each key a rule that holds for them requires, but ``skip``."""
    needed = {key: _off_default(command, key) for rule in RULES[command]
              if _holds(command, rule, flags) for key in rule.required if key != skip}
    return {**flags, **needed}


def _elsewhere(command, rule, key):
    """Selector flags under which ``rule`` does not hold and ``key`` is read."""
    if isinstance(rule.value, bool):
        return {rule.key: _off_default(command, rule.key)} if rule.value is UNSET else {}
    return next({rule.key: v} for v in SCHEMAS[command][rule.key][0]
                if v != rule.value and not any(key in r.unread for r in RULES[command]
                                               if _holds(command, r, {rule.key: v})))


def _argv(command, flags):
    return [command, *(t for k, v in flags.items() for t in (f"--{k}", v))]


@pytest.mark.parametrize("command, rule", [
    pytest.param(command, rule, id=f"{command}-{_label(rule).replace(' ', '')}")
    for command, rules in RULES.items() for rule in rules
])
def test_rule_table_entry_fires_at_parse_time(tmp_path, monkeypatch, capsys, command, rule):
    # the output directory is missing, so only a check made before it can name the key
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path / "missing"))
    selector = {rule.key: rule.value} if isinstance(rule.value, str) else (
        {rule.key: _off_default(command, rule.key)} if rule.value else {})
    under = {**_RULE_BASES[command], **selector}
    assert _holds(command, rule, under)
    for key in rule.unread:
        moved = {key: _off_default(command, key)}
        assert main(_argv(command, {**_given(command, under), **moved})) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert f"key '{key}' is not read when {_label(rule)}" in record["message"]
        other = {**_RULE_BASES[command], **_elsewhere(command, rule, key)}
        assert not _holds(command, rule, other)
        config = parse_config("", command, _given(command, {**other, **moved}))
        assert format_cell(config.parameters[key]) == moved[key]
    for key in rule.required:
        assert main(_argv(command, _given(command, under, skip=key))) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert f"key '{key}' is required when {_label(rule)}" in record["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", RULES)
def test_rule_table_names_only_schema_keys_and_values(command):
    import levylab.cli as cli

    schema = SCHEMAS[command]
    for rule in RULES[command]:
        kind = schema[rule.key][0]
        if isinstance(rule.value, bool):
            assert rule.name and not isinstance(kind, tuple), rule
        else:
            assert isinstance(kind, tuple) and rule.value in kind, rule
        implied = {*rule.unread, *rule.required}
        assert implied <= set(schema) - {rule.key}, rule
        assert not set(rule.unread) & set(rule.required), rule
        # a key without a default can be neither left at it nor moved off it
        assert all(schema[key][1] is not cli._REQUIRED for key in implied), rule


def _rendered_rules():
    """The README's rule list, one bullet per command, rendered from ``RULES``."""
    def keys(names):
        return ", ".join(f"`{k}`" for k in names)

    for command, rules in RULES.items():
        parts = []
        for rule in rules:
            part = f"`{_label(rule)}` leaves {keys(rule.unread)} unread"
            parts.append(part + (f" and requires {keys(rule.required)}" if rule.required else ""))
        yield f"`{command}`: " + "; ".join(parts) + "."


def test_readme_lists_the_rule_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listing = readme.split("each selector and what it implies:\n\n")[1].split("\n\n")[0]
    bullets = [" ".join(b.split()) for b in ("\n" + listing).split("\n- ")[1:]]
    assert bullets == list(_rendered_rules())


def test_payload_digests_run_every_listed_value():
    # every value of every enumerated or bool key, except the IDX-file source,
    # is in some run of the digest script, so a refactor that moves the bytes
    # of one variant shows in its digests
    import levylab.cli as cli

    path = Path(__file__).resolve().parents[1] / "scripts" / "payload_digests.py"
    spec = importlib.util.spec_from_file_location("payload_digests", path)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    run = set()
    for line in digests.RUNS:
        command, _, flags = cli._parse_argv(line.split())
        run |= {(command, *item) for item in parse_config("", command, flags).parameters.items()}
    listed = set()
    for command, schema in SCHEMAS.items():
        for key, (kind, *_) in schema.items():
            values = kind if isinstance(kind, tuple) else (True, False) if kind == "bool" else ()
            listed |= {(command, key, value) for value in values}
    assert listed - run == {(command, "source", "mnist") for command in ("train", "sweep")}
