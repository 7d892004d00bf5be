import struct

import numpy as np
import pytest

from levylab.datasets import IdxFormatError, load_mnist_idx, synthetic_blobs
from levylab.errors import ParameterError
from levylab.rng import RngStream


def _write_images(path, items, rows, cols, payload):
    path.write_bytes(struct.pack(">IIII", 0x803, items, rows, cols) + bytes(payload))


def _write_labels(path, payload, magic=0x801):
    path.write_bytes(struct.pack(">II", magic, len(payload)) + bytes(payload))


def test_idx_round_trip(tmp_path):
    pixels = [0, 37, 255, 128, 1, 2, 3, 4, 5, 6, 7, 8]
    _write_images(tmp_path / "im", 2, 3, 2, pixels)
    _write_labels(tmp_path / "lb", [3, 7])
    x, y = load_mnist_idx(str(tmp_path / "im"), str(tmp_path / "lb"))
    assert x.shape == (2, 6) and x.dtype == float
    assert np.array_equal(x, np.array(pixels, dtype=float).reshape(2, 6) / 255.0)
    assert np.array_equal(y, [3, 7]) and y.dtype == np.int64


def test_idx_bad_magic_names_offset(tmp_path):
    _write_labels(tmp_path / "lb", [0], magic=0x802)
    _write_images(tmp_path / "im", 1, 1, 1, [9])
    with pytest.raises(IdxFormatError, match="byte 0"):
        load_mnist_idx(str(tmp_path / "im"), str(tmp_path / "lb"))


def test_idx_truncated_payload(tmp_path):
    _write_images(tmp_path / "im", 2, 3, 2, [1] * 11)
    _write_labels(tmp_path / "lb", [0, 1])
    with pytest.raises(IdxFormatError, match="payload ends"):
        load_mnist_idx(str(tmp_path / "im"), str(tmp_path / "lb"))


def test_idx_label_out_of_range_names_byte(tmp_path):
    _write_images(tmp_path / "im", 2, 1, 1, [5, 5])
    _write_labels(tmp_path / "lb", [3, 10])
    with pytest.raises(IdxFormatError, match="label 10 at byte 9"):
        load_mnist_idx(str(tmp_path / "im"), str(tmp_path / "lb"))


def test_idx_count_mismatch(tmp_path):
    _write_images(tmp_path / "im", 2, 1, 1, [5, 5])
    _write_labels(tmp_path / "lb", [0, 1, 2])
    with pytest.raises(IdxFormatError, match="2 items"):
        load_mnist_idx(str(tmp_path / "im"), str(tmp_path / "lb"))


def test_blobs_deterministic_and_balanced():
    a = synthetic_blobs(100, 5, 4, 1.0, RngStream(120))
    b = synthetic_blobs(100, 5, 4, 1.0, RngStream(120))
    assert np.array_equal(a.train_x, b.train_x)
    assert np.array_equal(a.test_y, b.test_y)
    assert a.n_train == 100 and a.test_x.shape[0] == 24 and a.input_dim == 5
    assert np.bincount(a.train_y, minlength=4).tolist() == [25] * 4
    assert np.bincount(a.test_y, minlength=4).tolist() == [6] * 4


def test_blobs_zero_spread_collapses_classes():
    split = synthetic_blobs(30, 3, 3, 0.0, RngStream(121))
    for c in range(3):
        rows = split.train_x[split.train_y == c]
        assert np.ptp(rows, axis=0).max() == 0.0
        assert np.array_equal(split.test_x[split.test_y == c][0], rows[0])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=10, dim=2, n_classes=3, spread=1.0),
        dict(n=8, dim=2, n_classes=1, spread=1.0),
        dict(n=8, dim=0, n_classes=2, spread=1.0),
        dict(n=8, dim=2, n_classes=2, spread=-0.5),
        dict(n=8, dim=2, n_classes=2, spread=float("nan")),
        dict(n=8, dim=2, n_classes=2, spread=float("inf")),
    ],
)
def test_blobs_validation(kwargs):
    with pytest.raises(ParameterError):
        synthetic_blobs(rng=RngStream(0), **kwargs)


def test_blobs_small_spread_is_separable():
    split = synthetic_blobs(1000, 10, 2, 0.05, RngStream(122))
    centers = np.stack(
        [split.train_x[split.train_y == c].mean(axis=0) for c in range(2)]
    )
    d = np.linalg.norm(split.test_x[:, None, :] - centers[None], axis=2)
    acc = np.mean(d.argmin(axis=1) == split.test_y)
    assert acc >= 0.99
