"""Dataset ingestion: IDX-format files and a synthetic desk-scale fallback."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError
from .rng import RngStream

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ConfigError):
    """Unreadable or malformed IDX file; a format message carries the byte offset."""


@dataclass(frozen=True, eq=False)
class DatasetSplit:
    """Train/test arrays with labels in [0, n_classes)."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    n_classes: int

    def __post_init__(self):
        for name, x, y in (
            ("train", self.train_x, self.train_y),
            ("test", self.test_x, self.test_y),
        ):
            if x.ndim != 2 or y.shape != (x.shape[0],):
                raise ParameterError(f"{name} arrays disagree: {x.shape} vs {y.shape}")
            if y.size and (y.min() < 0 or y.max() >= self.n_classes):
                raise ParameterError(f"{name} labels outside [0, {self.n_classes})")

    @property
    def n_train(self) -> int:
        return self.train_x.shape[0]

    @property
    def input_dim(self) -> int:
        return self.train_x.shape[1]


def _read_idx(path: str, expected_magic: int, expected_dims: int):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IdxFormatError(f"cannot read IDX file {path!r}: {exc}") from None
    if len(raw) < 4:
        raise IdxFormatError(f"{path}: truncated header at byte 0")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expected_magic:
        raise IdxFormatError(
            f"{path}: bad magic 0x{magic:08x} at byte 0, expected 0x{expected_magic:08x}"
        )
    header_len = 4 + 4 * expected_dims
    if len(raw) < header_len:
        raise IdxFormatError(f"{path}: truncated dimension header at byte {len(raw)}")
    dims = struct.unpack(f">{expected_dims}I", raw[4:header_len])
    payload = raw[header_len:]
    expected = int(np.prod(dims))
    if len(payload) < expected:
        raise IdxFormatError(
            f"{path}: payload ends at byte {len(raw)}, expected {header_len + expected}"
        )
    data = np.frombuffer(payload[:expected], dtype=np.uint8)
    return data.reshape(dims), header_len


def load_mnist_idx(image_path: str, label_path: str) -> tuple[np.ndarray, np.ndarray]:
    """One dataset part from an IDX image/label file pair.

    Images come back flattened to float vectors in [0, 1]; labels as ints.
    Big-endian magics 0x00000803 (images, 3 dims) and 0x00000801 (labels,
    1 dim) are required, and labels must be below 10.
    """
    images, img_header = _read_idx(image_path, IDX_IMAGES_MAGIC, 3)
    labels, lab_header = _read_idx(label_path, IDX_LABELS_MAGIC, 1)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"{image_path} holds {images.shape[0]} items but {label_path} holds "
            f"{labels.shape[0]} (counts at bytes 4)"
        )
    bad = np.flatnonzero(labels >= 10)
    if bad.size:
        raise IdxFormatError(
            f"{label_path}: label {labels[bad[0]]} at byte {lab_header + bad[0]} "
            f"outside [0, 10)"
        )
    n = images.shape[0]
    x = images.reshape(n, -1).astype(float) / 255.0
    return x, labels.astype(np.int64)


def synthetic_blobs(
    n: int,
    dim: int,
    n_classes: int,
    spread: float,
    rng: RngStream,
) -> DatasetSplit:
    """Class-conditional Gaussian clusters, balanced train and test parts.

    Centers are standard normal draws from the stream; each point is its
    class center plus spread-scaled Gaussian noise, so spread=0 collapses
    every class onto its center.  n counts training points and must be
    divisible by n_classes; the test part gets about a quarter of n,
    also balanced.
    """
    if n_classes < 2:
        raise ParameterError(f"need at least two classes, got {n_classes}")
    if n < n_classes or n % n_classes != 0:
        raise ParameterError(f"n={n} must be a positive multiple of n_classes={n_classes}")
    if dim < 1:
        raise ParameterError(f"dim must be positive, got {dim}")
    if not (0.0 <= spread < math.inf):
        raise ParameterError(f"spread must be nonnegative and finite, got {spread}")
    gen = rng.generator()
    centers = gen.normal(0.0, 1.0, (n_classes, dim))
    per_train = n // n_classes
    per_test = max(1, round(n / 4) // n_classes)

    def part(per_class: int):
        y = np.repeat(np.arange(n_classes), per_class)
        x = centers[y] + spread * gen.normal(0.0, 1.0, (y.size, dim))
        perm = gen.permutation(y.size)
        return x[perm], y[perm]

    train_x, train_y = part(per_train)
    test_x, test_y = part(per_test)
    return DatasetSplit(
        train_x=train_x,
        train_y=train_y,
        test_x=test_x,
        test_y=test_y,
        n_classes=n_classes,
    )
