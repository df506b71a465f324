"""Seeded synthetic dataset generators.

Membership inference succeeds when models memorize their training set,
which depends on the *statistical* shape of the data — per-class sample
count, intra-class noise, class count — not on semantic content.  Each
generator therefore produces class-prototype data with a controllable
noise level: prototypes define the classes, noise controls how much a
model must memorize individual samples to fit them.

Every generator draws in double precision with a fixed stream layout.
Continuous features (Gaussian tabular, images, audio) are cast to
``dtype`` once finished, so float32 and float64 datasets are the same
data at different precisions and the generator's stream does not
depend on the knob.  Binary tabular features are stored as ``bool``,
one byte per 0/1 value, whatever ``dtype`` says: a model casts a
non-floating batch to its own dtype at ``Model.forward``, which is
exact because 0 and 1 are exact in every float dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Dataset:
    """An in-memory supervised dataset.

    Attributes
    ----------
    x:
        Features; shape ``(n, *feature_shape)`` — flat for tabular,
        ``(n, c, h, w)`` for images, ``(n, c, length)`` for audio.
        Binary tabular features are ``bool``; continuous ones are
        floating.  Models cast a non-floating batch at
        ``Model.forward``, so either reaches the network the same way.
    y:
        Integer class labels, shape ``(n,)``.
    """

    name: str
    x: np.ndarray
    y: np.ndarray
    num_classes: int
    data_type: str = "tabular"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"{self.name}: {len(self.x)} features vs {len(self.y)} labels")
        if len(self.y) and (self.y.min() < 0
                            or self.y.max() >= self.num_classes):
            raise ValueError(
                f"{self.name}: labels outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.y)

    @property
    def feature_shape(self) -> tuple[int, ...]:
        """Shape of a single sample (without the batch axis)."""
        return self.x.shape[1:]

    def subset(self, indices: np.ndarray, *,
               name: str | None = None) -> "Dataset":
        """New dataset restricted to ``indices`` (copies the arrays).

        Fancy indexing with an index *array* already returns fresh
        arrays, so this is exactly one copy of each — the virtual
        client plane materializes subsets on demand and an extra
        transient copy here would double its peak.  Large pools are
        therefore kept as indices (``MembershipSplit``), not subsets.
        """
        indices = np.asarray(indices)
        return Dataset(
            name=name or self.name,
            x=self.x[indices],
            y=self.y[indices],
            num_classes=self.num_classes,
            data_type=self.data_type,
            metadata=dict(self.metadata),
        )


def _balanced_labels(rng: np.random.Generator, n_samples: int,
                     n_classes: int) -> np.ndarray:
    """Labels covering every class as evenly as n_samples allows."""
    base = np.tile(np.arange(n_classes), n_samples // n_classes + 1)
    labels = base[:n_samples].copy()
    rng.shuffle(labels)
    return labels


#: Elements per block of per-sample draws (1 MiB of float64).
_NOISE_BLOCK = 1 << 17


def _row_blocks(n_rows: int, n_cols: int):
    """``(rows, block)`` pairs covering ``n_rows`` rows in order: a row
    slice and a float64 ``(len(rows), n_cols)`` block to draw into,
    one reused buffer of about ``_NOISE_BLOCK`` elements.  Drawing
    block by block reads the generator's stream exactly as one full
    ``(n_rows, n_cols)`` draw does, without the full-size temporary."""
    step = max(1, _NOISE_BLOCK // n_cols)
    block = np.empty((min(step, n_rows), n_cols))
    for lo in range(0, n_rows, step):
        hi = min(lo + step, n_rows)
        yield slice(lo, hi), block[:hi - lo]


def _add_noise(rng: np.random.Generator, x: np.ndarray,
               noise: float) -> None:
    """``x += noise * rng.standard_normal(x.shape)`` drawn one row block
    at a time: bitwise equal to one full draw (same values, same
    generator state after)."""
    flat = x.reshape(len(x), math.prod(x.shape[1:]))
    for rows, part in _row_blocks(*flat.shape):
        rng.standard_normal(out=part)
        part *= noise
        flat[rows] += part


def synthetic_tabular(rng: np.random.Generator, n_samples: int,
                      n_features: int, n_classes: int, *,
                      binary: bool = True, noise: float = 0.2,
                      dtype: np.dtype | str = np.float64,
                      name: str = "tabular") -> Dataset:
    """Class-prototype tabular data (Purchase100/Texas100 stand-in).

    Each class has a random binary prototype; samples copy their class
    prototype and flip each feature independently with probability
    ``noise``; the features are returned as ``bool`` and ``dtype`` is
    ignored.  With ``binary=False``, Gaussian prototypes plus
    ``noise``-scaled Gaussian perturbations are used instead, cast to
    ``dtype``.
    """
    if n_samples < 1 or n_features < 1 or n_classes < 2:
        raise ValueError("need n_samples>=1, n_features>=1, n_classes>=2")
    y = _balanced_labels(rng, n_samples, n_classes)
    if binary:
        prototypes = rng.random((n_classes, n_features)) < 0.5
        x = np.empty((n_samples, n_features), dtype=bool)
        for rows, part in _row_blocks(n_samples, n_features):
            rng.random(out=part)
            flips = np.less(part, noise, out=x[rows])
            np.logical_xor(flips, prototypes[y[rows]], out=flips)
    else:
        prototypes = rng.standard_normal((n_classes, n_features))
        x = prototypes[y]
        _add_noise(rng, x, noise)
        x = x.astype(dtype, copy=False)
    return Dataset(name=name, x=x, y=y,
                   num_classes=n_classes, data_type="tabular")


def synthetic_images(rng: np.random.Generator, n_samples: int,
                     shape: tuple[int, int, int], n_classes: int, *,
                     noise: float = 0.35,
                     dtype: np.dtype | str = np.float64,
                     name: str = "images") -> Dataset:
    """Class-prototype image tensors (CIFAR/GTSRB/CelebA stand-in).

    Prototypes are smooth random fields (low-resolution noise upsampled
    with ``np.kron``), mimicking the spatial correlation of natural
    images; samples add white noise on top.
    """
    channels, height, width = shape
    if height % 4 or width % 4:
        raise ValueError(f"image sides must be divisible by 4, got {shape}")
    y = _balanced_labels(rng, n_samples, n_classes)
    low = rng.standard_normal((n_classes, channels, height // 4, width // 4))
    prototypes = np.kron(low, np.ones((1, 1, 4, 4)))
    x = prototypes[y]
    _add_noise(rng, x, noise)
    return Dataset(name=name, x=x.astype(dtype, copy=False), y=y,
                   num_classes=n_classes, data_type="image")


def synthetic_audio(rng: np.random.Generator, n_samples: int, length: int,
                    n_classes: int, *, noise: float = 0.4,
                    n_harmonics: int = 3,
                    dtype: np.dtype | str = np.float64,
                    name: str = "audio") -> Dataset:
    """Class-prototype waveforms (Speech Commands stand-in).

    Each class is a fixed mixture of ``n_harmonics`` sinusoids with
    class-specific frequencies and phases ("a word"); samples apply a
    random amplitude jitter and additive noise ("a speaker").
    """
    y = _balanced_labels(rng, n_samples, n_classes)
    t = np.arange(length) / length
    freqs = rng.uniform(2.0, length / 4.0, size=(n_classes, n_harmonics))
    phases = rng.uniform(0.0, 2 * np.pi, size=(n_classes, n_harmonics))
    amps = rng.uniform(0.5, 1.0, size=(n_classes, n_harmonics))
    prototypes = np.zeros((n_classes, length))
    for h in range(n_harmonics):
        prototypes += amps[:, h, None] * np.sin(
            2 * np.pi * freqs[:, h, None] * t[None, :] + phases[:, h, None])
    jitter = rng.uniform(0.8, 1.2, size=(n_samples, 1))
    x = prototypes[y]
    x *= jitter
    _add_noise(rng, x, noise)
    return Dataset(name=name, x=x[:, None, :].astype(dtype, copy=False),
                   y=y, num_classes=n_classes, data_type="audio")
