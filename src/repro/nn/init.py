"""Seeded weight initializers.

All initializers take an explicit ``numpy.random.Generator`` so that every
model build in the simulator is reproducible from a single experiment seed.
The ``dtype`` argument fixes the precision of the returned array; the
float64 path consumes the generator stream exactly as the original
double-precision code did, so pinned trajectories stay bitwise intact.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.dtypes import DTypeLike, standard_normal


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int, *,
                   dtype: DTypeLike = np.float64) -> np.ndarray:
    """Glorot/Xavier uniform initialization, suited to saturating (Tanh) nets.

    ``Generator.uniform`` has no dtype parameter, so the draw is always
    double precision and cast once — identical stream for both dtypes.
    """
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype, copy=False)


def he_normal(rng: np.random.Generator, shape: tuple[int, ...],
              fan_in: int, *, dtype: DTypeLike = np.float64) -> np.ndarray:
    """He/Kaiming normal initialization, suited to ReLU nets."""
    std = math.sqrt(2.0 / fan_in)
    return (standard_normal(rng, shape, dtype) * std).astype(dtype, copy=False)


def lecun_normal(rng: np.random.Generator, shape: tuple[int, ...],
                 fan_in: int, *, dtype: DTypeLike = np.float64) -> np.ndarray:
    """LeCun normal initialization (variance 1/fan_in)."""
    std = math.sqrt(1.0 / fan_in)
    return (standard_normal(rng, shape, dtype) * std).astype(dtype, copy=False)


def initialize(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int,
               fan_out: int, scheme: str, *,
               dtype: DTypeLike = np.float64) -> np.ndarray:
    """Dispatch to a named initialization scheme.

    Parameters
    ----------
    scheme:
        One of ``"xavier"``, ``"he"`` or ``"lecun"``.
    dtype:
        Precision of the returned parameter array.
    """
    if scheme == "xavier":
        return xavier_uniform(rng, shape, fan_in, fan_out, dtype=dtype)
    if scheme == "he":
        return he_normal(rng, shape, fan_in, dtype=dtype)
    if scheme == "lecun":
        return lecun_normal(rng, shape, fan_in, dtype=dtype)
    raise ValueError(f"unknown initialization scheme: {scheme!r}")
