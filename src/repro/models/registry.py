"""Model registry: build the right architecture for a dataset by name."""

from __future__ import annotations

import importlib
from collections.abc import Callable

import numpy as np

from repro.nn.model import Model

#: Signature of a model factory:
#: (input_shape, num_classes, rng, *, dtype=...) -> Model.
ModelBuilder = Callable[..., Model]

#: Model family -> (module, builder); the module is imported when the
#: family is first built.
_REGISTRY: dict[str, tuple[str, str]] = {
    "fcnn": ("repro.models.fcnn", "build_fcnn"),
    "resnet": ("repro.models.resnet", "build_resnet_small"),
    "vgg": ("repro.models.vgg", "build_vgg_small"),
    "audio": ("repro.models.audio", "build_audio_m5"),
}


def available_models() -> list[str]:
    """Names accepted by :func:`build_model`."""
    return sorted(_REGISTRY)


def build_model(name: str, input_shape: tuple, num_classes: int,
                rng: np.random.Generator, *,
                dtype: np.dtype | str = np.float64) -> Model:
    """Build a model family by name for the given input shape.

    ``dtype`` fixes the precision every parameter, buffer and flat plane
    of the model is allocated in (float64 default, float32 optional).
    """
    try:
        module, builder = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; known: {available_models()}") from None
    return getattr(importlib.import_module(module), builder)(
        input_shape, num_classes, rng, dtype=np.dtype(dtype))
