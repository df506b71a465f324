"""ResNet-family stand-in for the paper's ResNet20 (Cifar-10/100).

A residual block is exposed as a *single* composite layer so that
DINAR's per-layer obfuscation treats it as one unit — the same
granularity the paper uses when it reports "layer" indices on conv nets.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.layers import AvgPool2d, Conv2d, Dense, Flatten, Layer
from repro.nn.model import Model
from repro.nn.workspace import Workspace


class ResidualBlock(Layer):
    """Two 3x3 convolutions with an identity skip: ``relu(F(x) + x)``.

    Exposes the sublayers' parameters as a merged live view
    (``conv1.W``, ``conv1.b``, ``conv2.W``, ``conv2.b``) so optimizers,
    FL aggregation and DINAR obfuscation all see one flat dict.
    """

    def __init__(self, channels: int, rng: np.random.Generator, *,
                 dtype: np.dtype | str = np.float64) -> None:
        super().__init__()
        self.channels = channels
        self.conv1 = Conv2d(channels, channels, 3, rng, padding=1,
                            dtype=dtype)
        self.conv2 = Conv2d(channels, channels, 3, rng, padding=1,
                            dtype=dtype)
        self.relu_inner = ReLU()
        self.relu_out = ReLU()

    @property
    def name(self) -> str:
        return f"ResBlock({self.channels})"

    @property
    def params(self) -> dict[str, np.ndarray]:
        merged = {f"conv1.{k}": v for k, v in self.conv1.params.items()}
        merged.update({f"conv2.{k}": v for k, v in self.conv2.params.items()})
        return merged

    @property
    def grads(self) -> dict[str, np.ndarray]:
        merged = {f"conv1.{k}": v for k, v in self.conv1.grads.items()}
        merged.update({f"conv2.{k}": v for k, v in self.conv2.grads.items()})
        return merged

    def adopt_views(self, params: dict[str, np.ndarray],
                    buffers: dict[str, np.ndarray],
                    grads: dict[str, np.ndarray]) -> None:
        """Route flat-plane views to the sublayers by name prefix.

        The merged ``conv1.W``-style names the block exposes are split
        back into each convolution's own keys, so the sublayers bind
        their slices of the model buffers directly.
        """
        if buffers:
            raise KeyError(f"{self.name} owns no buffers, got "
                           f"{sorted(buffers)}")

        def split(views: dict[str, np.ndarray]
                  ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
            first: dict[str, np.ndarray] = {}
            second: dict[str, np.ndarray] = {}
            for key, view in views.items():
                if key.startswith("conv1."):
                    first[key[len("conv1."):]] = view
                elif key.startswith("conv2."):
                    second[key[len("conv2."):]] = view
                else:
                    raise KeyError(
                        f"{self.name} has no parameter {key!r}")
            return first, second

        params1, params2 = split(params)
        grads1, grads2 = split(grads)
        self.conv1.adopt_views(params1, {}, grads1)
        self.conv2.adopt_views(params2, {}, grads2)

    def drop_caches(self) -> None:
        for layer in (self.conv1, self.relu_inner, self.conv2,
                      self.relu_out):
            layer.drop_caches()

    def forward(self, x: np.ndarray, *, training: bool = True,
                workspace: Workspace) -> np.ndarray:
        # each sublayer requests its own arena scratch (the workspace
        # keys on the owning object, so conv1 and conv2 never collide
        # despite identical shapes); only the skip-sum buffer belongs
        # to the block itself.
        out = self.conv1.forward(x, training=training, workspace=workspace)
        out = self.relu_inner.forward(out, training=training,
                                      workspace=workspace)
        out = self.conv2.forward(out, training=training,
                                 workspace=workspace)
        if out.shape == x.shape and out.strides == x.strides:
            # both branches share a layout (e.g. conv-transposed): the
            # legacy ``out + x`` result kept it, so the sum buffer must.
            summed = self._scratch_like(workspace, "sum", out,
                                        np.result_type(out.dtype, x.dtype))
        else:
            summed = self._scratch(workspace, "sum", out.shape,
                                   np.result_type(out.dtype, x.dtype))
        np.add(out, x, out=summed)
        return self.relu_out.forward(summed, training=training,
                                     workspace=workspace)

    def backward(self, grad: np.ndarray, *,
                 workspace: Workspace) -> np.ndarray:
        grad = self.relu_out.backward(grad, workspace=workspace)
        skip = grad  # d(out + x)/dx through the identity branch
        grad = self.conv2.backward(grad, workspace=workspace)
        grad = self.relu_inner.backward(grad, workspace=workspace)
        grad = self.conv1.backward(grad, workspace=workspace)
        dsum = self._scratch(workspace, "dsum", grad.shape,
                             np.result_type(grad.dtype, skip.dtype))
        np.add(grad, skip, out=dsum)
        return dsum


def build_resnet_small(input_shape: tuple[int, int, int], num_classes: int,
                       rng: np.random.Generator, *, channels: int = 8,
                       num_blocks: int = 2,
                       dtype: np.dtype | str = np.float64) -> Model:
    """Small residual conv net: stem conv, residual blocks, pool, classifier.

    Parameters
    ----------
    input_shape:
        ``(channels, height, width)`` of the input images.
    channels:
        Width of the residual trunk (paper's ResNet20 uses 16–64).
    num_blocks:
        Number of residual blocks (paper's ResNet20 uses 9).
    """
    in_c, h, w = input_shape
    layers: list[Layer] = [
        Conv2d(in_c, channels, 3, rng, padding=1, dtype=dtype),
        ReLU(),
    ]
    for _ in range(num_blocks):
        layers.append(ResidualBlock(channels, rng, dtype=dtype))
    pool = 2
    layers.extend([
        AvgPool2d(pool),
        Flatten(),
        Dense(channels * (h // pool) * (w // pool), num_classes, rng,
              dtype=dtype),
    ])
    return Model(layers, name=f"resnet{num_blocks}x{channels}")
