"""Neural-network layers with analytic backprop.

Layers follow a minimal protocol: ``forward`` caches what ``backward``
needs, ``backward`` returns the gradient w.r.t. the input and fills
``grads`` with gradients w.r.t. the layer's own ``params``.  ``buffers``
hold non-trainable state (batch-norm running statistics) that still
travels with the model in federated exchange.

Parameter-carrying layers are the unit of granularity for DINAR: the
paper's "layer index p" maps to an index into a model's trainable layers,
and obfuscation replaces *all* arrays of that layer.

``forward``/``backward`` accept an optional
:class:`~repro.nn.workspace.Workspace`: with one attached, every
batch-sized temporary (im2col patch buffers, layer outputs, masks,
``_col2im`` scatter targets) is written with the ``out=`` form of the
exact legacy expression into an arena buffer that is reused across
batches.  Without one (``workspace=None``, the standalone-layer
default) the same writes go into freshly allocated arrays.  Both paths
perform identical arithmetic in identical order, so results are
bitwise equal either way.

Per-batch caches (``_x``, ``_cols``, ``_mask``, ...) and workspace
buffers are execution scratch, not model state: ``__getstate__``
excludes them (see :attr:`Layer._ephemeral`), so pickling a layer —
for checkpointing or shipping across process boundaries — never
carries dead batch-sized buffers.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init as init_schemes
from repro.nn.dtypes import DTypeLike
from repro.nn.workspace import Workspace


def _memory_perm(x: np.ndarray) -> tuple[int, ...]:
    """Axes of ``x`` from largest to smallest stride (stable): the
    permutation mapping logical axes to memory order.  Identity for a
    C-contiguous array; ``(0, 2, 3, 1)`` for a conv layer's
    channels-last-in-memory NCHW view."""
    return tuple(sorted(range(x.ndim), key=lambda i: -abs(x.strides[i])))


class Layer:
    """Base class for all layers.

    Subclasses with parameters populate ``self.params`` at construction
    time and write matching keys into ``self.grads`` during ``backward``.
    ``params``/``grads``/``buffers`` are properties so composite layers
    (e.g. residual blocks) can expose merged live views over sublayers.
    """

    #: Per-batch cache attributes excluded from pickling: they hold
    #: batch-sized scratch (often views into a process-local workspace
    #: arena) that is dead weight across a process or disk boundary.
    _ephemeral: tuple[str, ...] = ()

    def __init__(self) -> None:
        self._params: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}
        self._buffers: dict[str, np.ndarray] = {}

    @property
    def params(self) -> dict[str, np.ndarray]:
        """Trainable arrays by name."""
        return self._params

    @property
    def grads(self) -> dict[str, np.ndarray]:
        """Gradients matching :attr:`params`, filled by ``backward``."""
        return self._grads

    @property
    def buffers(self) -> dict[str, np.ndarray]:
        """Non-trainable exchanged state (e.g. batch-norm running stats)."""
        return self._buffers

    @property
    def has_params(self) -> bool:
        """Whether this layer carries trainable parameters."""
        return bool(self.params)

    @property
    def name(self) -> str:
        """Human-readable layer name used in sensitivity reports."""
        return type(self).__name__

    def forward(self, x: np.ndarray, *, training: bool = True,
                workspace: Workspace | None = None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray, *,
                 workspace: Workspace | None = None) -> np.ndarray:
        raise NotImplementedError

    def attach_rng(self, rng: np.random.Generator) -> None:
        """Give stochastic layers (Dropout) their random source."""

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for key in self._ephemeral:
            state.pop(key, None)
        return state

    def _scratch(self, workspace: Workspace | None, role: str,
                 shape: tuple[int, ...],
                 dtype: np.dtype | type | str) -> np.ndarray:
        """A scratch array for one role: arena-backed when a workspace
        is attached, freshly allocated otherwise.  Contents are
        unspecified — callers must fully overwrite before reading."""
        if workspace is None:
            return np.empty(shape, dtype=dtype)
        return workspace.request(self, role, shape, dtype)

    def _scratch_like(self, workspace: Workspace | None, role: str,
                      x: np.ndarray,
                      dtype: np.dtype | type | str | None = None
                      ) -> np.ndarray:
        """Scratch with ``x``'s shape *and memory order*.

        A ufunc allocating its own output for a transposed view (e.g.
        a conv layer's NCHW result) keeps that view's layout, and
        downstream cost depends on it — pooling reshapes such outputs
        into zero-copy block views.  Scratch destinations for
        elementwise results must therefore reproduce the layout the
        legacy expression produced, not default to C order.
        """
        if dtype is None:
            dtype = x.dtype
        perm = _memory_perm(x)
        if perm == tuple(range(x.ndim)):
            return self._scratch(workspace, role, x.shape, dtype)
        shape = tuple(x.shape[i] for i in perm)
        buffer = self._scratch(
            workspace, f"{role}~{''.join(map(str, perm))}", shape, dtype)
        return buffer.transpose(np.argsort(perm))

    def adopt_views(self, params: dict[str, np.ndarray],
                    buffers: dict[str, np.ndarray],
                    grads: dict[str, np.ndarray]) -> None:
        """Rebind this layer's arrays onto externally owned views.

        The model's flat parameter plane calls this once at
        construction: each view is a zero-copy window into the model's
        weight (or gradient) buffer.  Current values are copied into
        the param/buffer views, then the views *replace* the layer's
        private arrays — from here on, reading ``self.params["W"]``
        reads the model buffer and ``backward`` writes gradients
        straight into the flat gradient buffer.

        Raises ``KeyError`` if the mapping names an array the layer
        does not own, or leaves an owned array uncovered (a partial
        rebind would silently split the layer across two planes).
        """
        if set(params) != set(self._params) \
                or set(buffers) != set(self._buffers) \
                or set(grads) != set(self._params):
            given = sorted(set(params) | set(buffers) | set(grads))
            owned = sorted(set(self._params) | set(self._buffers))
            raise KeyError(
                f"{self.name}: view names {given} do not cover exactly "
                f"the owned arrays {owned}")
        for key, view in params.items():
            view[...] = self._params[key]
            self._params[key] = view
        for key, view in buffers.items():
            view[...] = self._buffers[key]
            self._buffers[key] = view
        self._grads.clear()
        self._grads.update(grads)

    def _grad_out(self, key: str) -> np.ndarray:
        """Destination array for one gradient write.

        The flat-plane view bound by :meth:`adopt_views` when the layer
        belongs to a model; a lazily allocated private array for
        standalone layers (gradient checks, unit tests).  ``backward``
        implementations must fill this in place (``out=`` / ``[...]=``)
        rather than rebind ``self.grads[key]``.
        """
        out = self._grads.get(key)
        if out is None:
            out = np.empty_like(self._params[key])
            self._grads[key] = out
        return out

    def num_parameters(self) -> int:
        """Total trainable scalar count."""
        return sum(p.size for p in self.params.values())


class Dense(Layer):
    """Fully-connected layer: ``y = x @ W + b``."""

    _ephemeral = ("_x",)

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, *, scheme: str = "he",
                 dtype: DTypeLike = np.float64) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.params["W"] = init_schemes.initialize(
            rng, (in_features, out_features), in_features, out_features,
            scheme, dtype=dtype)
        self.params["b"] = np.zeros(out_features, dtype=dtype)

    @property
    def name(self) -> str:
        return f"Dense({self.in_features}x{self.out_features})"

    def forward(self, x: np.ndarray, *, training: bool = True,
                workspace: Workspace | None = None) -> np.ndarray:
        # backward never runs after an eval-mode forward; caching there
        # would only pin the last inference batch in memory.
        self._x = x if training else None
        w = self.params["W"]
        out = self._scratch(workspace, "out", (len(x), self.out_features),
                            np.result_type(x.dtype, w.dtype))
        np.matmul(x, w, out=out)
        out += self.params["b"]
        return out

    def backward(self, grad: np.ndarray, *,
                 workspace: Workspace | None = None) -> np.ndarray:
        # after an eval-mode forward there is no cached input, so only
        # the input gradient is produced (all that e.g. the inversion
        # attack needs); weight gradients require a training forward.
        if self._x is not None:
            np.matmul(self._x.T, grad, out=self._grad_out("W"))
            grad.sum(axis=0, out=self._grad_out("b"))
        w = self.params["W"]
        out = self._scratch(workspace, "dx", (len(grad), self.in_features),
                            np.result_type(grad.dtype, w.dtype))
        np.matmul(grad, w.T, out=out)
        self._x = None
        return out


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int, *,
            pad_out: np.ndarray | None = None,
            cols_out: np.ndarray | None = None
            ) -> tuple[np.ndarray, int, int]:
    """Unfold (N, C, H, W) into (N, out_h, out_w, C*kh*kw) patches.

    ``pad_out`` / ``cols_out`` are optional preallocated destinations
    (the padded image and the 6-D patch buffer); without them fresh
    arrays are allocated, exactly as the pre-workspace implementation
    did.  Element order and values are identical either way.  A given
    ``pad_out`` must arrive with its border already zeroed (it is
    constant across batches, so callers zero it once per buffer); only
    the interior is written here.
    """
    n, c, h, w = x.shape
    if pad:
        if pad_out is None:
            x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        else:
            pad_out[:, :, pad:-pad, pad:-pad] = x
            x = pad_out
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    patches = windows.transpose(0, 2, 3, 1, 4, 5)
    if cols_out is None:
        cols = patches.reshape(n, out_h, out_w, -1)
    else:
        np.copyto(cols_out, patches)
        cols = cols_out.reshape(n, out_h, out_w, -1)
    return cols, out_h, out_w


def _col2im(cols: np.ndarray, x_shape: tuple[int, int, int, int], kh: int,
            kw: int, stride: int, pad: int, *,
            padded_out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`_im2col` — scatter-add patches back to an image.

    ``padded_out`` is an optional preallocated scatter target (zeroed
    here on every call, matching the fresh ``np.zeros`` it replaces).
    """
    n, c, h, w = x_shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    if padded_out is None:
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad),
                          dtype=cols.dtype)
    else:
        padded = padded_out
        padded.fill(0)
    patches = cols.reshape(n, out_h, out_w, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i:i + stride * out_h:stride,
                   j:j + stride * out_w:stride] += patches[:, :, :, :, i, j] \
                .transpose(0, 3, 1, 2)
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


class Conv2d(Layer):
    """2-D convolution via im2col (NCHW layout)."""

    _ephemeral = ("_cols", "_x_shape")

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, *, stride: int = 1, padding: int = 0,
                 scheme: str = "he", dtype: DTypeLike = np.float64) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        fan_out = out_channels * kernel_size * kernel_size
        self.params["W"] = init_schemes.initialize(
            rng, (out_channels, in_channels, kernel_size, kernel_size),
            fan_in, fan_out, scheme, dtype=dtype)
        self.params["b"] = np.zeros(out_channels, dtype=dtype)

    @property
    def name(self) -> str:
        return (f"Conv2d({self.in_channels}->{self.out_channels},"
                f"k{self.kernel_size})")

    def _geometry(self, h: int, w: int) -> tuple[int, int]:
        k, s, p = self.kernel_size, self.stride, self.padding
        return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1

    def forward(self, x: np.ndarray, *, training: bool = True,
                workspace: Workspace | None = None) -> np.ndarray:
        k, s, p = self.kernel_size, self.stride, self.padding
        n, c, h, w = x.shape
        out_h, out_w = self._geometry(h, w)
        pad_out = cols_out = None
        if workspace is not None:
            if p:
                pad_out, fresh = workspace.request_info(
                    self, "pad", (n, c, h + 2 * p, w + 2 * p), x.dtype)
                if fresh:
                    pad_out.fill(0)
            cols_out = workspace.request(
                self, "cols", (n, out_h, out_w, c, k, k), x.dtype)
        cols, _, _ = _im2col(x, k, k, s, p, pad_out=pad_out,
                             cols_out=cols_out)
        self._cols = cols if training else None
        self._x_shape = x.shape
        w_flat = self.params["W"].reshape(self.out_channels, -1)
        out = self._scratch(workspace, "out",
                            (n, out_h, out_w, self.out_channels),
                            np.result_type(x.dtype, w_flat.dtype))
        np.matmul(cols, w_flat.T, out=out)
        out += self.params["b"]
        return out.transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray, *,
                 workspace: Workspace | None = None) -> np.ndarray:
        k, s, p = self.kernel_size, self.stride, self.padding
        grad_flat = grad.transpose(0, 2, 3, 1)
        # no cached patches after an eval-mode forward: produce the
        # input gradient only (weight grads need a training forward).
        if self._cols is not None:
            cols2d = self._cols.reshape(-1, self._cols.shape[-1])
            gout = self._scratch(workspace, "dout", grad_flat.shape,
                                 grad.dtype)
            np.copyto(gout, grad_flat)
            grad2d = gout.reshape(-1, self.out_channels)
            np.matmul(grad2d.T, cols2d,
                      out=self._grad_out("W").reshape(self.out_channels, -1))
            grad2d.sum(axis=0, out=self._grad_out("b"))
        w_flat = self.params["W"].reshape(self.out_channels, -1)
        dcols = self._scratch(
            workspace, "dcols", grad_flat.shape[:3] + (w_flat.shape[1],),
            np.result_type(grad.dtype, w_flat.dtype))
        np.matmul(grad_flat, w_flat, out=dcols)
        n, c, h, w = self._x_shape
        padded_out = None
        if workspace is not None:
            padded_out = workspace.request(
                self, "col2im", (n, c, h + 2 * p, w + 2 * p), dcols.dtype)
        out = _col2im(dcols, self._x_shape, k, k, s, p,
                      padded_out=padded_out)
        self._cols = None
        return out


class Conv1d(Layer):
    """1-D convolution (NCL layout) — used by the audio classifier."""

    _ephemeral = ("_cols", "_x_shape")

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, *, stride: int = 1, padding: int = 0,
                 scheme: str = "he", dtype: DTypeLike = np.float64) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size
        self.params["W"] = init_schemes.initialize(
            rng, (out_channels, in_channels, kernel_size), fan_in,
            out_channels * kernel_size, scheme, dtype=dtype)
        self.params["b"] = np.zeros(out_channels, dtype=dtype)

    @property
    def name(self) -> str:
        return (f"Conv1d({self.in_channels}->{self.out_channels},"
                f"k{self.kernel_size})")

    def _padded4_shape(self, x_shape: tuple[int, int, int]
                       ) -> tuple[int, int, int, int]:
        """The height-1 padded image the length axis is convolved as."""
        n, c, length = x_shape
        return n, c, 1, length + 2 * self.padding

    def forward(self, x: np.ndarray, *, training: bool = True,
                workspace: Workspace | None = None) -> np.ndarray:
        k, s, p = self.kernel_size, self.stride, self.padding
        x4 = x[:, :, None, :]  # treat length as width of a height-1 image
        if p:
            if workspace is None:
                x4 = np.pad(x4, ((0, 0), (0, 0), (0, 0), (p, p)))
            else:
                pad_out, fresh = workspace.request_info(
                    self, "pad", self._padded4_shape(x.shape), x.dtype)
                if fresh:
                    pad_out.fill(0)
                pad_out[:, :, :, p:-p] = x4
                x4 = pad_out
        n, _, _, padded_len = x4.shape
        out_l = (padded_len - k) // s + 1
        cols_out = None
        if workspace is not None:
            cols_out = workspace.request(
                self, "cols", (n, 1, out_l, self.in_channels, 1, k),
                x.dtype)
        cols, _, _ = _im2col(x4, 1, k, s, 0, cols_out=cols_out)
        self._cols = cols if training else None
        self._x_shape = x.shape
        w_flat = self.params["W"].reshape(self.out_channels, -1)
        out = self._scratch(workspace, "out",
                            (n, 1, out_l, self.out_channels),
                            np.result_type(x.dtype, w_flat.dtype))
        np.matmul(cols, w_flat.T, out=out)  # (n, 1, out_l, C_out)
        out += self.params["b"]
        return out[:, 0].transpose(0, 2, 1)

    def backward(self, grad: np.ndarray, *,
                 workspace: Workspace | None = None) -> np.ndarray:
        k, s, p = self.kernel_size, self.stride, self.padding
        grad4 = grad.transpose(0, 2, 1)[:, None, :, :]  # (n,1,out_l,C_out)
        # no cached patches after an eval-mode forward: produce the
        # input gradient only (weight grads need a training forward).
        if self._cols is not None:
            cols2d = self._cols.reshape(-1, self._cols.shape[-1])
            gout = self._scratch(workspace, "dout", grad4.shape, grad.dtype)
            np.copyto(gout, grad4)
            grad2d = gout.reshape(-1, self.out_channels)
            np.matmul(grad2d.T, cols2d,
                      out=self._grad_out("W").reshape(self.out_channels, -1))
            grad2d.sum(axis=0, out=self._grad_out("b"))
        w_flat = self.params["W"].reshape(self.out_channels, -1)
        dcols = self._scratch(
            workspace, "dcols", grad4.shape[:3] + (w_flat.shape[1],),
            np.result_type(grad.dtype, w_flat.dtype))
        np.matmul(grad4, w_flat, out=dcols)
        x4_shape = self._padded4_shape(self._x_shape)
        padded_out = None
        if workspace is not None:
            padded_out = workspace.request(self, "col2im", x4_shape,
                                           dcols.dtype)
        dx4 = _col2im(dcols, x4_shape, 1, k, s, 0, padded_out=padded_out)
        self._cols = None
        if p:
            dx4 = dx4[:, :, :, p:-p]
        return dx4[:, :, 0, :]


class MaxPool2d(Layer):
    """Non-overlapping 2-D max pooling (stride == kernel size)."""

    _ephemeral = ("_mask", "_x_shape")

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: np.ndarray, *, training: bool = True,
                workspace: Workspace | None = None) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel_size
        if h % k or w % k:
            raise ValueError(f"MaxPool2d({k}) needs H, W divisible by {k}, "
                             f"got {h}x{w}")
        blocks = x.reshape(n, c, h // k, k, w // k, k)
        # reductions bypass the arena: ``out=`` forces numpy's generic
        # strided reduce loop, ~3x slower than the allocating form on the
        # conv-transposed layouts that reach this layer.  The result is
        # k*k times smaller than the input, so the churn is minor.
        out = blocks.max(axis=(3, 5))
        mask = self._scratch_like(workspace, "mask", blocks, bool)
        np.equal(blocks, out[:, :, :, None, :, None], out=mask)
        self._mask = mask
        self._x_shape = x.shape
        return out

    def backward(self, grad: np.ndarray, *,
                 workspace: Workspace | None = None) -> np.ndarray:
        n, c, h, w = self._x_shape
        # Stage the incoming grad into a buffer that shares the mask's
        # (conv-transposed) memory order, then give dx that layout too:
        # elementwise values are layout-independent, the k*k broadcast
        # multiply runs coherently with the mask instead of gathering
        # from a foreign layout (~6x faster), and the 6D->4D reshape
        # stays zero-copy.
        staged = self._scratch_like(workspace, "dgrad",
                                    self._mask[:, :, :, 0, :, 0],
                                    grad.dtype)
        np.copyto(staged, grad)
        expanded = self._scratch_like(workspace, "dx", self._mask,
                                      grad.dtype)
        np.multiply(staged[:, :, :, None, :, None], self._mask,
                    out=expanded)
        counts = self._mask.sum(axis=(3, 5), keepdims=True, dtype=grad.dtype)
        expanded /= counts  # split ties evenly to keep grads exact
        self._mask = None
        return expanded.reshape(n, c, h, w)


class AvgPool2d(Layer):
    """Non-overlapping 2-D average pooling."""

    _ephemeral = ("_x_shape",)

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: np.ndarray, *, training: bool = True,
                workspace: Workspace | None = None) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel_size
        if h % k or w % k:
            raise ValueError(f"AvgPool2d({k}) needs H, W divisible by {k}, "
                             f"got {h}x{w}")
        self._x_shape = x.shape
        blocks = x.reshape(n, c, h // k, k, w // k, k)
        # allocating reduce: see MaxPool2d.forward.
        return blocks.mean(axis=(3, 5))

    def backward(self, grad: np.ndarray, *,
                 workspace: Workspace | None = None) -> np.ndarray:
        n, c, h, w = self._x_shape
        k = self.kernel_size
        scale = 1.0 / (k * k)
        scaled = self._scratch(workspace, "scaled",
                               (n, c, h // k, 1, w // k, 1), grad.dtype)
        np.multiply(grad[:, :, :, None, :, None], scale, out=scaled)
        expanded = self._scratch(workspace, "dx",
                                 (n, c, h // k, k, w // k, k), grad.dtype)
        np.copyto(expanded, np.broadcast_to(scaled, expanded.shape))
        return expanded.reshape(n, c, h, w)


class MaxPool1d(Layer):
    """Non-overlapping 1-D max pooling for audio nets."""

    _ephemeral = ("_mask", "_x_shape")

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: np.ndarray, *, training: bool = True,
                workspace: Workspace | None = None) -> np.ndarray:
        n, c, length = x.shape
        k = self.kernel_size
        if length % k:
            raise ValueError(f"MaxPool1d({k}) needs L divisible by {k}, "
                             f"got {length}")
        blocks = x.reshape(n, c, length // k, k)
        # allocating reduce: see MaxPool2d.forward.
        out = blocks.max(axis=3)
        mask = self._scratch_like(workspace, "mask", blocks, bool)
        np.equal(blocks, out[:, :, :, None], out=mask)
        self._mask = mask
        self._x_shape = x.shape
        return out

    def backward(self, grad: np.ndarray, *,
                 workspace: Workspace | None = None) -> np.ndarray:
        counts = self._mask.sum(axis=3, keepdims=True, dtype=grad.dtype)
        # staged grad + layout-matched dx: see MaxPool2d.backward.
        staged = self._scratch_like(workspace, "dgrad",
                                    self._mask[:, :, :, 0], grad.dtype)
        np.copyto(staged, grad)
        expanded = self._scratch_like(workspace, "dx", self._mask,
                                      grad.dtype)
        np.multiply(staged[:, :, :, None], self._mask, out=expanded)
        expanded /= counts
        self._mask = None
        return expanded.reshape(self._x_shape)


class Flatten(Layer):
    """Flatten all but the batch dimension."""

    _ephemeral = ("_shape",)

    def forward(self, x: np.ndarray, *, training: bool = True,
                workspace: Workspace | None = None) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray, *,
                 workspace: Workspace | None = None) -> np.ndarray:
        return grad.reshape(self._shape)


class Dropout(Layer):
    """Inverted dropout; identity at evaluation time."""

    _ephemeral = ("_mask",)

    def __init__(self, rate: float = 0.5) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng: np.random.Generator | None = None

    def attach_rng(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def forward(self, x: np.ndarray, *, training: bool = True,
                workspace: Workspace | None = None) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        if self._rng is None:
            raise RuntimeError("Dropout used without an attached rng")
        keep = 1.0 - self.rate
        # the keep/drop draw stays float64 for every compute dtype so the
        # generator stream matches the pinned trajectories; only the mask
        # itself adopts the input precision.
        draw = self._scratch(workspace, "draw", x.shape, np.float64)
        self._rng.random(out=draw)
        kept = self._scratch(workspace, "kept", x.shape, bool)
        np.less(draw, keep, out=kept)
        mask = self._scratch(workspace, "mask", x.shape, x.dtype)
        np.copyto(mask, kept)   # the bool -> compute-dtype cast of astype
        mask /= keep
        self._mask = mask
        out = self._scratch(workspace, "out", x.shape, x.dtype)
        np.multiply(x, mask, out=out)
        return out

    def backward(self, grad: np.ndarray, *,
                 workspace: Workspace | None = None) -> np.ndarray:
        if self._mask is None:
            return grad
        out = self._scratch(workspace, "dx", grad.shape, grad.dtype)
        np.multiply(grad, self._mask, out=out)
        self._mask = None
        return out


class BatchNorm1d(Layer):
    """Batch normalization over feature vectors (N, F)."""

    _ephemeral = ("_xhat", "_std")

    def __init__(self, num_features: int, *, momentum: float = 0.1,
                 eps: float = 1e-5,
                 dtype: DTypeLike = np.float64) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.params["gamma"] = np.ones(num_features, dtype=dtype)
        self.params["beta"] = np.zeros(num_features, dtype=dtype)
        self.buffers["running_mean"] = np.zeros(num_features, dtype=dtype)
        self.buffers["running_var"] = np.ones(num_features, dtype=dtype)

    @property
    def name(self) -> str:
        return f"BatchNorm1d({self.num_features})"

    def forward(self, x: np.ndarray, *, training: bool = True,
                workspace: Workspace | None = None) -> np.ndarray:
        if training:
            mean = self._scratch(workspace, "mean", x.shape[1:], x.dtype)
            x.mean(axis=0, out=mean)
            var = self._scratch(workspace, "var", x.shape[1:], x.dtype)
            x.var(axis=0, out=var)
            self.buffers["running_mean"] *= 1.0 - self.momentum
            self.buffers["running_mean"] += self.momentum * mean
            self.buffers["running_var"] *= 1.0 - self.momentum
            self.buffers["running_var"] += self.momentum * var
        else:
            mean = self.buffers["running_mean"]
            var = self.buffers["running_var"]
        std = self._scratch(workspace, "std", var.shape, var.dtype)
        np.add(var, self.eps, out=std)
        np.sqrt(std, out=std)
        self._std = std
        xhat = self._scratch(workspace, "xhat", x.shape,
                             np.result_type(x.dtype, mean.dtype))
        np.subtract(x, mean, out=xhat)
        xhat /= std
        self._xhat = xhat
        gamma = self.params["gamma"]
        out = self._scratch(workspace, "out", x.shape,
                            np.result_type(gamma.dtype, xhat.dtype))
        np.multiply(gamma, xhat, out=out)
        out += self.params["beta"]
        return out

    def backward(self, grad: np.ndarray, *,
                 workspace: Workspace | None = None) -> np.ndarray:
        xhat, std = self._xhat, self._std
        tmp = self._scratch(workspace, "tmp", grad.shape,
                            np.result_type(grad.dtype, xhat.dtype))
        np.multiply(grad, xhat, out=tmp)
        tmp.sum(axis=0, out=self._grad_out("gamma"))
        grad.sum(axis=0, out=self._grad_out("beta"))
        gamma = self.params["gamma"]
        dxhat = self._scratch(workspace, "dxhat", grad.shape,
                              np.result_type(grad.dtype, gamma.dtype))
        np.multiply(grad, gamma, out=dxhat)
        mean1 = self._scratch(workspace, "mean1", dxhat.shape[1:],
                              dxhat.dtype)
        dxhat.mean(axis=0, out=mean1)
        np.multiply(dxhat, xhat, out=tmp)
        mean2 = self._scratch(workspace, "mean2", tmp.shape[1:], tmp.dtype)
        tmp.mean(axis=0, out=mean2)
        out = self._scratch(workspace, "dx", grad.shape, dxhat.dtype)
        np.subtract(dxhat, mean1, out=out)
        np.multiply(xhat, mean2, out=tmp)
        out -= tmp
        out /= std
        self._xhat = None
        self._std = None
        return out
