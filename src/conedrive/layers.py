"""Forward/backward primitives from which every controller network is built.

Each layer owns its parameters and caches, on a training-mode forward,
exactly what its backward pass needs. ``backward`` consumes the most recent
training cache, sets each parameter's gradient via ``Param.set_grad`` and
returns the gradient with respect to the layer input. Calling ``backward``
without a preceding training-mode forward is rejected.

Convolution is valid (no padding): output spatial extent is
``(H - k) // stride + 1``. Max-pool is a running ``np.maximum`` over the
k*k strided slices of its input, one per window offset; its backward routes
each window's gradient to the first maximal element in row-major window
order. The sliding-window argmax it replaced is kept as a slow twin in
the tests' ``reference_twins`` module, which the property tests pin it to.

Where a backward keeps the gradient under a boolean mask (ReLU, clamp and
each window offset of max-pool) it calls ``_select``, which ANDs the
gradient's bits with an all-ones or all-zeros word per element instead of
branching per element as ``np.where`` does; the result equals
``np.where(mask, grad, 0)`` bit for bit (a dropped NaN or -0.0 becomes
+0.0, a kept -0.0 stays -0.0). Batch-norm runs the same operations in the
same order as its textbook form (Ioffe & Szegedy 2015), writing each
elementwise step into a temporary it already owns; the plain form is kept
as a test-only twin in ``reference_twins``.

Convolution lowers its batch with im2col in chunks of as many frames as fit
in ``CONV_CHUNK_BYTES`` of columns (at least one), one matmul per chunk, so
the columns stay in cache. A batch of several chunks runs them as tasks on
the package's one pool of ``workers.WORKERS`` threads, each bound to a CPU
of its own, which frame decoding shares (see ``workers``). A one-chunk
batch, such as a serving frame, runs on the calling thread. The training
cache holds only the input: backward rebuilds each chunk's columns in its
task (compute traded for memory) and overwrites them with their gradient.
Each task writes its frames' weight-gradient products into one (batch, out
depth, C*k*k) buffer and its ``col2im`` result into one input-gradient
array; the batch sum of the weight gradient and the bias gradient follow
on the calling thread once every task is done. Each frame is its own
product throughout, so every result is bit-identical at any chunk budget
or worker count, and to the whole-batch lowering kept, with the
``tensordot`` weight gradient, as test-only twins in ``reference_twins``.

Each graph layer kind is one class, registered by name in ``LAYER_KINDS``;
the class alone knows its hyper-parameters and shapes. Its ``infer_shape``
is the one check of both: it runs once, when a ``graph.Model`` compiles its
spec, and raises ``GraphError`` naming the node and the field for any
hyper-parameter out of range or input shape the kind cannot take.
Constructors and ``forward`` do not check again; every layer of a model is
built from inferred shapes.
"""
from __future__ import annotations

import math

import numpy as np

from . import workers
from .errors import GraphError, ShapeError
from .tensor import DEFAULT_DTYPE, Param


# Bytes of im2col columns a convolution builds at a time: a batch is lowered
# in chunks of as many frames as fit, so the columns stay in the L2 cache of
# the core that lowers them. 2 MiB is the smallest power of two that holds
# the columns of a batch-64 3CL-2FC conv2 at 64x64 (1.8 MB) in one chunk.
# Swept with the chunks on two pool threads (2-CPU Xeon, 2 MiB L2 per core,
# 1 BLAS thread; 20 alternating rounds in one process), that net's batch-64
# train step took a median 43.9 ms at 2 MiB, against 45.4 ms at 1 MiB
# (faster in 5 of 20 rounds), 44.6 ms at 4 MiB (9 of 20) and 74.4 ms at
# 0.5 MiB (0 of 20), where conv1 hands the pool one frame per task; on the
# calling thread alone it took 55.0 ms at 2 MiB.
CONV_CHUNK_BYTES = 2 << 20


def conv_out_extent(extent: int, kernel: int, stride: int) -> int:
    return (extent - kernel) // stride + 1


def im2col(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Unfold (N,C,H,W) into (N, C*k*k, positions) patch columns."""
    n, c, _, _ = x.shape
    win = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    ho, wo = win.shape[2], win.shape[3]
    out = np.empty((n, c * kernel * kernel, ho * wo), dtype=x.dtype)
    np.copyto(out.reshape(n, c, kernel, kernel, ho, wo), win.transpose(0, 1, 4, 5, 2, 3))
    return out


def _window_offsets(k: int, s: int, ho: int, wo: int) -> list[tuple]:
    """Index of the element at offset (di, dj) of every k x k window, for
    each offset in row-major order; each selects an (ho, wo) strided grid."""
    return [(slice(None), slice(None), slice(di, di + s * ho, s), slice(dj, dj + s * wo, s))
            for di, dj in (divmod(idx, k) for idx in range(k * k))]


def col2im(cols: np.ndarray, x_shape: tuple, kernel: int, stride: int) -> np.ndarray:
    """Scatter-add patch columns back onto the (N,C,H,W) input grid, one
    window offset at a time in row-major order."""
    n, c, h, w = x_shape
    ho = conv_out_extent(h, kernel, stride)
    wo = conv_out_extent(w, kernel, stride)
    d = cols.reshape(n, c, kernel * kernel, ho, wo)
    dx = np.zeros(x_shape, dtype=cols.dtype)
    for tap, at in enumerate(_window_offsets(kernel, stride, ho, wo)):
        dx[at] += d[:, :, tap]
    return dx


def _need_rank(node: str, kind: str, shape: tuple[int, ...], ndim: int) -> tuple[int, ...]:
    if len(shape) != ndim:
        raise GraphError(
            f"node '{node}' ({kind}) expects a rank-{ndim} input, got shape {shape}"
        )
    return shape


def _need_at_least(node: str, hyper: dict, field: str, least: int) -> int:
    value = hyper[field]
    if value < least:
        raise GraphError(f"node '{node}': {field} must be >= {least}, got {value}")
    return value


def _window_extent(node: str, kind: str, shape: tuple[int, ...], hyper: dict,
                   window: str) -> tuple[int, int, int]:
    """(channels, out height, out width) of the square window named
    ``window`` in ``hyper``, sliding at ``hyper["stride"]``."""
    c, h, w = _need_rank(node, kind, shape, 3)
    k = _need_at_least(node, hyper, window, 1)
    s = _need_at_least(node, hyper, "stride", 1)
    if k > h or k > w:
        raise GraphError(f"node '{node}': {window} {k}x{k} larger than input {h}x{w}")
    return c, conv_out_extent(h, k, s), conv_out_extent(w, k, s)


class Layer:
    """Base class. Subclasses set ``self._cache`` on training forwards.

    ``kind`` names the class in specs; ``HYPER`` lists (name, type) of its
    hyper-parameters in serialization order; a ``multi_input`` layer's
    forward takes the list of its inputs and its backward returns a list.
    """

    kind = ""
    HYPER: tuple[tuple[str, type], ...] = ()
    multi_input = False

    def __init__(self):
        self._cache = None

    @classmethod
    def infer_shape(cls, node: str, hyper: dict, in_shapes: list[tuple[int, ...]]
                    ) -> tuple[int, ...]:
        """Batchless output shape for node ``node``; raises GraphError for
        hyper-parameters or input shapes this kind does not take."""
        return in_shapes[0]

    @classmethod
    def build(cls, hyper: dict, in_shapes: list[tuple[int, ...]],
              rng: np.random.Generator, dtype) -> "Layer":
        """A layer for these hyper-parameters and (batchless) input shapes."""
        return cls(**hyper)

    def params(self) -> list[Param]:
        return []

    def state(self) -> list[tuple[str, np.ndarray]]:
        """Tensors persisted in checkpoints (parameters plus running stats)."""
        return [(p.name, p.value) for p in self.params()]

    def load_state(self, tensors: dict[str, np.ndarray]) -> None:
        """Copy in ``state()``'s tensors; ``Model.load_state_tensors`` has
        checked their names and shapes."""
        for p in self.params():
            p.value = tensors[p.name].astype(p.value.dtype, copy=True)

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _need_cache(self):
        if self._cache is None:
            raise GraphError(
                f"{type(self).__name__}.backward called without a "
                "training-mode forward"
            )
        return self._cache


def _fan_in_uniform(rng: np.random.Generator, shape: tuple, fan_in: int, dtype):
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Conv2d(Layer):
    """Valid 2-D convolution, square kernel, no padding; its results take the
    input's dtype, which is the layer's own (see ``tensor``)."""

    kind = "conv"
    HYPER = (("out_depth", int), ("kernel", int), ("stride", int))

    @classmethod
    def infer_shape(cls, node, hyper, in_shapes):
        _, ho, wo = _window_extent(node, cls.kind, in_shapes[0], hyper, "kernel")
        return (_need_at_least(node, hyper, "out_depth", 1), ho, wo)

    @classmethod
    def build(cls, hyper, in_shapes, rng, dtype):
        return cls(in_shapes[0][0], hyper["out_depth"], hyper["kernel"],
                   hyper["stride"], rng, dtype)

    def __init__(self, in_depth: int, out_depth: int, kernel: int, stride: int,
                 rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.kernel = kernel
        self.stride = stride
        w = _fan_in_uniform(rng, (out_depth, in_depth, kernel, kernel),
                            in_depth * kernel * kernel, dtype)
        self.weight = Param("weight", w)
        self.bias = Param("bias", np.zeros(out_depth, dtype=dtype))

    def params(self):
        return [self.weight, self.bias]

    def _each_chunk(self, x: np.ndarray, task) -> None:
        """Call ``task(frames)`` for frame slices of ``x`` in chunks of as
        many frames as fit in ``CONV_CHUNK_BYTES`` of im2col columns, at
        least one, through ``workers.run``."""
        n, c, h, w = x.shape
        k, s = self.kernel, self.stride
        frame = c * k * k * conv_out_extent(h, k, s) * conv_out_extent(w, k, s)
        step = max(1, CONV_CHUNK_BYTES // (frame * x.itemsize))
        workers.run(task, [slice(a, a + step) for a in range(0, n, step)])

    def forward(self, x, train):
        od, _, k, _ = self.weight.value.shape
        n, _, h, w = x.shape
        ho = conv_out_extent(h, k, self.stride)
        wo = conv_out_extent(w, k, self.stride)
        wmat = self.weight.value.reshape(od, -1)
        out = np.empty((n, od, ho * wo), dtype=x.dtype)

        def lower(frames):
            np.matmul(wmat, im2col(x[frames], k, self.stride), out=out[frames])

        self._each_chunk(x, lower)
        out = out.reshape(n, od, ho, wo)
        out += self.bias.value[:, None, None]
        self._cache = x if train else None
        return out

    def backward(self, grad_out):
        x = self._need_cache()
        n, od, ho, wo = grad_out.shape
        g = grad_out.reshape(n, od, ho * wo)
        wmat = self.weight.value.reshape(od, -1)
        # each frame's dW product lands in ``dw``; the batch sum comes last
        dw = np.empty((n,) + wmat.shape, dtype=x.dtype)
        dx = np.empty(x.shape, dtype=x.dtype)

        def lower(frames):
            cols = im2col(x[frames], self.kernel, self.stride)
            gf = g[frames]
            if ho * wo == 1:
                # one output position: each frame's product is an outer
                # product, exact either way, which matmul forms slowly
                np.multiply(gf, cols.transpose(0, 2, 1), out=dw[frames])
            else:
                np.matmul(gf, cols.transpose(0, 2, 1), out=dw[frames])
            dcols = np.matmul(wmat.T, gf, out=cols)
            dx[frames] = col2im(dcols, (len(gf),) + x.shape[1:], self.kernel, self.stride)

        self._each_chunk(x, lower)
        self.weight.set_grad(dw.sum(axis=0).reshape(self.weight.value.shape))
        self.bias.set_grad(grad_out.sum(axis=(0, 2, 3)))
        return dx


def _select(mask: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """``np.where(mask, grad, 0)`` bit for bit, without a branch per element.

    ``0 - mask`` in the unsigned integer of ``grad``'s width is all ones
    where the mask holds and zero elsewhere; ANDed with ``grad``'s bits it
    keeps each kept element whole (a -0.0 or NaN included) and zeroes the
    rest to +0.0. ``np.where`` branches per element, which a ReLU or
    max-pool mask mispredicts often: on a random (64, 8, 30, 30) mask and
    float32 gradient it took 3.5 ms against 0.5 ms on a 2-CPU Xeon."""
    bits = np.dtype(f"u{grad.itemsize}")
    return np.bitwise_and(np.subtract(0, mask, dtype=bits), grad.view(bits)).view(grad.dtype)


class MaxPool2d(Layer):
    """Max pooling; backward routes each window's gradient to its maximum.

    The forward is a running ``np.maximum`` over the k*k strided slices
    ``x[:, :, di::s, dj::s]``, one per window offset; a window holding a NaN
    yields NaN. The backward walks the offsets in row-major order and sends
    each window's gradient to the first offset that equals the window's
    maximum (or, in a NaN window, that is NaN), so ties go to the first
    maximum. Each offset adds ``_select(routed, grad_out)`` into its slice
    of the zeroed input gradient, which equals adding
    ``np.where(routed, grad_out, 0)`` bit for bit.
    ``maxpool_forward_reference``/``maxpool_backward_reference`` are the
    sliding-window argmax twins the property tests pin this to; the two
    agree exactly, except that a tie between +0.0 and -0.0 may keep either
    sign. The training cache holds the input itself, not a copy.
    """

    kind = "maxpool"
    HYPER = (("window", int), ("stride", int))

    @classmethod
    def infer_shape(cls, node, hyper, in_shapes):
        return _window_extent(node, cls.kind, in_shapes[0], hyper, "window")

    def __init__(self, window: int, stride: int):
        super().__init__()
        self.window = window
        self.stride = stride

    def forward(self, x, train):
        h, w = x.shape[2:]
        k, s = self.window, self.stride
        first, *rest = _window_offsets(k, s, conv_out_extent(h, k, s),
                                       conv_out_extent(w, k, s))
        out = x[first].copy()
        for at in rest:
            np.maximum(out, x[at], out=out)
        self._cache = (x, out) if train else None
        return out

    def backward(self, grad_out):
        x, out = self._need_cache()
        offsets = _window_offsets(self.window, self.stride, out.shape[2], out.shape[3])
        dx = np.zeros(x.shape, dtype=grad_out.dtype)
        free = np.ones(out.shape, dtype=bool)       # windows not yet routed
        nan_windows = bool(np.isnan(out).any())
        for at in offsets[:-1]:
            hit = x[at] == out
            if nan_windows:
                hit |= np.isnan(x[at])
            hit &= free
            # ``+=``, not ``=``: overlapping windows add into one element,
            # and a routed -0.0 must land as 0.0 + -0.0 == +0.0
            dx[at] += _select(hit, grad_out)
            free &= ~hit
        # a window still unrouted has its (first) maximum at the last offset
        dx[offsets[-1]] += _select(free, grad_out)
        return dx


class BatchNorm2d(Layer):
    """Per-channel batch normalization over (batch, H, W) with learnable affine.

    Training mode normalizes with batch statistics (population variance) and
    updates running statistics by an exponential moving average with weight
    ``momentum`` on the new batch; eval mode uses the running statistics.
    ``eps`` is added to the variance, so a degenerate batch (variance zero)
    is permitted. Each elementwise step writes into a temporary the layer
    already holds, in the order of ``batchnorm_forward_reference`` and
    ``batchnorm_backward_reference``, the one-array-per-step twins the
    property tests pin it to byte for byte. The training variance is the
    mean square of the batch the forward centres anyway; the twin takes
    ``x.var``, whose bits that equals because numpy's ``_var`` computes it
    the same way, and the property test is the guard if numpy ever stops.
    """

    kind = "batchnorm"
    eps = 1e-5
    momentum = 0.1

    @classmethod
    def infer_shape(cls, node, hyper, in_shapes):
        return _need_rank(node, cls.kind, in_shapes[0], 3)

    @classmethod
    def build(cls, hyper, in_shapes, rng, dtype):
        return cls(in_shapes[0][0], dtype=dtype)

    def __init__(self, channels: int, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.gamma = Param("gamma", np.ones(channels, dtype=dtype))
        self.beta = Param("beta", np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def params(self):
        return [self.gamma, self.beta]

    def state(self):
        return [
            ("gamma", self.gamma.value),
            ("beta", self.beta.value),
            ("running_mean", self.running_mean),
            ("running_var", self.running_var),
        ]

    def load_state(self, tensors):
        super().load_state(tensors)
        self.running_mean = tensors["running_mean"].astype(self.running_mean.dtype, copy=True)
        self.running_var = tensors["running_var"].astype(self.running_var.dtype, copy=True)

    def forward(self, x, train):
        mean = x.mean(axis=(0, 2, 3)) if train else self.running_mean
        # out = gamma * ((x - mean) * inv) + beta, one step at a time
        xhat = x - mean[None, :, None, None]
        if train:
            # numpy's ``x.var`` is this very sequence (sum, divide, centre,
            # square, sum, divide), so the variance of the batch centred
            # above has its bits without summing and centring x again
            var = np.square(xhat).mean(axis=(0, 2, 3))
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            var = self.running_var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv[None, :, None, None]
        gamma = self.gamma.value[None, :, None, None]
        if train:
            # the cache keeps xhat, so the product needs an array of its own
            self._cache = (xhat, inv)
            out = gamma * xhat
        else:
            self._cache = None
            out = np.multiply(gamma, xhat, out=xhat)
        out += self.beta.value[None, :, None, None]
        return out

    def backward(self, grad_out):
        xhat, inv = self._need_cache()
        self.gamma.set_grad((grad_out * xhat).sum(axis=(0, 2, 3)))
        self.beta.set_grad(grad_out.sum(axis=(0, 2, 3)))
        gx = grad_out * self.gamma.value[None, :, None, None]
        mean_gx = gx.mean(axis=(0, 2, 3), keepdims=True)
        dx = gx * xhat
        mean_gx_xhat = dx.mean(axis=(0, 2, 3), keepdims=True)
        # dx = inv * (gx - mean_gx - xhat * mean_gx_xhat), one step at a time in ``dx``
        gx -= mean_gx
        np.multiply(xhat, mean_gx_xhat, out=dx)
        np.subtract(gx, dx, out=dx)
        np.multiply(inv[None, :, None, None], dx, out=dx)
        return dx


class Linear(Layer):
    """Affine map on flattened features: y = x W^T + b."""

    kind = "linear"
    HYPER = (("out_features", int),)

    @classmethod
    def infer_shape(cls, node, hyper, in_shapes):
        _need_rank(node, cls.kind, in_shapes[0], 1)
        return (_need_at_least(node, hyper, "out_features", 1),)

    @classmethod
    def build(cls, hyper, in_shapes, rng, dtype):
        # the one hyper-parameter is the output width
        return cls(in_shapes[0][0], *hyper.values(), rng, dtype)

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        super().__init__()
        w = _fan_in_uniform(rng, (out_features, in_features), in_features, dtype)
        self.weight = Param("weight", w)
        self.bias = Param("bias", np.zeros(out_features, dtype=dtype))

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, train):
        out = x @ self.weight.value.T + self.bias.value
        self._cache = x if train else None
        return out

    def backward(self, grad_out):
        x = self._need_cache()
        self.weight.set_grad(grad_out.T @ x)
        self.bias.set_grad(grad_out.sum(axis=0))
        return grad_out @ self.weight.value


class SoftmaxHead(Linear):
    """Classification head: a linear map to class logits.

    The softmax itself lives in the loss (see ``softmax_cross_entropy``), so
    the graph output stays in logit space.
    """

    kind = "softmax_head"
    HYPER = (("classes", int),)

    @classmethod
    def infer_shape(cls, node, hyper, in_shapes):
        _need_rank(node, cls.kind, in_shapes[0], 1)
        return (_need_at_least(node, hyper, "classes", 2),)


class ReLU(Layer):
    """max(x, 0); the backward keeps the gradient where x > 0.

    The gradient is selected by ``_select``, equal bit for bit to
    ``np.where(x > 0, grad_out, 0)``: 0 at x == 0 and where x is NaN."""

    kind = "relu"

    def forward(self, x, train):
        self._cache = (x > 0) if train else None
        return np.maximum(x, 0)

    def backward(self, grad_out):
        mask = self._need_cache()
        return _select(mask, grad_out)


class Flatten(Layer):
    kind = "flatten"

    @classmethod
    def infer_shape(cls, node, hyper, in_shapes):
        return (int(np.prod(in_shapes[0])),)

    def forward(self, x, train):
        self._cache = x.shape if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        return grad_out.reshape(self._need_cache())


class ClampScale(Layer):
    """Hard saturation of the raw pre-activation into [lo, hi].

    Gradient is 1 strictly inside the interval and 0 at or beyond the bounds.
    """

    kind = "clamp_scale"
    HYPER = (("lo", float), ("hi", float))

    @classmethod
    def infer_shape(cls, node, hyper, in_shapes):
        if not hyper["lo"] < hyper["hi"]:
            raise GraphError(f"node '{node}': lo must be < hi, got "
                             f"lo={hyper['lo']} hi={hyper['hi']}")
        return in_shapes[0]

    def __init__(self, lo: float, hi: float):
        super().__init__()
        self.lo = float(lo)
        self.hi = float(hi)

    def forward(self, x, train):
        self._cache = ((x > self.lo) & (x < self.hi)) if train else None
        return np.clip(x, self.lo, self.hi)

    def backward(self, grad_out):
        mask = self._need_cache()
        return _select(mask, grad_out)


class ScaledSigmoid(Layer):
    """scale * sigmoid(x); outputs lie in (0, scale) up to float saturation."""

    kind = "scaled_sigmoid"
    HYPER = (("scale", float),)

    @classmethod
    def infer_shape(cls, node, hyper, in_shapes):
        if not (math.isfinite(hyper["scale"]) and hyper["scale"] > 0):
            raise GraphError(f"node '{node}': scale must be finite and > 0, "
                             f"got {hyper['scale']}")
        return in_shapes[0]

    def __init__(self, scale: float):
        super().__init__()
        self.scale = float(scale)

    def forward(self, x, train):
        s = sigmoid(x)
        self._cache = s if train else None
        return self.scale * s

    def backward(self, grad_out):
        s = self._need_cache()
        return grad_out * self.scale * s * (1.0 - s)


class Concat(Layer):
    """Concatenate flattened feature blocks along the feature axis."""

    kind = "concat"
    multi_input = True

    @classmethod
    def infer_shape(cls, node, hyper, in_shapes):
        for shape in in_shapes:
            if len(shape) != 1:
                raise GraphError(
                    f"node '{node}': {cls.kind} expects flat inputs, got {shape}"
                )
        return (sum(shape[0] for shape in in_shapes),)

    def forward(self, xs, train):
        self._cache = [x.shape[1] for x in xs] if train else None
        return np.concatenate(xs, axis=1)

    def backward(self, grad_out):
        widths = self._need_cache()
        splits = np.cumsum(widths)[:-1]
        return np.split(grad_out, splits, axis=1)


LAYER_KINDS: dict[str, type[Layer]] = {
    cls.kind: cls
    for cls in (Conv2d, BatchNorm2d, ReLU, MaxPool2d, Flatten, Linear, ClampScale,
                ScaledSigmoid, SoftmaxHead, Concat)
}


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically safe logistic function."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax_cross_entropy(logits: np.ndarray, true_class: np.ndarray):
    """Mean cross-entropy of softmaxed logits against 1-based class indices.

    Returns (loss, gradient w.r.t. logits). The loss is computed in log space
    (max subtraction plus log-sum-exp) so it stays finite for |logit| <= 1e4.
    Gradient is (softmax - onehot) / batch.
    """
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ShapeError(f"cross-entropy expects (batch, C>=2) logits, got {logits.shape}")
    true_class = np.asarray(true_class)
    n, c = logits.shape
    if true_class.shape != (n,):
        raise ShapeError(
            f"class indices shape {true_class.shape} does not match batch {n}"
        )
    if np.any((true_class < 1) | (true_class > c)):
        bad = true_class[(true_class < 1) | (true_class > c)][0]
        raise ShapeError(f"class index {bad} out of range [1, {c}]")
    idx = true_class.astype(np.int64) - 1
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(total[:, 0]) - z[np.arange(n), idx]))
    grad = e / total
    grad[np.arange(n), idx] -= 1.0
    return loss, (grad / n).astype(logits.dtype)


def smooth_l1(prediction: np.ndarray, target: np.ndarray):
    """Smooth L1: quadratic for |d| < 1, linear beyond. Returns (loss, grad).

    loss is the mean per-element contribution; the gradient per element is
    d/n inside the quadratic zone and sign(d)/n outside.
    """
    if prediction.shape != target.shape:
        raise ShapeError(
            f"smooth_l1 shape mismatch: prediction {prediction.shape} vs "
            f"target {target.shape}"
        )
    d = prediction - target
    ad = np.abs(d)
    quad = ad < 1.0
    contrib = np.where(quad, 0.5 * d * d, ad - 0.5)
    n = d.size
    grad = np.where(quad, d, np.sign(d)) / n
    return float(contrib.mean()), grad.astype(prediction.dtype)
