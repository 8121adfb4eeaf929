"""Array conventions and the trainable-parameter container.

Tensors are plain numpy arrays in row-major layout; image batches use the
(batch, channel, height, width) axis order. A model computes in one dtype,
its own (float32 to train and serve, float64 to check gradients): its
forward converts each input, losses return the prediction's dtype and
``Layer.load_state`` casts checkpoint tensors. A layer called directly
expects its own dtype. By convention arrays are immutable once handed to a
layer: forward/backward never write into their inputs, so values can be
shared freely across threads.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError

DEFAULT_DTYPE = np.float32


class Param:
    """A trainable tensor plus an optional gradient of identical shape.

    ``grad`` is None until a backward reaches the parameter. Each backward
    then replaces it with a freshly computed array, stored without a copy,
    so gradients never accumulate and nothing zeroes them.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.grad: np.ndarray | None = None

    def set_grad(self, g: np.ndarray) -> None:
        if g.shape != self.value.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match parameter "
                f"'{self.name}' shape {self.value.shape}"
            )
        self.grad = g

    def __repr__(self) -> str:
        return f"Param({self.name!r}, shape={self.value.shape})"
