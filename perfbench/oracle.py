"""Reference forward pass: the expected outputs the benchmark checks against.

Written in float64 from the layer definitions (valid strided convolution,
eval-mode batch norm, max pool, ...) rather than with the program's
kernels, so a faster kernel that changes results shows as failed ops. It
reads only a model's spec, its checkpoint tensors and batch-norm epsilon.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _windows(x: np.ndarray, k: int, s: int) -> np.ndarray:
    """(N, C, Ho, Wo, k, k) views of every k x k window at stride s."""
    return sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]


def forward(model, inputs: dict[str, np.ndarray]) -> np.ndarray:
    """Eval-mode output of ``model`` on ``inputs``, computed in float64."""
    tensors = {name: value.astype(np.float64) for name, value in model.state_tensors()}
    values = {name: np.asarray(x, dtype=np.float64) for name, x in inputs.items()}
    for node in model.spec.topo_order():
        layer = node.layer
        xs = [values[src] for src in node.inputs]
        x = xs[0]

        def t(name):
            return tensors[f"{node.name}/{name}"]

        if layer.kind == "conv":
            w = t("weight")
            y = np.einsum("nchwij,ocij->nohw", _windows(x, w.shape[2], layer["stride"]),
                          w, optimize=True) + t("bias")[:, None, None]
        elif layer.kind == "batchnorm":
            eps = model.layers[node.name].eps
            scale = t("gamma") / np.sqrt(t("running_var") + eps)
            shift = t("beta") - t("running_mean") * scale
            y = x * scale[:, None, None] + shift[:, None, None]
        elif layer.kind == "relu":
            y = np.maximum(x, 0.0)
        elif layer.kind == "maxpool":
            y = _windows(x, layer["window"], layer["stride"]).max(axis=(4, 5))
        elif layer.kind == "flatten":
            y = x.reshape(len(x), -1)
        elif layer.kind in ("linear", "softmax_head"):
            y = x @ t("weight").T + t("bias")
        elif layer.kind == "clamp_scale":
            y = np.clip(x, layer["lo"], layer["hi"])
        elif layer.kind == "scaled_sigmoid":
            y = layer["scale"] * np.exp(-np.logaddexp(0.0, -x))
        elif layer.kind == "concat":
            y = np.concatenate(xs, axis=1)
        else:
            raise ValueError(f"no reference for layer kind {layer.kind!r}")
        values[node.name] = y
    return values[model.spec.output]
