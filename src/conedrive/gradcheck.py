"""Central finite-difference verification of analytic gradients.

The scalarized objective is a fixed random weighting of the layer output
(or the actual training loss for whole-model checks). Relative error per
coordinate is |analytic - numeric| / max(1, |analytic| + |numeric|); the
three checkers share one loop that returns the maximum over the coordinates
it visited, either every coordinate in row-major order or a seeded random
subset per tensor. Run it on float64 layers/models; float32 round-off
swamps the tolerances.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericError

H_MIN, H_MAX = 1e-7, 1e-4


def _finite_or_raise(value: float, where: str) -> float:
    if not np.isfinite(value):
        raise NumericError(f"gradient check hit a non-finite value at {where}")
    return value


def _coords(shape: tuple, pick: np.random.Generator | None, max_coords: int | None):
    """Every coordinate in row-major order, or ``max_coords`` of them drawn
    from ``pick`` without replacement."""
    total = int(np.prod(shape))
    if max_coords is None or total <= max_coords:
        flats = range(total)
    else:
        flats = pick.choice(total, size=max_coords, replace=False)
    for flat in flats:
        yield tuple(int(i) for i in np.unravel_index(int(flat), shape))


def _worst_error(targets, objective, h: float, pick: np.random.Generator | None,
                 max_coords: int | None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``targets`` are (name, array, analytic gradient) triples; each visited
    coordinate of ``array`` is perturbed in place by +/-h and ``objective()``
    re-evaluated, then restored.
    """
    if not (H_MIN <= h <= H_MAX):
        raise ValueError(f"perturbation h={h} outside [{H_MIN}, {H_MAX}]")
    worst = 0.0
    for name, array, grad in targets:
        for idx in _coords(array.shape, pick, max_coords):
            where = f"{name}{idx}"
            analytic = _finite_or_raise(float(grad[idx]), where)
            orig = array[idx]
            array[idx] = orig + h
            up = objective()
            array[idx] = orig - h
            down = objective()
            array[idx] = orig
            numeric = (_finite_or_raise(up, where) - _finite_or_raise(down, where)) / (2.0 * h)
            worst = max(worst, abs(analytic - numeric)
                        / max(1.0, abs(analytic) + abs(numeric)))
    return worst


def grad_check_layer(layer, x: np.ndarray, h: float = 1e-6,
                     seed: int = 0, max_coords: int | None = None) -> float:
    """Max relative FD error over input and parameter coordinates of a layer.

    The layer runs in training mode so the analytic path and the numeric
    probes see the same statistics (batch-norm batch moments included).
    """
    rng = np.random.default_rng(seed)
    y = layer.forward(x, train=True)
    w = rng.standard_normal(y.shape)

    for p in layer.params():
        p.grad = None
    targets = [("input", x, layer.backward(w))]
    targets += [(p.name, p.value, p.grad) for p in layer.params()]

    def objective():
        return float((w * layer.forward(x, train=True)).sum())

    return _worst_error(targets, objective, h, np.random.default_rng(seed + 1),
                        max_coords)


def grad_check_loss(loss_fn, x: np.ndarray, h: float = 1e-6) -> float:
    """Max relative FD error of a (loss, grad) pair such as the criteria."""
    loss, grad = loss_fn(x)
    _finite_or_raise(loss, "loss")

    def objective():
        return float(loss_fn(x)[0])

    return _worst_error([("input", x, grad)], objective, h, None, None)


def grad_check_model(model, inputs: dict[str, np.ndarray], loss_fn,
                     h: float = 1e-6, seed: int = 0,
                     max_coords: int | None = 80) -> float:
    """End-to-end FD check of a whole model against a training loss.

    ``loss_fn(output) -> (loss, grad_wrt_output)``. Visits a seeded random
    subset of coordinates per tensor (graph inputs and parameters alike,
    ``max_coords`` each) so whole-zoo sweeps fit the acceptance time budget;
    pass ``max_coords=None`` for an exhaustive run.
    """
    out = model.forward(inputs, mode="train")
    _, grad_out = loss_fn(out)
    model.zero_grad()
    input_grads = model.backward(grad_out)

    def objective():
        return float(loss_fn(model.forward(inputs, mode="train"))[0])

    targets = [(f"input:{name}", arr, input_grads[name]) for name, arr in inputs.items()]
    targets += [
        (f"{node}.{p.name}", p.value, p.grad) for node, p in model.parameters()
    ]
    return _worst_error(targets, objective, h, np.random.default_rng(seed), max_coords)
