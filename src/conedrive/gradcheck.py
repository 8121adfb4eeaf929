"""Finite-difference verification of a model's analytic gradients.

``grad_check_model`` is the one checker: it compares the gradients a
model's backward gives for a loss with central differences of that loss.
A layer is checked as a model of one node against the loss sum(w * out)
for a fixed random ``w``; a loss is checked through a one-node ``flatten``
model, which passes a batch of vectors through unchanged. Relative error
per coordinate is |analytic - numeric| / max(1, |analytic| + |numeric|),
and the check returns the maximum over the coordinates it visited. Run it
on float64 models; float32 round-off swamps the tolerances. Every probe
takes one step, ``H``: a probe that straddles a ReLU or max-pool kink reads
a slope no backward can match, a smaller step straddles fewer kinks, and at
1e-7 float64 round-off still stays far below the tolerances.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericError

H = 1e-7


def _finite_or_raise(value: float, where: str) -> float:
    if not np.isfinite(value):
        raise NumericError(f"gradient check hit a non-finite value at {where}")
    return value


def _coords(shape: tuple, pick: np.random.Generator, max_coords: int | None):
    """Every coordinate in row-major order, or ``max_coords`` of them drawn
    from ``pick`` without replacement."""
    total = int(np.prod(shape))
    if max_coords is None or total <= max_coords:
        flats = range(total)
    else:
        flats = pick.choice(total, size=max_coords, replace=False)
    for flat in flats:
        yield tuple(int(i) for i in np.unravel_index(int(flat), shape))


def grad_check_model(model, inputs: dict[str, np.ndarray], loss_fn,
                     seed: int = 0, max_coords: int | None = 80) -> float:
    """Max relative FD error of a model's gradients against a training loss.

    ``loss_fn(output) -> (loss, grad_wrt_output)``. The model runs in
    training mode, so the analytic pass and the probes see the same
    statistics (batch-norm batch moments included). Inputs are probed in
    copies of the model's dtype, so no probe is lost to float32 rounding
    and the caller's arrays are never written. Each visited coordinate of
    an input copy or parameter is perturbed in place by +/-H, the loss
    re-evaluated, and the coordinate restored. A tensor that no backward
    reaches has no gradient and is checked against zero. Visits a seeded
    random subset of ``max_coords`` coordinates per tensor so whole-zoo
    sweeps fit the acceptance time budget; pass ``max_coords=None`` for an
    exhaustive run.
    """
    inputs = {name: np.array(arr, dtype=model.dtype) for name, arr in inputs.items()}
    out = model.forward(inputs, mode="train")
    _, grad_out = loss_fn(out)
    input_grads = model.backward(grad_out)

    def objective():
        return float(loss_fn(model.forward(inputs, mode="train"))[0])

    targets = [(f"input:{name}", arr, input_grads[name]) for name, arr in inputs.items()]
    targets += [
        (f"{node}.{p.name}", p.value, p.grad) for node, p in model.parameters()
    ]
    pick = np.random.default_rng(seed)
    worst = 0.0
    for name, array, grad in targets:
        if grad is None:
            grad = np.zeros_like(array)
        for idx in _coords(array.shape, pick, max_coords):
            where = f"{name}{idx}"
            analytic = _finite_or_raise(float(grad[idx]), where)
            orig = array[idx]
            array[idx] = orig + H
            up = objective()
            array[idx] = orig - H
            down = objective()
            array[idx] = orig
            numeric = (_finite_or_raise(up, where) - _finite_or_raise(down, where)) / (2.0 * H)
            worst = max(worst, abs(analytic - numeric)
                        / max(1.0, abs(analytic) + abs(numeric)))
    return worst
