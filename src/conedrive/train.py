"""Batched SGD with exponential learning-rate decay, plus the grid search.

The schedule is lr(e) = initial_lr * decay^e with decay 1/1.01 by default.
Every epoch reshuffles the training set with a generator seeded from
(seed, epoch), walks it in fixed-size batches (the final partial batch is
dropped, in training and validation alike), takes one plain SGD step per
batch, then measures the validation metric in eval mode. Identical (config,
data, seed) reproduces identical history. Training starts at ``model.epoch``,
so a run resumed from a checkpoint continues as an uninterrupted one would.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .checkpoint import replacing
from .errors import DivergenceError
from .graph import Model
from .layers import smooth_l1, softmax_cross_entropy
from .metrics import count_full_batches, eval_classification, eval_regression
from .zoo import conv_count, expand_double_compressed, make_realvalue_model

LOSS_KINDS = ("cross_entropy", "smooth_l1")


@dataclass(frozen=True)
class TrainConfig:
    initial_lr: float = 0.01
    decay: float = 1.0 / 1.01
    batch_size: int = 64
    epochs: int = 100
    seed: int = 0
    loss: str = "cross_entropy"

    def __post_init__(self):
        if not 0 < self.initial_lr < np.inf:
            raise ValueError(f"initial_lr must be finite and > 0, got {self.initial_lr}")
        if not 0 < self.decay <= 1:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    val_metric: float
    seconds: float


@dataclass
class TrainResult:
    history: list[EpochStats] = field(default_factory=list)
    diverged: bool = False
    divergence_reason: str = ""
    steps: int = 0
    steps_per_epoch: int = 0


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return config.initial_lr * config.decay**epoch


def sgd_step(model: Model, lr: float) -> None:
    """p <- p - lr * g for every parameter; no momentum, no weight decay.

    All or nothing: every gradient is checked before any parameter moves.
    A parameter with no gradient yet (no backward has run) is left as is."""
    params = [(node_name, p) for node_name, p in model.parameters()
              if p.grad is not None]
    for node_name, p in params:
        if not np.all(np.isfinite(p.grad)):
            raise DivergenceError(
                f"non-finite gradient in layer '{node_name}' parameter '{p.name}'"
            )
    for _, p in params:
        p.value -= lr * p.grad


def _loss_fn(kind: str):
    return softmax_cross_entropy if kind == "cross_entropy" else smooth_l1


def _batch(arrays: dict[str, np.ndarray], idx: np.ndarray) -> dict[str, np.ndarray]:
    return {name: arr[idx] for name, arr in arrays.items()}


def train(model: Model, train_data, val_data, config: TrainConfig,
          log=None) -> TrainResult:
    """Train in place from ``model.epoch``; returns the per-epoch history.

    ``train_data``/``val_data`` are (inputs, targets) pairs where inputs is a
    dict of arrays aligned on axis 0 (e.g. {"image": x}) and targets is the
    class-index vector (1-based, cross-entropy) or the real-value target
    array (smooth L1). A non-finite loss or gradient halts training and
    marks the returned history as diverged.
    """
    train_inputs, train_targets = train_data
    val_inputs, val_targets = val_data
    n = train_targets.shape[0]
    loss_fn = _loss_fn(config.loss)
    result = TrainResult(
        steps_per_epoch=count_full_batches(n, config.batch_size, "training split"))
    count_full_batches(val_targets.shape[0], config.batch_size, "validation split")
    for epoch in range(model.epoch, model.epoch + config.epochs):
        lr = lr_at_epoch(config, epoch)
        t0 = time.perf_counter()
        perm = np.random.default_rng((config.seed, epoch)).permutation(n)
        losses = []
        try:
            for b in range(result.steps_per_epoch):
                idx = perm[b * config.batch_size : (b + 1) * config.batch_size]
                out = model.forward(_batch(train_inputs, idx), mode="train")
                loss, grad = loss_fn(out, train_targets[idx])
                if not np.isfinite(loss):
                    raise DivergenceError(f"non-finite training loss {loss!r}")
                model.backward(grad)
                sgd_step(model, lr)
                losses.append(loss)
                result.steps += 1
        except DivergenceError as exc:
            result.diverged = True
            result.divergence_reason = f"epoch {epoch}: {exc}"
            break
        if config.loss == "cross_entropy":
            val = eval_classification(model, val_inputs, val_targets,
                                      config.batch_size).batch_accuracy
        else:
            val = eval_regression(model, val_inputs, val_targets,
                                  config.batch_size).mean_l1
        stats = EpochStats(epoch, lr, float(np.mean(losses)), val,
                           time.perf_counter() - t0)
        result.history.append(stats)
        model.epoch = epoch + 1
        if log is not None:
            log(stats)
    return result


def write_history(path, result: TrainResult, config: TrainConfig) -> None:
    """Line-delimited training history: one record per epoch, written whole
    or not at all (see ``checkpoint.replacing``)."""
    metric = "val_acc" if config.loss == "cross_entropy" else "val_l1"
    with replacing(path, "w") as fh:
        fh.write(f"# conedrive training history; seed={config.seed} "
                 f"loss={config.loss}\n")
        fh.write(f"epoch\tlr\ttrain_loss\t{metric}\tseconds\n")
        for s in result.history:
            fh.write(f"{s.epoch}\t{s.lr:.12g}\t{s.train_loss:.9g}\t"
                     f"{s.val_metric:.9g}\t{s.seconds:.3f}\n")


@dataclass(frozen=True)
class GridResult:
    filters: tuple[int, ...]
    strides: tuple[int, ...]
    val_loss: float
    diverged: bool


DEFAULT_FILTER_GRID = ((7, 5), (5, 5), (5, 3), (3, 3))
DEFAULT_STRIDE_GRID = ((2, 1), (2, 2))


def grid_search(name: str, filter_sets, stride_sets, config: TrainConfig,
                train_data, val_data, input_hw: int = 256,
                log=None) -> list[GridResult]:
    """One full training run per (filters, strides) configuration.

    Compressed pairs expand to the conv count of ``name`` (e.g. (7, 5) means
    two 7x7 then two 5x5 filters on a 4-conv network). Each run derives its
    seed as config.seed + configuration index. Diverged runs are recorded
    with an infinite loss and ranked last, never fatal. Results are returned
    ranked ascending by final validation loss.
    """
    n_conv = conv_count(name)
    results = []
    for index, (fpair, spair) in enumerate(product(filter_sets, stride_sets)):
        filters = expand_double_compressed(fpair, n_conv)
        strides = expand_double_compressed(spair, n_conv)
        run_config = replace(config, seed=config.seed + index)
        model_spec = make_realvalue_model(name, filters, strides, input_hw)
        model = Model(model_spec, seed=run_config.seed)
        run = train(model, train_data, val_data, run_config)
        val = float("inf") if run.diverged or not run.history \
            else run.history[-1].val_metric
        results.append(GridResult(tuple(filters), tuple(strides), val, run.diverged))
        if log is not None:
            log(results[-1])
    return sorted(results, key=lambda r: r.val_loss)


def write_grid_table(path, results: list[GridResult]) -> None:
    with open(path, "w") as fh:
        fh.write("filters\tstrides\tval_loss\tdiverged\n")
        for r in results:
            fh.write(
                f"{','.join(map(str, r.filters))}\t"
                f"{','.join(map(str, r.strides))}\t"
                f"{r.val_loss:.9g}\t{int(r.diverged)}\n"
            )
