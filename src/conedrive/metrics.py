"""Batched accuracy / mean-L1 evaluation, confusion matrices, and exports.

Every multi-frame forward runs through ``predict``: eval mode, ``batch_size``
frames at a time, each batch a part of ``workers.run``, so batches run on
the worker pool side by side and come back in split order. Evaluation and
the activation export walk full batches only (the trailing partial batch is
dropped and counted). The primary accuracy figure is the mean of per-batch
accuracies; the global trace/sum accuracy is also reported and coincides
with it whenever every batch is full.

Reports are bit-reproducible at a fixed batch size only: the same frame
forwarded alone and inside a larger batch can differ in the last float32
bits (the BLAS matrix products of the fully connected layers sum in an
order that depends on the batch shape), so compare eval outputs, and test a
kernel against its reference, at equal batch shapes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import workers
from .data import BRAKE_THROTTLE_CHANNELS
from .errors import GraphError
from .graph import Model

N_CLASSES = 3


@dataclass
class ConfusionMatrix:
    """3x3 counts; rows are true classes, columns predicted (1-based ids)."""

    counts: np.ndarray = field(
        default_factory=lambda: np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    )

    def add(self, true_cls: np.ndarray, pred_cls: np.ndarray) -> None:
        np.add.at(self.counts, (true_cls - 1, pred_cls - 1), 1)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total


@dataclass
class MetricsReport:
    task: str
    batch_size: int
    batches: int
    frames_evaluated: int
    frames_dropped: int
    batch_accuracy: float | None = None
    global_accuracy: float | None = None
    mean_l1: float | None = None
    channel_l1: dict[str, float] | None = None
    confusion: ConfusionMatrix | None = None

    def to_text(self) -> str:
        lines = [
            f"task: {self.task}",
            f"batch_size: {self.batch_size}",
            f"batches: {self.batches}",
            f"frames_evaluated: {self.frames_evaluated}",
            f"frames_dropped: {self.frames_dropped}",
        ]
        if self.batch_accuracy is not None:
            lines.append(f"mean_batch_accuracy: {self.batch_accuracy:.6f}")
            lines.append(f"global_accuracy: {self.global_accuracy:.6f}")
        if self.mean_l1 is not None:
            unit = "_degrees" if self.task == "real" else ""
            lines.append(f"mean_l1{unit}: {self.mean_l1:.6f}")
        for name, value in (self.channel_l1 or {}).items():
            lines.append(f"mean_l1_{name}: {value:.6f}")
        if self.confusion is not None:
            lines.append("confusion_matrix (rows true 1..3, cols predicted 1..3):")
            for row in self.confusion.counts:
                lines.append("  " + " ".join(f"{v:8d}" for v in row))
        return "\n".join(lines) + "\n"


def task_of(model: Model) -> str:
    """The task a model's head serves: discrete, real or brake_throttle."""
    return {"softmax_head": "discrete", "clamp_scale": "real"}.get(
        model.output_kind, "brake_throttle")


def _node(model: Model, node: str) -> str:
    """``node``, which must name a node of ``model``: else a GraphError."""
    if node not in model.layers:
        raise GraphError(f"node '{node}' not in model; available: {model.node_names()}")
    return node


def predict(model: Model, inputs: dict[str, np.ndarray], batch_size: int,
            node: str | None = None) -> np.ndarray:
    """Eval-mode outputs of ``node`` (default: the model's) for every frame,
    forwarded ``batch_size`` frames at a time; the last batch may be partial.

    Each batch is forwarded whole, as one part of ``workers.run``, so the
    batches of a split run on the pool threads at once (a batch's
    convolutions then run their chunks on its own thread) and the result is
    the same bytes at any worker count. An unknown ``node`` is a GraphError."""
    node = _node(model, node or model.spec.output)

    def forward(start):
        kept = []
        model.forward({name: arr[start:start + batch_size]
                       for name, arr in inputs.items()}, mode="eval",
                      observe=lambda name, out, _: name == node and kept.append(out))
        return kept[0]

    frames = len(next(iter(inputs.values())))
    return np.concatenate(workers.run(forward, list(range(0, frames, batch_size))))


def count_full_batches(frames: int, batch_size: int, split: str) -> int:
    """Full batches of ``batch_size`` in ``split``, a split of ``frames``.

    A batch size below 1, or a split with no full batch, raises a plain
    ValueError: no input is malformed, the batch size does not fit the data,
    so the CLI reports a usage error.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if frames < batch_size:
        raise ValueError(f"{split} of {frames} frames yields no full batch "
                         f"of {batch_size}")
    return frames // batch_size


def _full_batches(inputs, targets, batch_size: int):
    """``inputs`` and ``targets`` cut to the split's full batches."""
    frames = count_full_batches(targets.shape[0], batch_size, "split") * batch_size
    return {name: arr[:frames] for name, arr in inputs.items()}, targets[:frames]


def _report(model: Model, targets, batch_size: int, **figures) -> MetricsReport:
    n = targets.shape[0]
    batches = n // batch_size
    return MetricsReport(task=task_of(model), batch_size=batch_size, batches=batches,
                         frames_evaluated=batches * batch_size,
                         frames_dropped=n - batches * batch_size, **figures)


def eval_classification(model: Model, inputs, targets,
                        batch_size: int = 64) -> MetricsReport:
    """Accuracy and confusion matrix for a 3-class head, full batches only."""
    if model.output_kind != "softmax_head":
        raise GraphError(
            f"classification eval needs a softmax head, model ends in "
            f"'{model.output_kind}'"
        )
    xs, ys = _full_batches(inputs, targets, batch_size)
    pred = predict(model, xs, batch_size).argmax(axis=1) + 1
    confusion = ConfusionMatrix()
    confusion.add(ys.astype(int), pred.astype(int))
    accs = (pred == ys).reshape(-1, batch_size).mean(axis=1)
    return _report(model, targets, batch_size, batch_accuracy=float(np.mean(accs)),
                   global_accuracy=confusion.accuracy, confusion=confusion)


def eval_regression(model: Model, inputs, targets,
                    batch_size: int = 64) -> MetricsReport:
    """Mean absolute deviation over evaluated frames and output channels.

    Any real-valued head qualifies: the clamped steering head (degrees) or
    the scaled-sigmoid brake/throttle head (motor units), which also gets a
    mean L1 per output channel.
    """
    if model.output_kind == "softmax_head":
        raise GraphError(
            "regression eval needs a real-valued head such as a clamped head, "
            "model ends in 'softmax_head'"
        )
    xs, ys = _full_batches(inputs, targets, batch_size)
    err = np.abs(predict(model, xs, batch_size) - ys)
    abs_sum, channel_sum = 0.0, np.zeros(ys.shape[1])
    # summed batch by batch, channels in float64: the order reports are pinned to
    for batch_err in err.reshape(-1, batch_size, ys.shape[1]):
        abs_sum += float(batch_err.sum())
        channel_sum += batch_err.sum(axis=0)
    channel_l1 = None
    if task_of(model) == "brake_throttle":
        channel_l1 = dict(zip(BRAKE_THROTTLE_CHANNELS, (channel_sum / len(ys)).tolist()))
    return _report(model, targets, batch_size, mean_l1=abs_sum / ys.size,
                   channel_l1=channel_l1)


def default_activation_layer(model: Model) -> str:
    """The ReLU after the last hidden FC layer, else the head's input."""
    candidates = [n for n in model.order if n.name.endswith("_relu")
                  and n.layer.kind == "relu"]
    if candidates:
        return candidates[-1].name
    return model.output_node.inputs[0]


def export_activations(model: Model, inputs, targets, path,
                       layer: str | None = None, batch_size: int = 64) -> int:
    """Write one tab-delimited activation row per evaluated frame.

    Header records the layer name and width. Rows follow split order over
    full batches; returns the number of rows written.
    """
    layer = _node(model, layer or default_activation_layer(model))
    xs, ys = _full_batches(inputs, targets, batch_size)
    acts = predict(model, xs, batch_size, node=layer).reshape(len(ys), -1)
    width = acts.shape[1]
    with open(path, "w") as fh:
        fh.write(f"# layer={layer} width={width}\n")
        fh.write("\t".join(f"a{i}" for i in range(width)) + "\tlabel\n")
        for row, label in zip(acts, ys):
            vals = "\t".join(f"{v:.7g}" for v in row)
            label_txt = (f"{label:.6g}" if np.ndim(label) == 0
                         else ",".join(f"{v:.6g}" for v in np.ravel(label)))
            fh.write(f"{vals}\t{label_txt}\n")
    return len(ys)
