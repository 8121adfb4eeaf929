"""Per-layer metrics from a traced run's spans.

Span names map to metrics as follows (all times in ms):

- ``layers.<net><node>.fwd`` / ``.bwd``: per-op duration of that layer call,
  summed over the op. Layers never contain other layer spans; a conv
  backward includes its ``layers.col2im`` child.
- ``graph.<net>forward`` / ``backward``: per-op self time (dispatch and
  shape checks outside the layers), summed over nets.
- ``layers.conv1.input_grad_ms``: per-op time in ``layers.col2im`` under
  the graph-input conv's backward; its share of backward time in percent.
- ``train.sgd_step``, ``train.loss``, ``corpus.*``, ``data.arrays``,
  ``metrics.eval``: per-op self time. ``train.batch_ms`` is the time from a
  step's start to its forward (batch gather).
- ``checkpoint.*`` and ``ppm.load_image``: median per call made by a
  traced unit (set-up calls excluded).
- ``train.validate_ms``: median validation time per epoch.
- kernel counts: computed flop and bytes per op, from shapes.

A per-op metric is the median over traced ops of its per-op sum; an op
without that span counts zero.
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np

PER_OP_SELF = {
    "train.sgd_step": "train.sgd_ms",
    "train.loss": "train.loss_ms",
    "corpus.prep": "corpus.prep_ms",
    "corpus.load_pairs": "corpus.load_pairs_ms",
    "data.arrays": "data.arrays_ms",
    "metrics.eval": "metrics.eval_ms",
}
PER_CALL = {
    "checkpoint.save": "checkpoint.save_ms",
    "checkpoint.load": "checkpoint.load_ms",
    "ppm.load_image": "ppm.load_image_ms",
}
INPUT_CONV_BACKWARD = "layers.conv1.bwd"


def _per_op_metric(name: str):
    """(metric, use self time) for spans summed per op, else None."""
    if name.startswith("layers.") and name.endswith((".fwd", ".bwd")):
        return f"{name}_ms", False
    if name.startswith("graph."):
        direction = "backward" if name.endswith("backward") else "forward"
        return f"graph.{direction}_self_ms", True
    if name in PER_OP_SELF:
        return PER_OP_SELF[name], True
    return None


def summarize(tracer, units, synth_frames: int, setup_spans: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``units`` (the traced ones); the
    first ``setup_spans`` spans were recorded during set-up."""
    names, starts, ends, dur, self_ns = tracer.arrays()
    parents = np.asarray(tracer.parents, dtype=np.int64)
    windows = [w for u in units for w in u.ops]
    op_start = np.array([s for s, _ in windows], dtype=np.int64)
    op_end = np.array([e for _, e in windows], dtype=np.int64)
    op = np.searchsorted(op_start, starts, side="right") - 1
    inside = (op >= 0) & (starts < op_end[np.maximum(op, 0)])
    op = np.where(inside, op, -1)
    tracer.ops = op.tolist()

    sums = [defaultdict(float) for _ in windows]
    first_forward = {}
    for i in np.nonzero(inside)[0]:
        name, k = names[i], op[i]
        found = _per_op_metric(name)
        if found is not None:
            metric, use_self = found
            sums[k][metric] += (self_ns if use_self else dur)[i] / 1e6
        if (name == "layers.col2im" and parents[i] >= 0
                and names[parents[i]] == INPUT_CONV_BACKWARD):
            sums[k]["layers.conv1.input_grad_ms"] += dur[i] / 1e6
        if name.startswith("graph.") and name.endswith("forward"):
            first_forward.setdefault(k, starts[i])
    for k, start in first_forward.items():
        if "train.sgd_ms" in sums[k]:
            sums[k]["train.batch_ms"] = (start - op_start[k]) / 1e6

    for idx, (family, flops, nbytes) in tracer.kernel_counts().items():
        k = op[idx]
        if k >= 0:
            sums[k][f"layers.{family}.mflop"] += flops / 1e6
            sums[k][f"layers.{family}.mbytes_moved"] += nbytes / 1e6

    out = {}
    for metric in {m for s in sums for m in s}:
        out[metric] = float(np.median([s.get(metric, 0.0) for s in sums]))

    backward = dur[(names == "graph.backward") & inside].sum()
    if backward > 0:
        grad = sum(s.get("layers.conv1.input_grad_ms", 0.0) for s in sums)
        out["layers.conv1.input_grad_share"] = 100.0 * grad * 1e6 / backward

    in_units = np.arange(names.size) >= setup_spans
    for span, metric in PER_CALL.items():
        calls = dur[(names == span) & in_units]
        if calls.size:
            out[metric] = float(np.median(calls)) / 1e6

    validate = [e - s for u in units for s, e in u.validation]
    if validate:
        out["train.validate_ms"] = float(np.median(validate)) / 1e6

    synth_ns = dur[names == "synth.dataset"]
    if synth_ns.size:
        out["synth.frames_per_s"] = synth_frames * synth_ns.size / (synth_ns.sum() / 1e9)
    return out
