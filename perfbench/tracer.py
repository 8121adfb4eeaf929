"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: ``Tracer.patch`` swaps a
module attribute (or a method on one object) for a wrapper that records a
span around the original call, and ``Tracer.restore`` puts every original
back. ``patched`` is the one mechanism that swaps attributes, for the
tracer and for the workloads' own hooks alike. A span holds its name, start
and end (``perf_counter_ns``), the index of the span that was open when it
began (its parent), and the op it belongs to, assigned from the op windows
when the run is summarized. Spans stay in parallel lists until ``write``
dumps them at exit.

Self time is a span's duration minus the time its direct children cover;
the recorder is single-threaded, so children never overlap.
"""
from __future__ import annotations

from contextlib import ExitStack, contextmanager
from functools import partial
from time import perf_counter_ns

import numpy as np

# Layer kinds whose nodes are reported per kind rather than per node.
AGGREGATED_KINDS = ("batchnorm", "relu", "flatten")
# Layer kinds whose calls get computed flop and byte counts.
COUNTED_KINDS = ("conv", "linear", "softmax_head", "maxpool")


@contextmanager
def patched(owner, attr: str, wrap):
    """Swap ``owner.attr`` for ``wrap(original)`` until the block ends.

    A method that ``owner`` only reaches through its class is shadowed on
    the object and the shadow deleted afterwards, so the class stays as it
    was.
    """
    original = getattr(owner, attr)
    own = isinstance(owner, type) or attr in getattr(owner, "__dict__", {})
    setattr(owner, attr, wrap(original))
    try:
        yield
    finally:
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        # span index -> (kind, direction, layer, in shape, out shape, itemsize)
        self.kernels: dict[int, tuple] = {}
        self._stack: list[int] = []
        self._patches = ExitStack()

    # -- recording -------------------------------------------------------
    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; returns its result."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(-1)
        self.starts.append(0)
        self.ends.append(0)
        self._stack.append(idx)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter_ns()
            self.starts[idx] = t0
            self._stack.pop()

    # -- patching --------------------------------------------------------
    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        self._patches.enter_context(
            patched(owner, attr, lambda original: partial(self.call, name, original)))

    def instrument_model(self, model, net: str = "") -> None:
        """Wrap ``model``'s forward/backward and each layer's forward/backward.

        Layer spans are ``layers.<net><node>.fwd|bwd``, with batchnorm, relu
        and flatten nodes named by kind instead of node; whole-graph spans
        are ``graph.<net>forward|backward``.
        """
        for node in model.order:
            layer = model.layers[node.name]
            kind = node.layer.kind
            key = kind if kind in AGGREGATED_KINDS else node.name
            self._wrap_layer(layer, "forward", f"layers.{net}{key}.fwd", kind)
            self._wrap_layer(layer, "backward", f"layers.{net}{key}.bwd", kind)
        self.patch(model, "forward", f"graph.{net}forward")
        self.patch(model, "backward", f"graph.{net}backward")

    def _wrap_layer(self, layer, attr: str, name: str, kind: str) -> None:
        """Like ``patch``, also noting shapes of conv, linear and maxpool calls
        for the computed kernel counts."""
        if kind not in COUNTED_KINDS:
            self.patch(layer, attr, name)
            return

        def counted(original):
            def wrapper(x, *args):
                idx = len(self.names)
                out = self.call(name, original, x, *args)
                # forward: (input, output); backward: (input grad, output grad)
                shapes = (x.shape, out.shape) if attr == "forward" else (out.shape, x.shape)
                self.kernels[idx] = (kind, attr, layer, *shapes, x.dtype.itemsize)
                return out
            return wrapper

        self._patches.enter_context(patched(layer, attr, counted))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        self._patches.close()

    # -- analysis --------------------------------------------------------
    def arrays(self):
        """(names, start, end, duration, self time) as numpy arrays (ns)."""
        starts = np.asarray(self.starts, dtype=np.int64)
        ends = np.asarray(self.ends, dtype=np.int64)
        dur = ends - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        return np.asarray(self.names), starts, ends, dur, dur - covered

    def kernel_counts(self) -> dict[int, tuple[str, float, float]]:
        """Span index -> (kernel family, flops, bytes moved), from shapes.

        Computed, not measured: conv and linear flops count one multiply and
        one add per weight use; bytes count each array read or written once.
        """
        return {idx: _kernel_count(*args) for idx, args in self.kernels.items()}

    def write(self, path) -> None:
        """Dump spans as tab-separated rows: name start end parent op."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\top\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.starts[i]}\t{self.ends[i]}\t"
                         f"{self.parents[i]}\t{self.ops[i]}\n")


def _kernel_count(kind, direction, layer, in_shape, out_shape, itemsize):
    """(family, flops, bytes) for one call of ``direction`` 'forward' or
    'backward'; shapes are the layer's input and output."""
    in_elems = int(np.prod(in_shape))
    out_elems = int(np.prod(out_shape))
    if kind == "maxpool":
        # read the input, write the output (backward: the reverse)
        return "maxpool", 0.0, float(itemsize * (in_elems + out_elems))
    weight = layer.weight.value
    w_elems = weight.size + layer.bias.value.size
    if kind == "conv":
        n, od, ho, wo = out_shape
        macs = n * od * ho * wo * (weight.size // od)
        family = "conv"
    else:
        n, out_features = out_shape
        macs = n * out_features * in_shape[1]
        family = "linear"
    if direction == "forward":
        # read input and weights, write output
        return family, 2.0 * macs, itemsize * (in_elems + w_elems + out_elems)
    # weight gradient and input gradient: two products; read grad, input and
    # weights, write input and weight gradients
    return family, 4.0 * macs, itemsize * (out_elems + 2 * in_elems + 2 * w_elems)
