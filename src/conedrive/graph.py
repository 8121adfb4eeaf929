"""Layer-graph representation and execution.

A ``ModelSpec`` lists ``LayerSpec`` nodes over named entry points ("image"
and, for the brake/throttle network, "motor") in run order, each feeding
the output. A ``Model`` infers every node's shape once, through its kind's
``infer_shape``, the only check of hyper-parameters and input shapes: a
malformed spec raises ``GraphError`` there, before any layer is built. It
then instantiates one layer per node with seeded parameters, compiles the
nodes into a flat plan, and runs plan-order forwards and reverse-order
backwards. Nodes feeding several consumers receive the sum of the incoming
gradients. At run time it checks only the arrays it is given and that each
node produced the shape inference promised. Everything specific to a layer
kind lives on its class in ``layers`` (see ``layers.LAYER_KINDS``).

Specs serialize to a line-oriented text form used inside checkpoints::

    conedrive-model v1
    input image 3x64x64
    node conv1 conv in=image out_depth=8 kernel=5 stride=2
    ...
    output head

The output is the last node, and the ``output`` line must name it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter_ns

import numpy as np

from . import layers as L
from .errors import GraphError, ShapeError
from .tensor import DEFAULT_DTYPE

TEXT_HEADER = "conedrive-model v1"


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    hyper: tuple[tuple[str, int | float], ...] = ()

    def __post_init__(self):
        if self.kind not in L.LAYER_KINDS:
            raise GraphError(
                f"unknown layer kind '{self.kind}'; valid kinds: "
                f"{sorted(L.LAYER_KINDS)}"
            )
        want = self.layer_class.HYPER
        got = dict(self.hyper)
        if set(got) != {name for name, _ in want}:
            raise GraphError(
                f"layer kind '{self.kind}' takes hyper-params "
                f"{[name for name, _ in want]}, got {sorted(got)}"
            )
        coerced = tuple((name, typ(got[name])) for name, typ in want)
        object.__setattr__(self, "hyper", coerced)

    def __getitem__(self, key: str):
        for name, value in self.hyper:
            if name == key:
                return value
        raise KeyError(key)

    @property
    def layer_class(self) -> type[L.Layer]:
        return L.LAYER_KINDS[self.kind]


def spec(kind: str, **hyper) -> LayerSpec:
    return LayerSpec(kind, tuple(hyper.items()))


@dataclass(frozen=True)
class NodeSpec:
    name: str
    layer: LayerSpec
    inputs: tuple[str, ...]


@dataclass(frozen=True)
class ModelSpec:
    """Named entry points (batchless shapes) and nodes in run order; the
    last node is the output. A node reads only entry points and nodes listed
    before it, and every node and entry point lies on a path to the output;
    a spec breaking either rule raises ``GraphError``."""

    inputs: tuple[tuple[str, tuple[int, ...]], ...]
    nodes: tuple[NodeSpec, ...]

    @property
    def output(self) -> str:
        return self.nodes[-1].name

    def __post_init__(self):
        input_names = [n for n, _ in self.inputs]
        node_names = [n.name for n in self.nodes]
        seen = set()
        for name in input_names + node_names:
            if name in seen:
                raise GraphError(f"duplicate graph name '{name}'")
            seen.add(name)
        if not self.nodes:
            raise GraphError("model has no nodes")
        ready = set(input_names)
        for node in self.nodes:
            for src in node.inputs:
                if src not in ready:
                    raise GraphError(
                        f"node '{node.name}' reads '{src}' before it is listed; "
                        "nodes run in listed order, so a spec holds no cycle"
                        if src in seen else
                        f"node '{node.name}' references unknown input '{src}'")
            ready.add(node.name)
            if not node.inputs:
                raise GraphError(f"node '{node.name}' has no inputs")
            arity = len(node.inputs)
            if node.layer.layer_class.multi_input:
                if arity < 2:
                    raise GraphError(
                        f"{node.layer.kind} node '{node.name}' needs >= 2 inputs")
            elif arity != 1:
                raise GraphError(
                    f"node '{node.name}' ({node.layer.kind}) takes exactly one input"
                )
        live = {self.output}
        for node in reversed(self.nodes):
            if node.name in live:
                live.update(node.inputs)
        for name in input_names + node_names:
            if name not in live:
                raise GraphError(f"'{name}' feeds no output; every input and node "
                                 f"must lie on a path to output '{self.output}'")

    def topo_order(self) -> tuple[NodeSpec, ...]:
        return self.nodes

    def infer_shapes(self) -> dict[str, tuple[int, ...]]:
        """Batchless output shape per node; raises on any inconsistency."""
        shapes: dict[str, tuple[int, ...]] = dict(self.inputs)
        for name, shape in self.inputs:
            if min(shape, default=0) < 1:
                raise GraphError(f"input '{name}' has shape {shape}; every "
                                 "extent must be >= 1")
        for node in self.nodes:
            ins = [shapes[src] for src in node.inputs]
            shapes[node.name] = node.layer.layer_class.infer_shape(
                node.name, dict(node.layer.hyper), ins)
        return shapes

    def to_text(self) -> str:
        lines = [TEXT_HEADER]
        for name, shape in self.inputs:
            lines.append(f"input {name} {'x'.join(str(d) for d in shape)}")
        for node in self.nodes:
            parts = [f"node {node.name} {node.layer.kind}",
                     f"in={','.join(node.inputs)}"]
            for key, value in node.layer.hyper:
                parts.append(f"{key}={value!r}" if isinstance(value, float)
                             else f"{key}={value}")
            lines.append(" ".join(parts))
        lines.append(f"output {self.output}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "ModelSpec":
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines or lines[0] != TEXT_HEADER:
            raise GraphError(
                f"model text must start with '{TEXT_HEADER}', got "
                f"{lines[0] if lines else '(empty)'!r}"
            )
        inputs: list[tuple[str, tuple[int, ...]]] = []
        nodes: list[NodeSpec] = []
        output = None
        for lineno, line in enumerate(lines[1:], start=2):
            tokens = line.split()
            tag = tokens[0]
            try:
                if tag == "input":
                    name, dims = tokens[1], tokens[2]
                    inputs.append((name, tuple(int(d) for d in dims.split("x"))))
                elif tag == "node":
                    name, kind = tokens[1], tokens[2]
                    fields = [tok.split("=", 1) for tok in tokens[3:]]
                    kv = dict(fields)
                    if len(kv) < len(fields):
                        raise ValueError("a field is given twice")
                    srcs = tuple(kv.pop("in").split(","))
                    # LayerSpec coerces the value strings to their declared types
                    nodes.append(NodeSpec(name, LayerSpec(kind, tuple(kv.items())), srcs))
                elif tag == "output":
                    if output is not None:
                        raise ValueError("a second output line")
                    output = tokens[1]
                else:
                    raise GraphError(f"unknown directive '{tag}'")
            except (IndexError, KeyError, ValueError) as exc:
                raise GraphError(f"malformed model text at line {lineno}: {line!r}") from exc
        if output is None:
            raise GraphError("model text is missing an 'output' line")
        if nodes and output != nodes[-1].name:
            raise GraphError(f"output '{output}' is not the last node "
                             f"'{nodes[-1].name}'; a spec's output is its last node")
        return ModelSpec(tuple(inputs), tuple(nodes))


@dataclass(frozen=True)
class PlanStep:
    """One compiled node: its layer, the value slots its inputs are read
    from (see ``Model``), the batchless output shape inference promised, and
    the slots no later step reads, which a forward drops once it has run."""

    name: str
    layer: L.Layer
    srcs: tuple[int, ...]
    shape: tuple[int, ...]
    spent: tuple[int, ...] = ()


class Model:
    """An instantiated ModelSpec: seeded parameters plus execution state.

    The spec compiles once into ``plan``: graph inputs hold value slots
    0..k-1 in spec order and node i slot k+i. A forward drops each node's
    value once its last reader has run (the output's never), so a forward
    holds only the values still to be read.

    An eval-mode forward writes nothing a result depends on: each layer
    only clears its training cache. One instance may therefore run eval
    forwards from several threads at once, each giving the bytes it gives
    alone, as ``metrics.predict`` does with its batches. A training-mode
    forward fills the per-layer caches its backward reads, so it must run
    alone on its instance.
    """

    def __init__(self, spec: ModelSpec, seed: int = 0, dtype=DEFAULT_DTYPE):
        self.spec = spec
        self.seed = int(seed)
        self.dtype = dtype
        self.epoch = 0
        self.shapes = spec.infer_shapes()
        self.order = spec.nodes
        rng = np.random.default_rng(seed)
        self.layers: dict[str, L.Layer] = {}
        position = {name: i for i, (name, _) in enumerate(spec.inputs)}
        plan = []
        for node in self.order:
            in_shapes = [self.shapes[src] for src in node.inputs]
            cls = node.layer.layer_class
            layer = cls.build(dict(node.layer.hyper), in_shapes, rng, dtype)
            self.layers[node.name] = layer
            position[node.name] = len(position)
            plan.append(PlanStep(node.name, layer,
                                 tuple(position[src] for src in node.inputs),
                                 self.shapes[node.name]))
        # the step after which no later one reads each slot
        last = {}
        for i, step in enumerate(plan):
            last.update(dict.fromkeys(step.srcs, i))
        spent = {}
        for slot, i in last.items():
            spent.setdefault(i, []).append(slot)
        self.plan = tuple(replace(step, spent=tuple(spent.get(i, ())))
                          for i, step in enumerate(plan))
        self.output_kind = spec.nodes[-1].layer.kind

    def parameters(self) -> list[tuple[str, "L.Param"]]:
        out = []
        for node in self.order:
            for p in self.layers[node.name].params():
                out.append((node.name, p))
        return out

    def _check_inputs(self, inputs: dict[str, np.ndarray]) -> int:
        want = {name for name, _ in self.spec.inputs}
        got = set(inputs)
        if got != want:
            missing = sorted(want - got)
            extra = sorted(got - want)
            detail = []
            if missing:
                detail.append(f"missing named input(s) {missing}")
            if extra:
                detail.append(f"unexpected input(s) {extra}")
            raise GraphError("; ".join(detail))
        batch = None
        for name, shape in self.spec.inputs:
            arr = inputs[name]
            if arr.ndim != len(shape) + 1 or tuple(arr.shape[1:]) != shape:
                raise ShapeError(
                    f"input '{name}' has shape {arr.shape}, expected "
                    f"(batch, {', '.join(str(d) for d in shape)})"
                )
            if batch is None:
                batch = arr.shape[0]
            elif arr.shape[0] != batch:
                raise ShapeError(
                    f"input '{name}' batch {arr.shape[0]} differs from {batch}"
                )
        return batch

    def forward(self, inputs: dict[str, np.ndarray], mode: str,
                observe=None) -> np.ndarray:
        """Evaluate the graph on named input arrays; ``mode`` is 'train' or 'eval'.

        Each input is first converted to the model's dtype (see ``tensor``).
        ``observe(name, out, elapsed_ns)`` sees each plan step in order, after
        its shape check: the node's output and the time of its layer's forward.
        """
        if mode not in ("train", "eval"):
            raise GraphError(f"mode must be 'train' or 'eval', got {mode!r}")
        train = mode == "train"
        self._check_inputs(inputs)
        values = [np.asarray(inputs[name], dtype=self.dtype)
                  for name, _ in self.spec.inputs]
        for step in self.plan:
            x = ([values[src] for src in step.srcs] if step.layer.multi_input
                 else values[step.srcs[0]])
            t0 = perf_counter_ns()
            out = step.layer.forward(x, train)
            elapsed = perf_counter_ns() - t0
            if tuple(out.shape[1:]) != step.shape:
                raise ShapeError(
                    f"node '{step.name}' produced shape {out.shape}, "
                    f"inference said (batch, {', '.join(str(d) for d in step.shape)})"
                )
            values.append(out)
            if observe is not None:
                observe(step.name, out, elapsed)
            for slot in step.spent:
                values[slot] = None
        return values[-1]

    def backward(self, grad_out: np.ndarray) -> dict[str, np.ndarray]:
        """Gradient pass in reverse listed order; returns gradients w.r.t.
        inputs. Every node feeds the output, so every layer runs a backward
        and sets its parameters' ``Param.grad``, replacing the last
        backward's. The last forward must have been a training-mode one:
        each layer refuses a backward without its training cache.
        """
        grads: list = [None] * (len(self.spec.inputs) + len(self.plan))
        grads[-1] = grad_out
        for step in reversed(self.plan):
            gi = step.layer.backward(grads.pop())
            parts = gi if step.layer.multi_input else [gi]
            for src, part in zip(step.srcs, parts):
                grads[src] = part if grads[src] is None else grads[src] + part
        return {name: g for (name, _), g in zip(self.spec.inputs, grads)}

    def state_tensors(self) -> list[tuple[str, np.ndarray]]:
        """(qualified name, tensor) pairs in node order, for checkpoints."""
        out = []
        for node in self.order:
            for name, value in self.layers[node.name].state():
                out.append((f"{node.name}/{name}", value))
        return out

    def load_state_tensors(self, tensors: dict[str, np.ndarray]) -> None:
        """Load ``tensors``, whose names and shapes must be exactly those of
        ``state_tensors``."""
        # shapes only, so each layer's old arrays are freed as it loads
        want = {name: value.shape for name, value in self.state_tensors()}
        missing, extra = sorted(want.keys() - tensors), sorted(tensors.keys() - want)
        if missing or extra:
            raise ShapeError(f"state tensors do not match the model: missing "
                             f"{missing}, unexpected {extra}")
        for name, value in tensors.items():
            if value.shape != want[name]:
                raise ShapeError(f"tensor '{name}' has shape {value.shape}, "
                                 f"expected {want[name]}")
        for node in self.order:
            layer = self.layers[node.name]
            layer.load_state({name: tensors[f"{node.name}/{name}"]
                              for name, _ in layer.state()})
