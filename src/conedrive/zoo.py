"""The named model zoo: discrete steering, real-value steering, brake/throttle.

Every model is one backbone -- conv blocks on a (3, S, S) image, then a
flatten -- followed by its own FC layers and output. Every conv block is
conv -> batchnorm -> relu -> maxpool(2x2, stride 2); block kernels clamp to
the available spatial extent and a block's pool is emitted only when the
2x2 window still fits, so each architecture also instantiates cleanly on
miniature inputs (64x64 training runs, 16x16 gradient-check clones) and on
aggressive stride configurations from the grid search.
"""
from __future__ import annotations

from .data import PEDAL_RANGE, STEERING_RANGE
from .errors import GraphError
from .graph import ModelSpec, NodeSpec, spec
from .layers import conv_out_extent

POOL = 2
IMAGE_CHANNELS = 3

DISCRETE_NAMES = ("1CL-1FC", "2CL-1FC", "1CL-2FC", "2CL-2FC", "3CL-2FC")
REALVALUE_NAMES = ("3CL-2FC", "3CL-3FC", "4CL-3FC")

# (kernel, stride, depth) per conv block, keyed by block count
_CONV_STACKS = {
    1: ((5, 2, 8),),
    2: ((5, 2, 8), (5, 2, 16)),
    3: ((5, 2, 8), (5, 2, 16), (3, 1, 32)),
    4: ((5, 2, 8), (5, 2, 16), (3, 1, 32), (3, 1, 48)),
}

# (conv blocks, hidden FC widths) of every named architecture
_SHAPES = {
    "1CL-1FC": (1, ()),
    "2CL-1FC": (2, ()),
    "1CL-2FC": (1, (100,)),
    "2CL-2FC": (2, (100,)),
    "3CL-2FC": (3, (100,)),
    "3CL-3FC": (3, (1024, 100)),
    "4CL-3FC": (4, (1024, 100)),
}


def _shape(name: str, family: str, names) -> tuple[int, tuple[int, ...]]:
    if name not in names:
        raise GraphError(
            f"unknown {family} architecture '{name}'; valid names: {list(names)}"
        )
    return _SHAPES[name]


def conv_count(name: str) -> int:
    """Conv blocks of the named real-value architecture."""
    return _shape(name, "real-value", REALVALUE_NAMES)[0]


def _backbone(name: str, n_conv: int, input_hw: int,
              filters, strides) -> list[NodeSpec]:
    """Conv blocks on the image, then "flat"; filters and strides given as
    None take the stack's own."""
    stack = _CONV_STACKS[n_conv]
    filters = [k for k, _, _ in stack] if filters is None else list(filters)
    strides = [s for _, s, _ in stack] if strides is None else list(strides)
    if len(filters) != n_conv or len(strides) != n_conv:
        raise GraphError(
            f"'{name}' has {n_conv} conv layers; got {len(filters)} filters "
            f"and {len(strides)} strides"
        )
    nodes: list[NodeSpec] = []
    src, hw = "image", input_hw
    for i, (k, s, (_, _, d)) in enumerate(zip(filters, strides, stack), start=1):
        k = min(k, hw)
        nodes.append(NodeSpec(f"conv{i}", spec("conv", out_depth=d, kernel=k, stride=s),
                              (src,)))
        hw = conv_out_extent(hw, k, s)
        nodes.append(NodeSpec(f"bn{i}", spec("batchnorm"), (f"conv{i}",)))
        nodes.append(NodeSpec(f"relu{i}", spec("relu"), (f"bn{i}",)))
        src = f"relu{i}"
        if hw >= POOL:
            nodes.append(NodeSpec(f"pool{i}", spec("maxpool", window=POOL, stride=POOL),
                                  (src,)))
            hw = conv_out_extent(hw, POOL, POOL)
            src = f"pool{i}"
    nodes.append(NodeSpec("flat", spec("flatten"), (src,)))
    return nodes


def _fc_stack(nodes: list[NodeSpec], src: str, hidden) -> str:
    for i, width in enumerate(hidden, start=1):
        nodes.append(NodeSpec(f"fc{i}", spec("linear", out_features=width), (src,)))
        nodes.append(NodeSpec(f"fc{i}_relu", spec("relu"), (f"fc{i}",)))
        src = f"fc{i}_relu"
    return src


def _model_spec(nodes: list[NodeSpec], input_hw: int, *extra_inputs) -> ModelSpec:
    """The image input (plus ``extra_inputs``); the last node is the output."""
    return ModelSpec(
        inputs=(("image", (IMAGE_CHANNELS, input_hw, input_hw)),) + extra_inputs,
        nodes=tuple(nodes),
        output=nodes[-1].name,
    )


def make_discrete_model(name: str, input_hw: int = 256) -> ModelSpec:
    """Three-way steering classifier; output node emits class logits."""
    n_conv, hidden = _shape(name, "discrete", DISCRETE_NAMES)
    nodes = _backbone(name, n_conv, input_hw, None, None)
    src = _fc_stack(nodes, "flat", hidden)
    nodes.append(NodeSpec("head", spec("softmax_head", classes=3), (src,)))
    return _model_spec(nodes, input_hw)


def make_realvalue_model(name: str, filters=None, strides=None,
                         input_hw: int = 256) -> ModelSpec:
    """Real-value steering regressor: single output clamped to +/-90 degrees."""
    n_conv, hidden = _shape(name, "real-value", REALVALUE_NAMES)
    nodes = _backbone(name, n_conv, input_hw, filters, strides)
    src = _fc_stack(nodes, "flat", hidden)
    nodes.append(NodeSpec("out_linear", spec("linear", out_features=1), (src,)))
    nodes.append(NodeSpec("clamp", spec("clamp_scale", lo=STEERING_RANGE[0],
                                        hi=STEERING_RANGE[1]), ("out_linear",)))
    return _model_spec(nodes, input_hw)


def make_brake_throttle_model(input_hw: int = 256) -> ModelSpec:
    """Multi-parent DAG: image conv features concatenated with the scaled
    (left, right) motor-speed pair ahead of the controller FC layers; the
    two-node output passes through a sigmoid scaled to the 0..256 range."""
    nodes = _backbone("brake_throttle", 4, input_hw, None, None)
    nodes.append(NodeSpec("join", spec("concat"), ("flat", "motor")))
    src = _fc_stack(nodes, "join", (1024, 100))
    nodes.append(NodeSpec("out_linear", spec("linear", out_features=2), (src,)))
    nodes.append(NodeSpec("out_sigmoid",
                          spec("scaled_sigmoid", scale=PEDAL_RANGE[1]),
                          ("out_linear",)))
    return _model_spec(nodes, input_hw, ("motor", (2,)))


def expand_double_compressed(pair, n_conv: int = 4) -> list[int]:
    """Expand a compressed (a, b) configuration: first half a, second half b.

    (7, 5) with four conv layers means two 7x7 filters then two 5x5 filters.
    """
    a, b = pair
    half = n_conv // 2
    return [a] * half + [b] * (n_conv - half)
