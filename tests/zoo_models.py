"""Models the tests build and the package does not, for tests only.

``zoo_specs`` lists every named architecture for sweep tests. A one-node
model wraps a single layer so that ``gradcheck.grad_check_model``, the
package's one gradient checker, checks layers and losses too:
``check_layer`` against the loss sum(w * out) for a fixed random ``w``,
``check_loss`` through a ``flatten`` node, which passes a batch of vectors
through unchanged.
"""
import numpy as np

from conedrive.gradcheck import grad_check_model
from conedrive.graph import Model, ModelSpec, NodeSpec, spec
from conedrive.zoo import (DISCRETE_NAMES, REALVALUE_NAMES, make_brake_throttle_model,
                           make_discrete_model, make_realvalue_model)


def zoo_specs(input_hw: int = 256):
    """Every named architecture at the given input size."""
    out = {}
    for name in DISCRETE_NAMES:
        out[f"discrete/{name}"] = make_discrete_model(name, input_hw)
    for name in REALVALUE_NAMES:
        out[f"real/{name}"] = make_realvalue_model(name, input_hw=input_hw)
    out["brake_throttle"] = make_brake_throttle_model(input_hw)
    return out


def one_node_model(layer, in_shape, state=()) -> Model:
    """A float64 model whose one node ``node``, of LayerSpec ``layer``, reads
    the input ``x`` of batchless shape ``in_shape``. ``state`` holds (name,
    tensor) pairs as ``Layer.state()`` lists them, loaded over the seeded
    ones."""
    model = Model(ModelSpec((("x", tuple(in_shape)),),
                            (NodeSpec("node", layer, ("x",)),)),
                  dtype=np.float64)
    if state:
        model.load_state_tensors({f"node/{name}": value for name, value in state})
    return model


def check_layer(layer, x: np.ndarray, state=()) -> float:
    """Worst FD error over every coordinate of ``x`` and of the parameters of
    a one-node model of ``layer`` (see ``one_node_model``)."""
    model = one_node_model(layer, x.shape[1:], state)
    w = np.random.default_rng(0).standard_normal((len(x),) + model.shapes["node"])
    return grad_check_model(model, {"x": x}, lambda out: (float((w * out).sum()), w),
                            max_coords=None)


def check_loss(loss_fn, x: np.ndarray) -> float:
    """Worst FD error over every coordinate of the batch of vectors ``x`` of
    a ``loss_fn(x) -> (loss, grad)`` pair such as the criteria."""
    return grad_check_model(one_node_model(spec("flatten"), x.shape[1:]), {"x": x},
                            loss_fn, max_coords=None)
