"""Model graphs: validation, shape inference, the zoo, and execution."""
import weakref

import numpy as np
import pytest

from conedrive.errors import GraphError, ShapeError
from conedrive.gradcheck import grad_check_model
from conedrive.graph import TEXT_HEADER, LayerSpec, Model, ModelSpec, NodeSpec, spec
from conedrive.layers import LAYER_KINDS, smooth_l1, softmax_cross_entropy
from conedrive.metrics import predict
from conedrive.zoo import (DISCRETE_NAMES, REALVALUE_NAMES, expand_double_compressed,
                           make_brake_throttle_model, make_discrete_model,
                           make_realvalue_model)
from zoo_models import zoo_specs


def tiny_dag():
    """image -> conv -> relu -> flatten splits into two linears -> concat."""
    nodes = (
        NodeSpec("conv", spec("conv", out_depth=2, kernel=3, stride=1), ("image",)),
        NodeSpec("act", spec("relu"), ("conv",)),
        NodeSpec("flat", spec("flatten"), ("act",)),
        NodeSpec("a", spec("linear", out_features=3), ("flat",)),
        NodeSpec("b", spec("linear", out_features=2), ("flat",)),
        NodeSpec("join", spec("concat"), ("a", "b")),
        NodeSpec("out", spec("linear", out_features=2), ("join",)),
    )
    return ModelSpec((("image", (1, 5, 5)),), nodes, "out")


class TestLayerSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphError, match="unknown layer kind"):
            LayerSpec("dropout", ())

    def test_missing_hyper_rejected(self):
        with pytest.raises(GraphError, match="takes hyper-params"):
            spec("conv", out_depth=8)

    def test_extra_hyper_rejected(self):
        with pytest.raises(GraphError, match="takes hyper-params"):
            spec("relu", width=3)


class TestModelSpecValidation:
    def test_cycle_rejected(self):
        nodes = (
            NodeSpec("a", spec("relu"), ("b",)),
            NodeSpec("b", spec("relu"), ("a",)),
        )
        with pytest.raises(GraphError, match="cycle"):
            ModelSpec((("image", (1, 4, 4)),), nodes, "a")

    def test_unknown_source_rejected(self):
        nodes = (NodeSpec("a", spec("relu"), ("ghost",)),)
        with pytest.raises(GraphError, match="unknown input"):
            ModelSpec((("image", (1, 4, 4)),), nodes, "a")

    def test_duplicate_names_rejected(self):
        nodes = (
            NodeSpec("a", spec("relu"), ("image",)),
            NodeSpec("a", spec("relu"), ("image",)),
        )
        with pytest.raises(GraphError, match="duplicate"):
            ModelSpec((("image", (1, 4, 4)),), nodes, "a")

    def test_missing_output_rejected(self):
        nodes = (NodeSpec("a", spec("relu"), ("image",)),)
        with pytest.raises(GraphError, match="output node"):
            ModelSpec((("image", (1, 4, 4)),), nodes, "zz")

    def test_text_roundtrip(self):
        model_spec = tiny_dag()
        again = ModelSpec.from_text(model_spec.to_text())
        assert again == model_spec

    def test_text_roundtrip_with_floats(self):
        model_spec = make_realvalue_model("3CL-2FC", input_hw=64)
        again = ModelSpec.from_text(model_spec.to_text())
        assert again == model_spec

    def test_bad_header_rejected(self):
        with pytest.raises(GraphError, match="must start with"):
            ModelSpec.from_text("something else\n")

    @pytest.mark.parametrize("line", [
        "node b relu in=a in=image",
        "node c conv in=image out_depth=2 kernel=3 stride=1 stride=2",
        "output a",
    ], ids=["in-twice", "stride-twice", "second-output"])
    def test_repeated_field_or_output_rejected(self, line):
        text = (f"{TEXT_HEADER}\ninput image 1x4x4\nnode a relu in=image\n"
                f"output a\n{line}\n")
        with pytest.raises(GraphError, match=f"line 5: '{line}'"):
            ModelSpec.from_text(text)


class TestShapeInference:
    def test_matches_runtime_shapes_across_zoo(self):
        for name, model_spec in zoo_specs(32).items():
            model = Model(model_spec, seed=0)
            shapes = model_spec.infer_shapes()
            inputs = {
                n: np.zeros((2,) + s, dtype=np.float32)
                for n, s in model_spec.inputs
            }
            seen = {}
            model.forward(inputs, mode="eval",
                          observe=lambda node, out, _: seen.setdefault(node, out.shape[1:]))
            assert seen == {node: shapes[node] for node in model.node_names()}, name

    def test_1cl_1fc_full_scale_counts(self):
        model_spec = make_discrete_model("1CL-1FC", input_hw=256)
        assert model_spec.infer_shapes()["flat"] == (31752,)
        model = Model(model_spec, seed=0)
        assert sum(p.value.size for _, p in model.parameters()) == 95883


# per layer kind (every kind must be listed): a valid value of each
# hyper-parameter, then the out-of-range (field, value) pairs its infer_shape
# must refuse
HYPER_CASES = {
    "conv": ({"out_depth": 2, "kernel": 3, "stride": 1},
             [("out_depth", 0), ("out_depth", -2), ("kernel", 0), ("kernel", -1),
              ("stride", 0), ("stride", -1)]),
    "maxpool": ({"window": 2, "stride": 2},
                [("window", 0), ("window", -2), ("stride", 0), ("stride", -1)]),
    "linear": ({"out_features": 3}, [("out_features", 0), ("out_features", -1)]),
    "softmax_head": ({"classes": 3}, [("classes", 1), ("classes", 0)]),
    "clamp_scale": ({"lo": -1.0, "hi": 1.0},
                    [("lo", 1.0), ("lo", 2.0), ("hi", -1.0), ("lo", float("nan")),
                     ("hi", float("nan"))]),
    "scaled_sigmoid": ({"scale": 2.0},
                       [("scale", 0.0), ("scale", -1.0), ("scale", float("nan")),
                        ("scale", float("inf"))]),
    "batchnorm": ({}, []),
    "relu": ({}, []),
    "flatten": ({}, []),
    "concat": ({}, []),
}


def probe_text(kind: str, hyper: dict) -> str:
    """Model text whose output node "probe" is one ``kind`` layer."""
    src = {"linear": "flat", "softmax_head": "flat", "concat": "flat,motor"}.get(kind, "image")
    fields = "".join(f" {key}={value}" for key, value in hyper.items())
    return ("conedrive-model v1\ninput image 2x6x6\ninput motor 2\n"
            "node flat flatten in=image\n"
            f"node probe {kind} in={src}{fields}\noutput probe\n")


class TestHyperValidation:
    @pytest.mark.parametrize("kind", sorted(LAYER_KINDS))
    def test_out_of_range_hyper_names_node_and_field(self, kind):
        valid, bad = HYPER_CASES[kind]
        Model(ModelSpec.from_text(probe_text(kind, valid)), seed=0)
        for field, value in bad:
            text = probe_text(kind, {**valid, field: value})
            with pytest.raises(GraphError, match=rf"node 'probe'.*\b{field}\b"):
                Model(ModelSpec.from_text(text), seed=0)

    @pytest.mark.parametrize("dims", ["3x0x16", "0x4x4", "3x-1x4", "0"])
    def test_input_extent_below_one_rejected(self, dims):
        text = f"conedrive-model v1\ninput image {dims}\nnode out relu in=image\noutput out\n"
        with pytest.raises(GraphError, match="input 'image'.*>= 1"):
            Model(ModelSpec.from_text(text), seed=0)


class TestZooBuilders:
    def test_unknown_names_listed(self):
        with pytest.raises(GraphError, match="1CL-1FC"):
            make_discrete_model("9CL-9FC")
        with pytest.raises(GraphError, match="4CL-3FC"):
            make_realvalue_model("bogus")

    def test_3cl_2fc_structure(self):
        model_spec = make_discrete_model("3CL-2FC")
        kinds = [n.layer.kind for n in model_spec.nodes]
        convs = [n for n in model_spec.nodes if n.layer.kind == "conv"]
        assert [c.layer["out_depth"] for c in convs] == [8, 16, 32]
        assert kinds.count("batchnorm") == 3
        hidden = [n for n in model_spec.nodes if n.layer.kind == "linear"]
        assert [h.layer["out_features"] for h in hidden] == [100]
        head = model_spec.nodes[-1]
        assert head.layer.kind == "softmax_head" and head.layer["classes"] == 3

    def test_batchnorm_follows_every_conv(self):
        model_spec = make_discrete_model("2CL-1FC")
        assert sum(n.layer.kind == "batchnorm" for n in model_spec.nodes) == 2

    def test_4cl_3fc_defaults(self):
        model_spec = make_realvalue_model("4CL-3FC")
        convs = [n for n in model_spec.nodes if n.layer.kind == "conv"]
        assert [c.layer["out_depth"] for c in convs] == [8, 16, 32, 48]
        hidden = [n.layer["out_features"] for n in model_spec.nodes
                  if n.layer.kind == "linear"]
        assert hidden == [1024, 100, 1]
        clamp = model_spec.nodes[-1]
        assert clamp.layer.kind == "clamp_scale"
        assert (clamp.layer["lo"], clamp.layer["hi"]) == (-90.0, 90.0)

    def test_grid_optimum_configuration_builds(self):
        model_spec = make_realvalue_model("4CL-3FC", filters=[7, 7, 5, 5],
                                          strides=[2, 2, 1, 1])
        Model(model_spec, seed=0)  # shape inference must succeed at 256

    def test_filter_length_mismatch_rejected(self):
        with pytest.raises(GraphError, match="4 conv layers"):
            make_realvalue_model("4CL-3FC", filters=[5, 5], strides=[2, 2])

    def test_zero_image_zero_bias_gives_zero_steering(self):
        model_spec = make_realvalue_model("3CL-2FC", input_hw=64)
        model = Model(model_spec, seed=0)
        out = model.forward({"image": np.zeros((1, 3, 64, 64), dtype=np.float32)},
                            mode="eval")
        assert out[0, 0] == pytest.approx(0.0)

    def test_double_compressed_expansion(self):
        assert expand_double_compressed((7, 5), 4) == [7, 7, 5, 5]
        assert expand_double_compressed((2, 1), 4) == [2, 2, 1, 1]
        assert expand_double_compressed((5, 3), 3) == [5, 3, 3]


class TestForward:
    def test_logits_shape_at_full_scale(self):
        model = Model(make_discrete_model("3CL-2FC"), seed=0)
        x = np.random.default_rng(0).random((64, 3, 256, 256), dtype=np.float32)
        assert model.forward({"image": x}, mode="eval").shape == (64, 3)

    def test_eval_forward_deterministic(self):
        model = Model(make_discrete_model("2CL-2FC", input_hw=32), seed=0)
        x = np.random.default_rng(1).random((4, 3, 32, 32), dtype=np.float32)
        a = model.forward({"image": x}, mode="eval")
        b = model.forward({"image": x}, mode="eval")
        np.testing.assert_array_equal(a, b)

    def test_train_forward_batch_one_permitted(self):
        model = Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0)
        x = np.zeros((1, 3, 16, 16), dtype=np.float32)
        out = model.forward({"image": x}, mode="train")
        assert np.isfinite(out).all()

    def test_invalid_mode_rejected(self):
        model = Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0)
        with pytest.raises(GraphError, match="mode"):
            model.forward({"image": np.zeros((1, 3, 16, 16), dtype=np.float32)},
                          mode="test")

    def test_wrong_input_shape_names_node(self):
        model = Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0)
        with pytest.raises(ShapeError, match="image"):
            model.forward({"image": np.zeros((1, 3, 8, 8), dtype=np.float32)},
                          mode="eval")

    def test_execution_order_invariant(self):
        # the same DAG with its independent linears a/b listed in either order
        first = tiny_dag()
        nodes = list(first.nodes)
        ia = next(i for i, n in enumerate(nodes) if n.name == "a")
        nodes[ia], nodes[ia + 1] = nodes[ia + 1], nodes[ia]
        second = ModelSpec(first.inputs, tuple(nodes), first.output)
        model_a, model_b = Model(first, seed=3), Model(second, seed=3)
        names = [n.name for n in model_b.order]
        assert names.index("b") < names.index("a")
        model_b.load_state_tensors(dict(model_a.state_tensors()))
        x = np.random.default_rng(0).standard_normal((2, 1, 5, 5)).astype(np.float32)
        np.testing.assert_array_equal(model_a.forward({"image": x}, mode="eval"),
                                      model_b.forward({"image": x}, mode="eval"))

    @pytest.mark.parametrize("model_dtype, fed_dtype", [(np.float32, np.float64),
                                                         (np.float64, np.float32)])
    @pytest.mark.parametrize("model_spec", [make_discrete_model("2CL-2FC", input_hw=32),
                                            make_brake_throttle_model(input_hw=32)],
                             ids=["discrete", "brake_throttle"])
    def test_inputs_are_converted_to_the_model_dtype(self, model_spec, model_dtype,
                                                     fed_dtype):
        """Every input is converted to the model's dtype where it enters the
        graph: the output has that dtype and the bytes the converted input
        gives, in eval and training mode."""
        model = Model(model_spec, seed=4, dtype=model_dtype)
        rng = np.random.default_rng(5)
        fed = {n: rng.uniform(0, 256 if n == "motor" else 1, (3,) + shape).astype(fed_dtype)
               for n, shape in model_spec.inputs}
        converted = {n: arr.astype(model_dtype) for n, arr in fed.items()}
        for mode in ("eval", "train"):
            got = model.forward(fed, mode=mode)
            want = model.forward(converted, mode=mode)
            assert got.dtype == want.dtype == model_dtype
            assert got.tobytes() == want.tobytes(), mode

    @pytest.mark.parametrize("name", sorted(zoo_specs(16)))
    def test_observer_sees_each_step_once_in_plan_order(self, name):
        """Every head: the observer sees each plan step once, in plan order,
        with a non-negative time and the bytes ``predict`` gives for that
        node, and the output keeps the bytes of an unobserved forward."""
        model_spec = zoo_specs(16)[name]
        model = Model(model_spec, seed=1)
        rng = np.random.default_rng(2)
        inputs = {n: rng.uniform(0, 256 if n == "motor" else 1, (3,) + shape
                                 ).astype(np.float32)
                  for n, shape in model_spec.inputs}
        seen = []
        out = model.forward(inputs, mode="eval", observe=lambda *call: seen.append(call))
        assert [node for node, _, _ in seen] == [step.name for step in model.plan]
        assert all(elapsed_ns >= 0 for _, _, elapsed_ns in seen)
        assert out.tobytes() == model.forward(inputs, mode="eval").tobytes()
        for node, value, _ in seen:
            assert value.tobytes() == predict(model, inputs, 3, node=node).tobytes(), node

    def test_forward_drops_values_no_later_step_reads(self):
        """When the last step runs, of the values before it only its own
        input is still held; the output is returned."""
        model = Model(tiny_dag(), seed=0)
        made, held = {}, []
        for node in model.order:
            layer = model.layers[node.name]

            def recorded(x, train, name=node.name, forward=layer.forward):
                if name == "out":
                    held.extend(n for n, ref in made.items() if ref() is not None)
                result = forward(x, train)
                made[name] = weakref.ref(result)
                return result

            layer.forward = recorded
        x = np.random.default_rng(0).standard_normal((2, 1, 5, 5)).astype(np.float32)
        # the observer keeps shapes, not values, so holds nothing itself
        seen = {}
        out = model.forward({"image": x}, mode="eval",
                            observe=lambda name, value, _: seen.setdefault(name, value.shape))
        assert held == ["join"]
        assert made["out"]() is out and seen["a"] == (2, 3)


class TestBackward:
    def test_requires_train_forward(self):
        model = Model(tiny_dag(), seed=0)
        model.forward({"image": np.zeros((1, 1, 5, 5), dtype=np.float32)},
                      mode="eval")
        with pytest.raises(GraphError, match="training-mode"):
            model.backward(np.zeros((1, 2)))

    def test_zero_loss_gradient_gives_zero_param_gradients(self):
        model = Model(tiny_dag(), seed=0)
        x = np.random.default_rng(0).standard_normal((2, 1, 5, 5)).astype(np.float32)
        model.forward({"image": x}, mode="train")
        model.backward(np.zeros((2, 2), dtype=np.float32))
        for _, p in model.parameters():
            np.testing.assert_array_equal(p.grad, 0.0)

    @pytest.mark.parametrize("name", sorted(zoo_specs(16)))
    def test_each_backward_sets_the_gradients_afresh(self, name):
        """Every head: a second backward after one training forward leaves
        each parameter's gradient with the bytes the first gave it."""
        model_spec = zoo_specs(16)[name]
        model = Model(model_spec, seed=1)
        rng = np.random.default_rng(2)
        inputs = {n: rng.uniform(0, 256 if n == "motor" else 1, (3,) + shape
                                 ).astype(np.float32)
                  for n, shape in model_spec.inputs}
        out = model.forward(inputs, mode="train")
        grad_out = rng.standard_normal(out.shape).astype(np.float32)
        model.backward(grad_out)
        first = [p.grad.tobytes() for _, p in model.parameters()]
        model.backward(grad_out)
        for want, (node, p) in zip(first, model.parameters()):
            assert p.grad.tobytes() == want, f"{node}.{p.name}"

    def test_concat_gradient_splits_by_extents(self):
        model = Model(tiny_dag(), seed=0, dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((2, 1, 5, 5))
        model.forward({"image": x}, mode="train")
        join = model.layers["join"]
        grad = np.arange(10, dtype=np.float64).reshape(2, 5)
        parts = join.backward(grad)
        assert parts[0].shape == (2, 3) and parts[1].shape == (2, 2)
        np.testing.assert_array_equal(np.concatenate(parts, axis=1), grad)

    def test_fanout_gradients_sum(self):
        # flat feeds both linears; its gradient must be the sum of both paths
        model = Model(tiny_dag(), seed=1, dtype=np.float64)
        x = np.random.default_rng(5).standard_normal((1, 1, 5, 5))
        out = model.forward({"image": x}, mode="train")
        grads = model.backward(np.ones_like(out))
        a, b = model.layers["a"], model.layers["b"]
        join = model.layers["join"]
        up = np.ones((1, 2)) @ model.layers["out"].weight.value
        ga, gb = np.split(up, [3], axis=1)
        want = ga @ a.weight.value + gb @ b.weight.value
        flat_grad = model.layers["flat"].backward(want)
        np.testing.assert_allclose(grads["image"],
                                   model.layers["conv"].backward(
                                       model.layers["act"].backward(flat_grad)),
                                   rtol=1e-12)


class TestEndToEndGradients:
    @pytest.mark.parametrize("name", DISCRETE_NAMES)
    def test_discrete_miniatures(self, name):
        model = Model(make_discrete_model(name, input_hw=16), seed=0,
                      dtype=np.float64)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 16, 16))
        y = rng.integers(1, 4, 2)
        err = grad_check_model(model, {"image": x},
                               lambda o: softmax_cross_entropy(o, y),
                               max_coords=20)
        assert err < 1e-4

    @pytest.mark.parametrize("name", REALVALUE_NAMES)
    def test_realvalue_miniatures(self, name):
        model = Model(make_realvalue_model(name, input_hw=16), seed=0,
                      dtype=np.float64)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 16, 16))
        t = rng.uniform(-60, 60, (2, 1))
        err = grad_check_model(model, {"image": x},
                               lambda o: smooth_l1(o, t), max_coords=20)
        assert err < 1e-4


class TestBrakeThrottleDag:
    def test_forward_shape_and_range_at_full_scale(self):
        model = Model(make_brake_throttle_model(), seed=0)
        rng = np.random.default_rng(0)
        out = model.forward(
            {"image": rng.random((1, 3, 256, 256), dtype=np.float32),
             "motor": rng.uniform(0, 256, (1, 2)).astype(np.float32)},
            mode="eval")
        assert out.shape == (1, 2)
        assert np.all((out > 0) & (out < 256))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_reaches_both_input_paths(self, seed):
        model = Model(make_brake_throttle_model(input_hw=32), seed=seed,
                      dtype=np.float64)
        rng = np.random.default_rng(seed + 100)
        inputs = {"image": rng.standard_normal((2, 3, 32, 32)),
                  "motor": rng.uniform(0, 256, (2, 2))}
        target = rng.uniform(0, 256, (2, 2))
        out = model.forward(inputs, mode="train")
        _, grad = smooth_l1(out, target)
        input_grads = model.backward(grad)
        assert np.abs(input_grads["image"]).max() > 0
        assert np.abs(input_grads["motor"]).max() > 0

    def test_missing_motor_input_rejected(self):
        model = Model(make_brake_throttle_model(input_hw=32), seed=0)
        with pytest.raises(GraphError, match="missing named input.*motor"):
            model.forward({"image": np.zeros((1, 3, 32, 32), dtype=np.float32)},
                          mode="eval")
