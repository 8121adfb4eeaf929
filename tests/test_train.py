"""Trainer semantics: schedule, SGD, determinism, divergence, grid search."""
import itertools

import numpy as np
import pytest

from conedrive import layers, workers
from conedrive.checkpoint import load_checkpoint, save_checkpoint
from conedrive.data import classification_arrays, regression_arrays
from conedrive.errors import DivergenceError
from conedrive.graph import Model
from conedrive.synth import synth_track_dataset
from conedrive.train import (GridResult, TrainConfig, grid_search, lr_at_epoch,
                             sgd_step, train, write_grid_table, write_history)
from conedrive.zoo import make_discrete_model, make_realvalue_model
from reference_twins import batchnorm_backward_reference, batchnorm_forward_reference


class TestLrSchedule:
    @pytest.mark.parametrize("epoch,want", [
        (0, 0.01),
        (1, 0.01 / 1.01),
        (10, 0.01 / 1.01**10),
        (100, 0.01 / 1.01**100),
    ])
    def test_exact_values(self, epoch, want):
        assert lr_at_epoch(TrainConfig(), epoch) == pytest.approx(want, rel=1e-12)

    def test_epoch_100_magnitude(self):
        assert lr_at_epoch(TrainConfig(), 100) == pytest.approx(0.0036971, rel=1e-4)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError, match="epoch"):
            lr_at_epoch(TrainConfig(), -1)

    def test_sequence_strictly_decreasing_constant_ratio(self):
        config = TrainConfig()
        lrs = [lr_at_epoch(config, e) for e in range(50)]
        ratios = [b / a for a, b in zip(lrs, lrs[1:])]
        assert all(b < a for a, b in zip(lrs, lrs[1:]))
        np.testing.assert_allclose(ratios, config.decay, rtol=1e-12)


class TestTrainConfig:
    def test_defaults_match_training_protocol(self):
        config = TrainConfig()
        assert config.initial_lr == 0.01
        assert config.decay == pytest.approx(1 / 1.01)
        assert config.batch_size == 64
        assert config.epochs == 100

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0},
        {"initial_lr": 0.0},
        {"decay": 0.0},
        {"decay": 1.5},
        {"batch_size": 0},
        {"loss": "mse"},
        {"initial_lr": float("nan")},
        {"initial_lr": float("inf")},
    ])
    def test_invariants_enforced(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


def toy_model(seed=0, dtype=np.float64):
    return Model(make_discrete_model("1CL-1FC", input_hw=8), seed=seed, dtype=dtype)


class TestSgdStep:
    def test_hand_value(self):
        model = toy_model()
        _, p = model.parameters()[0]
        p.value = np.full_like(p.value, 1.0)
        p.grad = np.full_like(p.value, 0.5)
        sgd_step(model, lr=0.01)
        np.testing.assert_allclose(p.value, 0.995, rtol=1e-12)

    def test_zeroed_gradients_leave_parameters(self):
        model = toy_model()
        before = [p.value.copy() for _, p in model.parameters()]
        for _, p in model.parameters():
            p.grad = np.zeros_like(p.value)
        sgd_step(model, lr=0.1)
        for want, (_, p) in zip(before, model.parameters()):
            np.testing.assert_array_equal(p.value, want)

    def test_parameters_no_backward_reached_are_skipped(self):
        model = toy_model()
        before = [p.value.copy() for _, p in model.parameters()]
        sgd_step(model, lr=0.1)
        for want, (_, p) in zip(before, model.parameters()):
            assert p.grad is None
            np.testing.assert_array_equal(p.value, want)

    def test_two_steps_equal_one_summed_step(self):
        a, b = toy_model(seed=1), toy_model(seed=1)
        rng = np.random.default_rng(0)
        g1 = [rng.standard_normal(p.value.shape) for _, p in a.parameters()]
        g2 = [rng.standard_normal(p.value.shape) for _, p in a.parameters()]
        for (_, p), x in zip(a.parameters(), g1):
            p.grad = x
        sgd_step(a, 0.01)
        for (_, p), x in zip(a.parameters(), g2):
            p.grad = x
        sgd_step(a, 0.01)
        for (_, p), x, y in zip(b.parameters(), g1, g2):
            p.grad = x + y
        sgd_step(b, 0.01)
        for (_, pa), (_, pb) in zip(a.parameters(), b.parameters()):
            np.testing.assert_allclose(pa.value, pb.value, rtol=1e-12)

    def test_nonfinite_gradient_names_layer(self):
        model = toy_model()
        node, p = model.parameters()[2]
        p.grad = np.full_like(p.value, np.nan)
        with pytest.raises(DivergenceError, match=node):
            sgd_step(model, 0.01)


def small_sets(n=40, size=16, seed=0, task="discrete"):
    pairs = synth_track_dataset(n, image_size=size, seed=seed)
    arrays = classification_arrays if task == "discrete" else regression_arrays
    half = n // 2
    return arrays(pairs[:half]), arrays(pairs[half:])


class TestTrainLoop:
    def config(self, **kw):
        base = dict(initial_lr=0.001, batch_size=5, epochs=3, seed=0)
        base.update(kw)
        return TrainConfig(**base)

    def test_history_length_and_steps(self):
        train_data, val_data = small_sets()
        model = Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0)
        result = train(model, train_data, val_data, self.config())
        assert len(result.history) == 3
        assert result.steps_per_epoch == 20 // 5
        assert result.steps == 3 * 4
        assert model.epoch == 3

    def test_partial_batch_dropped(self):
        train_data, val_data = small_sets()
        model = Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0)
        result = train(model, train_data, val_data, self.config(batch_size=7))
        assert result.steps_per_epoch == 20 // 7

    def test_fixed_seed_reproduces_history(self):
        train_data, val_data = small_sets()
        histories = []
        for _ in range(2):
            model = Model(make_discrete_model("1CL-1FC", input_hw=16), seed=5)
            result = train(model, train_data, val_data, self.config(seed=9))
            histories.append([(s.epoch, s.lr, s.train_loss, s.val_metric)
                              for s in result.history])
        assert histories[0] == histories[1]

    def test_float64_reproduces_bitwise(self):
        train_data, val_data = small_sets()
        train_data = ({"image": train_data[0]["image"].astype(np.float64)},
                      train_data[1])
        val_data = ({"image": val_data[0]["image"].astype(np.float64)},
                    val_data[1])
        losses = []
        for _ in range(2):
            model = Model(make_discrete_model("1CL-1FC", input_hw=16), seed=5,
                          dtype=np.float64)
            result = train(model, train_data, val_data, self.config(seed=9))
            losses.append([s.train_loss for s in result.history])
        assert losses[0] == losses[1]

    def test_conv_chunk_budget_leaves_training_byte_identical(self, monkeypatch):
        train_data, val_data = small_sets(n=48, size=32)
        runs = []
        # one frame per chunk; conv1 in chunks of 3, 3 and 2; the whole batch;
        # each on the calling thread and on two pool threads
        for budget, count in itertools.product((1, 3 * 75 * 14 * 14 * 4, 1 << 40),
                                               (1, 2)):
            monkeypatch.setattr(layers, "CONV_CHUNK_BYTES", budget)
            monkeypatch.setattr(workers, "WORKERS", count)
            model = Model(make_discrete_model("2CL-2FC", input_hw=32), seed=3)
            result = train(model, train_data, val_data,
                           self.config(epochs=2, batch_size=8, seed=4))
            runs.append(([(s.epoch, s.lr, s.train_loss, s.val_metric)
                          for s in result.history],
                         [(name, value.tobytes())
                          for name, value in model.state_tensors()]))
        assert all(run == runs[0] for run in runs[1:])

    @pytest.mark.parametrize("task", ["discrete", "real"])
    def test_elementwise_layers_train_as_their_twins(self, monkeypatch, task):
        # the masked backwards of ReLU, clamp and max-pool as np.where, and
        # batch-norm as its one-array-per-step twin, give the same run
        train_data, val_data = small_sets(n=48, size=32, task=task)
        model_spec = (make_discrete_model("2CL-2FC", input_hw=32) if task == "discrete"
                      else make_realvalue_model("3CL-2FC", input_hw=32))
        loss = "cross_entropy" if task == "discrete" else "smooth_l1"

        def twin_forward(self, x, train):
            out, self.running_mean, self.running_var, xhat, inv = (
                batchnorm_forward_reference(x, self.gamma.value, self.beta.value,
                                            self.running_mean, self.running_var,
                                            train, self.eps, self.momentum))
            self._cache = (xhat, inv) if train else None
            return out

        def twin_backward(self, grad_out):
            dx, dgamma, dbeta = batchnorm_backward_reference(
                grad_out, *self._need_cache(), self.gamma.value)
            self.gamma.set_grad(dgamma)
            self.beta.set_grad(dbeta)
            return dx

        def run():
            model = Model(model_spec, seed=3)
            result = train(model, train_data, val_data,
                           self.config(epochs=2, batch_size=8, seed=4, loss=loss))
            return ([(s.epoch, s.lr, s.train_loss, s.val_metric) for s in result.history],
                    [(name, value.tobytes()) for name, value in model.state_tensors()])

        fast = run()
        monkeypatch.setattr(layers, "_select", lambda mask, grad: np.where(mask, grad, 0))
        monkeypatch.setattr(layers.BatchNorm2d, "forward", twin_forward)
        monkeypatch.setattr(layers.BatchNorm2d, "backward", twin_backward)
        assert run() == fast

    def test_toy_cross_entropy_monotone_non_increasing(self):
        # two linearly separable points, full-batch descent at a small rate
        rng = np.random.default_rng(0)
        x = np.stack([np.full((3, 8, 8), 0.9, dtype=np.float32),
                      np.full((3, 8, 8), 0.1, dtype=np.float32)])
        x += rng.normal(0, 0.01, x.shape).astype(np.float32)
        y = np.array([1, 3])
        data = ({"image": x}, y)
        model = toy_model(seed=2, dtype=np.float64)
        data64 = ({"image": data[0]["image"].astype(np.float64)}, y)
        config = TrainConfig(initial_lr=1e-3, batch_size=2, epochs=20, seed=0)
        result = train(model, data64, data64, config)
        losses = [s.train_loss for s in result.history]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_empty_split_rejected(self):
        train_data, val_data = small_sets()
        model = Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0)
        empty = ({"image": np.zeros((0, 3, 16, 16), np.float32)},
                 np.zeros(0, np.int64))
        with pytest.raises(ValueError, match="training split of 0 frames yields no "
                                             "full batch of 5") as caught:
            train(model, empty, val_data, self.config())
        assert type(caught.value) is ValueError

    def test_short_validation_split_rejected_before_any_step(self):
        train_data, val_data = small_sets()
        model = Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0)
        before = [(name, value.copy()) for name, value in model.state_tensors()]
        short_val = ({"image": val_data[0]["image"][:8]}, val_data[1][:8])
        with pytest.raises(ValueError, match="validation split of 8 frames "
                                             "yields no full batch of 16") as caught:
            train(model, train_data, short_val, self.config(batch_size=16))
        assert type(caught.value) is ValueError
        assert model.epoch == 0
        for (name, old), (_, new) in zip(before, model.state_tensors()):
            np.testing.assert_array_equal(new, old, err_msg=name)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_halts_with_marker(self):
        train_data, val_data = small_sets()
        model = Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0)
        config = self.config(initial_lr=1e30, epochs=5)
        result = train(model, train_data, val_data, config)
        assert result.diverged
        assert "epoch" in result.divergence_reason
        assert len(result.history) < 5

    def test_resume_uses_epoch_offset(self):
        train_data, val_data = small_sets()
        model = Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0)
        model.epoch = 10
        result = train(model, train_data, val_data, self.config(epochs=2))
        assert [s.epoch for s in result.history] == [10, 11]
        assert model.epoch == 12
        assert result.history[0].lr == pytest.approx(0.001 * (1 / 1.01) ** 10)

    def test_resume_equals_continuous_run(self, tmp_path):
        train_data, val_data = small_sets()

        def history(result):
            return [(s.epoch, s.lr, s.train_loss, s.val_metric) for s in result.history]

        straight = Model(make_discrete_model("1CL-1FC", input_hw=16), seed=4)
        whole = train(straight, train_data, val_data, self.config(epochs=4, seed=2))
        first = Model(make_discrete_model("1CL-1FC", input_hw=16), seed=4)
        head = train(first, train_data, val_data, self.config(epochs=2, seed=2))
        path = tmp_path / "half.ckpt"
        save_checkpoint(first, path)
        resumed = load_checkpoint(path)
        assert resumed.epoch == 2
        tail = train(resumed, train_data, val_data, self.config(epochs=2, seed=2))
        assert history(head) + history(tail) == history(whole)
        for (name, want), (_, got) in zip(straight.state_tensors(),
                                          resumed.state_tensors()):
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_each_epoch_reshuffles_the_whole_split(self):
        train_data, val_data = small_sets()
        model = Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0)
        row_of = {x.tobytes(): i for i, x in enumerate(train_data[0]["image"])}
        order = []
        forward = model.forward

        def recorded(inputs, mode, **kwargs):
            if mode == "train":
                order.extend(row_of[x.tobytes()] for x in inputs["image"])
            return forward(inputs, mode, **kwargs)

        model.forward = recorded
        train(model, train_data, val_data, self.config(epochs=2))
        first, second = order[:20], order[20:]
        assert sorted(first) == sorted(second) == list(range(20))
        assert first != second

    def test_history_file_roundtrip(self, tmp_path):
        train_data, val_data = small_sets()
        model = Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0)
        config = self.config()
        result = train(model, train_data, val_data, config)
        path = tmp_path / "history.tsv"
        write_history(path, result, config)
        lines = path.read_text().splitlines()
        assert lines[1].split("\t") == ["epoch", "lr", "train_loss", "val_acc",
                                        "seconds"]
        assert len(lines) == 2 + len(result.history)


class TestGridSearch:
    def data(self):
        pairs = synth_track_dataset(30, image_size=16, seed=1)
        return regression_arrays(pairs[:20]), regression_arrays(pairs[20:])

    def test_single_configuration_reduces_to_train(self):
        train_data, val_data = self.data()
        config = TrainConfig(initial_lr=1e-3, batch_size=5, epochs=2, seed=3,
                             loss="smooth_l1")
        results = grid_search("3CL-2FC", [(5, 3)], [(2, 2)], config,
                              train_data, val_data, input_hw=16)
        assert len(results) == 1
        model = Model(make_realvalue_model("3CL-2FC", [5, 3, 3], [2, 2, 2],
                                           input_hw=16), seed=3)
        direct = train(model, train_data, val_data, config)
        assert results[0].val_loss == pytest.approx(direct.history[-1].val_metric)

    def test_default_grid_is_eight_runs(self):
        from conedrive.train import DEFAULT_FILTER_GRID, DEFAULT_STRIDE_GRID

        assert len(DEFAULT_FILTER_GRID) * len(DEFAULT_STRIDE_GRID) == 8

    def test_results_ranked_ascending(self):
        train_data, val_data = self.data()
        config = TrainConfig(initial_lr=1e-3, batch_size=5, epochs=1, seed=0,
                             loss="smooth_l1")
        results = grid_search("3CL-2FC", [(5, 3), (3, 3)], [(2, 2)], config,
                              train_data, val_data, input_hw=16)
        assert len(results) == 2
        assert results[0].val_loss <= results[1].val_loss

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_recorded_not_fatal(self):
        train_data, val_data = self.data()
        config = TrainConfig(initial_lr=1e30, batch_size=5, epochs=2, seed=0,
                             loss="smooth_l1")
        results = grid_search("3CL-2FC", [(3, 3)], [(2, 2)], config,
                              train_data, val_data, input_hw=16)
        assert results[0].diverged
        assert results[0].val_loss == float("inf")

    def test_table_persisted(self, tmp_path):
        rows = [GridResult((7, 7, 5, 5), (2, 2, 1, 1), 1.25, False),
                GridResult((5, 5, 3, 3), (2, 2, 2, 2), float("inf"), True)]
        path = tmp_path / "grid.tsv"
        write_grid_table(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "filters\tstrides\tval_loss\tdiverged"
        assert lines[1].startswith("7,7,5,5\t2,2,1,1\t1.25")
        assert lines[2].endswith("\t1")
