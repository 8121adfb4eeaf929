"""Evaluation metrics, the confusion identity, and activation exports."""
import sys
import threading

import numpy as np
import pytest

from conedrive import layers, workers
from conedrive.data import (brake_throttle_arrays, classification_arrays,
                            discretize_steering, regression_arrays)
from conedrive.errors import GraphError
from conedrive.graph import Model
from conedrive.metrics import (ConfusionMatrix, default_activation_layer,
                               eval_classification, eval_regression,
                               export_activations, predict)
from conedrive.synth import synth_track_dataset
from conedrive.zoo import (make_brake_throttle_model, make_discrete_model,
                           make_realvalue_model)
from zoo_models import zoo_specs


def rigged_classifier(bias_class=2, input_hw=16):
    """1CL-1FC miniature that always predicts one class."""
    model = Model(make_discrete_model("1CL-1FC", input_hw=input_hw), seed=0)
    head = model.layers["head"]
    head.weight.value = np.zeros_like(head.weight.value)
    head.bias.value = np.zeros_like(head.bias.value)
    head.bias.value[bias_class - 1] = 10.0
    return model


def rigged_regressor(constant=5.0, input_hw=16):
    model = Model(make_realvalue_model("3CL-2FC", input_hw=input_hw), seed=0)
    out = model.layers["out_linear"]
    out.weight.value = np.zeros_like(out.weight.value)
    out.bias.value = np.array([constant], dtype=out.bias.value.dtype)
    return model


def balanced_pairs(per_class=32, size=16, seed=0):
    pairs = synth_track_dataset(2000, image_size=size, seed=seed)
    by_class = {1: [], 2: [], 3: []}
    for p in pairs:
        cls = int(discretize_steering(p.record.steering))
        if len(by_class[cls]) < per_class:
            by_class[cls].append(p)
    picked = by_class[1] + by_class[2] + by_class[3]
    assert len(picked) == 3 * per_class
    return picked


class TestEvalClassification:
    def test_perfect_predictor_has_diagonal_confusion(self):
        model = rigged_classifier()
        pairs = synth_track_dataset(40, image_size=16, seed=1)
        inputs, _ = classification_arrays(pairs)
        # score the model against its own argmax: the metric must see 100%
        targets = model.forward(inputs, mode="eval").argmax(axis=1) + 1
        report = eval_classification(model, inputs, targets, batch_size=8)
        assert report.batch_accuracy == 1.0
        assert report.global_accuracy == 1.0
        off_diag = report.confusion.counts - np.diag(np.diag(report.confusion.counts))
        assert off_diag.sum() == 0

    def test_constant_straight_on_balanced_set(self):
        model = rigged_classifier(bias_class=2)
        pairs = balanced_pairs(per_class=32)
        inputs, targets = classification_arrays(pairs)
        report = eval_classification(model, inputs, targets, batch_size=32)
        assert report.batch_accuracy == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert report.confusion.counts[:, 1].sum() == report.confusion.total

    def test_130_frames_batch_64(self):
        model = rigged_classifier()
        pairs = synth_track_dataset(130, image_size=16, seed=2)
        inputs, targets = classification_arrays(pairs)
        report = eval_classification(model, inputs, targets, batch_size=64)
        assert report.batches == 2
        assert report.frames_evaluated == 128
        assert report.frames_dropped == 2
        assert "frames_dropped: 2" in report.to_text()

    def test_empty_after_batching_rejected(self):
        model = rigged_classifier()
        pairs = synth_track_dataset(10, image_size=16, seed=3)
        inputs, targets = classification_arrays(pairs)
        with pytest.raises(ValueError, match="split of 10 frames yields no full "
                                             "batch of 64") as caught:
            eval_classification(model, inputs, targets, batch_size=64)
        # a usage error (exit 2), not malformed input (DataError, exit 4)
        assert type(caught.value) is ValueError

    def test_wrong_head_rejected(self):
        model = rigged_regressor()
        pairs = synth_track_dataset(10, image_size=16, seed=3)
        inputs, targets = classification_arrays(pairs)
        with pytest.raises(GraphError, match="softmax head"):
            eval_classification(model, inputs, targets, batch_size=2)

    def test_shuffle_invariance_with_full_batches(self):
        model = rigged_classifier()
        pairs = synth_track_dataset(64, image_size=16, seed=4)
        inputs, targets = classification_arrays(pairs)
        base = eval_classification(model, inputs, targets, batch_size=8)
        perm = np.random.default_rng(0).permutation(64)
        shuffled = eval_classification(
            model, {"image": inputs["image"][perm]}, targets[perm], batch_size=8)
        assert base.batch_accuracy == pytest.approx(shuffled.batch_accuracy)
        np.testing.assert_array_equal(base.confusion.counts,
                                      shuffled.confusion.counts)


class TestPredict:
    def test_equals_concatenated_per_batch_forwards(self):
        model = Model(make_brake_throttle_model(input_hw=16), seed=0)
        inputs, _ = brake_throttle_arrays(synth_track_dataset(23, image_size=16, seed=5))
        outs, hidden = [], []
        for start in (0, 8, 16):  # two full batches of 8, then a partial 7
            capture = {"fc1_relu": None}
            outs.append(model.forward({k: v[start:start + 8] for k, v in inputs.items()},
                                      mode="eval", capture=capture))
            hidden.append(capture["fc1_relu"])
        sizes = []
        forward = model.forward

        def recorded(batch, mode, **kwargs):
            sizes.append(len(batch["image"]))
            return forward(batch, mode, **kwargs)

        model.forward = recorded
        np.testing.assert_array_equal(predict(model, inputs, 8), np.concatenate(outs))
        np.testing.assert_array_equal(predict(model, inputs, 8, node="fc1_relu"),
                                      np.concatenate(hidden))
        # the batches run on the pool side by side, so in no fixed order
        assert sorted(sizes) == sorted([8, 8, 7] * 2)

    @pytest.mark.parametrize("name", sorted(zoo_specs(16)))
    def test_same_bytes_at_any_worker_count(self, monkeypatch, name):
        """Every zoo head, over 1, 2 and 3 batches with a partial last one,
        at its output and at an inner node; one frame per convolution chunk,
        so every batch's convolutions call ``workers.run`` from the pool."""
        model_spec = zoo_specs(16)[name]
        model = Model(model_spec, seed=1)
        inner = model.order[len(model.order) // 2].name
        rng = np.random.default_rng(2)
        frames = 2 * 5 + 2          # three batches of 5, the last partial
        inputs = {n: rng.uniform(0, 256 if n == "motor" else 1, (frames,) + shape
                                 ).astype(np.float32)
                  for n, shape in model_spec.inputs}
        monkeypatch.setattr(layers, "CONV_CHUNK_BYTES", 1)
        for batches in (1, 2, 3):
            sub = {n: arr[:5 * (batches - 1) + 2] for n, arr in inputs.items()}
            want = {}
            for count in (1, 2, 3):
                monkeypatch.setattr(workers, "WORKERS", count)
                for node in (None, inner):
                    got = predict(model, sub, 5, node=node)
                    assert got.shape[0] == 5 * (batches - 1) + 2
                    if count == 1:
                        want[node] = got
                    else:
                        assert got.tobytes() == want[node].tobytes(), (count, node)

    def test_one_instance_forwards_from_several_threads(self):
        """Eval forwards of one model on several threads at once give the
        bytes each gives alone."""
        model = Model(make_brake_throttle_model(input_hw=32), seed=3)
        rng = np.random.default_rng(4)
        batches = [{"image": rng.random((4, 3, 32, 32), dtype=np.float32),
                    "motor": rng.uniform(0, 256, (4, 2)).astype(np.float32)}
                   for _ in range(4)]

        def forward(batch):
            capture = {"fc1_relu": None}
            return model.forward(batch, mode="eval", capture=capture), capture["fc1_relu"]

        want = [forward(batch) for batch in batches]
        start = threading.Barrier(len(batches), timeout=30)
        got = [[] for _ in batches]

        def call(i):
            start.wait()
            for _ in range(10):
                got[i].append(forward(batches[i]))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        for (out, hidden), runs in zip(want, got):
            assert len(runs) == 10
            for run_out, run_hidden in runs:
                assert run_out.tobytes() == out.tobytes()
                assert run_hidden.tobytes() == hidden.tobytes()


class TestConfusionIdentity:
    @pytest.mark.parametrize("seed", range(10))
    def test_trace_over_sum_equals_mean_batch_accuracy(self, seed):
        rng = np.random.default_rng(seed)
        batches, bs = rng.integers(1, 8), int(rng.integers(1, 9)) * 8
        confusion = ConfusionMatrix()
        accs = []
        for _ in range(batches):
            true = rng.integers(1, 4, bs)
            pred = rng.integers(1, 4, bs)
            confusion.add(true, pred)
            accs.append(float(np.mean(true == pred)))
        assert confusion.accuracy == pytest.approx(float(np.mean(accs)), rel=1e-12)

    def test_total_equals_evaluated_frames(self):
        confusion = ConfusionMatrix()
        confusion.add(np.array([1, 2, 3]), np.array([1, 1, 3]))
        assert confusion.total == 3


class TestEvalRegression:
    def test_exact_predictor_scores_zero(self):
        model = rigged_regressor(constant=5.0)
        pairs = synth_track_dataset(16, image_size=16, seed=6)
        inputs, _ = regression_arrays(pairs)
        targets = np.full((16, 1), 5.0, dtype=np.float32)
        report = eval_regression(model, inputs, targets, batch_size=8)
        assert report.mean_l1 == pytest.approx(0.0, abs=1e-5)

    def test_one_degree_offset_scores_one(self):
        model = rigged_regressor(constant=5.0)
        pairs = synth_track_dataset(16, image_size=16, seed=6)
        inputs, _ = regression_arrays(pairs)
        targets = np.full((16, 1), 4.0, dtype=np.float32)
        report = eval_regression(model, inputs, targets, batch_size=8)
        assert report.mean_l1 == pytest.approx(1.0, abs=1e-5)

    def test_wrong_head_rejected(self):
        model = rigged_classifier()
        pairs = synth_track_dataset(10, image_size=16, seed=6)
        inputs, targets = regression_arrays(pairs)
        with pytest.raises(GraphError, match="clamped head"):
            eval_regression(model, inputs, targets, batch_size=2)

    def test_degenerate_lattice_agreement(self):
        # when predictions and targets both live on {-90, 0, +90}, binning
        # both recovers agreement exactly from the per-frame L1 distances
        rng = np.random.default_rng(7)
        lattice = np.array([-90.0, 0.0, 90.0])
        pred = lattice[rng.integers(0, 3, 50)]
        target = lattice[rng.integers(0, 3, 50)]
        agree_bins = np.mean(
            [discretize_steering(p) == discretize_steering(t)
             for p, t in zip(pred, target)])
        per_frame_l1 = np.abs(pred - target)
        assert agree_bins == pytest.approx(np.mean(per_frame_l1 == 0.0))


class TestExports:
    def test_two_batches_of_64_give_128_rows(self, tmp_path):
        model = Model(make_discrete_model("2CL-2FC", input_hw=16), seed=0)
        pairs = synth_track_dataset(130, image_size=16, seed=8)
        inputs, targets = classification_arrays(pairs)
        path = tmp_path / "acts.tsv"
        rows = export_activations(model, inputs, targets, path, batch_size=64)
        assert rows == 128
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + 128

    def test_header_records_layer_and_width(self, tmp_path):
        model = Model(make_discrete_model("2CL-2FC", input_hw=16), seed=0)
        assert default_activation_layer(model) == "fc1_relu"
        pairs = synth_track_dataset(16, image_size=16, seed=8)
        inputs, targets = classification_arrays(pairs)
        path = tmp_path / "acts.tsv"
        export_activations(model, inputs, targets, path, batch_size=8)
        assert path.read_text().splitlines()[0] == "# layer=fc1_relu width=100"

    def test_rerun_identical_bytes(self, tmp_path):
        model = Model(make_discrete_model("1CL-2FC", input_hw=16), seed=0)
        pairs = synth_track_dataset(16, image_size=16, seed=9)
        inputs, targets = classification_arrays(pairs)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        export_activations(model, inputs, targets, a, batch_size=8)
        export_activations(model, inputs, targets, b, batch_size=8)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_layer_lists_available(self, tmp_path):
        model = Model(make_discrete_model("1CL-2FC", input_hw=16), seed=0)
        pairs = synth_track_dataset(16, image_size=16, seed=9)
        inputs, targets = classification_arrays(pairs)
        with pytest.raises(GraphError, match="conv1"):
            export_activations(model, inputs, targets, tmp_path / "x.tsv",
                               layer="nope")
