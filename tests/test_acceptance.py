"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The two synthetic training criteria dominate the runtime (a few
minutes total on a desktop CPU); everything else finishes in seconds.
"""
import time

import numpy as np
import pytest

from conedrive.bench import bench_forward
from conedrive.checkpoint import load_checkpoint, save_checkpoint
from conedrive.data import (FramePair, TelemetryRecord, brake_throttle_arrays,
                            build_mixed_set, classification_arrays, discretize_steering,
                            pair_nearest, regression_arrays, shift_augment,
                            split_60_20_20)
from conedrive.errors import CheckpointError, GraphError
from conedrive.gradcheck import grad_check_model
from conedrive.graph import Model, spec
from conedrive.layers import Conv2d, Linear, smooth_l1, softmax_cross_entropy
from conedrive.metrics import ConfusionMatrix, eval_regression, predict
from conedrive.overlay import (ACTUAL_COLOR, BAR_FULL_W, BAR_ROWS, BAR_X0,
                               DIAL_CENTER, NEEDLE_LEN, render_overlay)
from conedrive.synth import synth_track_dataset
from conedrive.train import TrainConfig, lr_at_epoch, train
from conedrive.zoo import (make_brake_throttle_model, make_discrete_model,
                           make_realvalue_model)
from zoo_models import check_layer, check_loss, zoo_specs

SEEDS = range(10)


def report(num: int, desc: str, ok: bool, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[{status}] criterion {num:2d}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}"


def test_c01_gradient_correctness():
    t0 = time.time()
    per_layer_ok = True
    for seed in SEEDS:
        # each layer is checked as a model of one node; the weights that
        # conv and linear draw from ``rng`` are loaded into it
        rng = np.random.default_rng(seed)
        checks = [
            (spec("conv", out_depth=3, kernel=3, stride=1),
             Conv2d(2, 3, 3, 1, rng, np.float64).state(),
             rng.standard_normal((1, 2, 8, 8))),
            (spec("maxpool", window=2, stride=2), (), rng.standard_normal((2, 2, 6, 6))),
            (spec("batchnorm"), (), rng.standard_normal((4, 3, 4, 4))),
            (spec("linear", out_features=3), Linear(4, 3, rng, np.float64).state(),
             rng.standard_normal((3, 4))),
            (spec("relu"), (), rng.standard_normal((3, 5)) + np.sign(
                rng.standard_normal((3, 5))) * 0.2),
            (spec("clamp_scale", lo=-90.0, hi=90.0), (), rng.uniform(-80, 80, (3, 4))),
            (spec("scaled_sigmoid", scale=256.0), (), rng.standard_normal((3, 2)) * 3),
        ]
        for layer, state, x in checks:
            per_layer_ok &= check_layer(layer, x, state) <= 1e-5
        classes = rng.integers(1, 4, 3)
        per_layer_ok &= check_loss(
            lambda v: softmax_cross_entropy(v, classes),
            rng.normal(0, 2, (3, 3))) <= 1e-5
        target = rng.normal(0, 3, (3, 2))
        pred = target + np.where(rng.random((3, 2)) < 0.5, 0.4, 1.6)
        per_layer_ok &= check_loss(
            lambda v: smooth_l1(v, target), pred) <= 1e-5

    end_to_end_ok = True
    # batch 4: at 16x16 the deep blocks run at 1x1 spatial, so batch-norm
    # variance over a 2-sample batch can degenerate below eps, where FD
    # truncation error swamps the tolerance
    batch = 4
    for model_name, model_spec in zoo_specs(input_hw=16).items():
        for seed in SEEDS:
            model = Model(model_spec, seed=seed, dtype=np.float64)
            rng = np.random.default_rng(1000 + seed)
            inputs = {
                name: (rng.uniform(0, 256, (batch,) + shape)
                       if name == "motor"
                       else rng.standard_normal((batch,) + shape))
                for name, shape in model_spec.inputs
            }
            if model_name.startswith("discrete"):
                y = rng.integers(1, 4, batch)
                loss_fn = lambda o: softmax_cross_entropy(o, y)
            else:
                width = model_spec.infer_shapes()[model_spec.output][0]
                t = rng.uniform(-60, 60, (batch, width))
                loss_fn = lambda o: smooth_l1(o, t)
            err = grad_check_model(model, inputs, loss_fn,
                                   seed=seed, max_coords=12)
            end_to_end_ok &= err <= 1e-4
    elapsed = time.time() - t0
    report(1, "per-layer FD <= 1e-5 and whole-zoo 16x16 FD <= 1e-4, 10 seeds",
           per_layer_ok and end_to_end_ok and elapsed < 120, elapsed)


def test_c02_split_arithmetic():
    pairs = [FramePair(None, TelemetryRecord(float(i), 0, 0, 0, 0, 0), i, i)
             for i in range(12097)]
    split = split_60_20_20(pairs, seed=0)
    sizes = (len(split.train), len(split.validation), len(split.test))
    report(2, "N=12097 splits to (7258, 2419, 2419) with 1 dropped",
           sizes == (7258, 2419, 2419) and split.dropped == 1)


def test_c03_discretization_bins():
    values = np.random.default_rng(0).uniform(-90, 90, 100_000)
    classes = np.array([int(discretize_steering(v)) for v in values])
    want = np.where(values > 10, 1, np.where(values < -10, 3, 2))
    boundaries_ok = (discretize_steering(10.0).value == 2
                     and discretize_steering(-10.0).value == 2
                     and discretize_steering(10.0000001).value == 1
                     and discretize_steering(-10.0000001).value == 3)
    report(3, "bin definitions over 1e5 uniform values incl. inclusive +-10",
           bool((classes == want).all()) and boundaries_ok)


def test_c04_pairing_oracle():
    t0 = time.time()
    ok = True
    for log in range(100):
        rng = np.random.default_rng(log)
        n_rec = int(rng.integers(1, 5001))
        n_frames = int(rng.integers(1, 3001))
        rec_ts = np.sort(rng.uniform(0, 1e6, n_rec))
        frame_ts = np.sort(rng.uniform(0, 1e6, n_frames))
        records = [TelemetryRecord(t, 0, 0, 0, 0, 0) for t in rec_ts]
        got = np.array([p.frame_index for p in pair_nearest(records, frame_ts)])
        # independent full-scan oracle; argmin keeps the earlier frame on ties
        want = np.abs(frame_ts[None, :] - rec_ts[:, None]).argmin(axis=1)
        ok &= bool((got == want).all())
    elapsed = time.time() - t0
    report(4, "pair_nearest equals brute-force scan on 100 randomized logs",
           ok and elapsed < 30, elapsed)


def test_c05_lr_schedule():
    config = TrainConfig()
    ok = True
    for epoch in (0, 1, 10, 100):
        want = 0.01 * (1.0 / 1.01) ** epoch
        got = lr_at_epoch(config, epoch)
        ok &= abs(got - want) <= 1e-12 * want
    report(5, "lr(e) = 0.01 * (1/1.01)^e at e in {0,1,10,100} to 1e-12", ok)


@pytest.fixture(scope="module")
def synthetic_track():
    pairs = synth_track_dataset(1000, image_size=64, seed=0)
    return split_60_20_20(pairs, seed=0)


def test_c06_synthetic_discrete_training(synthetic_track):
    t0 = time.time()
    split = synthetic_track
    train_data = classification_arrays(split.train)
    val_data = classification_arrays(split.validation)
    config = TrainConfig(epochs=50, seed=0)
    model = Model(make_discrete_model("3CL-2FC", input_hw=64), seed=0)
    result = train(model, train_data, val_data, config)
    accuracy = result.history[-1].val_metric

    # determinism under the fixed seed: an independent rerun reproduces the
    # opening epochs of the history exactly
    model_b = Model(make_discrete_model("3CL-2FC", input_hw=64), seed=0)
    rerun = train(model_b, train_data, val_data,
                  TrainConfig(epochs=5, seed=0))
    deterministic = all(
        a.train_loss == b.train_loss and a.val_metric == b.val_metric
        for a, b in zip(result.history[:5], rerun.history))
    elapsed = time.time() - t0
    report(6, f"3CL-2FC 64x64 discrete reaches >= 0.95 val acc "
              f"(got {accuracy:.4f}), deterministic rerun",
           accuracy >= 0.95 and deterministic and elapsed < 900, elapsed)


def test_c07_synthetic_realvalue_training(synthetic_track):
    t0 = time.time()
    split = synthetic_track
    train_data = regression_arrays(split.train)
    val_data = regression_arrays(split.validation)
    # schedule tuned for the regression miniature (see grid-search module);
    # initial lr is the standard 0.01, decay steepened to settle smooth-L1
    config = TrainConfig(initial_lr=0.01, decay=0.95, epochs=100, seed=0,
                         loss="smooth_l1")
    model = Model(make_realvalue_model("3CL-2FC", input_hw=64), seed=0)
    train(model, train_data, val_data, config)
    mean_l1 = eval_regression(model, *val_data).mean_l1
    elapsed = time.time() - t0
    report(7, f"real-value 3CL-2FC 64x64 reaches mean L1 <= 2.0 deg "
              f"(got {mean_l1:.3f})",
           mean_l1 <= 2.0 and elapsed < 1200, elapsed)


def test_c08_augmentation_semantics():
    rng = np.random.default_rng(0)
    ok = True
    # round trip touches only the filled columns
    for s in (3, 9):
        image = rng.random((3, 64, 64), dtype=np.float32)
        pair = FramePair(image, TelemetryRecord(0, 5.0, 0, 0, 0, 0), 0, 0)
        back = shift_augment(shift_augment(pair, s), -s)
        diff_cols = np.nonzero(
            np.abs(back.image - image).max(axis=(0, 1)) > 1e-6)[0]
        ok &= diff_cols.size <= 2 * s
    # mean-pixel fill
    image = rng.random((3, 32, 32), dtype=np.float32)
    pair = FramePair(image, TelemetryRecord(0, 0.0, 0, 0, 0, 0), 0, 0)
    shifted = shift_augment(pair, 7)
    fill = image.mean(axis=(1, 2))
    ok &= all(np.allclose(shifted.image[c, :, :7], fill[c], atol=1e-6)
              for c in range(3))
    # label formula and clamp
    ok &= shift_augment(pair, 20, k=0.15).record.steering == pytest.approx(-3.0)
    edge = FramePair(image, TelemetryRecord(0, -89.0, 0, 0, 0, 0), 0, 0)
    ok &= shift_augment(edge, 20, k=0.15).record.steering == -90.0
    labels_in_range = all(
        -90.0 <= shift_augment(
            FramePair(image, TelemetryRecord(0, float(t), 0, 0, 0, 0), 0, 0),
            int(sh)).record.steering <= 90.0
        for t, sh in zip(rng.uniform(-90, 90, 200), rng.integers(-31, 32, 200)))
    ok &= labels_in_range
    # mixed-set composition
    normal = [FramePair(None, TelemetryRecord(i, 0, 0, 0, 0, 0), i, i)
              for i in range(200)]
    shifted_pool = [FramePair(None, TelemetryRecord(i, 0, 0, 0, 0, 0),
                              10_000 + i, i) for i in range(900)]
    mixed = build_mixed_set(normal, shifted_pool, 1000, seed=0)
    n_normal = sum(1 for p in mixed if p.log_row < 10_000)
    ok &= len(mixed) == 1000 and n_normal == 150
    mixed20 = build_mixed_set(normal, shifted_pool, 20, seed=0)
    ok &= sum(1 for p in mixed20 if p.log_row < 10_000) == 3
    report(8, "shift round-trip, mean fill, label clamp, 150/850 mixed set", ok)


def test_c09_brake_throttle_dag():
    t0 = time.time()
    rng = np.random.default_rng(0)
    model = Model(make_brake_throttle_model(), seed=0)
    out = model.forward(
        {"image": rng.random((1, 3, 256, 256), dtype=np.float32),
         "motor": rng.uniform(0, 256, (1, 2)).astype(np.float32)},
        mode="eval")
    in_range = out.shape == (1, 2) and bool(np.all((out > 0) & (out < 256)))

    both_paths = True
    for seed in range(5):
        m = Model(make_brake_throttle_model(input_hw=64), seed=seed,
                  dtype=np.float64)
        r = np.random.default_rng(100 + seed)
        inputs = {"image": r.standard_normal((2, 3, 64, 64)),
                  "motor": r.uniform(0, 256, (2, 2))}
        y = m.forward(inputs, mode="train")
        _, grad = smooth_l1(y, r.uniform(0, 256, (2, 2)))
        input_grads = m.backward(grad)
        both_paths &= np.abs(input_grads["image"]).max() > 0
        both_paths &= np.abs(input_grads["motor"]).max() > 0

    try:
        model.forward({"image": np.zeros((1, 3, 256, 256), np.float32)},
                      mode="eval")
        rejects_missing = False
    except GraphError:
        rejects_missing = True
    elapsed = time.time() - t0
    report(9, "outputs in (0,256); gradients reach both inputs (5 seeds); "
              "missing motor rejected",
           in_range and both_paths and rejects_missing and elapsed < 60, elapsed)


def test_c10_checkpoint_roundtrip(tmp_path):
    model = Model(make_discrete_model("2CL-2FC", input_hw=32), seed=4)
    x = np.random.default_rng(9).random((2, 3, 32, 32), dtype=np.float32)
    model.forward({"image": x}, mode="train")  # move running stats
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    bit_identical = bool(np.array_equal(
        model.forward({"image": x}, mode="eval"),
        loaded.forward({"image": x}, mode="eval")))

    blob = path.read_bytes()
    messages = set()
    for name, payload in (("magic", b"ZZZZ" + blob[4:]),
                          ("trunc", blob[:30]),
                          ("version", blob[:4] + bytes([9]) + blob[5:])):
        bad = tmp_path / f"{name}.ckpt"
        bad.write_bytes(payload)
        try:
            load_checkpoint(bad)
            messages.add("no error")
        except CheckpointError as exc:
            messages.add(str(exc))
    report(10, "save->load->forward bit-identical; 3 distinct corruption "
               "diagnostics",
           bit_identical and len(messages) == 3 and "no error" not in messages)


def test_c11_latency_harness():
    t0 = time.time()
    model = Model(make_realvalue_model("4CL-3FC"), seed=0)
    result = bench_forward(model, warmup=50, iters=1000, seed=0)
    gap = abs(result.layer_sum_ns - result.end_to_end_mean_ns)
    within = gap <= 0.10 * result.end_to_end_mean_ns
    lists_all = [t.name for t in result.layers] == list(model.layers)
    elapsed = time.time() - t0
    report(11, f"4CL-3FC 1000-iter bench: layer sums within 10% of "
               f"end-to-end (gap {100 * gap / result.end_to_end_mean_ns:.1f}%), "
               f"every node listed",
           within and lists_all and elapsed < 120, elapsed)


def test_c12_renderer_anchors():
    frame = np.random.default_rng(3).random((3, 256, 256), dtype=np.float32)

    def state(steering=0.0, brake=0.0):
        return TelemetryRecord(0.0, steering, brake, 0.0, 0.0, 0.0)

    cx, cy = DIAL_CENTER
    zero = render_overlay(frame, state(steering=0.0))
    vertical = all(tuple(zero[y, cx]) == ACTUAL_COLOR
                   for y in range(cy - NEEDLE_LEN, cy + 1))
    left = render_overlay(frame, state(steering=90.0))
    horiz_left = all(tuple(left[cy, x]) == ACTUAL_COLOR
                     for x in range(cx - NEEDLE_LEN, cx + 1))
    right = render_overlay(frame, state(steering=-90.0))
    horiz_right = all(tuple(right[cy, x]) == ACTUAL_COLOR
                      for x in range(cx, cx + NEEDLE_LEN + 1))

    row = BAR_ROWS["brake"]
    full = render_overlay(frame, state(brake=256.0))
    full_ok = (tuple(full[row, BAR_X0 + BAR_FULL_W - 1]) == ACTUAL_COLOR
               and tuple(full[row, BAR_X0 + BAR_FULL_W]) != ACTUAL_COLOR)
    empty = render_overlay(frame, state(brake=0.0))
    empty_ok = not any(tuple(px) == ACTUAL_COLOR
                       for px in empty[row, BAR_X0 : BAR_X0 + BAR_FULL_W])

    rerun = np.array_equal(render_overlay(frame, state(steering=42.0, brake=77.0)),
                           render_overlay(frame, state(steering=42.0, brake=77.0)))
    report(12, "needle anchors at 0/+90/-90, brake bar 0/256 extents, "
               "byte-identical rerun",
           vertical and horiz_left and horiz_right and full_ok and empty_ok
           and bool(rerun))


def test_c13_confusion_matrix_identity():
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        batches = int(rng.integers(1, 10))
        bs = 64
        confusion = ConfusionMatrix()
        accs = []
        for _ in range(batches):
            true = rng.integers(1, 4, bs)
            pred = rng.integers(1, 4, bs)
            confusion.add(true, pred)
            accs.append(float(np.mean(true == pred)))
        ok &= abs(confusion.accuracy - float(np.mean(accs))) < 1e-12
    report(13, "trace/sum equals mean per-batch accuracy on full batches", ok)


def test_c14_brake_throttle_learns():
    # the criterion was fixed before the motor fix (seeds, epochs, margin):
    # test-split L1 at most 0.6x the train-mean predictor's, <= 5% of
    # outputs within 1e-3 of the sigmoid's bounds 0 and 256
    t0 = time.time()
    ratios, saturated = [], []
    for seed in range(3):
        split = split_60_20_20(synth_track_dataset(600, image_size=32, seed=seed), seed)
        train_data, val_data, (inputs, targets) = (
            brake_throttle_arrays(pairs)
            for pairs in (split.train, split.validation, split.test))
        model = Model(make_brake_throttle_model(input_hw=32), seed=seed)
        train(model, train_data, val_data,
              TrainConfig(batch_size=16, epochs=20, seed=seed, loss="smooth_l1"))
        out = predict(model, inputs, len(targets))
        mean_l1 = np.abs(train_data[1].mean(axis=0) - targets).mean()
        ratios.append(np.abs(out - targets).mean() / mean_l1)
        saturated.append(np.mean((out < 1e-3) | (out > 256.0 - 1e-3)))
    elapsed = time.time() - t0
    report(14, f"brake/throttle 32x32, 20 epochs, seeds 0-2: test L1 / train-mean "
               f"L1 {', '.join(f'{r:.2f}' for r in ratios)} <= 0.6, saturated "
               f"{max(saturated):.1%} <= 5%",
           max(ratios) <= 0.6 and max(saturated) <= 0.05 and elapsed < 120, elapsed)
