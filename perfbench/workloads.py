"""The three benchmark workloads: ``serve``, ``train`` and ``replay``.

Each workload builds its inputs from the benchmark seed in ``setup`` and then
runs *units* of work: a block of control ticks, a training round, or a
replay pass. A unit returns one ``(start_ns, end_ns)`` window per op (tick,
training step, replay pass), the frames it processed, its wall time, and
how many of its ops failed a correctness check. With a ``Tracer`` the unit
also records spans around the calls it makes into the program.

The program is driven only through the public functions of its modules;
instrumentation patches module attributes and object methods from outside
and restores them when the unit ends.
"""
from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field, replace
from time import perf_counter_ns

import numpy as np

from conedrive import (checkpoint, corpus, data, gradcheck, layers, metrics, ppm,
                       synth)
from conedrive.graph import Model
from conedrive.zoo import (make_brake_throttle_model, make_discrete_model,
                           make_realvalue_model)

import oracle
from tracer import patched

# the package re-exports train.train under the submodule's name
train_mod = importlib.import_module("conedrive.train")


@dataclass
class Unit:
    ops: list[tuple[int, int]]          # (start_ns, end_ns) per op
    frames: int                         # frames processed by the unit
    elapsed_ns: int                     # wall time of the whole unit
    failed: int = 0                     # ops whose correctness check failed
    validation: list[tuple[int, int]] = field(default_factory=list)

    @property
    def latencies_ns(self) -> list[int]:
        return [end - start for start, end in self.ops]


def _call(tracer, name, fn, *args, **kwargs):
    """``fn(*args)``, inside a span when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


# --------------------------------------------------------------------------
# serve: the on-car control loop


# A float32 tick must match the float64 reference within RTOL relative plus
# ATOL absolute.
RTOL, ATOL = 1e-4, 1e-5


class Serve:
    """Closed loop, one client, batch 1: each op is one control tick.

    A tick runs the real-value 4CL-3FC steering net and the brake/throttle
    DAG in eval mode on one frame and its motor pair, taken in a seeded
    order from a pool of distinct synthetic frames.
    """

    def __init__(self, image_size: int = 256, pool: int = 16, block: int = 32,
                 warmup: int = 8):
        self.image_size = image_size
        self.pool = pool
        self.block = block
        self.warmup = warmup

    def setup(self, seed: int, work_dir: str, tracer=None) -> None:
        size = self.image_size
        rng = np.random.default_rng(seed)
        pairs = _call(tracer, "synth.dataset", synth.synth_track_dataset,
                      self.pool, size, seed)
        self.synth_frames = self.pool
        self.images = [p.image[None] for p in pairs]
        self.motors = [np.array([[p.record.left_motor_speed,
                                  p.record.right_motor_speed]], dtype=np.float32)
                       for p in pairs]
        self.steer = Model(make_realvalue_model("4CL-3FC", input_hw=size),
                           seed=int(rng.integers(2**31)))
        self.bt = Model(make_brake_throttle_model(input_hw=size),
                        seed=int(rng.integers(2**31)))
        for model in (self.steer, self.bt):
            _deploy_batchnorm(model, rng)
        self.expected = self._reference()
        self.order = rng.permutation(self.pool)
        self.cursor = 0
        for i in range(self.warmup):
            self._tick(self.order[i % self.pool])

    def _reference(self):
        """Expected (steering, pedals) per pool frame, from the reference pass."""
        return [(oracle.forward(self.steer, {"image": image})[0],
                 oracle.forward(self.bt, {"image": image, "motor": motor})[0])
                for image, motor in zip(self.images, self.motors)]

    def _tick(self, k):
        steering = self.steer.forward({"image": self.images[k]}, mode="eval")
        pedals = self.bt.forward({"image": self.images[k], "motor": self.motors[k]},
                                 mode="eval")
        return steering, pedals

    def check(self, k, steering, pedals) -> bool:
        want_s, want_p = self.expected[k]
        return bool(
            steering.shape == (1, 1) and pedals.shape == (1, 2)
            and np.all(np.isfinite(steering)) and np.all(np.isfinite(pedals))
            and np.all((steering >= -90.0) & (steering <= 90.0))
            and np.all((pedals >= 0.0) & (pedals <= 256.0))
            and np.allclose(steering[0], want_s, rtol=RTOL, atol=ATOL)
            and np.allclose(pedals[0], want_p, rtol=RTOL, atol=ATOL)
        )

    def run_unit(self, tracer=None) -> Unit:
        if tracer is not None:
            tracer.instrument_model(self.steer, "steer.")
            tracer.instrument_model(self.bt, "bt.")
        ops, failed = [], 0
        t0 = perf_counter_ns()
        try:
            for _ in range(self.block):
                k = self.order[self.cursor % self.pool]
                self.cursor += 1
                start = perf_counter_ns()
                steering, pedals = self._tick(k)
                ops.append((start, perf_counter_ns()))
                failed += not self.check(k, steering, pedals)
        finally:
            if tracer is not None:
                tracer.restore()
        return Unit(ops, frames=len(ops), elapsed_ns=perf_counter_ns() - t0,
                    failed=failed)


def _deploy_batchnorm(model: Model, rng: np.random.Generator) -> None:
    """Give every batch-norm layer seeded non-trivial affine and running
    statistics, as a trained controller would carry."""
    tensors = {}
    for name, value in model.state_tensors():
        stat = name.rsplit("/", 1)[1]
        if stat in ("gamma", "running_var"):
            value = rng.uniform(0.5, 1.5, value.shape)
        elif stat in ("beta", "running_mean"):
            value = rng.uniform(-0.1, 0.1, value.shape)
        tensors[name] = np.asarray(value, dtype=np.float32)
    model.load_state_tensors(tensors)


# --------------------------------------------------------------------------
# train: the desk training path (acceptance criterion c07)


GRAD_TOL = 1e-5         # as the acceptance gradient check (c01)
# A float32 SGD update p - lr*g must match the float64 one within this many
# units of |p| + |lr*g| (two roundings of at most 6e-8 each).
UPDATE_TOL = 4e-7
# Training-set L1 of the trained model over the untrained one's, on the same
# batches: 0.930-0.978 over seeds 0-29. A model that is never updated gives
# exactly 1.
MAX_FIT_RATIO = 0.99


class Train:
    """Real-value 3CL-2FC at 64x64, batch 64, smooth L1, lr 0.01 * 0.95^e.

    A unit is one round: a fresh seeded model trained with ``train.train``
    for whole epochs with validation, then ``save_checkpoint``. Each op is
    one training step: batch gather, forward, loss, backward and SGD.
    """

    def __init__(self, frames: int = 1000, image_size: int = 64, epochs: int = 6,
                 batch_size: int = 64, l1_ratio_range=(0.90, 1.06)):
        # Final validation L1 over the all-zero predictor's L1 (mean
        # |steering|) after six epochs, measured over seeds 0-59: 0.950-1.004.
        # The range adds the spread's width on each side, so a reseeded
        # shuffle or a reordered reduction still passes.
        self.l1_ratio_range = l1_ratio_range
        self.frames = frames
        self.image_size = image_size
        self.epochs = epochs
        self.batch_size = batch_size

    def setup(self, seed: int, work_dir: str, tracer=None) -> None:
        pairs = _call(tracer, "synth.dataset", synth.synth_track_dataset,
                      self.frames, self.image_size, seed)
        self.synth_frames = self.frames
        split = data.split_60_20_20(pairs, seed)
        self.train_data = data.regression_arrays(split.train)
        self.val_data = data.regression_arrays(split.validation)
        self.zero_l1 = float(np.abs(self.val_data[1]).mean())
        self.spec = make_realvalue_model("3CL-2FC", input_hw=self.image_size)
        self.seed = seed
        self.config = train_mod.TrainConfig(
            initial_lr=0.01, decay=0.95, epochs=self.epochs, seed=seed,
            loss="smooth_l1", batch_size=self.batch_size)
        self.path = os.path.join(work_dir, "train.ckpt")
        self.first_history = None
        self.optimizer_ok = self._warm_up()

    def _warm_up(self) -> bool:
        """Warm the step path with two epochs on a two-batch slice, checking
        the parts of a step that the round's results cannot tell apart: each
        epoch's batches hold every slice frame once, each loss gets its
        frames' targets, and each SGD step moves every parameter by exactly
        -lr * grad."""
        warm = 2 * self.batch_size
        inputs, targets = _head(self.train_data, warm)
        row_of = {image.tobytes(): i for i, image in enumerate(inputs["image"])}
        batches, losses, updates = [], [], []

        def gather(forward):
            def recorded(batch, mode, **kwargs):
                if mode == "train":
                    batches.append([row_of.get(x.tobytes(), -1) for x in batch["image"]])
                return forward(batch, mode, **kwargs)
            return recorded

        def loss(fn):
            def recorded(out, target):
                losses.append(np.array(target))
                return fn(out, target)
            return recorded

        def sgd(step):
            def checked(model, lr):
                params = [p for _, p in model.parameters()]
                if any(p.grad is None for p in params):
                    updates.append(False)
                    return step(model, lr)
                moves = [(p.value.astype(np.float64), lr * p.grad.astype(np.float64))
                         for p in params]
                step(model, lr)
                updates.append(all(
                    np.all(np.abs(p.value - (before - move))
                           <= UPDATE_TOL * (np.abs(before) + np.abs(move)))
                    for p, (before, move) in zip(params, moves)))
            return checked

        model = Model(self.spec, seed=self.seed)
        with (patched(model, "forward", gather),
              patched(train_mod, "smooth_l1", loss),
              patched(train_mod, "sgd_step", sgd)):
            result = train_mod.train(model, (inputs, targets),
                                     _head(self.val_data, warm),
                                     replace(self.config, epochs=2))
        per_epoch = result.steps_per_epoch
        epochs = [sorted(r for b in batches[e:e + per_epoch] for r in b)
                  for e in range(0, len(batches), per_epoch)]
        return bool(
            not result.diverged and len(updates) == 2 * per_epoch and all(updates)
            and all(rows == list(range(warm)) for rows in epochs)
            and len(losses) == len(batches)
            and all(np.array_equal(t, targets[b]) for t, b in zip(losses, batches)))

    def run_unit(self, tracer=None) -> Unit:
        model = Model(self.spec, seed=self.seed)
        steps, epoch_ends = [], []

        def marked(step):
            def timed(model, lr):
                step(model, lr)
                steps.append((perf_counter_ns(), lr))
            return timed

        if tracer is not None:
            tracer.instrument_model(model)
            tracer.patch(layers, "col2im", "layers.col2im")
            tracer.patch(train_mod, "sgd_step", "train.sgd_step")
            for loss in ("smooth_l1", "softmax_cross_entropy"):
                tracer.patch(train_mod, loss, "train.loss")
        try:
            with patched(train_mod, "sgd_step", marked):
                t0 = perf_counter_ns()
                result = train_mod.train(
                    model, self.train_data, self.val_data, self.config,
                    log=lambda stats: epoch_ends.append(perf_counter_ns()))
                _call(tracer, "checkpoint.save", checkpoint.save_checkpoint,
                      model, self.path)
                t1 = perf_counter_ns()
        finally:
            if tracer is not None:
                tracer.restore()
        ops, validation = _step_windows(t0, [t for t, _ in steps], epoch_ends)
        ok = self.optimizer_ok and self.check(result, model, [lr for _, lr in steps])
        return Unit(ops, frames=len(ops) * self.batch_size, elapsed_ns=t1 - t0,
                    failed=0 if ok else len(ops), validation=validation)

    def check(self, result, model, rates) -> bool:
        """No divergence, the expected step count, each step at its epoch's
        rate lr0 * decay^e, a final validation L1 in the measured range,
        identical history on every round, a checkpoint that reloads
        bit-exact, and on the first round, gradients that agree with finite
        differences and a training-set fit that improved."""
        history = [(s.epoch, s.val_metric, s.train_loss) for s in result.history]
        if self.first_history is None:
            self.first_history = history
            if self._gradient_error(model) > GRAD_TOL:
                return False
            trained = checkpoint.load_checkpoint(self.path)
            untrained = Model(self.spec, seed=self.seed)
            if self._fit(trained) > MAX_FIT_RATIO * self._fit(untrained):
                return False
        per_epoch = result.steps_per_epoch
        schedule = [self.config.initial_lr * self.config.decay ** (i // per_epoch)
                    for i in range(self.epochs * per_epoch)]
        if (result.diverged or len(history) != self.epochs
                or result.steps != self.epochs * per_epoch
                or len(rates) != len(schedule)
                or not np.allclose(rates, schedule, rtol=1e-12, atol=0)
                or history != self.first_history):
            return False
        final = history[-1][1]
        lo, hi = self.l1_ratio_range
        if not (np.isfinite(final) and lo <= final / self.zero_l1 <= hi):
            return False
        saved = dict(model.state_tensors())
        loaded = dict(checkpoint.load_checkpoint(self.path).state_tensors())
        return saved.keys() == loaded.keys() and all(
            np.array_equal(saved[k], loaded[k]) for k in saved)

    def _fit(self, model) -> float:
        """Train-mode mean absolute error over the training set's full
        batches. Train mode normalizes by batch statistics, so trained and
        untrained models are compared alike; it updates ``model``'s running
        statistics, so pass a copy."""
        inputs, targets = self.train_data
        bs = self.batch_size
        return float(np.mean([
            np.abs(model.forward({k: v[i:i + bs] for k, v in inputs.items()},
                                 mode="train") - targets[i:i + bs]).mean()
            for i in range(0, len(targets) - bs + 1, bs)]))

    def _gradient_error(self, model) -> float:
        """Worst finite-difference error of a float64 twin's gradients on two
        training frames (the backward pass is not otherwise checked)."""
        twin = Model(self.spec, seed=self.seed, dtype=np.float64)
        twin.load_state_tensors(dict(model.state_tensors()))
        inputs, targets = _head(self.train_data, 2)
        inputs = {k: v.astype(np.float64) for k, v in inputs.items()}
        target = targets.astype(np.float64)
        return gradcheck.grad_check_model(
            twin, inputs, lambda out: layers.smooth_l1(out, target),
            seed=self.seed, max_coords=8)


def _head(arrays, n):
    inputs, targets = arrays
    return {k: v[:n] for k, v in inputs.items()}, targets[:n]


def _step_windows(t0, step_ends, epoch_ends):
    """Step windows and validation windows from the round's event times.

    A step runs from the previous event (round start, step end or epoch end)
    to its own SGD end; validation runs from an epoch's last step end to the
    epoch's log callback.
    """
    events = sorted([(t, "step") for t in step_ends]
                    + [(t, "epoch") for t in epoch_ends])
    steps, validate = [], []
    last = t0
    for t, kind in events:
        (steps if kind == "step" else validate).append((last, t))
        last = t
    return steps, validate


# --------------------------------------------------------------------------
# replay: offline evaluation of a recorded drive


NEAR_TIE = 1e-6


class Replay:
    """A pass re-reads a recorded drive and evaluates a checkpoint on it.

    Setup writes a corpus in the capture format: raw-unit telemetry CSV,
    PPM frames wider than tall and larger than the network input, and the
    frames index sidecar. Each op is one pass: ``prep_corpus``, then
    ``load_pairs`` (decode, centre-crop, resize) for every split,
    ``classification_arrays``, ``load_checkpoint``, and
    ``eval_classification`` with a discrete 3CL-2FC at batch 64.
    """

    def __init__(self, frames: int = 680, frame_size: int = 128, pad: int = 16,
                 image_size: int = 64, batch_size: int = 64):
        if frame_size != 2 * image_size:
            raise ValueError("the pixel check needs frames twice the network input")
        self.frames = frames
        self.frame_size = frame_size
        self.pad = pad
        self.image_size = image_size
        self.batch_size = batch_size

    def setup(self, seed: int, work_dir: str, tracer=None) -> None:
        self.seed = seed
        csv_text, images, stamps = _call(
            tracer, "synth.dataset", synth.synth_raw_corpus,
            self.frames, self.frame_size, seed)
        self.synth_frames = self.frames
        rng = np.random.default_rng(seed)
        self.telemetry = os.path.join(work_dir, "telemetry.csv")
        self.frames_dir = os.path.join(work_dir, "frames")
        os.makedirs(self.frames_dir, exist_ok=True)
        with open(self.telemetry, "w") as fh:
            fh.write(csv_text)
        index_lines = ["frame_index\ttimestamp_ms"]
        expected_pixels = []
        for i, (image, stamp) in enumerate(zip(images, stamps)):
            u8 = _widen(ppm.to_u8(image), self.pad, rng)
            ppm.write_ppm(os.path.join(self.frames_dir, corpus.frame_filename(i)), u8)
            index_lines.append(f"{i}\t{stamp:.1f}")
            expected_pixels.append(_centre_block_mean(u8, self.pad))
        with open(os.path.join(self.frames_dir, corpus.FRAMES_INDEX), "w") as fh:
            fh.write("\n".join(index_lines) + "\n")
        self.expected_pixels = np.stack(expected_pixels)
        self.expected_classes = _classes_from_csv(csv_text)
        model = Model(make_discrete_model("3CL-2FC", input_hw=self.image_size),
                      seed=int(rng.integers(2**31)))
        _deploy_batchnorm(model, rng)
        # An untrained head predicts one class everywhere; centring its
        # logits over the drive makes predictions depend on the frame.
        bias = f"{model.spec.output}/bias"
        tensors = dict(model.state_tensors())
        logits = np.concatenate([
            oracle.forward(model, {"image": self.expected_pixels[i:i + 64]})
            for i in range(0, self.frames, 64)])
        old = tensors[bias].astype(np.float64)
        tensors[bias] = (old - logits.mean(axis=0)).astype(np.float32)
        model.load_state_tensors(tensors)
        logits += tensors[bias] - old
        self.checkpoint = os.path.join(work_dir, "replay.ckpt")
        _call(tracer, "checkpoint.save", checkpoint.save_checkpoint, model,
              self.checkpoint)
        top2 = np.sort(logits, axis=1)[:, -2:]
        self.expected_predictions = logits.argmax(axis=1) + 1
        # the program computes in float32, within 1e-7 of the reference here;
        # a frame whose two best logits are closer than NEAR_TIE may flip
        self.near_tie = top2[:, 1] - top2[:, 0] < NEAR_TIE

    def _pass(self, tracer):
        split, _, _ = _call(tracer, "corpus.prep", corpus.prep_corpus,
                            self.telemetry, self.frames_dir, self.seed)
        pairs = {}
        for name, members in (("train", split.train), ("val", split.validation),
                              ("test", split.test)):
            rows = [(p.log_row, p.frame_index) for p in members]
            pairs[name] = _call(tracer, "corpus.load_pairs", corpus.load_pairs,
                                rows, self.telemetry, self.frames_dir,
                                self.image_size)
        model = _call(tracer, "checkpoint.load", checkpoint.load_checkpoint,
                      self.checkpoint)
        if tracer is not None:
            tracer.instrument_model(model)
        reports = {}
        for name, split_pairs in pairs.items():
            inputs, targets = _call(tracer, "data.arrays",
                                    data.classification_arrays, split_pairs)
            reports[name] = _call(tracer, "metrics.eval",
                                  metrics.eval_classification, model, inputs,
                                  targets, self.batch_size)
        return reports, pairs

    def run_unit(self, tracer=None) -> Unit:
        if tracer is not None:
            tracer.patch(corpus, "load_image", "ppm.load_image")
        try:
            start = perf_counter_ns()
            reports, pairs = self._pass(tracer)
            end = perf_counter_ns()
        finally:
            if tracer is not None:
                tracer.restore()
        ok = self.check(reports, pairs) and self._check_inputs(pairs)
        return Unit([(start, end)], frames=self.frames, elapsed_ns=end - start,
                    failed=0 if ok else 1)

    def check(self, reports, pairs) -> bool:
        """Every full batch counted and partial ones dropped, and confusion
        counts from the reference pass's predictions, except where its two
        best logits nearly tie."""
        total = 0
        for name, r in reports.items():
            n = len(pairs[name])
            total += n
            if (r.batches != n // self.batch_size
                    or r.frames_evaluated != r.batches * self.batch_size
                    or r.frames_dropped != n - r.frames_evaluated
                    or abs(r.batch_accuracy - r.global_accuracy) > 1e-12):
                return False
            frames = [p.frame_index for p in pairs[name]][:r.frames_evaluated]
            want = np.zeros((3, 3), dtype=np.int64)
            np.add.at(want, (self.expected_classes[frames] - 1,
                             self.expected_predictions[frames] - 1), 1)
            if np.abs(r.confusion.counts - want).sum() > 2 * self.near_tie[frames].sum():
                return False
        return total == self.frames * 6 // 10 + 2 * (self.frames * 2 // 10)

    def _check_inputs(self, pairs) -> bool:
        """Decoded pixels and labels round-trip from what setup wrote."""
        for split_pairs in pairs.values():
            for p in split_pairs:
                if p.frame_index != p.log_row:
                    return False
                want = self.expected_pixels[p.frame_index]
                if not np.allclose(p.image, want, rtol=0, atol=1e-6):
                    return False
            _, targets = data.classification_arrays(split_pairs)
            want = self.expected_classes[[p.log_row for p in split_pairs]]
            if not np.array_equal(targets, want):
                return False
        return True


def _widen(u8: np.ndarray, pad: int, rng: np.random.Generator) -> np.ndarray:
    """Pad a square (H, W, 3) frame with ``pad`` noise columns each side, so
    only a centre crop recovers it."""
    h = u8.shape[0]
    side = rng.integers(0, 256, size=(h, pad, 3), dtype=np.uint8)
    other = rng.integers(0, 256, size=(h, pad, 3), dtype=np.uint8)
    return np.concatenate([side, u8, other], axis=1)


def _centre_block_mean(u8: np.ndarray, pad: int) -> np.ndarray:
    """Independent expected decode: the centre square averaged over 2x2
    blocks, which is what bilinear resampling to half size computes, as
    (3, H/2, H/2) float32 in [0, 1]."""
    square = u8[:, pad:u8.shape[1] - pad].astype(np.float64) / 255.0
    blocks = (square[0::2, 0::2] + square[0::2, 1::2]
              + square[1::2, 0::2] + square[1::2, 1::2]) / 4.0
    return blocks.transpose(2, 0, 1).astype(np.float32)


def _classes_from_csv(csv_text: str) -> np.ndarray:
    """Steering classes (left 1, straight 2, right 3) read straight from the
    written telemetry, by the documented thresholds."""
    steering = np.array([float(line.split(",")[1])
                         for line in csv_text.splitlines()[1:] if line.strip()])
    return np.where(steering > 10.0, 1, np.where(steering < -10.0, 3, 2))


WORKLOADS = {"serve": Serve, "train": Train, "replay": Replay}
