"""Telemetry ingestion, pairing, splits, discretization, and augmentation.

Sign convention used throughout: steering is positive to the LEFT, so the
'left' class is steering > 10 and shifting image content to the right
(cones displaced rightward, car displaced leftward) decreases the steering
label. Motor speeds arrive raw in [0, 20000] and are scaled to [0, 256].
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from .errors import DataError

TELEMETRY_HEADER = "timestamp,steering,brake,throttle,left_motor_speed,right_motor_speed"
STEERING_RANGE = (-90.0, 90.0)
PEDAL_RANGE = (0.0, 256.0)  # brake, throttle and scaled motor speeds
MOTOR_RAW_MAX = 20000.0
MOTOR_SCALE = PEDAL_RANGE[1] / MOTOR_RAW_MAX
SHIFT_DEGREES_PER_PIXEL = 0.15


@dataclass(frozen=True)
class TelemetryRecord:
    timestamp: float  # milliseconds
    steering: float
    brake: float
    throttle: float
    left_motor_speed: float
    right_motor_speed: float


@dataclass
class FramePair:
    """A camera frame joined to the telemetry record nearest in time.

    ``image`` is (3, H, W) float32 in [0, 1]; it stays None between the
    pairing step and image loading.
    """
    image: np.ndarray | None
    record: TelemetryRecord
    log_row: int
    frame_index: int


@dataclass
class DatasetSplit:
    train: list[FramePair]
    validation: list[FramePair]
    test: list[FramePair]
    seed: int
    dropped: int


class SteeringClass(IntEnum):
    LEFT = 1
    STRAIGHT = 2
    RIGHT = 3


def parse_telemetry(text: str):
    """Parse a telemetry CSV into records plus the skipped row numbers.

    Rows with the wrong field count, non-numeric fields, or a timestamp that
    steps backwards are skipped and reported by 1-based line number. A
    missing/incorrect header or zero valid rows is an error.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != TELEMETRY_HEADER:
        raise DataError(
            f"telemetry header must be '{TELEMETRY_HEADER}', got "
            f"{lines[0].strip() if lines else '(empty file)'!r}"
        )
    records: list[TelemetryRecord] = []
    skipped: list[int] = []
    last_ts = -math.inf
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 6:
            skipped.append(lineno)
            continue
        try:
            values = [float(f) for f in fields]
        except ValueError:
            skipped.append(lineno)
            continue
        if not all(math.isfinite(v) for v in values) or values[0] < last_ts:
            skipped.append(lineno)
            continue
        last_ts = values[0]
        records.append(TelemetryRecord(*values))
    if not records:
        raise DataError("telemetry contains no valid rows")
    return records, skipped


def format_telemetry(records) -> str:
    """Scaled records as the telemetry CSV ``parse_telemetry`` reads, in the
    capture format's raw units: motor speeds are unscaled by MOTOR_SCALE."""
    rows = [TELEMETRY_HEADER] + [
        f"{r.timestamp:.1f},{r.steering:.4f},{r.brake:.4f},{r.throttle:.4f},"
        f"{r.left_motor_speed / MOTOR_SCALE:.1f},{r.right_motor_speed / MOTOR_SCALE:.1f}"
        for r in records]
    return "\n".join(rows) + "\n"


def clamp(value: float, lo: float, hi: float):
    """``value`` limited to [lo, hi], and whether that changed it."""
    clamped = min(max(value, lo), hi)
    return clamped, clamped != value


def scale_signals(record: TelemetryRecord):
    """Scale raw motor speeds to [0, 256]; clamp any out-of-range field.

    Returns (scaled record, number of clamped fields).
    """
    warnings = 0
    lm, c = clamp(record.left_motor_speed, 0.0, MOTOR_RAW_MAX)
    warnings += c
    rm, c = clamp(record.right_motor_speed, 0.0, MOTOR_RAW_MAX)
    warnings += c
    steering, c = clamp(record.steering, *STEERING_RANGE)
    warnings += c
    brake, c = clamp(record.brake, *PEDAL_RANGE)
    warnings += c
    throttle, c = clamp(record.throttle, *PEDAL_RANGE)
    warnings += c
    scaled = replace(record, steering=steering, brake=brake, throttle=throttle,
                     left_motor_speed=lm * MOTOR_SCALE,
                     right_motor_speed=rm * MOTOR_SCALE)
    return scaled, warnings


def scale_records(records):
    """Scale a whole log; returns (records, total clamp warnings)."""
    out, warnings = [], 0
    for record in records:
        scaled, w = scale_signals(record)
        out.append(scaled)
        warnings += w
    return out, warnings


def pair_nearest(records, frame_timestamps) -> list[FramePair]:
    """Join each record to the frame whose timestamp is nearest.

    Ties break toward the earlier frame: on equal distances, and through
    runs of duplicate or rounding-equal frame timestamps, the earliest frame
    wins. Both inputs must be non-empty and sorted by time. One
    ``searchsorted`` places every record; the per-record loop it replaced is
    kept as ``pair_nearest_reference`` in the tests' ``reference_twins``.
    """
    ts = np.asarray(frame_timestamps, dtype=np.float64)
    if len(records) == 0 or ts.size == 0:
        raise DataError("pair_nearest needs non-empty records and frames")
    if np.any(np.diff(ts) < 0):
        raise DataError("frame timestamps must be sorted")
    t = np.array([record.timestamp for record in records], dtype=np.float64)
    pos = np.searchsorted(ts, t)
    before = np.maximum(pos - 1, 0)
    after = np.minimum(pos, ts.size - 1)
    # the frame after wins only when strictly nearer, or when none is before
    take_after = (pos == 0) | ((pos < ts.size)
                               & (np.abs(ts[after] - t) < np.abs(ts[before] - t)))
    best = np.where(take_after, after, before)
    dist = np.abs(ts[best] - t)
    # the earliest of a run of duplicates of the chosen frame's timestamp
    best = np.searchsorted(ts, ts[best])
    # a distinct earlier timestamp at a rounding-equal distance is rare:
    # walk those back one frame at a time
    for i in np.flatnonzero((best > 0) & (np.abs(ts[best - 1] - t) == dist)):
        while best[i] > 0 and abs(ts[best[i] - 1] - t[i]) == dist[i]:
            best[i] -= 1
    return [FramePair(None, record, row, int(first))
            for row, (record, first) in enumerate(zip(records, best))]


def split_60_20_20(pairs, seed: int) -> DatasetSplit:
    """Seeded 60/20/20 split with floor sizes; leftovers (at most 2) dropped."""
    n = len(pairs)
    if n < 5:
        raise DataError(f"need at least 5 pairs to split, got {n}")
    n_train = n * 6 // 10
    n_val = n * 2 // 10
    n_test = n * 2 // 10
    order = np.random.default_rng(seed).permutation(n)
    picks = [pairs[i] for i in order]
    train = picks[:n_train]
    val = picks[n_train : n_train + n_val]
    test = picks[n_train + n_val : n_train + n_val + n_test]
    return DatasetSplit(train, val, test, seed, n - (n_train + n_val + n_test))


def discretize_steering(steering: float) -> SteeringClass:
    """Left is steering > 10, straight is -10 <= steering <= 10 (inclusive),
    right is steering < -10."""
    if steering > 10.0:
        return SteeringClass.LEFT
    if steering < -10.0:
        return SteeringClass.RIGHT
    return SteeringClass.STRAIGHT


def shift_augment(pair: FramePair, shift_px: int,
                  k: float = SHIFT_DEGREES_PER_PIXEL) -> FramePair:
    """Translate the frame horizontally and correct the steering label.

    Positive shift moves content to the right; vacated columns are filled
    with the per-channel mean of the original frame. The label becomes
    clamp(original - k * shift_px, -90, 90).
    """
    image = pair.image
    if image is None:
        raise DataError("shift_augment needs a loaded image")
    w = image.shape[2]
    if abs(shift_px) >= w:
        raise DataError(f"|shift_px| must be < image width {w}, got {shift_px}")
    fill = image.mean(axis=(1, 2), keepdims=True)
    shifted = np.empty_like(image)
    if shift_px > 0:
        shifted[:, :, shift_px:] = image[:, :, : w - shift_px]
        shifted[:, :, :shift_px] = fill
    elif shift_px < 0:
        shifted[:, :, : w + shift_px] = image[:, :, -shift_px:]
        shifted[:, :, w + shift_px :] = fill
    else:
        shifted = image.copy()
    steering = float(np.clip(pair.record.steering - k * shift_px, *STEERING_RANGE))
    record = replace(pair.record, steering=steering)
    return FramePair(shifted, record, pair.log_row, pair.frame_index)


MIXED_NORMAL_SHARE = 0.15


def mixed_split(size: int) -> tuple[int, int]:
    """(normal, shifted) frame counts of a mixed set of ``size`` frames."""
    n_normal = round(MIXED_NORMAL_SHARE * size)
    return n_normal, size - n_normal


def build_mixed_set(normal_pairs, shifted_pairs, size: int, seed: int):
    """Seeded evaluation mix of ``mixed_split(size)`` normal and shifted frames."""
    n_normal, n_shifted = mixed_split(size)
    if n_normal > len(normal_pairs) or n_shifted > len(shifted_pairs):
        raise DataError(
            f"mixed set of {size} needs {n_normal} normal and {n_shifted} "
            f"shifted frames; have {len(normal_pairs)}/{len(shifted_pairs)}"
        )
    rng = np.random.default_rng(seed)
    take_n = rng.choice(len(normal_pairs), size=n_normal, replace=False)
    take_s = rng.choice(len(shifted_pairs), size=n_shifted, replace=False)
    return [normal_pairs[i] for i in take_n] + [shifted_pairs[i] for i in take_s]


def classification_arrays(pairs):
    """(inputs, targets) arrays for the discrete steering task (1-based classes)."""
    x = np.stack([p.image for p in pairs]).astype(np.float32, copy=False)
    y = np.array([int(discretize_steering(p.record.steering)) for p in pairs],
                 dtype=np.int64)
    return {"image": x}, y


def regression_arrays(pairs):
    """(inputs, targets) arrays for the real-value steering task."""
    x = np.stack([p.image for p in pairs]).astype(np.float32, copy=False)
    y = np.array([[p.record.steering] for p in pairs], dtype=np.float32)
    return {"image": x}, y


BRAKE_THROTTLE_CHANNELS = ("brake", "throttle")


def brake_throttle_arrays(pairs):
    """(inputs, targets) arrays for the brake/throttle task; "motor" is the
    scaled (left, right) speed pair as a fraction of full scale
    (``PEDAL_RANGE[1]``), and the target columns follow
    ``BRAKE_THROTTLE_CHANNELS``."""
    x = np.stack([p.image for p in pairs]).astype(np.float32, copy=False)
    motor = np.array(
        [[p.record.left_motor_speed, p.record.right_motor_speed] for p in pairs],
        dtype=np.float32,
    ) / np.float32(PEDAL_RANGE[1])
    y = np.array([[getattr(p.record, c) for c in BRAKE_THROTTLE_CHANNELS]
                  for p in pairs], dtype=np.float32)
    return {"image": x, "motor": motor}, y
