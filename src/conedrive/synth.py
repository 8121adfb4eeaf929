"""Synthetic desk-scale track data: a stand-in corpus with exact labels.

Each frame shows two converging rails of cone-like dots on a road/sky
background. The vanishing point's horizontal offset x is drawn uniformly
over the half-width and fixes the ground truth:

    steering = clamp(-90 * x / half_width, -90, 90)

so a right-shifted vanishing point means steer right (negative), matching
the positive-left convention. Brake, throttle, and motor speeds are smooth
functions of |steering|, recorded below, so every label has an exact oracle.
Dots are splatted bilinearly (sub-pixel), keeping steering recoverable at
better-than-pixel resolution.
"""
from __future__ import annotations

import numpy as np

from .data import FramePair, TelemetryRecord, format_telemetry, scale_signals
from .errors import DataError

FRAME_PERIOD_MS = 125.0  # matches the telemetry cadence of the capture rig
CONE_COLOR = (1.0, 0.55, 0.10)
SKY_GRAY = 0.50
ROAD_GRAY = 0.20
NOISE_SIGMA = 0.02
DOTS_PER_RAIL = 12
MIN_FRAMES = 10  # fewest frames a synthetic dataset may have


def throttle_for(steering: float) -> float:
    """Smooth throttle schedule: fast on straights, gentle in corners."""
    return 256.0 * (0.20 + 0.60 * (1.0 - abs(steering) / 90.0))


def brake_for(steering: float) -> float:
    """Smooth brake schedule: quadratic in corner sharpness."""
    return 256.0 * 0.50 * (abs(steering) / 90.0) ** 2


def motor_raw_for(steering: float) -> tuple[float, float]:
    """Raw (left, right) motor speeds in [0, 20000] with turn differential."""
    base = 0.30 + 0.50 * (1.0 - abs(steering) / 90.0)
    left = base * (1.0 - 0.20 * steering / 90.0)
    right = base * (1.0 + 0.20 * steering / 90.0)
    return 20000.0 * left, 20000.0 * right


def _splat(image: np.ndarray, x: float, y: float, intensity: float) -> None:
    """Bilinear deposit of a dot at sub-pixel (x, y)."""
    h, w = image.shape[1], image.shape[2]
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    fx, fy = x - x0, y - y0
    for dy, wy in ((0, 1 - fy), (1, fy)):
        for dx, wx in ((0, 1 - fx), (1, fx)):
            yy, xx = y0 + dy, x0 + dx
            if 0 <= yy < h and 0 <= xx < w:
                weight = intensity * wy * wx
                for c, col in enumerate(CONE_COLOR):
                    image[c, yy, xx] += weight * col


def render_track_frame(size: int, x_offset: float) -> np.ndarray:
    """Deterministic (3, size, size) frame for a vanishing-point offset."""
    image = np.empty((3, size, size), dtype=np.float32)
    horizon = int(0.35 * size)
    image[:, :horizon, :] = SKY_GRAY
    image[:, horizon:, :] = ROAD_GRAY
    cx = size / 2.0
    vp = (cx + x_offset, float(horizon))
    for base_x in (0.05 * size, 0.95 * size):
        base = (base_x, size - 1.0)
        for i in range(DOTS_PER_RAIL):
            t = (i + 0.5) / DOTS_PER_RAIL
            x = base[0] + t * (vp[0] - base[0])
            y = base[1] + t * (vp[1] - base[1])
            _splat(image, x, y, intensity=1.0 - 0.6 * t)
    return np.clip(image, 0.0, 1.0)


def synth_track_dataset(n: int, image_size: int = 64, seed: int = 0) -> list[FramePair]:
    """Generate n labeled FramePairs; identical bytes for identical seeds."""
    if n < MIN_FRAMES:
        raise DataError(f"synthetic dataset needs n >= {MIN_FRAMES}, got {n}")
    rng = np.random.default_rng(seed)
    half = image_size / 2.0
    pairs = []
    for i in range(n):
        x_offset = float(rng.uniform(-half, half))
        steering = float(np.clip(-90.0 * x_offset / half, -90.0, 90.0))
        image = render_track_frame(image_size, x_offset)
        noise = rng.normal(0.0, NOISE_SIGMA, size=image.shape).astype(np.float32)
        image = np.clip(image + noise, 0.0, 1.0)
        left_raw, right_raw = motor_raw_for(steering)
        raw = TelemetryRecord(
            timestamp=i * FRAME_PERIOD_MS,
            steering=steering,
            brake=brake_for(steering),
            throttle=throttle_for(steering),
            left_motor_speed=left_raw,
            right_motor_speed=right_raw,
        )
        record, _ = scale_signals(raw)
        pairs.append(FramePair(image.astype(np.float32), record, i, i))
    return pairs


def synth_raw_corpus(n: int, image_size: int = 64, seed: int = 0):
    """Raw-unit corpus for exercising the full ingestion pipeline.

    Returns (``format_telemetry``'s CSV text of ``synth_track_dataset``'s
    records, frames as (3,S,S) float arrays, frame timestamps in ms). Frame
    timestamps are offset from the telemetry timestamps by a quarter of the
    frame period so nearest-pairing has actual work to do.
    """
    pairs = synth_track_dataset(n, image_size, seed)
    return (format_telemetry(p.record for p in pairs), [p.image for p in pairs],
            [p.record.timestamp + 0.25 * FRAME_PERIOD_MS for p in pairs])
