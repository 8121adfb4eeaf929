"""Composite review frames: camera image atop a driving-state strip.

Layout (fixed): a 256x256 camera region over a 100-pixel status strip, total
356 rows by 256 columns. The strip holds, left to right, a steering dial and
horizontal bars for brake, throttle, left motor, right motor (full scale
256). The needle is drawn at ``steering`` degrees from vertical, positive to
the LEFT of vertical, matching the positive-left steering convention.
Actual state renders white, predicted state amber. Out-of-range values are
clamped and flagged by a red corner marker. Rendering is a pure function of
its inputs: identical inputs yield identical bytes.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .data import PEDAL_RANGE, STEERING_RANGE, FramePair, TelemetryRecord, clamp
from .errors import DataError
from .ppm import to_u8, write_ppm

CAMERA_SIZE = 256
STRIP_HEIGHT = 100
FRAME_SHAPE = (CAMERA_SIZE + STRIP_HEIGHT, CAMERA_SIZE, 3)

STRIP_BG = (40, 40, 40)
ACTUAL_COLOR = (255, 255, 255)
PREDICTED_COLOR = (255, 191, 0)
FLAG_COLOR = (220, 30, 30)
DIAL_RING_COLOR = (110, 110, 110)

DIAL_CENTER = (50, CAMERA_SIZE + 50)  # (x, y)
DIAL_RADIUS = 42
NEEDLE_LEN = 38
PREDICTED_NEEDLE_LEN = 28

BAR_X0 = 112
BAR_FULL_W = 128
BAR_HEIGHT = 10
PREDICTED_BAR_HEIGHT = 4
BAR_ROWS = {  # top row of each actual bar, in strip coordinates
    "brake": CAMERA_SIZE + 8,
    "throttle": CAMERA_SIZE + 31,
    "left_motor": CAMERA_SIZE + 54,
    "right_motor": CAMERA_SIZE + 77,
}
FLAG_BOX = (250, CAMERA_SIZE + 2, 4)  # (x0, y0, side)


@dataclass(frozen=True)
class Prediction:
    """Model outputs to juxtapose with the actual state; all optional."""
    steering: float | None = None
    brake: float | None = None
    throttle: float | None = None


def _draw_line(canvas, x0, y0, x1, y1, color):
    """Integer Bresenham line."""
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    x, y = x0, y0
    while True:
        if 0 <= y < canvas.shape[0] and 0 <= x < canvas.shape[1]:
            canvas[y, x] = color
        if x == x1 and y == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy


def _draw_ring(canvas, cx, cy, radius, color):
    for step in range(8 * radius):
        angle = step * math.pi / (4 * radius)
        x = cx + int(round(radius * math.cos(angle)))
        y = cy + int(round(radius * math.sin(angle)))
        if 0 <= y < canvas.shape[0] and 0 <= x < canvas.shape[1]:
            canvas[y, x] = color


def _draw_needle(canvas, steering_deg, length, color):
    cx, cy = DIAL_CENTER
    theta = math.radians(steering_deg)
    x1 = cx - int(round(length * math.sin(theta)))
    y1 = cy - int(round(length * math.cos(theta)))
    _draw_line(canvas, cx, cy, x1, y1, color)


def _bar_width(value: float) -> int:
    return int(round(value * BAR_FULL_W / PEDAL_RANGE[1]))


def _draw_bar(canvas, top, value, height, color):
    width = _bar_width(value)
    if width > 0:
        canvas[top : top + height, BAR_X0 : BAR_X0 + width] = color


def render_overlay(frame: np.ndarray, actual: TelemetryRecord,
                   predicted: Prediction | None = None) -> np.ndarray:
    """Compose one (356, 256, 3) uint8 review frame.

    ``frame`` is the (3, 256, 256) camera image in [0, 1]; its pixels land
    in the camera region unchanged (bit-equal after the uint8 round trip).
    """
    if frame.shape != (3, CAMERA_SIZE, CAMERA_SIZE):
        raise DataError(
            f"overlay expects a (3, {CAMERA_SIZE}, {CAMERA_SIZE}) frame, "
            f"got {frame.shape}"
        )
    canvas = np.zeros(FRAME_SHAPE, dtype=np.uint8)
    canvas[:CAMERA_SIZE] = to_u8(frame)
    canvas[CAMERA_SIZE:] = STRIP_BG

    flagged = False
    steering, c = clamp(actual.steering, *STEERING_RANGE)
    flagged |= c
    values = {}
    for key, raw in (("brake", actual.brake), ("throttle", actual.throttle),
                     ("left_motor", actual.left_motor_speed),
                     ("right_motor", actual.right_motor_speed)):
        values[key], c = clamp(raw, *PEDAL_RANGE)
        flagged |= c

    _draw_ring(canvas, DIAL_CENTER[0], DIAL_CENTER[1], DIAL_RADIUS, DIAL_RING_COLOR)
    for key, top in BAR_ROWS.items():
        _draw_bar(canvas, top, values[key], BAR_HEIGHT, ACTUAL_COLOR)

    if predicted is not None:
        if predicted.steering is not None:
            pred_steer, c = clamp(predicted.steering, *STEERING_RANGE)
            flagged |= c
            _draw_needle(canvas, pred_steer, PREDICTED_NEEDLE_LEN, PREDICTED_COLOR)
        for key, raw in (("brake", predicted.brake), ("throttle", predicted.throttle)):
            if raw is None:
                continue
            value, c = clamp(raw, *PEDAL_RANGE)
            flagged |= c
            _draw_bar(canvas, BAR_ROWS[key] + BAR_HEIGHT + 1, value,
                      PREDICTED_BAR_HEIGHT, PREDICTED_COLOR)

    # actual needle drawn last so it stays visible over the predicted one
    _draw_needle(canvas, steering, NEEDLE_LEN, ACTUAL_COLOR)

    if flagged:
        x0, y0, side = FLAG_BOX
        canvas[y0 : y0 + side, x0 : x0 + side] = FLAG_COLOR
    return canvas


def render_sequence(pairs: list[FramePair], predictions, out_dir) -> list[str]:
    """Write numbered overlay frames sim_000001.ppm, ... in pair order.

    ``predictions`` may be None (actual-only overlays) or a list matching
    ``pairs``. Stitch externally, e.g.:
    ffmpeg -framerate 8 -i sim_%06d.ppm review.mp4
    """
    if predictions is not None and len(predictions) != len(pairs):
        raise DataError(
            f"{len(predictions)} predictions for {len(pairs)} pairs"
        )
    os.makedirs(out_dir, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise DataError(f"output directory {out_dir!r} is not writable")
    paths = []
    for i, pair in enumerate(pairs):
        pred = predictions[i] if predictions is not None else None
        canvas = render_overlay(pair.image, pair.record, pred)
        path = os.path.join(out_dir, f"sim_{i + 1:06d}.ppm")
        write_ppm(path, canvas)
        paths.append(path)
    return paths
