"""Binary PPM (P6) reader and writer, plus crop-and-resize.

PPM is the image interchange format for the whole toolkit: trivially
parseable, byte-exact, no external codecs. Only maxval 255 is supported.

``load_image`` decodes byte-first. From the uint8 crop it gathers only the
pixels its bilinear taps read: the two source rows of each output row, then
the two source columns of each output column. It converts just those bytes
to [0, 1] (float32 division by 255, then float64) and blends them in
(C, H, W) layout, in place. The gather indices and weights form a
resampling plan, cached per (crop height, crop width, output height,
output width) and read-only, since every call shares it. Every crop takes
this one path: at the target size the plan's weights are exactly 1 and 0, so
the blend returns the converted bytes. Conversion is per element, and each
output element goes through the same float64 products and sums, in the same
order, as in the float (H, W, C) resample that converts the whole crop
first. That resample is kept as a test-only twin in the tests'
``reference_twins`` module, which a property test pins ``load_image`` to
byte for byte.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import DataError


def _read_token(data: bytes, pos: int):
    """Next whitespace-delimited token, skipping '#' comments."""
    n = len(data)
    while pos < n:
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise DataError("malformed PPM: unexpected end of header")
    return data[start:pos], pos


def read_ppm(path) -> np.ndarray:
    """Read binary P6 into (H, W, 3) uint8."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P6":
        raise DataError(f"malformed image: expected magic P6, got {data[:2]!r}")
    pos = 2
    try:
        w_tok, pos = _read_token(data, pos)
        h_tok, pos = _read_token(data, pos)
        max_tok, pos = _read_token(data, pos)
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except ValueError as exc:
        raise DataError("malformed PPM header: non-numeric dimension") from exc
    if maxval != 255:
        raise DataError(f"unsupported maxval {maxval}; only 255 is handled")
    if width < 1 or height < 1:
        raise DataError(f"bad image dimensions {width}x{height}")
    pos += 1  # single whitespace byte after maxval
    expected = width * height * 3
    payload = data[pos : pos + expected]
    if len(payload) != expected:
        raise DataError(
            f"truncated image payload: expected {expected} bytes, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)


def write_ppm(path, pixels: np.ndarray) -> None:
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise DataError(f"write_ppm expects (H, W, 3) uint8, got {pixels.shape}")
    h, w, _ = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


@functools.lru_cache(maxsize=4)
def _resample_plan(h: int, w: int, out_h: int, out_w: int):
    """Gather indices and weights resampling an (h, w, 3) crop to
    (out_h, out_w), those of the float resample; read-only.

    ``rows`` picks the top source row of each output row, then the bottom
    one. ``taps`` indexes the flattened (2*out_h, w, 3) row gather, laid
    out (left/right column tap, channel, 2*out_h rows, out_w columns).
    Then come the weights of the top, bottom, left and right taps."""
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = xs - x0
    rows = np.concatenate([y0, y1])
    taps = (np.arange(2 * out_h)[:, None] * (3 * w)
            + 3 * np.stack([x0, x1])[:, None, None, :]
            + np.arange(3)[:, None, None])
    plan = (rows, taps, 1 - wy, wy, 1 - wx, wx)
    for array in plan:
        array.flags.writeable = False
    return plan


def default_center_crop(h: int, w: int) -> tuple[int, int, int, int]:
    """Centered square crop of side min(H, W): (x0, y0, width, height)."""
    side = min(h, w)
    return ((w - side) // 2, (h - side) // 2, side, side)


def load_image(path, crop: tuple[int, int, int, int] | None = None,
               target: int = 256) -> np.ndarray:
    """Read a P6 frame, crop, bilinear-resize to target x target, scale to [0,1].

    ``crop`` is (x0, y0, width, height); None means the centered square crop
    of side min(H, W). Returns (3, target, target) float32.
    """
    raw = read_ppm(path)
    h, w, _ = raw.shape
    if crop is None:
        crop = default_center_crop(h, w)
    x0, y0, cw, ch = crop
    if x0 < 0 or y0 < 0 or cw < 1 or ch < 1 or x0 + cw > w or y0 + ch > h:
        raise DataError(
            f"crop rectangle {crop} out of bounds for {w}x{h} frame"
        )
    window = raw[y0 : y0 + ch, x0 : x0 + cw]
    rows, taps, wy0, wy1, wx0, wx1 = _resample_plan(ch, cw, target, target)
    gathered = np.take(window[rows], taps)
    # float32 quotients by 255, widened exactly into float64
    left, right = np.divide(gathered, np.float32(255.0), out=np.empty(gathered.shape),
                            dtype=np.float32)
    left *= wx0
    right *= wx1
    left += right  # column blend of the top rows, then the bottom rows
    top, bottom = left[:, :target], left[:, target:]
    top *= wy0
    bottom *= wy1
    return np.add(top, bottom, out=np.empty((3, target, target), dtype=np.float32))


def to_u8(image_chw: np.ndarray) -> np.ndarray:
    """(C, H, W) floats in [0, 1] -> (H, W, C) uint8, round-half-even."""
    clipped = np.clip(image_chw, 0.0, 1.0)
    return np.rint(clipped * 255.0).astype(np.uint8).transpose(1, 2, 0)
