"""PPM round trips, crop-and-resize, and the synthetic track generator."""
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conedrive import ppm
from conedrive.data import discretize_steering
from conedrive.errors import DataError
from conedrive.ppm import (bilinear_resize_reference, default_center_crop,
                           load_image, read_ppm, to_u8, write_ppm)
from conedrive.synth import (brake_for, motor_raw_for, render_track_frame,
                             synth_track_dataset, throttle_for)


class TestNetpbm:
    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, (7, 5, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, pixels)
        np.testing.assert_array_equal(read_ppm(path), pixels)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "img.ppm"
        payload = bytes(range(12))
        path.write_bytes(b"P6\n# a comment\n2 2\n255\n" + payload)
        assert read_ppm(path).shape == (2, 2, 3)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(DataError, match="magic"):
            read_ppm(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(DataError, match="truncated"):
            read_ppm(path)

    def test_bad_maxval_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        with pytest.raises(DataError, match="maxval"):
            read_ppm(path)

    def test_u8_float_roundtrip_is_exact(self):
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 256, (4, 4, 3), dtype=np.uint8)
        as_float = pixels.transpose(2, 0, 1).astype(np.float32) / 255.0
        np.testing.assert_array_equal(to_u8(as_float), pixels)


def load_image_reference(pixels, crop, target):
    """``load_image`` on decoded pixels as the float (H, W, C) path: convert
    the whole crop, then ``bilinear_resize_reference``."""
    h, w, _ = pixels.shape
    x0, y0, cw, ch = default_center_crop(h, w) if crop is None else crop
    window = pixels[y0 : y0 + ch, x0 : x0 + cw].astype(np.float32) / 255.0
    resized = bilinear_resize_reference(window, target, target)
    return np.ascontiguousarray(resized.transpose(2, 0, 1), dtype=np.float32)


@st.composite
def load_cases(draw):
    """(frame height, width, crop or None, target, pixel seed)."""
    h = draw(st.integers(1, 80))
    w = draw(st.integers(1, 80))
    crop = None
    if draw(st.booleans()):
        cw = draw(st.integers(1, w))
        ch = draw(st.integers(1, h))
        crop = (draw(st.integers(0, w - cw)), draw(st.integers(0, h - ch)), cw, ch)
    return h, w, crop, draw(st.integers(1, 96)), draw(st.integers(0, 2**32 - 1))


class TestLoadImage:
    def write(self, tmp_path, pixels):
        path = tmp_path / "frame.ppm"
        write_ppm(path, pixels)
        return path

    def test_uniform_gray_preserved(self, tmp_path):
        path = self.write(tmp_path, np.full((100, 140, 3), 128, dtype=np.uint8))
        out = load_image(path, target=256)
        np.testing.assert_allclose(out, 128 / 255.0, rtol=1e-6)
        assert out.shape == (3, 256, 256)

    def test_full_frame_256_crop_is_identity(self, tmp_path):
        rng = np.random.default_rng(2)
        pixels = rng.integers(0, 256, (256, 256, 3), dtype=np.uint8)
        path = self.write(tmp_path, pixels)
        out = load_image(path, crop=(0, 0, 256, 256), target=256)
        np.testing.assert_allclose(out * 255.0,
                                   pixels.transpose(2, 0, 1), atol=1e-3)

    def test_1080p_default_center_crop(self, tmp_path):
        pixels = np.zeros((1080, 1920, 3), dtype=np.uint8)
        path = self.write(tmp_path, pixels)
        assert default_center_crop(1080, 1920) == (420, 0, 1080, 1080)
        assert load_image(path, target=256).shape == (3, 256, 256)

    def test_crop_out_of_bounds_rejected(self, tmp_path):
        path = self.write(tmp_path, np.zeros((10, 10, 3), dtype=np.uint8))
        with pytest.raises(DataError, match="crop"):
            load_image(path, crop=(5, 5, 10, 10))

    def test_resize_preserves_constants(self):
        out = bilinear_resize_reference(np.full((13, 9, 3), 0.4), 5, 17)
        np.testing.assert_allclose(out, 0.4, rtol=1e-6)

    @given(load_cases())
    @settings(max_examples=300, deadline=None)
    @example((12, 20, None, 12, 0))  # centre crop already at the target
    @example((30, 30, (3, 5, 17, 17), 17, 1))  # crop already at the target
    @example((1, 1, None, 1, 2))
    @example((1, 1, None, 96, 3))
    @example((40, 50, (49, 0, 1, 40), 7, 4))  # one-pixel-wide crop
    @example((50, 40, (0, 49, 40, 1), 9, 5))  # one-pixel-tall crop
    @example((80, 80, None, 1, 6))
    def test_matches_reference_twin(self, case):
        h, w, crop, target, seed = case
        pixels = np.random.default_rng(seed).integers(0, 256, (h, w, 3),
                                                      dtype=np.uint8)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "frame.ppm")
            write_ppm(path, pixels)
            got = load_image(path, crop=crop, target=target)
        want = load_image_reference(pixels, crop, target)
        assert got.dtype == np.float32
        assert got.shape == (3, target, target)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_resample_plan_is_cached_and_read_only(self):
        plan = ppm._resample_plan(13, 9, 5, 17)
        assert ppm._resample_plan(13, 9, 5, 17) is plan
        for array in plan:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


class TestSynth:
    def test_centered_vanishing_point_steers_zero(self):
        # symmetric frame: steering derives as -90 * 0 / half = 0
        pairs = synth_track_dataset(10, image_size=32, seed=0)
        frame = render_track_frame(32, 0.0)
        np.testing.assert_allclose(frame[:, :, :16], frame[:, :, 16:][:, :, ::-1],
                                   atol=0.75)  # roughly mirror-symmetric
        assert pairs  # generator ran

    def test_extreme_offsets_clamp_to_90(self):
        pairs = synth_track_dataset(400, image_size=32, seed=3)
        steerings = np.array([p.record.steering for p in pairs])
        assert steerings.min() >= -90.0 and steerings.max() <= 90.0
        # right-edge vanishing point means hard right (negative)
        assert steerings.min() < -80 and steerings.max() > 80

    def test_deterministic_across_runs(self):
        a = synth_track_dataset(25, image_size=32, seed=11)
        b = synth_track_dataset(25, image_size=32, seed=11)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.image, pb.image)
            assert pa.record == pb.record

    def test_different_seeds_differ(self):
        a = synth_track_dataset(10, image_size=32, seed=0)
        b = synth_track_dataset(10, image_size=32, seed=1)
        assert any(pa.record.steering != pb.record.steering
                   for pa, pb in zip(a, b))

    def test_labels_within_declared_ranges(self):
        for pair in synth_track_dataset(100, image_size=32, seed=5):
            r = pair.record
            assert -90 <= r.steering <= 90
            assert 0 <= r.brake <= 256 and 0 <= r.throttle <= 256
            assert 0 <= r.left_motor_speed <= 256
            assert 0 <= r.right_motor_speed <= 256

    def test_label_oracle_is_exact(self):
        # brake/throttle/motor channels derive from steering by fixed formulas
        from conedrive.data import scale_signals, TelemetryRecord

        for pair in synth_track_dataset(50, image_size=32, seed=8):
            s = pair.record.steering
            assert pair.record.brake == pytest.approx(brake_for(s))
            assert pair.record.throttle == pytest.approx(throttle_for(s))
            raw_l, raw_r = motor_raw_for(s)
            scaled, _ = scale_signals(TelemetryRecord(0, s, 0, 0, raw_l, raw_r))
            assert pair.record.left_motor_speed == pytest.approx(
                scaled.left_motor_speed)

    def test_too_small_rejected(self):
        with pytest.raises(DataError, match="n >= 10"):
            synth_track_dataset(5)

    def test_class_mix_has_all_three(self):
        pairs = synth_track_dataset(300, image_size=32, seed=2)
        classes = {int(discretize_steering(p.record.steering)) for p in pairs}
        assert classes == {1, 2, 3}
