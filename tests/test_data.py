"""Dataset pipeline: parsing, scaling, pairing, splits, bins, augmentation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedrive.data import (FramePair, SteeringClass, TelemetryRecord,
                            brake_throttle_arrays, build_mixed_set,
                            classification_arrays, discretize_steering,
                            pair_nearest, parse_telemetry, regression_arrays,
                            scale_signals, shift_augment, split_60_20_20)
from conedrive.errors import DataError
from reference_twins import pair_nearest_bruteforce

HEADER = "timestamp,steering,brake,throttle,left_motor_speed,right_motor_speed"


def record(ts=0.0, steering=0.0, brake=0.0, throttle=0.0, lm=0.0, rm=0.0):
    return TelemetryRecord(ts, steering, brake, throttle, lm, rm)


def dummy_pairs(n):
    return [FramePair(None, record(ts=float(i)), i, i) for i in range(n)]


class TestParseTelemetry:
    def test_direct_parse(self):
        text = HEADER + "\n1000,15.5,0,120,8000,8100\n"
        records, skipped = parse_telemetry(text)
        assert skipped == []
        r = records[0]
        assert (r.timestamp, r.steering, r.brake, r.throttle) == (1000, 15.5, 0, 120)
        assert (r.left_motor_speed, r.right_motor_speed) == (8000, 8100)

    def test_short_row_skipped_and_reported(self):
        text = HEADER + "\n1000,1,2,3,4,5\n1001,1,2,3,4\n1002,1,2,3,4,5\n"
        records, skipped = parse_telemetry(text)
        assert len(records) == 2
        assert skipped == [3]

    def test_non_numeric_row_skipped(self):
        text = HEADER + "\n1000,1,2,3,4,5\n10a1,1,2,3,4,5\n"
        records, skipped = parse_telemetry(text)
        assert len(records) == 1 and skipped == [3]

    def test_backwards_timestamp_skipped(self):
        text = HEADER + "\n1000,1,2,3,4,5\n900,1,2,3,4,5\n1100,1,2,3,4,5\n"
        records, skipped = parse_telemetry(text)
        assert [r.timestamp for r in records] == [1000, 1100]
        assert skipped == [3]

    def test_empty_file_rejected(self):
        with pytest.raises(DataError, match="header"):
            parse_telemetry("")

    def test_header_only_rejected(self):
        with pytest.raises(DataError, match="no valid rows"):
            parse_telemetry(HEADER + "\n")

    def test_wrong_header_rejected(self):
        with pytest.raises(DataError, match="header"):
            parse_telemetry("time,steer\n1,2\n")


class TestScaleSignals:
    @pytest.mark.parametrize("raw,want", [(20000, 256.0), (0, 0.0), (10000, 128.0)])
    def test_motor_scaling(self, raw, want):
        scaled, warnings = scale_signals(record(lm=raw, rm=raw))
        assert scaled.left_motor_speed == pytest.approx(want)
        assert scaled.right_motor_speed == pytest.approx(want)
        assert warnings == 0

    def test_out_of_range_clamped_with_warning(self):
        scaled, warnings = scale_signals(record(steering=123.0, lm=25000))
        assert scaled.steering == 90.0
        assert scaled.left_motor_speed == 256.0
        assert warnings == 2

    def test_passthrough_fields(self):
        scaled, _ = scale_signals(record(steering=-45.0, brake=12.0, throttle=200.0))
        assert (scaled.steering, scaled.brake, scaled.throttle) == (-45.0, 12.0, 200.0)


class TestPairNearest:
    def test_30fps_example(self):
        frames = [0.0, 100.0 / 3, 200.0 / 3, 100.0, 400.0 / 3]
        pairs = pair_nearest([record(ts=125.0)], frames)
        assert pairs[0].frame_index == 4

    def test_exact_match(self):
        pairs = pair_nearest([record(ts=100.0)], [0.0, 100.0, 200.0])
        assert pairs[0].frame_index == 1

    def test_midpoint_tie_takes_earlier(self):
        pairs = pair_nearest([record(ts=50.0)], [0.0, 100.0])
        assert pairs[0].frame_index == 0

    def test_empty_inputs_rejected(self):
        with pytest.raises(DataError, match="non-empty"):
            pair_nearest([], [0.0])
        with pytest.raises(DataError, match="non-empty"):
            pair_nearest([record()], [])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        n_rec, n_frames = rng.integers(1, 200), rng.integers(1, 300)
        recs = [record(ts=t) for t in np.sort(rng.uniform(0, 1e4, n_rec))]
        frames = np.sort(rng.uniform(0, 1e4, n_frames))
        got = [p.frame_index for p in pair_nearest(recs, frames)]
        assert got == pair_nearest_bruteforce(recs, frames)

    @given(st.lists(st.floats(0, 1e5), min_size=1, max_size=40),
           st.lists(st.floats(0, 1e5), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_bruteforce_property(self, rec_ts, frame_ts):
        recs = [record(ts=t) for t in sorted(rec_ts)]
        frames = sorted(frame_ts)
        got = [p.frame_index for p in pair_nearest(recs, frames)]
        assert got == pair_nearest_bruteforce(recs, frames)


class TestSplit:
    def test_12097_split_counts(self):
        split = split_60_20_20(dummy_pairs(12097), seed=0)
        sizes = (len(split.train), len(split.validation), len(split.test))
        assert sizes == (7258, 2419, 2419)
        assert split.dropped == 1

    def test_small_floor_arithmetic(self):
        split = split_60_20_20(dummy_pairs(10), seed=0)
        assert (len(split.train), len(split.validation), len(split.test)) == (6, 2, 2)
        assert split.dropped == 0

    def test_same_seed_same_membership(self):
        a = split_60_20_20(dummy_pairs(100), seed=42)
        b = split_60_20_20(dummy_pairs(100), seed=42)
        assert [p.log_row for p in a.train] == [p.log_row for p in b.train]
        assert [p.log_row for p in a.test] == [p.log_row for p in b.test]

    def test_too_few_rejected(self):
        with pytest.raises(DataError, match="at least 5"):
            split_60_20_20(dummy_pairs(4), seed=0)

    @pytest.mark.parametrize("n", [5, 7, 10, 64, 999, 1000, 12097, 19999])
    def test_partition_and_counts(self, n):
        split = split_60_20_20(dummy_pairs(n), seed=n)
        rows = [p.log_row for p in split.train + split.validation + split.test]
        assert len(rows) == len(set(rows))
        assert len(split.train) == n * 6 // 10
        assert len(split.validation) == n * 2 // 10
        assert len(split.test) == n * 2 // 10
        assert split.dropped == n - len(rows)
        assert 0 <= split.dropped <= 2


class TestDiscretize:
    @pytest.mark.parametrize("steering,want", [
        (15.0, SteeringClass.LEFT),
        (10.0, SteeringClass.STRAIGHT),
        (-10.0, SteeringClass.STRAIGHT),
        (-10.5, SteeringClass.RIGHT),
        (10.0001, SteeringClass.LEFT),
        (0.0, SteeringClass.STRAIGHT),
        (-90.0, SteeringClass.RIGHT),
        (90.0, SteeringClass.LEFT),
    ])
    def test_bins(self, steering, want):
        assert discretize_steering(steering) is want

    def test_class_ids(self):
        assert (int(SteeringClass.LEFT), int(SteeringClass.STRAIGHT),
                int(SteeringClass.RIGHT)) == (1, 2, 3)

    @given(st.floats(min_value=-90.0, max_value=90.0))
    @settings(max_examples=500, deadline=None)
    def test_exactly_one_class(self, steering):
        cls = discretize_steering(steering)
        left = steering > 10
        straight = -10 <= steering <= 10
        right = steering < -10
        assert [left, straight, right].count(True) == 1
        assert cls is (SteeringClass.LEFT if left
                       else SteeringClass.STRAIGHT if straight
                       else SteeringClass.RIGHT)


def image_pair(seed=0, size=32, steering=0.0):
    rng = np.random.default_rng(seed)
    image = rng.random((3, size, size), dtype=np.float32)
    return FramePair(image, record(steering=steering), 0, 0)


class TestShiftAugment:
    def test_zero_shift_is_identity(self):
        pair = image_pair()
        out = shift_augment(pair, 0)
        np.testing.assert_array_equal(out.image, pair.image)
        assert out.record.steering == pair.record.steering

    def test_label_formula(self):
        out = shift_augment(image_pair(steering=0.0), 20, k=0.15)
        assert out.record.steering == pytest.approx(-3.0)

    def test_label_clamps(self):
        out = shift_augment(image_pair(steering=-89.0), 20, k=0.15)
        assert out.record.steering == -90.0

    def test_positive_shift_moves_content_right(self):
        image = np.zeros((3, 8, 8), dtype=np.float32)
        image[:, :, 2] = 1.0
        out = shift_augment(FramePair(image, record(), 0, 0), 3)
        assert out.image[0, 0, 5] == 1.0
        assert out.image[0, 0, 2] == pytest.approx(image.mean(), abs=1e-6)

    def test_fill_is_per_channel_mean(self):
        pair = image_pair(seed=4)
        out = shift_augment(pair, 5)
        want = pair.image.mean(axis=(1, 2))
        for c in range(3):
            np.testing.assert_allclose(out.image[c, :, :5], want[c], rtol=1e-6)

    def test_constant_image_unchanged(self):
        image = np.full((3, 8, 8), 0.37, dtype=np.float32)
        out = shift_augment(FramePair(image, record(), 0, 0), 4)
        np.testing.assert_allclose(out.image, 0.37, rtol=1e-6)

    @pytest.mark.parametrize("s", [1, 3, 7])
    def test_roundtrip_differs_only_in_filled_columns(self, s):
        pair = image_pair(seed=9, size=16)
        back = shift_augment(shift_augment(pair, s), -s)
        diff = np.abs(back.image - pair.image).max(axis=(0, 1))
        touched = np.nonzero(diff > 1e-6)[0]
        assert touched.size <= 2 * s

    @given(st.floats(-90, 90), st.integers(-31, 31))
    @settings(max_examples=200, deadline=None)
    def test_label_stays_in_range(self, steering, shift):
        out = shift_augment(image_pair(steering=steering), shift)
        assert -90.0 <= out.record.steering <= 90.0

    def test_oversized_shift_rejected(self):
        with pytest.raises(DataError, match="width"):
            shift_augment(image_pair(size=16), 16)


class TestMixedSet:
    def test_1000_splits_150_850(self):
        normal = dummy_pairs(200)
        shifted = [FramePair(None, record(), 10_000 + i, i) for i in range(900)]
        mixed = build_mixed_set(normal, shifted, 1000, seed=0)
        assert len(mixed) == 1000
        n_normal = sum(1 for p in mixed if p.log_row < 10_000)
        assert n_normal == 150
        assert len({id(p) for p in mixed}) == 1000  # sampled without replacement

    def test_size_20_rounding(self):
        mixed = build_mixed_set(dummy_pairs(10), dummy_pairs(20), 20, seed=1)
        assert len(mixed) == 20
        # round(0.15 * 20) = 3 normal, 17 shifted

    def test_deterministic(self):
        normal, shifted = dummy_pairs(50), dummy_pairs(100)
        a = build_mixed_set(normal, shifted, 40, seed=5)
        b = build_mixed_set(normal, shifted, 40, seed=5)
        assert [id(p) for p in a] == [id(p) for p in b]

    def test_insufficient_items_rejected(self):
        with pytest.raises(DataError, match="mixed set"):
            build_mixed_set(dummy_pairs(1), dummy_pairs(10), 20, seed=0)


class TestArrays:
    @pytest.mark.parametrize("arrays", [classification_arrays, regression_arrays,
                                        brake_throttle_arrays])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_image_stack_is_one_float32_copy(self, arrays, dtype):
        pairs = [image_pair(seed=i, size=8, steering=30.0 * i - 40.0)
                 for i in range(4)]
        for pair in pairs:
            pair.image = pair.image.astype(dtype)
        inputs, _ = arrays(pairs)
        x = inputs["image"]
        assert x.dtype == np.float32 and x.flags.c_contiguous
        np.testing.assert_array_equal(
            x, np.stack([p.image for p in pairs]).astype(np.float32))
        assert not any(np.shares_memory(x, p.image) for p in pairs)
