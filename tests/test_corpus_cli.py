"""On-disk corpus formats and the CLI workflows end to end."""
import argparse
import shutil
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conedrive import cli, corpus, data, workers
from conedrive.bench import hardware_description
from conedrive.checkpoint import save_checkpoint
from conedrive.cli import (EXIT_BAD_INPUT, EXIT_MISSING_INPUT, EXIT_OK, EXIT_USAGE,
                           build_parser, main)
from conedrive.corpus import (FRAMES_INDEX, prep_corpus, read_frames_index,
                              read_manifest, write_corpus, write_manifest)
from conedrive.data import (MOTOR_SCALE, TELEMETRY_HEADER, format_telemetry,
                            parse_telemetry, scale_records, split_60_20_20)
from conedrive.errors import DataError
from conedrive.graph import Model
from conedrive.ppm import read_ppm
from conedrive.synth import (FRAME_PERIOD_MS, MIN_FRAMES, motor_raw_for,
                             synth_raw_corpus, synth_track_dataset)
from conedrive.zoo import (make_brake_throttle_model, make_discrete_model,
                           make_realvalue_model)


# edits of a 1CL-1FC checkpoint's model text that make it malformed
SPEC_EDITS = {
    "stride-0": ("stride=2", "stride=0"),
    "out-depth-0": ("out_depth=8", "out_depth=0"),
    "out-depth-negative": ("out_depth=8", "out_depth=-2"),
    "zero-extent": ("3x16x16", "3x0x16"),
    "one-class": ("classes=3", "classes=1"),
    "repeated-field": ("stride=2", "stride=1 stride=2"),
    "second-output": ("output head", "output pool1\noutput head"),
}


def first_line(blob: bytes) -> bytes:
    return blob[:blob.index(b"\n") + 1]


def without_seed_line(blob: bytes) -> bytes:
    at = blob.index(b"\nseed ")
    return blob[:at] + blob[blob.index(b"\n", at + 1):]


def last_tensor_twice(blob: bytes) -> bytes:
    """A 1CL-1FC checkpoint with its last tensor, head/bias (3 values),
    stored a second time: its count raised by one and its record repeated."""
    (n,) = struct.unpack_from("<I", blob, 20)
    (count,) = struct.unpack_from("<I", blob, 24 + n)
    record = blob[blob.rindex(b"head/bias") - 2:]
    return blob[:24 + n] + struct.pack("<I", count + 1) + blob[28 + n:] + record


# id: (file, command that reads it, edit of its bytes, start of the error);
# each edit breaks one check of the file's reader
MALFORMED_FILES = {
    "frames-index-header": ("frames_index.tsv", "prep",
                            lambda b: b.replace(b"frame_index", b"frame", 1),
                            "bad frames index header"),
    "frames-index-no-frames": ("frames_index.tsv", "prep", first_line,
                               "frames index lists no frames"),
    "manifest-no-seed": ("manifest.tsv", "eval", without_seed_line,
                         "manifest is missing its seed/dropped header lines"),
    "telemetry-header": ("telemetry.csv", "prep", lambda b: b"x" + b,
                         "telemetry header must be"),
    "telemetry-no-rows": ("telemetry.csv", "prep", first_line,
                          "telemetry contains no valid rows"),
    "checkpoint-magic": ("model.ckpt", "eval", lambda b: b"XXXX" + b[4:], "bad magic"),
    "checkpoint-version": ("model.ckpt", "eval",
                           lambda b: b[:4] + struct.pack("<I", 9) + b[8:],
                           "unsupported checkpoint version 9"),
    "checkpoint-version-0": ("model.ckpt", "eval",
                             lambda b: b[:4] + struct.pack("<I", 0) + b[8:],
                             "unsupported checkpoint version 0"),
    "checkpoint-truncated": ("model.ckpt", "eval", lambda b: b[:-1],
                             "truncated checkpoint while reading"),
    "checkpoint-tensor-twice": ("model.ckpt", "eval", last_tensor_twice,
                                "tensor 'head/bias' is stored twice"),
    "checkpoint-trailing": ("model.ckpt", "eval", lambda b: b + b"\0",
                            "1 trailing bytes"),
    "checkpoint-graph": ("model.ckpt", "eval",
                         lambda b: b.replace(b"stride=2", b"stride=0", 1),
                         "node 'conv1': stride must be >= 1"),
    "checkpoint-shape": ("model.ckpt", "eval",
                         lambda b: b.replace(b"out_depth=8", b"out_depth=7", 1),
                         "tensor 'conv1/weight' has shape"),
}


def field_by_field_csv(pairs):
    """The raw-unit telemetry text of ``pairs`` spelled out one field at a
    time, with the motor speeds taken from the oracle ``motor_raw_for``."""
    lines = [TELEMETRY_HEADER]
    for pair in pairs:
        r = pair.record
        left_raw, right_raw = motor_raw_for(r.steering)
        lines.append(f"{r.timestamp:.1f},{r.steering:.4f},{r.brake:.4f},"
                     f"{r.throttle:.4f},{left_raw:.1f},{right_raw:.1f}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    pairs = synth_track_dataset(60, image_size=32, seed=0)
    write_corpus(pairs, out)
    return out


@pytest.fixture
def real16(tmp_path):
    """A 16x16 real-value 3CL-2FC checkpoint's path."""
    ckpt = tmp_path / "real16.ckpt"
    save_checkpoint(Model(make_realvalue_model("3CL-2FC", input_hw=16), seed=0), ckpt)
    return str(ckpt)


class TestCorpusFormats:
    def test_written_layout(self, corpus_dir):
        assert (corpus_dir / "telemetry.csv").exists()
        assert (corpus_dir / "frames" / "frame_000000.ppm").exists()
        assert (corpus_dir / "frames" / "frames_index.tsv").exists()

    def test_frames_are_valid_ppm(self, corpus_dir):
        frame = read_ppm(corpus_dir / "frames" / "frame_000010.ppm")
        assert frame.shape == (32, 32, 3)

    def test_index_roundtrip(self, corpus_dir):
        indexes, stamps = read_frames_index(corpus_dir / "frames")
        assert len(indexes) == 60
        assert stamps == sorted(stamps)

    def test_prep_pipeline_runs_on_written_corpus(self, corpus_dir):
        split, skipped, warnings = prep_corpus(
            corpus_dir / "telemetry.csv", corpus_dir / "frames", seed=0)
        assert skipped == []
        assert (len(split.train), len(split.validation), len(split.test)) == \
            (36, 12, 12)

    def test_load_pairs_records_match_the_scaled_log(self, corpus_dir, tmp_path):
        lines = (corpus_dir / "telemetry.csv").read_text().splitlines()
        lines[3] = "not,a,row"  # skipped, so later log rows move up one
        fields = lines[6].split(",")
        lines[6] = ",".join([fields[0], "120.0", *fields[2:5], "25000.0"])
        telemetry = tmp_path / "telemetry.csv"
        telemetry.write_text("\n".join(lines) + "\n")
        records, warnings = scale_records(parse_telemetry(telemetry.read_text())[0])
        assert warnings == 2  # log row 4 is clamped twice
        rows = [(4, 4), (0, 0), (58, 58), (4, 7)]
        pairs = corpus.load_pairs(rows, telemetry, corpus_dir / "frames", 8)
        assert [p.record for p in pairs] == [records[r] for r, _ in rows]
        with pytest.raises(DataError, match="log row 59 outside telemetry log"):
            corpus.load_pairs([(59, 59)], telemetry, corpus_dir / "frames", 8)

    def test_a_pass_parses_its_telemetry_once(self, corpus_dir, tmp_path, monkeypatch):
        telemetry = tmp_path / "telemetry.csv"
        telemetry.write_text((corpus_dir / "telemetry.csv").read_text())
        frames = corpus_dir / "frames"
        parses = []

        def counted(text):
            parses.append(text)
            return parse_telemetry(text)

        def scaled(records):
            scalings.append(len(records))
            return scale_records(records)

        scalings = []
        monkeypatch.setattr(corpus, "parse_telemetry", counted)
        monkeypatch.setattr(corpus, "scale_records", scaled)
        corpus._parse_text.cache_clear()        # other tests parsed this text
        split, skipped, _ = prep_corpus(telemetry, frames, seed=0)
        skipped.append(99)                      # a caller's list is its own
        for pairs in (split.train, split.validation, split.test):
            loaded = corpus.load_pairs([(p.log_row, p.frame_index) for p in pairs],
                                       telemetry, frames, 8)
            assert [p.record for p in loaded] == [p.record for p in pairs]
        assert len(parses) == 1 and len(scalings) == 1
        assert prep_corpus(telemetry, frames, seed=0)[1] == []
        lines = telemetry.read_text().splitlines()
        lines[3] = "not,a,row"                  # later log rows move up one
        telemetry.write_text("\n".join(lines) + "\n")
        (pair,) = corpus.load_pairs([(2, 2)], telemetry, frames, 8)
        assert len(parses) == 2 and len(scalings) == 2
        records, _ = scale_records(parse_telemetry(telemetry.read_text())[0])
        assert pair.record == records[2]

    @given(rows=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)), max_size=40),
           size=st.sampled_from([8, 32]))
    @example(rows=[], size=8)
    @example(rows=[(7, 7)], size=8)
    @example(rows=[(9, 9), (2, 2)], size=8)                 # fewer rows than workers
    @example(rows=[(i, 59 - i) for i in range(60)], size=32)
    @settings(max_examples=40, deadline=None)
    def test_worker_count_leaves_loaded_pairs_identical(self, corpus_dir, rows, size):
        loaded = []
        with pytest.MonkeyPatch.context() as mp:
            for count in (1, 2, 3):
                mp.setattr(workers, "WORKERS", count)
                pairs = corpus.load_pairs(rows, corpus_dir / "telemetry.csv",
                                          corpus_dir / "frames", size)
                loaded.append([(p.image.shape, p.image.dtype, p.image.tobytes(), p.record,
                                p.log_row, p.frame_index) for p in pairs])
        assert [(p[4], p[5]) for p in loaded[0]] == rows
        assert loaded[0] == loaded[1] == loaded[2]

    def test_manifest_roundtrip(self, corpus_dir, tmp_path):
        pairs = synth_track_dataset(30, image_size=32, seed=1)
        split = split_60_20_20(pairs, seed=7)
        path = tmp_path / "manifest.tsv"
        write_manifest(path, split)
        membership, seed, dropped = read_manifest(path)
        assert seed == 7
        assert dropped == split.dropped
        assert membership["train"] == [(p.log_row, p.frame_index)
                                       for p in split.train]
        assert len(membership["val"]) == len(split.validation)

    def test_malformed_manifest_rejected(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not a manifest\n")
        with pytest.raises(DataError, match="manifest"):
            read_manifest(bad)

    def test_write_corpus_byte_deterministic(self, tmp_path):
        pairs = synth_track_dataset(15, image_size=32, seed=3)
        a, b = tmp_path / "a", tmp_path / "b"
        write_corpus(pairs, a)
        write_corpus(pairs, b)
        assert (a / "telemetry.csv").read_bytes() == (b / "telemetry.csv").read_bytes()
        assert (a / "frames" / "frame_000007.ppm").read_bytes() == \
            (b / "frames" / "frame_000007.ppm").read_bytes()

    def test_write_corpus_telemetry_is_the_formatters_text(self, corpus_dir):
        pairs = synth_track_dataset(60, image_size=32, seed=0)
        text = (corpus_dir / "telemetry.csv").read_text()
        assert text == format_telemetry(p.record for p in pairs)
        assert text == field_by_field_csv(pairs)

    @given(n=st.integers(MIN_FRAMES, 40), size=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    @example(n=40, size=128, seed=3)                        # replay's frame size
    @settings(max_examples=25, deadline=None)
    def test_synth_raw_corpus_is_the_synthetic_drive_in_raw_units(self, n, size, seed):
        text, images, stamps = synth_raw_corpus(n, size, seed)
        pairs = synth_track_dataset(n, size, seed)
        assert text == field_by_field_csv(pairs)
        records, skipped = parse_telemetry(text)
        assert skipped == []
        scaled, clamped = scale_records(records)
        assert clamped == 0
        got = np.array([list(vars(r).values()) for r in scaled])
        want = np.array([list(vars(p.record).values()) for p in pairs])
        # the CSV keeps 1 decimal of time and raw motor speed, 4 of the rest
        half_step = np.array([0.05, 5e-5, 5e-5, 5e-5, 0.05 * MOTOR_SCALE,
                              0.05 * MOTOR_SCALE])
        assert (np.abs(got - want).max(axis=0) <= half_step * 1.001).all()
        assert [i.tobytes() for i in images] == [p.image.tobytes() for p in pairs]
        assert stamps == [p.record.timestamp + 0.25 * FRAME_PERIOD_MS for p in pairs]


class TestCli:
    def test_prep_synth(self, tmp_path, capsys):
        out = tmp_path / "prep"
        code = main(["prep", "--synth", "60", "--image-size", "32",
                     "--seed", "0", "--out", str(out)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "36/12/12, 0 dropped" in printed
        assert (out / "manifest.tsv").exists()
        assert (out / "run_info.txt").exists()
        assert (out / "corpus" / "telemetry.csv").exists()

    def test_run_info_records_blas_and_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.setattr(workers, "WORKERS", 5)
        out = tmp_path / "prep"
        assert main(["prep", "--synth", "20", "--out", str(out)]) == EXIT_OK
        lines = (out / "run_info.txt").read_text().splitlines()
        assert f"hardware: {hardware_description()}" in lines
        assert any("blas " in ln and "OPENBLAS_NUM_THREADS=3" in ln
                   and ln.endswith("; workers=5") for ln in lines)

    def test_prep_missing_csv_exit_code(self, tmp_path):
        code = main(["prep", "--telemetry", str(tmp_path / "nope.csv"),
                     "--frames", str(tmp_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_MISSING_INPUT

    def test_large_corpus_split_summary(self, tmp_path, capsys, monkeypatch):
        # 12097 records split to 7258/2419/2419 (+1)
        from conedrive import cli as cli_mod
        from conedrive.data import FramePair, TelemetryRecord

        records = [TelemetryRecord(float(i), 0, 0, 0, 0, 0) for i in range(12097)]
        pairs = [FramePair(None, r, i, i) for i, r in enumerate(records)]

        monkeypatch.setattr(
            cli_mod, "prep_corpus",
            lambda *a, **k: (split_60_20_20(pairs, seed=0), [], 0))
        monkeypatch.setattr(cli_mod, "write_corpus", lambda *a, **k: None)
        monkeypatch.setattr(cli_mod, "synth_track_dataset",
                            lambda *a, **k: pairs)
        code = main(["prep", "--synth", "12097", "--out", str(tmp_path / "p")])
        assert code == EXIT_OK
        assert "7258/2419/2419, 1 dropped" in capsys.readouterr().out

    def test_train_eval_render_activations_flow(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--task", "discrete", "--arch", "1CL-1FC",
                     "--synth", "80", "--image-size", "16", "--epochs", "2",
                     "--batch-size", "8", "--seed", "0", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "model.ckpt").exists()
        history = (out / "history.tsv").read_text().splitlines()
        assert len(history) == 2 + 2  # header comment + columns + 2 epochs

        # eval and activations read frames at the 16x16 checkpoint's size
        eval_out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(out / "model.ckpt"),
                     "--synth", "80", "--batch-size", "8",
                     "--split", "test", "--out", str(eval_out)])
        assert code == EXIT_OK
        assert "mean_batch_accuracy" in (eval_out / "report.txt").read_text()

        # render builds 256x256 camera frames whatever the other commands use
        render_out = tmp_path / "render"
        code = main(["render", "--synth", "12", "--limit", "2",
                     "--out", str(render_out)])
        assert code == EXIT_OK
        assert (render_out / "sim" / "sim_000001.ppm").exists()

        acts_out = tmp_path / "acts"
        code = main(["activations", "--checkpoint", str(out / "model.ckpt"),
                     "--synth", "80", "--batch-size", "8",
                     "--out", str(acts_out)])
        assert code == EXIT_OK
        assert (acts_out / "activations.tsv").exists()

    @pytest.mark.parametrize("command,extra", [
        ("prep", []), ("train", ["--task", "discrete"]),
        ("eval", ["--checkpoint", "m.ckpt"]), ("gridsearch", []), ("augment", []),
        ("render", []), ("activations", ["--checkpoint", "m.ckpt"]),
    ])
    @pytest.mark.parametrize("n", [str(MIN_FRAMES - 1), "0", "-3"])
    def test_synth_below_the_minimum_is_a_usage_error(self, tmp_path, capsys,
                                                      monkeypatch, command, extra, n):
        monkeypatch.setattr(cli, "synth_track_dataset", None)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--synth", n, *extra, "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert f"at least {MIN_FRAMES} frames, got '{n}'" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_at_the_minimum_is_accepted(self, tmp_path):
        out = tmp_path / "p"
        assert main(["prep", "--synth", str(MIN_FRAMES), "--out", str(out)]) == EXIT_OK
        with pytest.raises(DataError, match=f"n >= {MIN_FRAMES}"):
            synth_track_dataset(MIN_FRAMES - 1)

    def test_prep_rejects_crop(self, tmp_path):
        # prep reads timestamps only; --crop belongs to the frame-loading commands
        with pytest.raises(SystemExit) as exc:
            main(["prep", "--synth", "40", "--crop", "0,0,8,8",
                  "--out", str(tmp_path / "p")])
        assert exc.value.code == EXIT_USAGE

    def test_eval_brake_throttle_checkpoint(self, tmp_path):
        ckpt = tmp_path / "bt.ckpt"
        save_checkpoint(Model(make_brake_throttle_model(input_hw=16), seed=0), ckpt)
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(ckpt), "--synth", "40",
                     "--batch-size", "4", "--out", str(out)])
        assert code == EXIT_OK
        report = (out / "report.txt").read_text()
        assert "task: brake_throttle" in report
        assert "mean_l1: " in report and "degrees" not in report
        l1 = dict(line.split(": ") for line in report.splitlines()
                  if line.startswith("mean_l1"))
        assert list(l1) == ["mean_l1", "mean_l1_brake", "mean_l1_throttle"]
        both = (float(l1["mean_l1_brake"]) + float(l1["mean_l1_throttle"])) / 2
        assert both == pytest.approx(float(l1["mean_l1"]), rel=1e-6)

    def test_crop_reaches_render_and_activations(self, corpus_dir, tmp_path):
        prep = tmp_path / "prep"
        assert main(["prep", "--telemetry", str(corpus_dir / "telemetry.csv"),
                     "--frames", str(corpus_dir / "frames"),
                     "--out", str(prep)]) == EXIT_OK
        drive = ["--manifest", str(prep / "manifest.tsv"),
                 "--telemetry", str(corpus_dir / "telemetry.csv"),
                 "--frames", str(corpus_dir / "frames")]
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0), ckpt)
        frames, acts = {}, {}
        for name, crop in (("centre", []), ("corner", ["--crop", "0,0,16,16"])):
            out = tmp_path / name
            assert main(["render", *drive, *crop, "--limit", "2",
                         "--out", str(out / "render")]) == EXIT_OK
            frames[name] = [p.read_bytes()
                            for p in sorted((out / "render" / "sim").iterdir())]
            assert main(["activations", *drive, *crop, "--checkpoint", str(ckpt),
                         "--batch-size", "4", "--out", str(out / "acts")]) == EXIT_OK
            acts[name] = (out / "acts" / "activations.tsv").read_text()
        assert len(frames["centre"]) == len(frames["corner"]) == 2
        for centre, corner in zip(frames["centre"], frames["corner"]):
            assert centre != corner
        assert acts["centre"] != acts["corner"]

    @pytest.mark.parametrize("make_spec", [
        lambda: make_discrete_model("1CL-1FC", input_hw=256),
        lambda: make_realvalue_model("3CL-2FC", input_hw=256),
        lambda: make_brake_throttle_model(input_hw=256),
    ], ids=["discrete", "real", "brake_throttle"])
    def test_render_with_checkpoint(self, tmp_path, make_spec):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(Model(make_spec(), seed=3), ckpt)
        frames = {}
        for name, extra in (("plain", []), ("pred", ["--checkpoint", str(ckpt)])):
            code = main(["render", "--synth", "12", "--limit", "2", *extra,
                         "--out", str(tmp_path / name)])
            assert code == EXIT_OK
            frames[name] = sorted((tmp_path / name / "sim").iterdir())
        assert [p.name for p in frames["pred"]] == ["sim_000001.ppm", "sim_000002.ppm"]
        # the predicted state is drawn on top of the actual-only overlay
        for plain, pred in zip(frames["plain"], frames["pred"]):
            assert plain.read_bytes() != pred.read_bytes()

    def test_train_writes_seed_into_run_info(self, tmp_path):
        out = tmp_path / "run"
        main(["train", "--task", "discrete", "--arch", "1CL-1FC",
              "--synth", "40", "--image-size", "16", "--epochs", "1",
              "--batch-size", "8", "--seed", "123", "--out", str(out)])
        assert "seed=123" in (out / "run_info.txt").read_text()

    def test_bench_subcommand(self, tmp_path):
        out = tmp_path / "bench"
        code = main(["bench", "--task", "real", "--arch", "3CL-2FC",
                     "--image-size", "32", "--iters", "100", "--warmup", "5",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "latency.txt").exists()
        assert (out / "latency.tsv").exists()

    def test_augment_subcommand(self, tmp_path):
        out = tmp_path / "aug"
        code = main(["augment", "--synth", "40", "--image-size", "32",
                     "--shift-range", "6", "--mixed-size", "20",
                     "--seed", "0", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "augmented" / "telemetry.csv").exists()
        assert (out / "mixed" / "frames" / "frame_000000.ppm").exists()

    @pytest.mark.parametrize("share, printed", [(None, "3 normal / 17 shifted"),
                                                (0.5, "10 normal / 10 shifted")],
                             ids=["default-share", "half-share"])
    def test_augment_prints_the_mixed_sets_split(self, share, printed, tmp_path,
                                                 monkeypatch, capsys):
        if share is not None:
            monkeypatch.setattr(data, "MIXED_NORMAL_SHARE", share)
        out = tmp_path / "aug"
        assert main(["augment", "--synth", "40", "--image-size", "16",
                     "--shift-range", "3", "--mixed-size", "20",
                     "--seed", "0", "--out", str(out)]) == EXIT_OK
        assert f"mixed evaluation set ({printed})" in capsys.readouterr().out
        assert len(read_frames_index(out / "mixed" / "frames")[0]) == 20

    def test_gridsearch_subcommand(self, tmp_path):
        out = tmp_path / "grid"
        code = main(["gridsearch", "--arch", "3CL-2FC", "--synth", "40",
                     "--image-size", "16", "--filters", "5,3;3,3",
                     "--strides", "2,2", "--epochs", "1", "--batch-size", "8",
                     "--lr", "0.001", "--seed", "0", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "grid.tsv").read_text().splitlines()
        assert len(lines) == 1 + 2

    def test_config_file_supplies_flags_and_cli_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task=discrete\narch=1CL-1FC\nsynth=40\n"
                       "image_size=16\nepochs=1\nbatch_size=8\n")
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg), "--epochs", "2",
                     "--out", str(out)])
        assert code == EXIT_OK
        history = (out / "history.tsv").read_text().splitlines()
        assert len(history) == 2 + 2  # the explicit --epochs 2 won

    def test_bad_checkpoint_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"XXXX garbage")
        code = main(["eval", "--checkpoint", str(bad), "--synth", "40",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_BAD_INPUT

    @pytest.mark.parametrize("case", ["intact", *SPEC_EDITS, "trailing-bytes",
                                      "tensor-twice", "extra-tensor"])
    def test_malformed_checkpoint_exits_bad_input(self, tmp_path, case):
        model = Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0)
        state = model.state_tensors()
        ghost = ("ghost/weight", np.zeros(2, dtype=np.float32))
        extra = {"tensor-twice": state[-1:], "extra-tensor": [ghost]}.get(case, [])
        model.state_tensors = lambda: state + extra
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(model, ckpt)
        blob = ckpt.read_bytes()
        if case == "trailing-bytes":
            blob += b"\0"
        elif case in SPEC_EDITS:
            # the spec text follows the magic, 16 header bytes and its u32 length
            (n,) = struct.unpack_from("<I", blob, 20)
            old, new = (part.encode() for part in SPEC_EDITS[case])
            assert old in blob[24:24 + n]
            text = blob[24:24 + n].replace(old, new)
            blob = blob[:20] + struct.pack("<I", len(text)) + text + blob[24 + n:]
        ckpt.write_bytes(blob)
        code = main(["eval", "--checkpoint", str(ckpt), "--synth", "40",
                     "--batch-size", "4", "--out", str(tmp_path / "o")])
        assert code == (EXIT_OK if case == "intact" else EXIT_BAD_INPUT)

    @pytest.mark.parametrize("row", ["5\tsoon\n", "5\t10.0\t11.0\n", "5\n", "x\t10.0\n"],
                             ids=["stamp-not-a-number", "three-columns", "one-column",
                                  "index-not-an-integer"])
    def test_malformed_frames_index_exits_bad_input(self, tmp_path, corpus_dir, capsys,
                                                    row):
        # prep reads the index alone, so the frames directory needs no images
        frames = tmp_path / "frames"
        frames.mkdir()
        index = (corpus_dir / "frames" / "frames_index.tsv").read_text()
        (frames / "frames_index.tsv").write_text(index + row)
        code = main(["prep", "--telemetry", str(corpus_dir / "telemetry.csv"),
                     "--frames", str(frames), "--out", str(tmp_path / "o")])
        assert code == EXIT_BAD_INPUT
        assert "frames_index.tsv line 62: malformed frames index row" in \
            capsys.readouterr().err

    # (text replaced, its replacement, the line reported): the manifest's
    # header, seed, dropped, counts and table header lines come first
    @pytest.mark.parametrize("old,new,line", [
        ("seed 0\n", "seed x\n", 2),
        ("seed 0\n", "seed \n", 2),
        ("dropped 0\n", "dropped 0 1\n", 3),
        ("frame_index\n", "frame_index\ntrain\t3\n", 6),
        ("frame_index\n", "frame_index\nval\t3\tfour\n", 6),
    ], ids=["seed-not-an-integer", "seed-missing", "dropped-twice", "short-row",
            "row-not-integer"])
    def test_malformed_manifest_exits_bad_input(self, tmp_path, corpus_dir, capsys,
                                                old, new, line):
        prep = tmp_path / "prep"
        assert main(["prep", "--telemetry", str(corpus_dir / "telemetry.csv"),
                     "--frames", str(corpus_dir / "frames"), "--seed", "0",
                     "--out", str(prep)]) == EXIT_OK
        manifest = prep / "manifest.tsv"
        text = manifest.read_text()
        assert old in text
        manifest.write_text(text.replace(old, new, 1))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0), ckpt)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest),
                     "--telemetry", str(corpus_dir / "telemetry.csv"),
                     "--frames", str(corpus_dir / "frames"), "--batch-size", "4",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_BAD_INPUT
        assert f"manifest.tsv line {line}: malformed manifest line" in \
            capsys.readouterr().err

    @pytest.fixture
    def run_on_damaged(self, tmp_path, corpus_dir):
        """A function that rewrites the bytes of one file of a prepared copy
        of ``corpus_dir`` and a 1CL-1FC checkpoint with ``edit``, runs
        ``prep`` or ``eval`` on them, and returns (that file's path, the exit
        code)."""
        drive, prep = tmp_path / "drive", tmp_path / "prep"
        shutil.copytree(corpus_dir, drive)
        telemetry, frames = drive / "telemetry.csv", drive / "frames"
        assert main(["prep", "--telemetry", str(telemetry), "--frames", str(frames),
                     "--seed", "0", "--out", str(prep)]) == EXIT_OK
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0), ckpt)
        paths = {"telemetry.csv": telemetry, "frames_index.tsv": frames / FRAMES_INDEX,
                 "manifest.tsv": prep / "manifest.tsv", "model.ckpt": ckpt}
        sources = ["--telemetry", str(telemetry), "--frames", str(frames)]
        argv = {"prep": ["prep", *sources],
                "eval": ["eval", "--checkpoint", str(ckpt), "--manifest",
                         str(paths["manifest.tsv"]), *sources, "--batch-size", "4"]}

        def run(name, command, edit):
            path = paths[name]
            path.write_bytes(edit(path.read_bytes()))
            return path, main(argv[command] + ["--out", str(tmp_path / "o")])

        return run

    # (file, byte set to 0xff, command that reads it): each byte lies in the
    # file's text, for the checkpoint in its model text
    @pytest.mark.parametrize("name,at,command", [
        ("telemetry.csv", 80, "prep"),
        ("frames_index.tsv", 40, "prep"),
        ("manifest.tsv", 40, "eval"),
        ("model.ckpt", 40, "eval"),
    ], ids=["telemetry", "frames-index", "manifest", "checkpoint"])
    def test_undecodable_byte_exits_bad_input_naming_its_file(
            self, run_on_damaged, capsys, name, at, command):
        path, code = run_on_damaged(name, command, lambda b: b[:at] + b"\xff" + b[at + 1:])
        assert code == EXIT_BAD_INPUT
        assert f"{path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("name,command,edit,says", MALFORMED_FILES.values(),
                             ids=MALFORMED_FILES)
    def test_malformed_file_exits_bad_input_naming_it(self, run_on_damaged, capsys,
                                                      name, command, edit, says):
        path, code = run_on_damaged(name, command, edit)
        assert code == EXIT_BAD_INPUT
        assert f"error: {path}: {says}" in capsys.readouterr().err

    def test_log_row_past_the_log_exits_bad_input_naming_the_log(
            self, run_on_damaged, capsys, tmp_path):
        def far_test_row(blob):
            at = blob.index(b"\ntest\t") + len(b"\ntest\t")
            return blob[:at] + b"99999" + blob[blob.index(b"\t", at):]

        _, code = run_on_damaged("manifest.tsv", "eval", far_test_row)
        assert code == EXIT_BAD_INPUT
        telemetry = tmp_path / "drive" / "telemetry.csv"
        assert (f"error: {telemetry}: manifest log row 99999 outside telemetry log "
                "of 60 valid rows") in capsys.readouterr().err

    @pytest.fixture
    def two_part_eval(self, tmp_path, corpus_dir, monkeypatch):
        """(the test split's frame files, a function running ``eval`` on a
        copy of ``corpus_dir``'s frames), decoded in two parts."""
        monkeypatch.setattr(workers, "WORKERS", 2)
        prep = tmp_path / "prep"
        assert main(["prep", "--telemetry", str(corpus_dir / "telemetry.csv"),
                     "--frames", str(corpus_dir / "frames"), "--seed", "0",
                     "--out", str(prep)]) == EXIT_OK
        frames = tmp_path / "frames"
        shutil.copytree(corpus_dir / "frames", frames)
        membership, _, _ = read_manifest(prep / "manifest.tsv")
        files = [frames / corpus.frame_filename(index) for _, index in membership["test"]]
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0), ckpt)

        def run_eval():
            return main(["eval", "--checkpoint", str(ckpt),
                         "--manifest", str(prep / "manifest.tsv"),
                         "--telemetry", str(corpus_dir / "telemetry.csv"),
                         "--frames", str(frames), "--batch-size", "4",
                         "--out", str(tmp_path / "o")])
        return files, run_eval

    @pytest.mark.parametrize("payload,message", [
        (b"P5\n32 32\n255\n" + bytes(1024),
         "malformed image: expected magic P6, got b'P5'"),
        (b"P6\n32 32\n255\n" + bytes(4),
         "truncated image payload: expected 3072 bytes, got 4"),
    ], ids=["magic", "truncated"])
    def test_bad_frame_exits_bad_input_naming_its_file(self, two_part_eval, capsys,
                                                       payload, message):
        files, run_eval = two_part_eval
        assert len(files) == 12                 # rows 6 to 11 form the second part
        files[8].write_bytes(payload)
        capsys.readouterr()
        assert run_eval() == EXIT_BAD_INPUT
        assert f"error: {files[8]}: {message}" in capsys.readouterr().err

    def test_missing_frame_exits_missing_input(self, two_part_eval, capsys):
        files, run_eval = two_part_eval
        files[8].unlink()
        capsys.readouterr()
        assert run_eval() == EXIT_MISSING_INPUT
        assert str(files[8]) in capsys.readouterr().err

    def test_first_bad_frame_in_row_order_is_reported(self, two_part_eval, capsys):
        files, run_eval = two_part_eval
        files[2].write_bytes(b"P6\n32 32\n255\n" + bytes(4))
        files[3].write_bytes(b"P5\n32 32\n255\n" + bytes(1024))
        files[9].write_bytes(b"P5\n32 32\n255\n" + bytes(1024))
        capsys.readouterr()
        assert run_eval() == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert f"error: {files[2]}: truncated image payload" in err
        assert str(files[3]) not in err and str(files[9]) not in err

    def test_identical_args_reproduce_manifest_bytes(self, tmp_path):
        outs = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            code = main(["prep", "--synth", "40", "--image-size", "16",
                         "--seed", "3", "--out", str(out)])
            assert code == EXIT_OK
            outs.append((out / "manifest.tsv").read_bytes())
        assert outs[0] == outs[1]

    def test_identical_args_reproduce_eval_report_bytes(self, tmp_path):
        run = tmp_path / "run"
        main(["train", "--task", "discrete", "--arch", "1CL-1FC",
              "--synth", "40", "--image-size", "16", "--epochs", "1",
              "--batch-size", "8", "--seed", "0", "--out", str(run)])
        reports = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            code = main(["eval", "--checkpoint", str(run / "model.ckpt"),
                         "--synth", "40", "--batch-size", "8", "--out", str(out)])
            assert code == EXIT_OK
            reports.append((out / "report.txt").read_bytes())
        assert reports[0] == reports[1]

    def test_train_writes_model_text(self, tmp_path):
        out = tmp_path / "run"
        main(["train", "--task", "discrete", "--arch", "1CL-1FC",
              "--synth", "40", "--image-size", "16", "--epochs", "1",
              "--batch-size", "8", "--seed", "0", "--out", str(out)])
        text = (out / "model.txt").read_text()
        assert text.startswith("conedrive-model v1")
        assert "softmax_head" in text

    def test_resume_continues_epoch_counter(self, tmp_path):
        out = tmp_path / "run"
        main(["train", "--task", "discrete", "--arch", "1CL-1FC",
              "--synth", "40", "--image-size", "16", "--epochs", "2",
              "--batch-size", "8", "--seed", "0", "--out", str(out)])
        out2 = tmp_path / "resumed"
        code = main(["train", "--task", "discrete", "--synth", "40",
                     "--image-size", "16", "--epochs", "1", "--batch-size", "8",
                     "--seed", "0", "--resume", str(out / "model.ckpt"),
                     "--out", str(out2)])
        assert code == EXIT_OK
        history = (out2 / "history.tsv").read_text().splitlines()
        assert history[2].startswith("2\t")  # epoch counter resumed at 2

    def test_resume_takes_the_task_from_the_checkpoint(self, tmp_path):
        # and the input size: the frames are synthesized at 16x16
        ckpt = tmp_path / "real.ckpt"
        save_checkpoint(Model(make_realvalue_model("3CL-2FC", input_hw=16), seed=0), ckpt)
        out = tmp_path / "resumed"
        code = main(["train", "--synth", "40", "--epochs", "1",
                     "--batch-size", "8", "--resume", str(ckpt), "--out", str(out)])
        assert code == EXIT_OK
        assert "val_l1" in (out / "history.tsv").read_text()

    def test_resume_rejects_a_contradicting_task_before_loading_data(
            self, tmp_path, capsys):
        ckpt = tmp_path / "real.ckpt"
        save_checkpoint(Model(make_realvalue_model("3CL-2FC", input_hw=16), seed=0), ckpt)
        missing = str(tmp_path / "no-such-manifest.tsv")
        code = main(["train", "--task", "discrete", "--manifest", missing,
                     "--telemetry", missing, "--frames", missing,
                     "--resume", str(ckpt), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "discrete" in err and "real" in err

    def test_train_without_task_or_resume_is_a_usage_error(self, tmp_path):
        code = main(["train", "--synth", "40", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("grid", [["--filters", "5,3,3"], ["--strides", "2"]],
                             ids=["filters", "strides"])
    def test_malformed_grid_is_a_usage_error(self, tmp_path, grid):
        with pytest.raises(SystemExit) as exc:
            main(["gridsearch", "--synth", "40", *grid, "--out", str(tmp_path / "g")])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("argv,shape", [
        (["gridsearch", "--filters", "5,x"], "7,5;5,3"),
        (["gridsearch", "--strides", "2,1;y"], "7,5;5,3"),
        (["render", "--crop", "5,x"], "x0,y0,width,height"),
    ], ids=["filters", "strides", "crop"])
    def test_non_integer_grid_or_crop_message_shows_the_format(self, tmp_path, capsys,
                                                               argv, shape):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--synth", "40", "--out", str(tmp_path / "o")])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert shape in err and "_parse" not in err

    def test_crop_with_synth_is_a_usage_error(self, tmp_path):
        code = main(["train", "--synth", "40", "--crop", "9999,9999,5,5",
                     "--task", "discrete", "--arch", "1CL-1FC", "--image-size", "16",
                     "--epochs", "1", "--batch-size", "4", "--out", str(tmp_path / "t")])
        assert code == EXIT_USAGE
        assert not (tmp_path / "t" / "model.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "activations"])
    def test_batch_larger_than_the_split_is_a_usage_error(self, tmp_path, capsys,
                                                          command):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0), ckpt)
        extra = (["--task", "real", "--image-size", "16"] if command == "train"
                 else ["--checkpoint", str(ckpt)])
        code = main([command, "--synth", "40", "--batch-size", "64", *extra,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "yields no full batch of 64" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["0", "-3"])
    @pytest.mark.parametrize("command", ["train", "eval", "activations"])
    def test_batch_size_below_one_is_a_usage_error(self, tmp_path, capsys, command,
                                                   size):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0), ckpt)
        extra = (["--task", "real", "--image-size", "16"] if command == "train"
                 else ["--checkpoint", str(ckpt)])
        code = main([command, "--synth", "40", "--batch-size", size, *extra,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert f"batch_size must be >= 1, got {size}" in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_is_a_usage_error(self, tmp_path, capsys, lr):
        code = main(["train", "--synth", "40", "--task", "real", "--image-size", "16",
                     "--epochs", "1", "--batch-size", "4", "--lr", lr,
                     "--out", str(tmp_path / "t")])
        assert code == EXIT_USAGE
        assert f"initial_lr must be finite and > 0, got {lr}" in capsys.readouterr().err
        assert not (tmp_path / "t" / "model.ckpt").exists()

    def test_negative_warmup_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "b"
        code = main(["bench", "--task", "real", "--image-size", "16", "--iters", "100",
                     "--warmup", "-5", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "warmup must be >= 0, got -5" in capsys.readouterr().err
        assert not (out / "latency.txt").exists()

    def test_negative_render_limit_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r"
        with pytest.raises(SystemExit) as exc:
            main(["render", "--synth", "20", "--split", "test", "--limit", "-2",
                  "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert "got '-2'" in capsys.readouterr().err
        assert not out.exists()
        # 0 still renders every frame of the split
        assert main(["render", "--synth", "20", "--split", "test", "--limit", "0",
                     "--out", str(out)]) == EXIT_OK
        assert len(list((out / "sim").iterdir())) == 4

    @pytest.mark.parametrize("flag", ["--manifest", "--telemetry", "--frames"])
    def test_drive_flag_with_synth_is_a_usage_error(self, tmp_path, capsys, flag):
        code = main(["train", "--synth", "40", flag, str(tmp_path / "absent"),
                     "--task", "discrete", "--arch", "1CL-1FC", "--image-size", "16",
                     "--epochs", "1", "--batch-size", "4", "--out", str(tmp_path / "t")])
        assert code == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "t" / "model.ckpt").exists()

    def test_render_limit_decodes_only_the_rendered_frames(self, corpus_dir, tmp_path,
                                                           monkeypatch):
        prep = tmp_path / "prep"
        assert main(["prep", "--telemetry", str(corpus_dir / "telemetry.csv"),
                     "--frames", str(corpus_dir / "frames"),
                     "--out", str(prep)]) == EXIT_OK
        drive = ["--manifest", str(prep / "manifest.tsv"),
                 "--telemetry", str(corpus_dir / "telemetry.csv"),
                 "--frames", str(corpus_dir / "frames"), "--split", "val"]
        load_image = corpus.load_image
        decoded = []

        def counted(path, **kwargs):
            decoded.append(path)
            return load_image(path, **kwargs)

        monkeypatch.setattr(corpus, "load_image", counted)
        frames = {}
        for name, limit in (("all", []), ("two", ["--limit", "2"])):
            decoded.clear()
            out = tmp_path / name
            assert main(["render", *drive, *limit, "--out", str(out)]) == EXIT_OK
            frames[name] = [p.read_bytes() for p in sorted((out / "sim").iterdir())]
        assert len(frames["all"]) == 12
        assert len(decoded) == 2
        assert frames["two"] == frames["all"][:2]

    def test_out_naming_a_file_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["prep", "--synth", "20", "--out", str(out)])
        assert code == EXIT_USAGE
        assert str(out) in capsys.readouterr().err

    def test_render_predicts_at_most_64_frames_per_forward(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(Model(make_discrete_model("1CL-1FC", input_hw=256), seed=0), ckpt)
        sizes = []
        forward = Model.forward

        def recorded(model, inputs, mode, **kwargs):
            sizes.append(len(inputs["image"]))
            return forward(model, inputs, mode, **kwargs)

        monkeypatch.setattr(Model, "forward", recorded)
        code = main(["render", "--synth", "110", "--split", "train", "--limit", "65",
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "r")])
        assert code == EXIT_OK
        assert sizes == [64, 1]
        assert len(list((tmp_path / "r" / "sim").iterdir())) == 65

    @pytest.mark.parametrize("flag", ["--checkpoint", "--telemetry", "--manifest"])
    def test_directory_where_a_file_belongs_is_bad_input(self, tmp_path, corpus_dir,
                                                         flag):
        prep = tmp_path / "prep"
        assert main(["prep", "--telemetry", str(corpus_dir / "telemetry.csv"),
                     "--frames", str(corpus_dir / "frames"),
                     "--out", str(prep)]) == EXIT_OK
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(Model(make_discrete_model("1CL-1FC", input_hw=16), seed=0), ckpt)
        files = {"--checkpoint": str(ckpt), "--manifest": str(prep / "manifest.tsv"),
                 "--telemetry": str(corpus_dir / "telemetry.csv")}
        files[flag] = str(tmp_path)
        code = main(["eval", *(a for kv in files.items() for a in kv),
                     "--frames", str(corpus_dir / "frames"),
                     "--batch-size", "4", "--out", str(tmp_path / "e")])
        assert code == EXIT_BAD_INPUT

    @pytest.mark.parametrize("argv,named", [
        (["train", "--resume", "{ckpt}", "--image-size", "32"],
         ["--image-size 32", "--image-size 16"]),
        (["train", "--resume", "{ckpt}", "--arch", "3CL-2FC"], ["--arch 3CL-2FC"]),
        (["train", "--task", "brake_throttle", "--arch", "1CL-1FC"], ["--arch 1CL-1FC"]),
        (["bench", "--checkpoint", "{ckpt}", "--task", "discrete"],
         ["--task discrete", "--task real"]),
        (["bench", "--checkpoint", "{ckpt}", "--arch", "4CL-3FC"], ["--arch 4CL-3FC"]),
        (["bench", "--checkpoint", "{ckpt}", "--image-size", "32"],
         ["--image-size 32", "--image-size 16"]),
        (["prep", "--synth", "20", "--telemetry", "{absent}"], ["--telemetry"]),
        (["prep", "--synth", "20", "--frames", "{absent}"], ["--frames"]),
        (["prep", "--telemetry", "{csv}", "--frames", "{frames}", "--image-size", "32"],
         ["--image-size 32", "--synth"]),
        (["render", "--synth", "12", "--checkpoint", "{ckpt}"],
         ["--checkpoint", "16x16", "256x256"]),
    ], ids=["resume-image-size", "resume-arch", "brake-throttle-arch", "bench-task",
            "bench-arch", "bench-image-size", "prep-telemetry", "prep-frames",
            "prep-image-size", "render-checkpoint-size"])
    def test_flag_that_does_not_apply_is_refused_before_any_work(
            self, tmp_path, corpus_dir, real16, capsys, monkeypatch, argv, named):
        paths = {"ckpt": real16, "absent": str(tmp_path / "absent"),
                 "csv": str(corpus_dir / "telemetry.csv"),
                 "frames": str(corpus_dir / "frames")}

        def no_frames(*args, **kwargs):
            raise AssertionError("frames built before the refusal")

        monkeypatch.setattr(cli, "synth_track_dataset", no_frames)
        monkeypatch.setattr(corpus, "load_image", no_frames)
        train = ["--synth", "40", "--epochs", "1", "--batch-size", "8"]
        bench = ["--iters", "100", "--warmup", "0"]
        extra = {"train": train, "bench": bench}.get(argv[0], [])
        out = tmp_path / "out"
        code = main([a.format(**paths) for a in argv] + extra + ["--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert all(text in err for text in named), err
        assert [p.name for p in out.iterdir()] == ["run_info.txt"]

    def test_bench_checkpoint_accepts_flags_that_agree(self, tmp_path, real16):
        out = tmp_path / "bench"
        code = main(["bench", "--checkpoint", real16, "--task", "real",
                     "--image-size", "16", "--iters", "100", "--warmup", "0",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "latency.txt").exists()

    def test_flag_inventory(self):
        # a flag added, removed or renamed shows up here as a reviewed edit
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        shared = {"--seed", "--out"}
        data = {"--synth", "--manifest", "--telemetry", "--frames", "--crop"}
        sgd = {"--lr", "--decay", "--batch-size", "--epochs"}
        flags = {name: {a.option_strings[0] for a in p._actions
                        if not isinstance(a, argparse._HelpAction)}
                 for name, p in sub.choices.items()}
        assert flags == {
            "prep": shared | {"--telemetry", "--frames", "--synth", "--image-size"},
            "train": shared | data | sgd | {"--image-size", "--task", "--arch",
                                            "--resume"},
            "eval": shared | data | {"--checkpoint", "--split", "--batch-size"},
            "gridsearch": shared | data | sgd | {"--image-size", "--arch",
                                                 "--filters", "--strides"},
            "augment": shared | data | {"--image-size", "--shift-range", "--k",
                                        "--mixed-size"},
            "render": shared | data | {"--checkpoint", "--split", "--limit"},
            "bench": shared | {"--task", "--arch", "--checkpoint", "--image-size",
                               "--warmup", "--iters"},
            "activations": shared | data | {"--checkpoint", "--split", "--layer",
                                            "--batch-size"},
        }
        assert sum(map(len, flags.values())) == 86

    @pytest.mark.parametrize("argv,flag,floor", [
        (["prep", "--synth", "20"], "--image-size", 1),
        (["train", "--synth", "40", "--task", "real", "--epochs", "1",
          "--batch-size", "4"], "--image-size", 1),
        (["gridsearch", "--synth", "20", "--filters", "3,3", "--strides", "1,1",
          "--epochs", "1", "--batch-size", "4"], "--image-size", 1),
        (["augment", "--synth", "20", "--shift-range", "0"], "--image-size", 1),
        (["bench", "--task", "real", "--iters", "100", "--warmup", "0"],
         "--image-size", 1),
        (["augment", "--synth", "20", "--image-size", "16"], "--shift-range", 0),
        (["augment", "--synth", "20", "--image-size", "16", "--shift-range", "3"],
         "--mixed-size", 0),
    ], ids=["prep-image-size", "train-image-size", "gridsearch-image-size",
            "augment-image-size", "bench-image-size", "shift-range", "mixed-size"])
    def test_count_flag_below_its_floor_is_a_usage_error(self, tmp_path, capsys, argv,
                                                         flag, floor):
        out = tmp_path / "below"
        below = str(floor - 1)
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, below, "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err and f", got '{below}'" in err, err
        assert not out.exists()
        assert main([*argv, flag, str(floor), "--out", str(tmp_path / "at")]) == EXIT_OK

    def test_augment_shift_range_must_fit_the_frame(self, tmp_path, capsys,
                                                    monkeypatch):
        assert main(["augment", "--synth", "20", "--image-size", "16",
                     "--shift-range", "15", "--out", str(tmp_path / "fits")]) == EXIT_OK
        monkeypatch.setattr(cli, "synth_track_dataset", None)
        out = tmp_path / "a"
        code = main(["augment", "--synth", "20", "--image-size", "16", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--shift-range 24" in err and "--image-size 16" in err, err
        assert [p.name for p in out.iterdir()] == ["run_info.txt"]

    @pytest.mark.parametrize("command", ["prep", "train", "eval", "gridsearch",
                                         "augment", "render", "bench", "activations",
                                         "config"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        if command == "config":
            (tmp_path / "run.cfg").write_text("synth=20\nseed=-1\n")
            argv = ["prep", "--config", str(tmp_path / "run.cfg")]
        else:
            argv = [command, "--seed", "-1"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "argument --seed: " in err and ", got '-1'" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["nan", "inf", "-inf"])
    def test_non_finite_k_is_a_usage_error(self, tmp_path, capsys, k):
        out = tmp_path / "a"
        with pytest.raises(SystemExit) as exc:
            main(["augment", "--synth", "20", "--image-size", "16", "--shift-range", "3",
                  f"--k={k}", "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "argument --k: " in err and f", got '{k}'" in err, err
        assert not out.exists()

    def test_mixed_size_beyond_the_split_is_a_usage_error(self, tmp_path, capsys):
        # --synth 20 puts 12 frames in train: a mix of 14 takes 2 normal and
        # 12 shifted frames, one of 15 needs 13 shifted
        argv = ["augment", "--synth", "20", "--image-size", "16", "--shift-range", "3"]
        assert main([*argv, "--mixed-size", "14", "--out", str(tmp_path / "fits")]) \
            == EXIT_OK
        out = tmp_path / "a"
        assert main([*argv, "--mixed-size", "15", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--mixed-size 15: " in err and "have 12/12" in err, err
        assert [p.name for p in out.iterdir()] == ["run_info.txt"]

    @pytest.mark.parametrize("argv,message", [
        (["train", "--task", "real", "--out", "{out}"], "need either --synth N"),
        (["prep", "--out", "{out}"], "prep needs --telemetry and --frames"),
        (["train", "--out", "{out}", "--config"], "--config needs a file argument"),
        (["train", "--config", "{bad}", "--out", "{out}"],
         "config lines must be key=value, got 'epochs'"),
        (["--config", "{good}"], "--config requires a subcommand"),
        (["train", "--config", "{undecodable}", "--out", "{out}"],
         "can't decode byte 0xff"),
    ], ids=["train-no-data", "prep-no-data", "config-no-file", "config-line-no-equals",
            "config-no-subcommand", "config-not-text"])
    def test_missing_data_source_or_bad_config_is_a_usage_error(self, tmp_path, capsys,
                                                                argv, message):
        (tmp_path / "bad.cfg").write_text("epochs\n")
        (tmp_path / "good.cfg").write_text("epochs=1\n")
        (tmp_path / "undecodable.cfg").write_bytes(b"epochs=1\xff\n")
        paths = {"out": str(tmp_path / "o"), "bad": str(tmp_path / "bad.cfg"),
                 "good": str(tmp_path / "good.cfg"),
                 "undecodable": str(tmp_path / "undecodable.cfg")}
        assert main([a.format(**paths) for a in argv]) == EXIT_USAGE
        assert message in capsys.readouterr().err
