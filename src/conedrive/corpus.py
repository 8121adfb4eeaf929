"""On-disk corpus formats: frame directories, sidecar indexes, manifests.

A corpus directory holds ``telemetry.csv`` (raw motor units) plus a
``frames/`` directory of zero-padded ``frame_000123.ppm`` files and a
``frames_index.tsv`` sidecar mapping frame index to timestamp in
milliseconds. A dataset manifest pins split membership by
(log row, frame index) so any split is exactly reproducible and auditable.
"""
from __future__ import annotations

import os

import numpy as np

from .data import (DatasetSplit, FramePair, MOTOR_SCALE, TELEMETRY_HEADER,
                   pair_nearest, parse_telemetry, scale_records, scale_signals,
                   split_60_20_20)
from .errors import DataError
from .ppm import load_image, to_u8, write_ppm

FRAMES_INDEX = "frames_index.tsv"
MANIFEST_HEADER = "# conedrive dataset manifest v1"


def frame_filename(index: int) -> str:
    return f"frame_{index:06d}.ppm"


def write_corpus(pairs: list[FramePair], out_dir) -> None:
    """Write loaded pairs back out as a re-ingestable corpus.

    Motor speeds are unscaled back to raw units so the telemetry CSV matches
    the capture format.
    """
    frames_dir = os.path.join(out_dir, "frames")
    os.makedirs(frames_dir, exist_ok=True)
    lines = [TELEMETRY_HEADER]
    index_lines = ["frame_index\ttimestamp_ms"]
    for i, pair in enumerate(pairs):
        r = pair.record
        lines.append(
            f"{r.timestamp:.1f},{r.steering:.4f},{r.brake:.4f},{r.throttle:.4f},"
            f"{r.left_motor_speed / MOTOR_SCALE:.1f},"
            f"{r.right_motor_speed / MOTOR_SCALE:.1f}"
        )
        write_ppm(os.path.join(frames_dir, frame_filename(i)), to_u8(pair.image))
        index_lines.append(f"{i}\t{r.timestamp:.1f}")
    with open(os.path.join(out_dir, "telemetry.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(frames_dir, FRAMES_INDEX), "w") as fh:
        fh.write("\n".join(index_lines) + "\n")


def read_frames_index(frames_dir):
    """Sidecar index as (frame indexes, timestamps ms), sorted by time."""
    path = os.path.join(frames_dir, FRAMES_INDEX)
    if not os.path.exists(path):
        raise DataError(f"frames index not found: {path}")
    indexes, stamps = [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "frame_index\ttimestamp_ms":
            raise DataError(f"bad frames index header {header!r}")
        for line in fh:
            if not line.strip():
                continue
            idx, ts = line.split("\t")
            indexes.append(int(idx))
            stamps.append(float(ts))
    if not indexes:
        raise DataError("frames index lists no frames")
    order = np.argsort(stamps, kind="stable")
    return [indexes[i] for i in order], [stamps[i] for i in order]


def write_manifest(path, split: DatasetSplit) -> None:
    with open(path, "w") as fh:
        fh.write(MANIFEST_HEADER + "\n")
        fh.write(f"seed {split.seed}\n")
        fh.write(f"dropped {split.dropped}\n")
        fh.write(f"counts train={len(split.train)} val={len(split.validation)} "
                 f"test={len(split.test)}\n")
        fh.write("split\tlog_row\tframe_index\n")
        for name, pairs in (("train", split.train), ("val", split.validation),
                            ("test", split.test)):
            for pair in pairs:
                fh.write(f"{name}\t{pair.log_row}\t{pair.frame_index}\n")


def read_manifest(path):
    """Returns (membership dict split->[(log_row, frame_index)], seed, dropped)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != MANIFEST_HEADER:
        raise DataError(f"not a conedrive manifest: {path}")
    seed = dropped = None
    membership = {"train": [], "val": [], "test": []}
    in_table = False
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.startswith("seed "):
            seed = int(line.split()[1])
        elif line.startswith("dropped "):
            dropped = int(line.split()[1])
        elif line.startswith("counts ") or line.startswith("split\t"):
            in_table = line.startswith("split\t")
        elif in_table:
            name, log_row, frame_index = line.split("\t")
            if name not in membership:
                raise DataError(f"manifest has unknown split {name!r}")
            membership[name].append((int(log_row), int(frame_index)))
        else:
            raise DataError(f"malformed manifest line: {line!r}")
    if seed is None or dropped is None:
        raise DataError("manifest is missing its seed/dropped header lines")
    return membership, seed, dropped


def prep_corpus(telemetry_path, frames_dir, seed: int):
    """parse -> scale -> pair -> split on an on-disk corpus.

    Returns (split, skipped row numbers, clamp warnings). Images are not
    loaded here; pairing needs timestamps only.
    """
    with open(telemetry_path) as fh:
        records, skipped = parse_telemetry(fh.read())
    records, warnings = scale_records(records)
    indexes, stamps = read_frames_index(frames_dir)
    pairs = pair_nearest(records, stamps)
    # map positional frame slots back to on-disk frame indexes
    for pair in pairs:
        pair.frame_index = indexes[pair.frame_index]
    split = split_60_20_20(pairs, seed)
    return split, skipped, warnings


def load_pairs(membership_rows, telemetry_path, frames_dir,
               image_size: int = 256, crop=None) -> list[FramePair]:
    """Materialize manifest rows into FramePairs with images loaded.

    The whole log is parsed, since a log row indexes its valid records, but
    only the rows loaded are scaled."""
    with open(telemetry_path) as fh:
        records, _ = parse_telemetry(fh.read())
    pairs = []
    for log_row, frame_index in membership_rows:
        if not 0 <= log_row < len(records):
            raise DataError(f"manifest log row {log_row} outside telemetry log")
        image = load_image(
            os.path.join(frames_dir, frame_filename(frame_index)),
            crop=crop, target=image_size,
        )
        record, _ = scale_signals(records[log_row])
        pairs.append(FramePair(image, record, log_row, frame_index))
    return pairs
