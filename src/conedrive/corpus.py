"""On-disk corpus formats: frame directories, sidecar indexes, manifests.

A corpus directory holds ``telemetry.csv`` (``data.format_telemetry``'s raw
units) plus a ``frames/`` directory of zero-padded ``frame_000123.ppm`` files
and a ``frames_index.tsv`` sidecar mapping frame index to timestamp in
milliseconds. A dataset manifest pins each of the ``SPLITS`` by (log row,
frame index), so any split is exactly reproducible and auditable.

``load_pairs`` decodes a split's frames on the package's shared thread pool
(``workers``), one contiguous run of rows per worker, and returns the pairs
in row order, so its output is the same bytes at any worker count. The
telemetry log is read on every call, but its parse and scaled records are
reused while the text is unchanged, so ``prep_corpus`` and each split's
``load_pairs`` share one parse and one scaling.
"""
from __future__ import annotations

import functools
import itertools
import os

import numpy as np

from . import workers
from .data import (DatasetSplit, FramePair, format_telemetry, pair_nearest,
                   parse_telemetry, scale_records, split_60_20_20)
from .errors import DataError
from .ppm import load_image, to_u8, write_ppm

FRAMES_INDEX = "frames_index.tsv"
FRAMES_INDEX_HEADER = "frame_index\ttimestamp_ms"
SPLITS = ("train", "val", "test")
MANIFEST_HEADER = "# conedrive dataset manifest v1"


def frame_filename(index: int) -> str:
    return f"frame_{index:06d}.ppm"


def write_corpus(pairs: list[FramePair], out_dir) -> None:
    """Write loaded pairs back out as a re-ingestable corpus: frame i is the
    image of pairs[i], and the telemetry CSV is ``format_telemetry``'s
    raw-unit text of their records."""
    frames_dir = os.path.join(out_dir, "frames")
    os.makedirs(frames_dir, exist_ok=True)
    index_lines = [FRAMES_INDEX_HEADER]
    for i, pair in enumerate(pairs):
        write_ppm(os.path.join(frames_dir, frame_filename(i)), to_u8(pair.image))
        index_lines.append(f"{i}\t{pair.record.timestamp:.1f}")
    with open(os.path.join(out_dir, "telemetry.csv"), "w") as fh:
        fh.write(format_telemetry(pair.record for pair in pairs))
    with open(os.path.join(frames_dir, FRAMES_INDEX), "w") as fh:
        fh.write("\n".join(index_lines) + "\n")


def _read_text(path) -> str:
    """The text of the file at ``path``; a byte that does not decode is a
    DataError naming the file, not the codec's bare ValueError."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not {exc.encoding} text at byte {exc.start}") from None


def read_frames_index(frames_dir):
    """Sidecar index as (frame indexes, timestamps ms), sorted by time."""
    path = os.path.join(frames_dir, FRAMES_INDEX)
    if not os.path.exists(path):
        raise DataError(f"frames index not found: {path}")
    indexes, stamps = [], []
    header, *rows = _read_text(path).split("\n")
    if header.strip() != FRAMES_INDEX_HEADER:
        raise DataError(f"bad frames index header {header.strip()!r}")
    for lineno, line in enumerate(rows, start=2):
        if not line.strip():
            continue
        try:
            idx, ts = line.split("\t")
            indexes.append(int(idx))
            stamps.append(float(ts))
        except ValueError:
            raise DataError(f"{path} line {lineno}: malformed frames index row "
                            f"{line.rstrip()!r}") from None
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
        for name, pairs in zip(SPLITS, (split.train, split.validation, split.test)):
            for pair in pairs:
                fh.write(f"{name}\t{pair.log_row}\t{pair.frame_index}\n")


def read_manifest(path):
    """Returns (membership dict split->[(log_row, frame_index)], seed, dropped)."""
    lines = _read_text(path).split("\n")
    if lines[0] != MANIFEST_HEADER:
        raise DataError(f"not a conedrive manifest: {path}")
    seed = dropped = None
    membership = {name: [] for name in SPLITS}
    in_table = False
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            if line.startswith("seed "):
                (seed,) = map(int, line.split()[1:])
            elif line.startswith("dropped "):
                (dropped,) = map(int, line.split()[1:])
            elif line.startswith("counts ") or line.startswith("split\t"):
                in_table = line.startswith("split\t")
            elif in_table:
                name, log_row, frame_index = line.split("\t")
                membership[name].append((int(log_row), int(frame_index)))
            else:
                raise ValueError
        except KeyError:
            raise DataError(f"{path} line {lineno}: manifest has unknown split "
                            f"{name!r}") from None
        except ValueError:
            raise DataError(f"{path} line {lineno}: malformed manifest line "
                            f"{line!r}") from None
    if seed is None or dropped is None:
        raise DataError("manifest is missing its seed/dropped header lines")
    return membership, seed, dropped


@functools.lru_cache(maxsize=1)
def _parse_text(text: str):
    records, skipped = parse_telemetry(text)
    scaled, warnings = scale_records(records)
    return tuple(scaled), tuple(skipped), warnings


def _read_telemetry(path):
    """(scaled records, skipped row numbers, clamp warnings) of the log at
    ``path``: ``parse_telemetry`` then ``scale_records``. The file is read
    on every call, but the result for the last text read is reused while
    the text is unchanged, so a pass over ``prep_corpus`` and each split's
    ``load_pairs`` parses and scales its log once. The records are a tuple
    of frozen records; the skipped list returned is fresh."""
    records, skipped, warnings = _parse_text(_read_text(path))
    return records, list(skipped), warnings


def prep_corpus(telemetry_path, frames_dir, seed: int):
    """parse -> scale -> pair -> split on an on-disk corpus.

    Returns (split, skipped row numbers, clamp warnings). Images are not
    loaded here; pairing needs timestamps only.
    """
    records, skipped, warnings = _read_telemetry(telemetry_path)
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

    The whole log is parsed and scaled (once per text, shared with
    ``prep_corpus``), since a log row indexes its valid records. Every log
    row is checked before any frame is read. The frames are then decoded in
    one contiguous part of the rows per worker, through ``workers.run``; a
    frame that cannot be decoded raises the error of the first such frame
    in row order, naming its file."""
    records, _, _ = _read_telemetry(telemetry_path)
    for log_row, _ in membership_rows:
        if not 0 <= log_row < len(records):
            raise DataError(f"manifest log row {log_row} outside telemetry log")
    paths = [os.path.join(frames_dir, frame_filename(frame_index))
             for _, frame_index in membership_rows]

    def decode(part):
        images = []
        for path in paths[part]:
            try:
                images.append(load_image(path, crop=crop, target=image_size))
            except DataError as exc:
                raise DataError(f"{path}: {exc}") from None
        return images

    step = max(1, -(-len(paths) // workers.WORKERS))
    parts = [slice(a, a + step) for a in range(0, len(paths), step)]
    images = itertools.chain.from_iterable(workers.run(decode, parts))
    return [FramePair(image, records[log_row], log_row, frame_index)
            for image, (log_row, frame_index) in zip(images, membership_rows)]
