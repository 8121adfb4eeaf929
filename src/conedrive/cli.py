"""Command-line entry point wiring the modules into reproducible workflows.

Every subcommand takes --seed and --out, writes a reproducibility stanza
(run_info.txt: argv, seed, versions, BLAS and thread settings) into --out
before it runs, and exits with a category-specific code:

    0  success
    2  usage or configuration error (a flag value, a missing data source,
       a flag that does not apply, a malformed --config file)
    3  referenced input path not found
    4  malformed input, its file named first: the contents of a telemetry,
       image, manifest or checkpoint file, or a directory where a file belongs
    5  runtime failure (training divergence, non-finite values)

A flat key=value config file may supply any flag of the chosen subcommand
(``--config run.cfg``); flags given on the command line override the file.

A checkpoint fixes its model's task, layers and input size. ``eval``,
``activations`` and ``render`` take no --image-size: the first two read
frames at the checkpoint's size, and ``render`` always draws 256x256 camera
frames, so a --checkpoint of another size is a usage error. ``train
--resume`` and ``bench --checkpoint`` refuse any --arch, and a --task or
--image-size that disagrees with the checkpoint. A flag that does not apply
where it is given (--telemetry with --synth, say) is a usage error naming
the flag, reported before any frame is synthesized or decoded; so is an
augment --shift-range of at least --image-size, and (before anything is
written) a --mixed-size the train split cannot fill. A --synth N below
``synth.MIN_FRAMES``, an --image-size below 1, a non-finite --k and a negative
--seed, --limit, --shift-range or --mixed-size are refused while parsing.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .bench import bench_forward, hardware_description, write_latency_report
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (SPLITS, load_pairs, prep_corpus, read_manifest, write_corpus,
                     write_manifest)
from .data import (SHIFT_DEGREES_PER_PIXEL, brake_throttle_arrays,
                   build_mixed_set, classification_arrays, mixed_split,
                   regression_arrays, shift_augment, split_60_20_20)
from .errors import (CheckpointError, DataError, DivergenceError, GraphError,
                     NumericError, ShapeError)
from .graph import Model
from .metrics import (eval_classification, eval_regression, export_activations,
                      predict, task_of)
from .overlay import CAMERA_SIZE, Prediction, render_sequence
from .synth import MIN_FRAMES, synth_track_dataset
from .train import (DEFAULT_FILTER_GRID, DEFAULT_STRIDE_GRID, TrainConfig,
                    grid_search, train, write_grid_table, write_history)
from .zoo import (make_brake_throttle_model, make_discrete_model,
                  make_realvalue_model)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_BAD_INPUT = 4
EXIT_RUNTIME = 5

TASKS = ("discrete", "real", "brake_throttle")
RENDER_BATCH_SIZE = 64
DEFAULT_IMAGE_SIZE = 64


def _write_run_info(out_dir, args) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "run_info.txt"), "w") as fh:
        fh.write(f"conedrive {__version__}; numpy {np.__version__}; "
                 f"python {sys.version.split()[0]}\n")
        fh.write(f"hardware: {hardware_description()}\n")
        fh.write("argv: " + " ".join(sys.argv[1:]) + "\n")
        for key, value in sorted(vars(args).items()):
            if key != "func":
                fh.write(f"{key}={value}\n")


def _require_paths(*paths) -> None:
    for path in paths:
        if path is not None and not os.path.exists(path):
            raise FileNotFoundError(path)


def _checked(read, takes):
    """An argparse type reading a flag with ``read``, whose ValueError argparse
    reports as "<takes>, got '<text>'" (exit 2) before --out is written."""
    def parse(text):
        try:
            return read(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{takes}, got {text!r}") from None
    return parse


def _at_least(floor):
    """Reads an integer that is at least ``floor``."""
    def read(text):
        n = int(text)
        if n < floor:
            raise ValueError(text)
        return n
    return read


def _finite(text):
    """Reads a finite float."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(text)
    return x


def _ints(count):
    """Reads exactly ``count`` ','-joined integers as a tuple."""
    def read(text):
        values = tuple(int(v) for v in text.split(","))
        if len(values) != count:
            raise ValueError(text)
        return values
    return read


_SYNTH = _checked(_at_least(MIN_FRAMES),
                  f"a synthetic dataset has at least {MIN_FRAMES} frames")
_SIDE = _checked(_at_least(1), "an image size is a side of at least 1 pixel")
_GRID = _checked(lambda text: tuple(map(_ints(2), text.split(";"))),
                 "a grid is ';'-joined integer pairs such as 7,5;5,3")


def _refuse(args, where, **fixed) -> None:
    """Usage error for the first flag in ``fixed`` that was given a value
    other than the one it maps to; a flag mapped to None may not be given at
    all. ``where`` names what the flag does not apply to."""
    for name, value in fixed.items():
        given = getattr(args, name)
        if given not in (None, value):
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} {given} does not apply {where}"
                             + ("" if value is None else f", which fixes {flag} {value}"))


def _given(value, default):
    """A flag's value, or ``default`` when it was left out."""
    return default if value is None else value


def _load_split(args, names, image_size, limit=None) -> dict:
    """{name: pairs} for each split in ``names`` at ``image_size``, from
    --synth or from manifest + telemetry + frames, cut to its first ``limit``
    pairs (all when None); from a recorded drive only those pairs' frames are
    decoded."""
    if args.synth:
        _refuse(args, "to --synth data", manifest=None, telemetry=None,
                frames=None, crop=None)
        split = split_60_20_20(synth_track_dataset(args.synth, image_size,
                                                   args.seed), args.seed)
        pairs = dict(zip(SPLITS, (split.train, split.validation, split.test)))
        return {name: pairs[name][:limit] for name in names}
    if not (args.manifest and args.telemetry and args.frames):
        raise ValueError(
            "need either --synth N or all of --manifest/--telemetry/--frames")
    _require_paths(args.manifest, args.telemetry, args.frames)
    membership, _, _ = read_manifest(args.manifest)
    return {name: load_pairs(membership[name][:limit], args.telemetry, args.frames,
                             image_size, args.crop)
            for name in names}


def _selected_pairs(args, image_size, limit=None):
    """The first ``limit`` pairs (all when None) of the split named by --split."""
    return _load_split(args, (args.split,), image_size, limit)[args.split]


def _arrays_for(task, pairs):
    if task == "discrete":
        return classification_arrays(pairs)
    if task == "real":
        return regression_arrays(pairs)
    return brake_throttle_arrays(pairs)


def _image_size(model) -> int:
    """The side of the square frames ``model`` takes."""
    return model.shapes["image"][-1]


def _load_model(path) -> Model:
    """The model saved at ``path`` (--checkpoint or --resume)."""
    _require_paths(path)
    return load_checkpoint(path)


def _model(args, checkpoint, arch, image_size, task=None) -> Model:
    """The model saved at ``checkpoint``, which fixes its task, layers and
    input size; else a new one from --task, --arch and --image-size, where
    ``task``, ``arch`` and ``image_size`` stand in for a flag left out."""
    if checkpoint:
        model = _load_model(checkpoint)
        _refuse(args, f"to checkpoint {checkpoint}", arch=None,
                task=task_of(model), image_size=_image_size(model))
        return model
    task = _given(args.task, task)
    input_hw = _given(args.image_size, image_size)
    if task == "brake_throttle":
        _refuse(args, "to --task brake_throttle, whose network has one layout",
                arch=None)
        spec = make_brake_throttle_model(input_hw=input_hw)
    else:
        make = make_discrete_model if task == "discrete" else make_realvalue_model
        spec = make(_given(args.arch, arch), input_hw=input_hw)
    return Model(spec, seed=args.seed)


def _train_config(args, loss):
    return TrainConfig(initial_lr=args.lr, decay=args.decay,
                       batch_size=args.batch_size, epochs=args.epochs,
                       seed=args.seed, loss=loss)


def cmd_prep(args) -> int:
    if args.synth:
        _refuse(args, "to --synth data", telemetry=None, frames=None)
        corpus_dir = os.path.join(args.out, "corpus")
        pairs = synth_track_dataset(args.synth,
                                    _given(args.image_size, DEFAULT_IMAGE_SIZE),
                                    args.seed)
        write_corpus(pairs, corpus_dir)
        telemetry = os.path.join(corpus_dir, "telemetry.csv")
        frames = os.path.join(corpus_dir, "frames")
        print(f"synthetic corpus of {args.synth} frames written to {corpus_dir}")
    else:
        _refuse(args, "without --synth: prep reads frame timestamps only",
                image_size=None)
        if not (args.telemetry and args.frames):
            raise ValueError("prep needs --telemetry and --frames (or --synth N)")
        telemetry, frames = args.telemetry, args.frames
        _require_paths(telemetry, frames)
    split, skipped, warnings = prep_corpus(telemetry, frames, args.seed)
    manifest = os.path.join(args.out, "manifest.tsv")
    write_manifest(manifest, split)
    print(f"{len(split.train)}/{len(split.validation)}/{len(split.test)}, "
          f"{split.dropped} dropped")
    if skipped:
        print(f"skipped {len(skipped)} malformed telemetry rows: "
              f"{skipped[:10]}{'...' if len(skipped) > 10 else ''}")
    if warnings:
        print(f"clamped {warnings} out-of-range signal values")
    print(f"manifest: {manifest}")
    return EXIT_OK


def cmd_train(args) -> int:
    if not (args.task or args.resume):
        raise ValueError("train needs --task, or --resume with a checkpoint")
    model = _model(args, args.resume, "3CL-2FC", DEFAULT_IMAGE_SIZE)
    task = task_of(model)
    split = _load_split(args, ("train", "val"), _image_size(model))
    loss = "cross_entropy" if task == "discrete" else "smooth_l1"
    config = _train_config(args, loss)
    train_data = _arrays_for(task, split["train"])
    val_data = _arrays_for(task, split["val"])
    metric = "val_acc" if loss == "cross_entropy" else "val_l1"
    result = train(model, train_data, val_data, config,
                   log=lambda s: print(
                       f"epoch {s.epoch}: lr={s.lr:.6f} train_loss={s.train_loss:.5f} "
                       f"{metric}={s.val_metric:.5f} ({s.seconds:.1f}s)"))
    write_history(os.path.join(args.out, "history.tsv"), result, config)
    ckpt = os.path.join(args.out, "model.ckpt")
    save_checkpoint(model, ckpt)
    with open(os.path.join(args.out, "model.txt"), "w") as fh:
        fh.write(model.spec.to_text())
    print(f"checkpoint: {ckpt}")
    if result.diverged:
        raise DivergenceError(result.divergence_reason)
    return EXIT_OK


def cmd_eval(args) -> int:
    model = _load_model(args.checkpoint)
    task = task_of(model)
    inputs, targets = _arrays_for(task, _selected_pairs(args, _image_size(model)))
    evaluate = eval_classification if task == "discrete" else eval_regression
    report = evaluate(model, inputs, targets, args.batch_size)
    path = os.path.join(args.out, "report.txt")
    with open(path, "w") as fh:
        fh.write(f"# seed={args.seed} checkpoint={args.checkpoint} "
                 f"split={args.split}\n")
        fh.write(report.to_text())
    print(report.to_text(), end="")
    print(f"report: {path}")
    return EXIT_OK


def cmd_gridsearch(args) -> int:
    split = _load_split(args, ("train", "val"), args.image_size)
    config = _train_config(args, "smooth_l1")
    results = grid_search(
        args.arch, args.filters, args.strides, config,
        _arrays_for("real", split["train"]), _arrays_for("real", split["val"]),
        input_hw=args.image_size,
        log=lambda r: print(f"filters={r.filters} strides={r.strides} "
                            f"val_l1={r.val_loss:.4f}"
                            f"{' (diverged)' if r.diverged else ''}"))
    path = os.path.join(args.out, "grid.tsv")
    write_grid_table(path, results)
    best = results[0]
    print(f"best: filters={best.filters} strides={best.strides} "
          f"val_l1={best.val_loss:.4f}")
    print(f"table: {path}")
    return EXIT_OK


def cmd_augment(args) -> int:
    if args.shift_range >= args.image_size:
        raise ValueError(f"--shift-range {args.shift_range} must be below the "
                         f"frame width --image-size {args.image_size}")
    pairs = _load_split(args, ("train",), args.image_size)["train"]
    rng = np.random.default_rng(args.seed)
    shifts = rng.integers(-args.shift_range, args.shift_range + 1, size=len(pairs))
    shifted = [shift_augment(p, int(s), args.k) for p, s in zip(pairs, shifts)]
    if args.mixed_size:
        try:
            mixed = build_mixed_set(pairs, shifted, args.mixed_size, args.seed)
        except DataError as exc:
            raise ValueError(f"--mixed-size {args.mixed_size}: {exc}") from None
    aug_dir = os.path.join(args.out, "augmented")
    write_corpus(shifted, aug_dir)
    print(f"{len(shifted)} shifted frames written to {aug_dir}")
    if args.mixed_size:
        mixed_dir = os.path.join(args.out, "mixed")
        write_corpus(mixed, mixed_dir)
        n_normal, n_shifted = mixed_split(args.mixed_size)
        print(f"mixed evaluation set ({n_normal} normal / {n_shifted} shifted) "
              f"written to {mixed_dir}")
    return EXIT_OK


def cmd_render(args) -> int:
    model = _load_model(args.checkpoint) if args.checkpoint else None
    size = CAMERA_SIZE if model is None else _image_size(model)
    if size != CAMERA_SIZE:
        raise ValueError(f"--checkpoint {args.checkpoint} takes {size}x{size} "
                         f"frames; render draws {CAMERA_SIZE}x{CAMERA_SIZE} "
                         "camera frames")
    pairs = _selected_pairs(args, CAMERA_SIZE, args.limit or None)
    predictions = None
    if model is not None:
        predictions = _predictions(model, pairs) if pairs else []
    frames_dir = os.path.join(args.out, "sim")
    paths = render_sequence(pairs, predictions, frames_dir)
    print(f"{len(paths)} overlay frames in {frames_dir}")
    print(f"stitch at the corpus rate of ~8 FPS, e.g.:\n"
          f"  ffmpeg -framerate 8 -i {frames_dir}/sim_%06d.ppm review.mp4")
    return EXIT_OK


def _predictions(model, pairs) -> list[Prediction]:
    """Batched eval forwards over ``pairs``; class ids map to +30/0/-30 degrees."""
    task = task_of(model)
    inputs, _ = _arrays_for(task, pairs)
    out = predict(model, inputs, RENDER_BATCH_SIZE)
    if task == "discrete":
        steering = {1: 30.0, 2: 0.0, 3: -30.0}
        return [Prediction(steering=steering[int(c) + 1]) for c in out.argmax(axis=1)]
    if task == "real":
        return [Prediction(steering=float(v)) for v in out[:, 0]]
    return [Prediction(brake=float(b), throttle=float(t)) for b, t in out]


def cmd_bench(args) -> int:
    model = _model(args, args.checkpoint, "4CL-3FC", CAMERA_SIZE, task="real")
    report = bench_forward(model, warmup=args.warmup, iters=args.iters,
                           seed=args.seed)
    write_latency_report(report,
                         os.path.join(args.out, "latency.txt"),
                         os.path.join(args.out, "latency.tsv"))
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_activations(args) -> int:
    model = _load_model(args.checkpoint)
    inputs, targets = _arrays_for(task_of(model),
                                  _selected_pairs(args, _image_size(model)))
    path = os.path.join(args.out, "activations.tsv")
    rows = export_activations(model, inputs, targets, path,
                              layer=args.layer, batch_size=args.batch_size)
    print(f"{rows} activation rows in {path}")
    return EXIT_OK


def _add_data_flags(p):
    p.add_argument("--synth", type=_SYNTH, default=0, metavar="N",
                   help=f"generate an N-frame synthetic track dataset "
                        f"(N >= {MIN_FRAMES})")
    p.add_argument("--manifest", help="dataset manifest from 'prep'")
    p.add_argument("--telemetry", help="telemetry CSV")
    p.add_argument("--frames", help="frames directory with sidecar index")
    p.add_argument("--crop", help="crop rectangle x0,y0,width,height",
                   type=_checked(_ints(4), "a crop is four integers x0,y0,width,height"))


def _add_train_flags(p):
    p.add_argument("--lr", type=float, default=TrainConfig.initial_lr)
    p.add_argument("--decay", type=float, default=TrainConfig.decay)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)


def _command(sub, name, func, help):
    """A subcommand parser with the flags every command shares."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--seed", default=0,
                   type=_checked(_at_least(0), "a seed is an integer >= 0"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conedrive",
        description="End-to-end CNN driving controllers, desk scale.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "prep", cmd_prep, "parse, scale, pair, split; write manifest")
    p.add_argument("--telemetry")
    p.add_argument("--frames")
    p.add_argument("--synth", type=_SYNTH, default=0, metavar="N",
                   help=f"write an N-frame synthetic corpus (N >= {MIN_FRAMES})")
    p.add_argument("--image-size", type=_SIDE,
                   help="side of the --synth frames (default 64)")

    p = _command(sub, "train", cmd_train, "train a controller network")
    _add_data_flags(p)
    p.add_argument("--task", choices=TASKS,
                   help="required unless --resume gives a checkpoint, whose "
                        "task is used")
    p.add_argument("--arch", help="default 3CL-2FC; not with --resume or "
                                  "--task brake_throttle")
    p.add_argument("--image-size", type=_SIDE,
                   help="network input size (default 64; --resume takes the "
                        "checkpoint's)")
    p.add_argument("--resume", help="checkpoint to continue from")
    _add_train_flags(p)

    p = _command(sub, "eval", cmd_eval, "evaluate a checkpoint on a split")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--batch-size", type=int, default=64)

    p = _command(sub, "gridsearch", cmd_gridsearch, "filter/stride grid over full runs")
    _add_data_flags(p)
    p.add_argument("--image-size", type=_SIDE, default=DEFAULT_IMAGE_SIZE,
                   help="network input size (default 64)")
    p.add_argument("--arch", default="4CL-3FC")
    p.add_argument("--filters", type=_GRID, default=DEFAULT_FILTER_GRID,
                   help="compressed pairs (default '7,5;5,5;5,3;3,3')")
    p.add_argument("--strides", type=_GRID, default=DEFAULT_STRIDE_GRID,
                   help="compressed pairs (default '2,1;2,2')")
    _add_train_flags(p)

    p = _command(sub, "augment", cmd_augment, "shift-translate frames; optional mixed set")
    _add_data_flags(p)
    p.add_argument("--image-size", type=_SIDE, default=DEFAULT_IMAGE_SIZE,
                   help="side of the frames written (default 64)")
    p.add_argument("--shift-range", default=24,
                   type=_checked(_at_least(0), "a shift range is a pixel count >= 0"),
                   help="shifts drawn uniformly from [-R, R] pixels")
    p.add_argument("--k", default=SHIFT_DEGREES_PER_PIXEL,
                   type=_checked(_finite, "a steering correction is a finite number"),
                   help="steering correction in degrees per pixel")
    p.add_argument("--mixed-size", default=0,
                   type=_checked(_at_least(0), "a mixed set size is a frame count >= 0 "
                                               "(0 builds none)"),
                   help="also build a 15%%/85%% normal/shifted evaluation set")

    p = _command(sub, "render", cmd_render, "overlay frames for visual review")
    _add_data_flags(p)
    p.add_argument("--checkpoint", help="render this model's predictions too; "
                                        "it must take 256x256 frames")
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--limit", default=0,
                   type=_checked(_at_least(0), "a limit is a frame count >= 0 "
                                               "(0 renders all)"),
                   help="render first N pairs only (0: all)")

    p = _command(sub, "bench", cmd_bench, "forward-pass latency report")
    p.add_argument("--task", choices=TASKS, help="default real")
    p.add_argument("--arch", help="default 4CL-3FC")
    p.add_argument("--checkpoint", help="bench a trained model instead; it "
                                        "fixes the task, layers and input size")
    p.add_argument("--image-size", type=_SIDE, help="default 256")
    p.add_argument("--warmup", type=int, default=50)
    p.add_argument("--iters", type=int, default=1000)

    p = _command(sub, "activations", cmd_activations, "export hidden-FC activations")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--layer", help="node name; default: last hidden FC ReLU")
    p.add_argument("--batch-size", type=int, default=64)
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Insert key=value pairs from --config FILE as flags after the subcommand.

    Explicit command-line flags come later in argv, so they override the file.
    """
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        raise ValueError("--config needs a file argument")
    path = argv[at + 1]
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    tokens: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config lines must be key=value, got {line!r}")
            key, value = line.split("=", 1)
            tokens += [f"--{key.strip().replace('_', '-')}", value.strip()]
    rest = argv[:at] + argv[at + 2 :]
    if not rest:
        raise ValueError("--config requires a subcommand")
    return rest[:1] + tokens + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        parser = build_parser()
        args = parser.parse_args(argv)
        _write_run_info(args.out, args)
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: input not found: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except FileExistsError as exc:
        print(f"error: output path {exc.filename} exists and is not a directory",
              file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, GraphError, ShapeError,
            IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (DivergenceError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
