"""Batch command-line front door.

Commands: train, eval, sample, correlate, gen-random.  Every stochastic
command requires an explicit --seed; given identical flags, the same BLAS
thread count and the same numpy and BLAS build, the outputs are
byte-identical.  --threads (default 1) caps BLAS threads only when
threadpoolctl is installed; otherwise the cap is whatever
OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS / MKL_NUM_THREADS) was set to
before the process started.  Results go to stdout, diagnostics to stderr,
files only under --out.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import factor_graph as fgm
from . import mps as mpsm
from . import pbm
from .born import correlation_map, nll, partition_function
from .data import (BinaryDataset, apply_ordering, gen_random_patterns,
                   invert_ordering, load_binarized_text, make_ordering,
                   save_binarized_text, text_lines)
from .errors import (DegenerateDistributionError, DegenerateSampleError,
                     DimensionError, FormatError, NumericalError, ParseError,
                     StateError, TopologyError)
from .sampling import sample_batch, save_samples_pbm
from .training import TrainConfig, TrainStats, train
from .ttn import build_random


def _limit_threads(n: int):
    """Cap BLAS threads through threadpoolctl; without it this is a no-op,
    because BLAS reads its environment variables only when numpy loads."""
    try:
        import threadpoolctl
    except ImportError:
        return
    threadpoolctl.threadpool_limits(limits=n)


def _read_config_file(path):
    """key = value lines mapping to long flag names; '#' starts a comment."""
    out = {}
    for ln, line in text_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", ln, 1)
        key, value = (s.strip() for s in line.split("=", 1))
        out[key.replace("-", "_")] = value
    return out


def _resolve_ordering(dataset: BinaryDataset, order: str, shape):
    """The leaf ordering of ``dataset`` under --order and --shape."""
    image_shape = dataset.image_shape
    if shape:
        try:
            h, w = (int(x) for x in shape.lower().split("x"))
        except ValueError:
            raise ParseError(f"--shape must be HxW, got {shape!r}")
        if h * w != dataset.n_pixels:
            raise DimensionError(
                f"--shape {shape} does not match {dataset.n_pixels} pixels")
        image_shape = (h, w)
    if order == "2d":
        if len(image_shape) != 2:
            raise DimensionError(
                "--order 2d needs 2-D shaped data; pass --shape HxW")
        return make_ordering("hierarchical-2d", image_shape)
    return make_ordering("raster-1d", image_shape)


def _load_dataset(path):
    """Text file of 0/1 rows, or a directory of raw PBM images."""
    if os.path.isdir(path):
        matrix, shape = pbm.read_pbm_dir(path)
        return BinaryDataset(matrix, shape, name=str(path))
    return load_binarized_text(path)


def _leaf_rows(path, desc):
    """The rows of a data file in a model's leaf order ``desc``, or as
    stored when the model has none."""
    dataset = _load_dataset(path)
    return dataset.samples if desc is None else apply_ordering(dataset, desc)


def cmd_train(args) -> int:
    config = TrainConfig(
        learning_rate=args.lr, d_max=args.dmax, scheme=args.scheme,
        svd_cutoff=args.svd_cutoff, epochs=args.epochs,
        batch_size=args.batch_size, seed=args.seed,
        zero_amplitude=args.zero_amplitude)
    for path in [args.data] + ([args.test_data] if args.test_data else []):
        if not os.path.exists(path):
            raise FileNotFoundError(path)
    dataset = _load_dataset(args.data)
    desc = _resolve_ordering(dataset, args.order, args.shape)
    matrix = apply_ordering(dataset, desc)
    if args.test_data:   # read and checked before anything is written
        test_matrix = _leaf_rows(args.test_data, desc)
    os.makedirs(args.out, exist_ok=True)
    model_path = os.path.join(args.out, "model.ttnborn")
    stats_path = os.path.join(args.out, "stats.csv")

    def on_epoch(model, epoch, stats):
        nlls = stats["nll"] if args.model == "treefg" else stats.nll
        print(f"{args.model} epoch {epoch} nll={nlls[-1]:.6f}", file=sys.stderr)
        if args.checkpoint_every and (epoch + 1) % args.checkpoint_every == 0:
            path = os.path.join(args.out, f"model_epoch{epoch + 1:05d}.ttnborn")
            ckpt.save_checkpoint(path, model, ordering=desc, seed=args.seed,
                                 epoch=epoch + 1)

    if args.model == "treefg":
        fg = fgm.heap_shaped_fg(desc.padded_size, seed=args.seed)
        model, fg_stats = fgm.fg_train(fg, matrix, config, on_epoch=on_epoch)
        epochs = len(fg_stats["nll"])
        stats = TrainStats(nll=fg_stats["nll"], seconds=fg_stats["seconds"],
                           max_bond=[2] * epochs,
                           truncation_errors=[[]] * epochs)
        evaluate = fgm.fg_nll
    else:
        build = build_random if args.model == "ttn" else mpsm.mps_build_random
        model, stats = train(build(desc.padded_size, args.dmax, args.seed),
                             matrix, config, on_epoch=on_epoch)
        evaluate = nll
    ckpt.save_checkpoint(model_path, model, ordering=desc, seed=args.seed,
                         epoch=config.epochs)
    stats.write_csv(stats_path, record_timing=args.record_timing)
    print(f"train_nll={evaluate(model, matrix):.6f}")
    if args.test_data:
        print(f"test_nll={evaluate(model, test_matrix):.6f}")
    return 0


def _load_model(path, command=None):
    """(model, header, ordering descriptor) of a checkpoint; a TTN or MPS
    only when a ``command`` needs the Born-machine interface."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    model, header = ckpt.load_checkpoint(path)
    if command and header["model_type"] == "treefg":
        raise StateError(f"{command} supports ttn and mps models")
    return model, header, header.get("ordering_descriptor")


def cmd_eval(args) -> int:
    model, header, desc = _load_model(args.model_path)
    matrix = _leaf_rows(args.data, desc)
    if header["model_type"] == "treefg":
        value, log_z = fgm.fg_nll(model, matrix), fgm.sum_product_log_z(model)
    else:
        value, log_z = nll(model, matrix), partition_function(model)
    print(f"# exact log_z={log_z:.6f}", file=sys.stderr)
    print(f"nll={value:.6f}")
    return 0


def cmd_sample(args) -> int:
    model, _, desc = _load_model(args.model_path, "sample")
    samples = sample_batch(model, args.count, args.seed, ordering=desc)
    os.makedirs(args.out, exist_ok=True)
    shape = desc.raw_shape if desc is not None else (samples.shape[1],)
    if args.format in ("pbm", "both"):
        save_samples_pbm(samples, shape, args.out, prefix=args.prefix,
                         sheet=args.sheet)
    if args.format in ("txt", "both"):
        np.savetxt(os.path.join(args.out, f"{args.prefix}s.txt"), samples,
                   fmt="%d")
    print(f"wrote {args.count} samples to {args.out}")
    return 0


def cmd_correlate(args) -> int:
    model, _, desc = _load_model(args.model_path, "correlate")
    try:
        pixels = [int(p) for p in args.pixels.split(",") if p]
    except ValueError:
        raise ParseError(f"--pixels must be comma-separated ints: {args.pixels!r}")
    n_raw = model.n_sites if desc is None else len(desc.permutation)
    for p in pixels:
        if not 0 <= p < n_raw:
            raise ValueError(f"--pixels: pixel {p} out of range for {n_raw} "
                             "image pixels")
    os.makedirs(args.out, exist_ok=True)
    for p in pixels:
        leaf_ref = p if desc is None else int(desc.permutation[p])
        leaf_map = correlation_map(model, leaf_ref)
        if desc is not None:
            raw = invert_ordering(leaf_map, desc).reshape(desc.raw_shape)
        else:
            raw = leaf_map.reshape(1, -1)
        out_path = os.path.join(args.out, f"corr_{p}.csv")
        np.savetxt(out_path, raw, fmt="%.17g", delimiter=",")
    print(f"wrote {len(pixels)} correlation maps to {args.out}")
    return 0


def cmd_gen_random(args) -> int:
    dataset = gen_random_patterns(args.n_pixels, args.count, args.seed,
                                  distinct=args.distinct)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    save_binarized_text(args.out, dataset)
    print(f"wrote {args.count} patterns of {args.n_pixels} pixels to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttnborn",
        description="Tree tensor network Born machine: train, evaluate and "
                    "sample exact-likelihood generative models of binary images.")
    parser.add_argument("--threads", type=int, default=1,
                        help="cap BLAS worker threads (default 1); takes "
                             "effect only with threadpoolctl installed, "
                             "otherwise set OPENBLAS_NUM_THREADS before "
                             "starting")
    parser.add_argument("--config", default=None,
                        help="optional key=value file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write checkpoint+stats")
    p.add_argument("--model", choices=("ttn", "mps", "treefg"), default="ttn")
    p.add_argument("--data")
    p.add_argument("--test-data", default=None)
    p.add_argument("--order", choices=("1d", "2d"), default="1d")
    p.add_argument("--shape", default=None, help="raw image shape HxW")
    p.add_argument("--dmax", type=int)
    p.add_argument("--scheme", choices=("one-site", "two-site"),
                   default="two-site")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--svd-cutoff", type=float, default=1e-12)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--zero-amplitude", choices=("strict", "lenient"),
                   default="strict")
    p.add_argument("--record-timing", action="store_true",
                   help="write real wall times into stats.csv (non-reproducible)")
    p.set_defaults(func=cmd_train,
                   _required=("data", "dmax", "epochs", "seed", "out"))

    p = sub.add_parser("eval", help="print the exact NLL of a dataset")
    p.add_argument("--model-path")
    p.add_argument("--data")
    p.set_defaults(func=cmd_eval, _required=("model_path", "data"))

    p = sub.add_parser("sample", help="draw exact samples into image files")
    p.add_argument("--model-path")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--format", choices=("pbm", "txt", "both"), default="pbm")
    p.add_argument("--sheet", action="store_true",
                   help="one tiled contact sheet instead of one file per sample")
    p.add_argument("--prefix", default="sample")
    p.set_defaults(func=cmd_sample,
                   _required=("model_path", "count", "seed", "out"))

    p = sub.add_parser("correlate", help="write correlation maps as CSV")
    p.add_argument("--model-path")
    p.add_argument("--pixels",
                   help="comma-separated reference pixels (raw image indices)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_correlate,
                   _required=("model_path", "pixels", "out"))

    p = sub.add_parser("gen-random", help="write a random-pattern dataset")
    p.add_argument("--n-pixels", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--distinct", action="store_true",
                   help="resample until all patterns are distinct")
    p.set_defaults(func=cmd_gen_random,
                   _required=("n_pixels", "count", "seed", "out"))
    return parser


_ERROR_CLASSES = (
    ("parse", (ParseError, FormatError)),
    ("shape", (DimensionError, TopologyError)),
    ("numeric", (NumericalError, StateError, DegenerateDistributionError,
                 DegenerateSampleError)),
    ("io", (OSError,)),
    ("argument", (ValueError,)),
)


# a store-true flag's values in a config file, matched case-insensitively
_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}


def _apply_config_defaults(parser, argv):
    """Layer a key=value config file under the flags; explicit flags win.
    A value that its flag's type or choices reject is a ParseError."""
    pre, _ = parser.parse_known_args(argv)
    if not getattr(pre, "config", None):
        return
    defaults = _read_config_file(pre.config)
    parsers = [parser, *parser._subparsers._group_actions[0].choices.values()]
    # a flag several parsers share is read by the first that owns it
    actions = {a.dest: a for p in reversed(parsers) for a in p._actions}
    typed = {}
    for key, raw in defaults.items():
        if key not in actions:
            raise ParseError(f"unknown config key {key!r}")
        action = actions[key]
        if isinstance(action, argparse._StoreTrueAction):
            typed[key] = _SWITCH_VALUES.get(raw.lower())
            if typed[key] is None:
                raise ParseError(f"config key {key!r}: {raw!r} is not yes/no")
            continue
        try:   # the flag's own type and choices checks
            typed[key] = parser._get_values(action, [raw])
        except argparse.ArgumentError as exc:
            raise ParseError(f"config key {key!r}: {exc.message}")
    # Subparsers parse into a fresh namespace, so the defaults must be
    # installed on each subparser that owns the flag; explicit flags still
    # override installed defaults.
    for p in parsers:
        dests = {a.dest for a in p._actions}
        p.set_defaults(**{k: v for k, v in typed.items() if k in dests})


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        _apply_config_defaults(parser, argv)
        args = parser.parse_args(argv)
        missing = [name for name in getattr(args, "_required", ())
                   if getattr(args, name) is None]
        if missing:
            flags = ", ".join("--" + m.replace("_", "-") for m in missing)
            raise ParseError(f"missing required arguments: {flags}")
        _limit_threads(args.threads)
        return args.func(args)
    except Exception as exc:
        for tag, classes in _ERROR_CLASSES:
            if isinstance(exc, classes):
                print(f"error [{tag}]: {exc}", file=sys.stderr)
                return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
