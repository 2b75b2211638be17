"""Command line interface.

Subcommands: generate, train, eval, sweep, charts. All exit with code 0 on
success; failures print one machine-readable JSON error line to stderr and
exit nonzero. Every command runs BLAS on one thread, so its output bytes do
not depend on the thread count the environment asks for.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import json
import math
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import harness
from .datagen import save_generated
from .errors import ConfigurationError, InputError, WtalabError


class _Parser(argparse.ArgumentParser):
    """argparse's errors as InputError, for main to report; subparsers share the class."""

    def error(self, message: str):
        raise InputError(message)


def _parse_list(kind: type, raw: str) -> list:
    """Comma-separated values of kind, as an argparse type. A float must be
    finite, as every number in a config file must be."""
    noun = "finite floats" if kind is float else f"{kind.__name__}s"
    values = []
    for part in filter(None, raw.split(",")):
        try:
            value = kind(part)
        except ValueError:
            value = None
        if value is None or (kind is float and not math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"takes comma-separated {noun}, got {part!r}")
        values.append(value)
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wtalab",
        description="Train and evaluate multi-hypothesis trajectory models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset file")
    p_gen.add_argument("--config", required=True, help="experiment config JSON")
    p_gen.add_argument("--out", required=True, help="output JSONL path")
    p_gen.add_argument("--count", type=int, default=None, help="number of scenes")
    p_gen.add_argument("--start-index", type=int, default=0)

    p_train = sub.add_parser("train", help="train one model")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None, help="override config seed")
    p_train.add_argument("--out-dir", default=None, help="override config out_dir")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--out", default=None, help="metrics CSV path")

    p_sweep = sub.add_parser("sweep", help="grid over t0, rho and seed")
    p_sweep.add_argument("--config", required=True)
    for flag, kind in (("--t0", float), ("--rho", float), ("--seeds", int)):
        parse = partial(_parse_list, kind)
        p_sweep.add_argument(flag, type=parse, required=True, help="comma-separated list")
    p_sweep.add_argument("--out-dir", required=True)

    p_charts = sub.add_parser("charts", help="render SVG charts from a CSV log")
    p_charts.add_argument("--epochs-csv", required=True, help="epochs.csv from a run")
    p_charts.add_argument("--out-dir", required=True)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    config = harness.load_config(args.config)
    if config.generator is None:
        raise ConfigurationError("config has no generator block")
    count = args.count if args.count is not None else config.train_count
    save_generated(config.generator, count, args.out, start_index=args.start_index)
    print(f"wrote {count} scenes to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = harness.load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.out_dir is not None:
        config = dataclasses.replace(config, out_dir=args.out_dir)
    result = harness.train(config)
    print(f"trained {config.epochs} epochs into {result.out_dir}")
    print(
        f"best epoch {result.best_epoch}:"
        f" val min_fde {result.report.min_fde:.4f},"
        f" miss_rate {result.report.miss_rate:.4f}"
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = harness.load_config(args.config)
    report = harness.evaluate_cmd(config, args.checkpoint, out_path=args.out)
    print(report.to_csv(), end="")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = harness.load_config(args.config)
    cells = harness.sweep(
        config,
        t0_values=args.t0,
        rho_values=args.rho,
        seeds=args.seeds,
        out_dir=args.out_dir,
    )
    failed = [c for c in cells if c.status != "ok"]
    print(f"{len(cells)} cells ({len(failed)} failed) -> {args.out_dir}/sweep.csv")
    if len(failed) == len(cells):
        raise WtalabError(
            f"every sweep cell failed; the first with {failed[0].error}"
            f" (see {args.out_dir}/sweep.csv)"
        )
    return 0


def _cmd_charts(args: argparse.Namespace) -> int:
    records = harness.read_epoch_csv(args.epochs_csv)
    written = harness.emit_charts(records, args.out_dir)
    for path in written:
        print(f"wrote {path}")
    return 0


COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "charts": _cmd_charts,
}


# (get, set) thread-count functions under the names that builds of the
# OpenBLAS bundled with numpy export.
BLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@cache
def _blas_thread_functions() -> tuple | None:
    """The get and set thread-count functions of the OpenBLAS bundled with
    numpy, or None for a numpy built against another BLAS."""
    numpy_dir = Path(np.__file__).parent
    candidates = sorted(numpy_dir.parent.glob("numpy.libs/*blas*")) + sorted(
        numpy_dir.glob(".libs/*blas*")
    )
    for path in candidates:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get_name, set_name in BLAS_THREAD_FUNCTIONS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run BLAS on one thread inside the block, then restore the caller's count.

    OpenBLAS splits a product across threads in blocks whose sums round
    differently, so the thread count changes output bits. Without the
    bundled OpenBLAS this does nothing.
    """
    functions = _blas_thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with one_blas_thread():
            return COMMANDS[args.command](args)
    except (WtalabError, OSError, MemoryError) as exc:
        # numpy raises a private MemoryError subclass; name the public one.
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
