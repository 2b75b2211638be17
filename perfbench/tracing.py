"""Span tracer that wraps wtalab's public functions from outside the package.

The tracer patches every public function of the traced layer modules at
every binding where a caller looks it up: `wtalab.harness.forward_batch` and
`wtalab.metrics.forward_batch` are separate names for one function, and both
are replaced. Each call records a span (name, start, end, parent) in memory;
count hooks record work done at the same boundary. `traced()` restores every
patched name on exit.

A layer or function that does not exist is skipped, so the metrics that need
it are reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import sys
import time
from collections import Counter
from typing import Callable, Iterator

LAYERS = ("datagen", "network", "losses", "metrics", "postselect", "harness")


class Tracer:
    """In-memory span store. Spans are parallel lists indexed by span id."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.installed: set[str] = set()
        self.broken_hooks: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.scene_ids: set[str] = set()
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.ends.append(math.nan)
            self._stack.append(index)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = clock()
                self._stack.pop()
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except Exception:  # a counter must never change the program's result
                    self.broken_hooks.add(name)
            return result

        return traced

    def snapshot(self) -> "Spans":
        return Spans(list(self.names), list(self.starts), list(self.ends), list(self.parents))


class Spans:
    """A finished span tree with derived durations and self times."""

    def __init__(self, names, starts, ends, parents):
        self.names = names
        self.starts = starts
        self.ends = ends
        self.parents = parents

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Spans nest strictly (one thread, stack discipline), so the children
        of a span never overlap and their durations sum to the time they
        cover inside it.
        """
        durations = self.durations()
        own = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        return own

    def roots(self) -> list[int]:
        return [i for i, parent in enumerate(self.parents) if parent < 0]

    def to_json(self) -> dict:
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        return {
            "names": table,
            "name": [ids[n] for n in self.names],
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
        }


# ---------------------------------------------------------------------------
# Count hooks: work done, recorded where the call happens.
# ---------------------------------------------------------------------------


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def gemm_flop(layer_dims: list[int], rows: int, backward: bool = False) -> int:
    """Computed multiply-add flop of the dense layers for `rows` inputs.

    Forward: one (rows, fan_in) x (fan_in, fan_out) product per layer.
    Backward: one weight-gradient product per layer, plus one product that
    carries the gradient to the layer below for every layer but the first.
    """
    pairs = list(zip(layer_dims[:-1], layer_dims[1:]))
    per_row = sum(fan_in * fan_out for fan_in, fan_out in pairs)
    if backward:
        per_row += sum(fan_in * fan_out for fan_in, fan_out in pairs[1:])
    return 2 * rows * per_row


def _layer_dims(params) -> list[int]:
    return [int(params.weights[0].shape[1])] + [int(w.shape[0]) for w in params.weights]


def _count_scenes(key: str):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += len(result)

    return hook


def _count_featurize(tracer, args, kwargs, result):
    tracer.scene_ids.add(result.scene_id)


def _count_forward(tracer, args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    rows = int(result[0].shape[0])
    tracer.counts["network.forward_batch.rows"] += rows
    tracer.counts["network.gemm_flop"] += gemm_flop(_layer_dims(params), rows)


def _count_backward(tracer, args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    rows = int(_arg(args, kwargs, 2, "d_trajectories").shape[0])
    tracer.counts["network.gemm_flop"] += gemm_flop(_layer_dims(params), rows, backward=True)


def _count_checkpoint_bytes(tracer, args, kwargs, result):
    tracer.counts["network.save_checkpoint.bytes"] += os.path.getsize(
        _arg(args, kwargs, 1, "path")
    )


def _count_evaluate(tracer, args, kwargs, result):
    tracer.counts["metrics.evaluate.scenes"] += len(_arg(args, kwargs, 1, "scenes"))


def _count_sweep(tracer, args, kwargs, result):
    tracer.counts["harness.sweep.cells"] += len(result)
    tracer.counts["harness.sweep.failed_cells"] += sum(
        1 for cell in result if cell.status != "ok"
    )


HOOKS: dict[str, Callable] = {
    "datagen.generate": _count_scenes("datagen.generate.scenes"),
    "datagen.load_dataset": _count_scenes("datagen.load_dataset.scenes"),
    "datagen.featurize": _count_featurize,
    "network.forward_batch": _count_forward,
    "network.backward_batch": _count_backward,
    "network.save_checkpoint": _count_checkpoint_bytes,
    "metrics.evaluate": _count_evaluate,
    "harness.sweep": _count_sweep,
}


# ---------------------------------------------------------------------------
# Patching.
# ---------------------------------------------------------------------------


def _public_functions(module) -> dict[str, Callable]:
    return {
        attr: value
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    }


def install(tracer: Tracer, package: str = "wtalab") -> list[tuple[object, str, object]]:
    """Wrap each layer's public functions at every binding in the package.

    Returns the (module, attribute, original) triples that `restore` puts
    back. Only modules already imported are patched.
    """
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]
    wrappers: dict[int, tuple[Callable, Callable]] = {}
    for layer in LAYERS:
        module = sys.modules.get(f"{package}.{layer}")
        if module is None:
            continue
        for attr, fn in _public_functions(module).items():
            name = f"{layer}.{attr}"
            wrappers[id(fn)] = (fn, tracer.wrap(name, fn, HOOKS.get(name)))
            tracer.installed.add(name)
    patches = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                patches.append((module, attr, value))
                setattr(module, attr, entry[1])
    return patches


def restore(patches: list[tuple[object, str, object]]) -> None:
    for module, attr, original in reversed(patches):
        setattr(module, attr, original)


@contextlib.contextmanager
def traced(tracer: Tracer, package: str = "wtalab") -> Iterator[Tracer]:
    patches = install(tracer, package)
    try:
        yield tracer
    finally:
        restore(patches)
