"""Host-speed reference: fixed pieces of work timed next to every call.

On a shared host the same code runs up to 1.8x slower for seconds to
minutes at a time. CPU time slows with wall time, and the OS reports next
to no steal time, so the slowdown is not time spent descheduled, and a
whole 30 s run can fall into it. The reference kernels below slow with the
program. They never call wtalab, so a change to the program cannot move
them.

Each kernel is one kind of work wtalab spends its time on, and each
workload names the kernels that match its calls (`Workload.reference`):
per-scene Python loops and numpy calls on tiny arrays for `eval-nms12` and
`sweep-phase2`, BLAS products and elementwise work on batch arrays for
`train-branch3`. A worker times the kernels once after its set-up and
again after every call. A timing of t seconds taken between reference
times r_before and r_after counts as

    t * nominal / ((r_before + r_after) / 2)

where nominal and the reference times are summed over the workload's
kernels; `setup_s` uses all kernels and the reference time just after it.
On a busy 2-vCPU x86-64 host, over 2-minute stretches of back-to-back
calls, this cut the spread between 30 s medians from 28% to 3%
(`eval-nms12`), from 16% to 6% (`sweep-phase2`) and from 9% to 7%
(`train-branch3`).
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal(24)
_ACTIVATIONS = _rng.standard_normal((64, 64))
_WEIGHTS = _rng.standard_normal((64, 366))
_HYPOTHESES = _rng.standard_normal((64, 6, 30, 2))
_TARGETS = _rng.standard_normal((64, 1, 30, 2))


def _python() -> float:
    acc = 0.0
    for i in range(120000):
        acc += (i % 7) * 0.5 - (i & 3)
    counts: dict[int, int] = {}
    for i in range(45000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc + len(counts)


def _small_numpy() -> float:
    acc = 0.0
    for _ in range(4500):
        v = _SMALL * 2.0 + 1.0
        acc += float(v.max()) + float(np.argmin(v))
    return acc


def _gemm() -> float:
    acc = 0.0
    for _ in range(400):
        acc += float(np.tanh(_ACTIVATIONS @ _WEIGHTS).sum())
    return acc


def _batch_numpy() -> float:
    acc = 0.0
    for _ in range(150):
        cost = ((_HYPOTHESES - _TARGETS) ** 2).sum(axis=(2, 3))
        acc += float(np.exp(-cost / 100.0).sum())
    return acc


KERNELS = {
    "python": _python,
    "small_numpy": _small_numpy,
    "gemm": _gemm,
    "batch_numpy": _batch_numpy,
}

# Each kernel's time on an unloaded 2-vCPU x86-64 host with one BLAS
# thread. They only set the scale of the normalized figures.
NOMINAL_S = {"python": 0.019, "small_numpy": 0.020, "gemm": 0.048, "batch_numpy": 0.007}


def reference(kernels, min_s: float = 0.0) -> float:
    """Mean wall time of one pass over the named kernels, repeating passes
    until `min_s` has passed (at least one pass)."""
    passes = 0
    start = time.perf_counter()
    while True:
        for name in kernels:
            KERNELS[name]()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_s:
            return elapsed / passes


def host_factor(kernels, measured_s: float) -> float:
    """Factor that rescales a timing taken where one pass over the named
    kernels took `measured_s` to the nominal host."""
    return sum(NOMINAL_S[k] for k in kernels) / measured_s
