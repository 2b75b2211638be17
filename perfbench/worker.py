"""One benchmark worker: a fresh interpreter that sets up a workload and
times calls into wtalab until its budget is spent.

Usage (started by run.py, never by hand):

    python3 perfbench/worker.py '<job JSON>'

The job names the workload, seed, budget, trace mode, work directory and
the monotonic time at which run.py started this process. The last line of
standard output is the worker's result as JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from calibrate import KERNELS, host_factor, reference
from layers import layer_metrics, self_time_gap
from tracing import Tracer, traced
from workloads import WORKLOADS, record

# The reference kernels after a call run for at least this share of the
# call's time, so a long call is compared with more than one short sample.
REFERENCE_SHARE = 0.05


def blas_environment() -> dict:
    """numpy and BLAS versions and the BLAS thread count actually in force."""
    import ctypes
    import numpy as np

    env = {"numpy": np.__version__, "blas_name": None, "blas_version": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas_name"], env["blas_version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, AttributeError):  # numpy without dict-mode config
        pass
    numpy_dir = Path(np.__file__).parent
    candidates = sorted(numpy_dir.parent.glob("numpy.libs/*blas*")) + sorted(
        numpy_dir.glob(".libs/*blas*")
    )
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in candidates:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                env["blas_threads"] = int(fn())
                return env
    return env


def run_call(workload, inputs, out: Path) -> dict:
    """Time one call and check its outputs; a failure is recorded, not raised."""
    start = time.perf_counter()
    try:
        result = workload.call(inputs, out)
    except Exception:  # a failed operation is counted, the run goes on
        call_s = time.perf_counter() - start
        error = traceback.format_exc(limit=3)
        return _failed(workload, inputs, call_s, error)
    call_s = time.perf_counter() - start
    try:
        outcome = workload.check(inputs, result, out, call_s)
    except Exception:  # missing or unreadable outputs fail the operation
        return _failed(workload, inputs, call_s, traceback.format_exc(limit=3))
    return {
        "call_s": call_s,
        "scene_rates": outcome.scene_rates,
        "epoch_groups": outcome.epoch_groups,
        "records": outcome.records,
    }


def _failed(workload, inputs, call_s: float, error: str) -> dict:
    records = [record(label, error) for label in workload.labels(inputs)]
    return {"call_s": call_s, "scene_rates": [], "epoch_groups": [], "records": records}


def run_traced_unit(workload, seed: int, work: Path, out: Path, tracer) -> tuple[dict, dict]:
    """Set up and call once with every layer wrapped; returns (call, spans)."""
    with traced(tracer):
        tracer.reset()
        inputs = workload.setup(seed, work)
        setup_spans = tracer.snapshot()
        tracer.reset()
        call = run_call(workload, inputs, out)
        call_spans = tracer.snapshot()
    call["layers"] = layer_metrics(tracer, setup_spans, call_spans)
    call["self_time_gap_s"] = self_time_gap(call_spans)
    call["root_s"] = sum(call_spans.durations()[i] for i in call_spans.roots())
    return call, call_spans.to_json()


def main(job: dict) -> dict:
    workload = WORKLOADS[job["workload"]]
    seed, work = job["seed"], Path(job["work"])
    out = work / f"out-{job['index']}"
    if job.get("prepare"):
        workload.prepare(seed, work)
        return {"prepared": True}

    calls = []
    last_spans = None
    tracer = Tracer() if job["trace"] else None
    inputs = workload.setup(seed, work)
    setup_end = time.monotonic()
    # The reference kernels run between calls, outside every timed span.
    setup_factor = host_factor(KERNELS, reference(KERNELS))
    before = reference(workload.reference)
    first_call = time.monotonic()
    while True:
        if tracer is None:
            call = run_call(workload, inputs, out)
        else:
            # Alternate traced and untraced units; the worker index shifts
            # the phase so both kinds run first in a fresh process.
            if (job["index"] + len(calls)) % 2:
                call, last_spans = run_traced_unit(workload, seed, work, out, tracer)
                call["traced"] = True
            else:
                call = run_call(workload, inputs, out)
                call["traced"] = False
        after = reference(workload.reference, REFERENCE_SHARE * call["call_s"])
        call["host_factor"] = host_factor(workload.reference, (before + after) / 2)
        before = after
        calls.append(call)
        elapsed = time.monotonic() - first_call
        if elapsed + call["call_s"] > job["budget_s"]:
            break
    if last_spans is not None:
        (work / f"spans-{job['index']}.json").write_text(json.dumps(last_spans))
    return {
        "setup_s": setup_end - job["spawned"],
        "setup_factor": setup_factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "env": blas_environment(),
        "calls": calls,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
