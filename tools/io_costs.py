"""Print the median time, the tracemalloc peak and the median minor page
faults of each piece of dataset-file I/O, for N generated scenes:

    python tools/io_costs.py [CONFIG] [--scenes N] [--repeats R] [--repo CHECKOUT]

The scenes come from CONFIG's generator block (default
configs/benchmark_wta12_nms.json) and are written to a temporary file.
The pieces are save_generated of that file, load_split of it with the
split cache emptied first (a miss), load_split of it again (a hit), and
load_dataset of it. Each piece is timed R times, with one BLAS thread. The
peak_kib and kept_kib columns come from three further calls of each piece
under tracemalloc: the median of the peak above the memory traced before
the call, and of what the call left traced, with its result still held.
peak_kib less kept_kib is what the call held only while it ran. The minflt
column is the median change in resource.getrusage's ru_minflt over one
timed call. --repo measures the wtalab sources of another checkout.
"""

import argparse
import os
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PIECES = ("save_generated", "load_split_miss", "load_split_hit", "load_dataset")
TRACED_CALLS = 3


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("config", nargs="?", default=ROOT / "configs" / "benchmark_wta12_nms.json")
    parser.add_argument("--scenes", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--repo", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2, for the quartiles")
    if args.scenes < 1:
        parser.error("--scenes must be at least 1")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"  # before numpy loads
    sys.path.insert(0, str(args.repo.resolve() / "src"))
    from wtalab import datagen, harness

    generator = harness.load_config(args.config).generator
    if generator is None:
        parser.error(f"{args.config} has no generator block")
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "scenes.jsonl"
        calls = {
            "save_generated": lambda: datagen.save_generated(generator, args.scenes, path),
            "load_split_miss": lambda: datagen.load_split(path),
            "load_split_hit": lambda: datagen.load_split(path),
            "load_dataset": lambda: datagen.load_dataset(path),
        }

        def before(name):
            """Empties the split cache, and fills it again before a hit."""
            datagen._splits.clear()
            if name == "load_split_hit":
                datagen.load_split(path)

        calls["save_generated"]()
        rows = []
        for name in PIECES:
            seconds, faults = [], []
            for _ in range(args.repeats):
                before(name)
                minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                start = time.perf_counter()
                result = calls[name]()
                seconds.append(time.perf_counter() - start)
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt)
                del result
            peaks, kept = [], []
            for _ in range(TRACED_CALLS):
                before(name)
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
                result = calls[name]()
                current, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                del result
                peaks.append(peak - base)
                kept.append(current - base)
            q1, median, q3 = statistics.quantiles([s * 1e3 for s in seconds], n=4)
            rows.append(
                (name, median, q3 - q1, statistics.median(peaks) / 1024,
                 statistics.median(kept) / 1024, statistics.median_low(faults), len(seconds))
            )
        size = path.stat().st_size
    print(f"# {args.scenes} scenes, {size / 2**20:.2f} MiB file")
    print(f"{'piece':<17}{'median_ms':>10}{'iqr_ms':>9}{'peak_kib':>10}{'kept_kib':>10}"
          f"{'minflt':>8}{'calls':>7}")
    for name, median, iqr, peak, kept, minflt, count in rows:
        print(f"{name:<17}{median:>10.3f}{iqr:>9.3f}{peak:>10.0f}{kept:>10.0f}"
              f"{minflt:>8}{count:>7}")


if __name__ == "__main__":
    main()
