"""tools/io_costs.py runs on a few generated scenes and prints one timing,
memory and page-fault line per piece."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PIECES = ["save_generated", "load_split_miss", "load_split_hit", "load_dataset"]


def test_prints_the_four_pieces():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "io_costs.py"), "--scenes", "20", "--repeats", "3"],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    title, header, *rows = done.stdout.splitlines()
    assert title.startswith("# 20 scenes, ")
    assert header.split() == ["piece", "median_ms", "iqr_ms", "peak_kib", "kept_kib", "minflt", "calls"]
    assert [row.split()[0] for row in rows] == PIECES
    for row in rows:
        _, median, iqr, peak, kept, minflt, calls = row.split()
        assert float(median) > 0.0 and float(iqr) >= 0.0
        assert float(peak) >= float(kept) >= 0.0
        assert int(minflt) >= 0
        assert calls == "3"
