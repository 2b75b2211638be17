"""tools/step_costs.py runs on a tiny config, names its BLAS and prints one
timing and page-fault line per piece."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PIECES = ["forward_batch", "batch_objective", "backward_batch", "adam_step", "evaluate"]


def test_prints_the_five_pieces(tmp_path):
    config = json.loads((ROOT / "configs" / "phase_transition.json").read_text())
    config.update(train_count=16, val_count=8, epochs=1, batch_size=8)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(config))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_costs.py"), str(path), "--repeats", "3"],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    blas, header, *rows = done.stdout.splitlines()
    expected = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    match = re.fullmatch(r"blas (\S+) (\S+) core (\S+) threads (\S+)", blas)
    assert match, blas
    assert match.group(1, 2) == (expected["name"], expected["version"])
    if "openblas" in expected["name"]:
        # The tool sets one thread before numpy loads.
        assert match.group(4) == "1"
        assert match.group(3) != "unknown"
    assert header.split() == ["piece", "median_us", "iqr_us", "minflt", "calls"]
    assert [row.split()[0] for row in rows] == PIECES
    for row in rows:
        _, median, iqr, minflt, calls = row.split()
        assert float(median) > 0.0 and float(iqr) >= 0.0
        assert int(minflt) >= 0
        assert calls == "3"
