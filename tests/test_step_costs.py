"""tools/step_costs.py runs on a tiny config and prints one timing and
page-fault line per piece."""

import json
import subprocess
import sys
from pathlib import Path

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
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["piece", "median_us", "iqr_us", "minflt", "calls"]
    assert [row.split()[0] for row in rows] == PIECES
    for row in rows:
        _, median, iqr, minflt, calls = row.split()
        assert float(median) > 0.0 and float(iqr) >= 0.0
        assert int(minflt) >= 0
        assert calls == "3"
