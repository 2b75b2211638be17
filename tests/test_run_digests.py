"""Tests for tools/run_digests.py: the comparison, and the commands that
run_outputs runs. The runs themselves are whole `wtalab` commands and are
not repeated here."""

import importlib.util
import json
from pathlib import Path

from wtalab.losses import VARIANTS
from wtalab.schedulers import CONTROLS, KINDS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "run_digests.py"
spec = importlib.util.spec_from_file_location("run_digests", TOOL)
run_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_digests)

OURS = ["aa  run/config.json", "bb  run/epochs.csv", "cc  eval.csv"]


def test_identical_lines_compare_equal():
    assert run_digests.compare(OURS, list(OURS)) == ([], 3, 3)


def test_a_differing_digest_prints_both_lines():
    theirs = ["aa  run/config.json", "xx  run/epochs.csv", "cc  eval.csv"]
    differing, same, total = run_digests.compare(OURS, theirs)
    assert differing == ["- xx  run/epochs.csv", "+ bb  run/epochs.csv"]
    assert (same, total) == (2, 3)


def test_a_path_on_one_side_only_is_a_difference():
    differing, same, total = run_digests.compare(OURS, OURS[:2] + ["dd  other.csv"])
    assert differing == ["- dd  other.csv", "+ cc  eval.csv"]
    assert (same, total) == (2, 4)


def test_against_exits_one_on_a_difference(monkeypatch, capsys):
    outputs = {"ours": OURS, "theirs": OURS[:2] + ["zz  eval.csv"]}
    monkeypatch.setattr(run_digests, "digest_lines", lambda repo: outputs[repo.name])
    assert run_digests.main(["--repo", "ours", "--against", "theirs"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "- zz  eval.csv",
        "+ cc  eval.csv",
        "2 of 3 digests identical",
    ]
    outputs["theirs"] = OURS
    assert run_digests.main(["--repo", "ours", "--against", "theirs"]) == 0
    assert capsys.readouterr().out == "3 of 3 digests identical\n"


def test_without_against_prints_the_lines(monkeypatch, capsys):
    monkeypatch.setattr(run_digests, "digest_lines", lambda repo: OURS)
    assert run_digests.main(["--repo", "ours"]) == 0
    assert capsys.readouterr().out.splitlines() == OURS


def run_stubbed(repo, root, monkeypatch):
    """run_outputs with wtalab stubbed: the commands it ran, each eval's
    config appended, and the outputs it returned."""
    calls = []

    def fake_wtalab(repo, root, *args):
        calls.append(args)
        if args[0] == "eval":
            config = json.loads(Path(args[args.index("--config") + 1]).read_text())
            calls[-1] = (*args, config)
            Path(args[args.index("--out") + 1]).write_text("csv\n")

    monkeypatch.setattr(run_digests, "wtalab", fake_wtalab)
    return calls, run_digests.run_outputs(repo, root)


def test_an_eval_reads_the_generated_jsonl_through_a_dataset_block(tmp_path, monkeypatch):
    repo = TOOL.parents[1]
    calls, outputs = run_stubbed(repo, tmp_path, monkeypatch)
    scenes = tmp_path / "benchmark_awta.jsonl"
    jsonl_csv = tmp_path / "benchmark_wta12_nms_eval_benchmark_awta_jsonl.csv"
    assert outputs[-7:-5] == [scenes, jsonl_csv]
    assert [call[0] for call in calls[-5:-2]] == ["eval", "generate", "eval"]
    *args, config = calls[-3]
    first_eval_checkpoint = calls[-5][calls[-5].index("--checkpoint") + 1]
    assert args[args.index("--checkpoint") + 1] == first_eval_checkpoint
    assert "generator" not in config
    assert config["dataset"] == {"train_path": str(scenes), "val_path": str(scenes)}
    eval_config = json.loads((repo / "configs" / "benchmark_wta12_nms.json").read_text())
    del eval_config["generator"]
    assert {k: v for k, v in config.items() if k != "dataset"} == eval_config


def test_a_sweep_and_the_charts_of_a_run_are_digested(tmp_path, monkeypatch):
    repo = TOOL.parents[1]
    calls, outputs = run_stubbed(repo, tmp_path, monkeypatch)
    sweep_dir = tmp_path / "phase_transition_sweep"
    charts_dir = tmp_path / "benchmark_awta_charts"
    assert calls[-2:] == [
        (
            "sweep",
            "--config",
            str(repo / "configs" / "phase_transition.json"),
            "--t0",
            "40,10",
            "--rho",
            "0.78",
            "--seeds",
            "4",
            "--out-dir",
            str(sweep_dir),
        ),
        (
            "charts",
            "--epochs-csv",
            str(tmp_path / "runs" / "benchmark_awta" / "epochs.csv"),
            "--out-dir",
            str(charts_dir),
        ),
    ]
    assert outputs[-5:] == [
        sweep_dir / "sweep.csv",
        charts_dir / "loss_vs_epoch.svg",
        charts_dir / "effective_hypotheses_vs_epoch.svg",
        charts_dir / "schedule_vs_epoch.svg",
        charts_dir / "charts_data.csv",
    ]


def test_epoch_logs_are_digested_without_wall_s(tmp_path):
    header = "epoch,train_loss,wall_s\n"
    for name in ("epochs.csv", "charts_data.csv", "other.csv"):
        a, b = tmp_path / "a" / name, tmp_path / "b" / name
        for path, wall_s in ((a, "0.1234"), (b, "9.8765")):
            path.parent.mkdir(exist_ok=True)
            path.write_text(f"{header}0,1.5,{wall_s}\n")
        same = run_digests.digest(a) == run_digests.digest(b)
        assert same == (name != "other.csv")


def test_every_variant_trains_on_every_schedule_kind_it_accepts(tmp_path, monkeypatch):
    repo = TOOL.parents[1]
    calls, outputs = run_stubbed(repo, tmp_path, monkeypatch)
    paths = [Path(call[2]) for call in calls if call[0] == "train"]
    derived = [path for path in paths if path.parent == tmp_path / "pairings"]
    configs = [json.loads(path.read_text()) for path in derived]
    pairings = [(c["loss"]["variant"], c["scheduler"]["kind"]) for c in configs]
    accepted = {
        (variant, kind)
        for variant in VARIANTS
        for kind in KINDS
        if variant in ("wta", "rwta") or kind in CONTROLS[variant][1]
    }
    assert set(pairings) == accepted
    assert len(pairings) == len(accepted) + 1
    integer = [
        (c["loss"], c["scheduler"]) for c in configs if type(c["scheduler"]["t0"]) is int
    ]
    assert integer == [({"variant": "awta"}, {"kind": "constant", "t0": 2, "rho": 0.78})]
    assert all(c["loss"] == {"variant": c["loss"]["variant"]} for c in configs)
    base = json.loads((repo / "configs" / "phase_transition.json").read_text())
    for config in configs:
        assert config["model"] == dict(base["model"], n_heads=4)
        assert config["epochs"] == 8
        assert "total_steps" not in config["scheduler"]
        assert config["generator"] == base["generator"]
        run = tmp_path / config["out_dir"]
        assert [run / name for name in run_digests.RUN_FILES] == [
            path for path in outputs if path.parent == run
        ]
