"""Tests for the comparison in tools/run_digests.py; the runs themselves are
whole `wtalab` commands and are not repeated here."""

import importlib.util
from pathlib import Path

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
