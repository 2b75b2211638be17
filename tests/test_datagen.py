"""Tests for synthetic scene generation, dataset files, and featurization."""

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from wtalab import (
    ConfigurationError,
    DatasetParseError,
    GeneratorConfig,
    InputError,
    Scene,
    featurize,
    generate,
    generate_split,
    load_config,
    load_dataset,
    save_dataset,
)
from wtalab import datagen
from wtalab.cli import main
from wtalab.datagen import branch_waypoints


def tiny_config(**overrides) -> GeneratorConfig:
    base = dict(
        probabilities=(0.5, 0.5),
        turns=(0.5, -0.5),
        speed=1.0,
        noise_std=0.05,
        past_len=4,
        future_len=6,
        seed=11,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


class TestGeneratorConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(probabilities=(0.5, 0.4)),
            dict(probabilities=(0.5, 0.5, 0.0)),
            dict(probabilities=(1.5, -0.5)),
            dict(turns=(0.5,)),
            dict(speed=0.0),
            dict(noise_std=-0.1),
            dict(past_len=0),
            dict(future_len=0),
            dict(seed=-1),
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            tiny_config(**overrides).validate()

    @pytest.mark.parametrize(
        "probabilities, turns",
        [((), ()), ((), (0.5,)), ((0.5, 0.3, 0.2), (0.5, -0.5)), ((1.0,), (0.5, -0.5))],
    )
    def test_branch_count_mismatch_names_both_lengths(self, probabilities, turns):
        config = tiny_config(probabilities=probabilities, turns=turns)
        message = f"got {len(probabilities)} probabilities and {len(turns)} turns"
        with pytest.raises(ConfigurationError, match=message):
            config.validate()

    def test_defaults_validate(self):
        GeneratorConfig().validate()


class TestBranchWaypoints:
    def test_straight_branch_walks_along_x(self):
        cfg = tiny_config(turns=(0.0, 0.5), speed=2.0)
        points = branch_waypoints(cfg, 0)
        expected = np.stack(
            [2.0 * np.arange(1, 7), np.zeros(6)], axis=1
        )
        assert np.allclose(points, expected, atol=1e-12)

    def test_total_heading_change_matches_turn(self):
        cfg = tiny_config(turns=(0.0, math.pi / 2), future_len=100)
        points = branch_waypoints(cfg, 1)
        last_step = points[-1] - points[-2]
        final_heading = math.atan2(last_step[1], last_step[0])
        assert final_heading == pytest.approx(math.pi / 2, abs=0.02)

    def test_step_length_equals_speed(self):
        cfg = tiny_config(speed=3.0)
        points = branch_waypoints(cfg, 1)
        steps = np.diff(np.vstack([[0.0, 0.0], points]), axis=0)
        assert np.allclose(np.linalg.norm(steps, axis=1), 3.0, atol=1e-12)


def one_scene(config: GeneratorConfig, index: int) -> Scene:
    """Scene `index` of the stream config.seed defines."""
    (scene,) = generate(config, 1, index)
    return scene


class TestGenerateScene:
    def test_shapes_and_id_format(self):
        cfg = tiny_config()
        scene = one_scene(cfg, 7)
        assert scene.past.shape == (4, 2)
        assert scene.future.shape == (6, 2)
        assert scene.scene_id == "scene-11-000007"
        assert scene.mode_label in (0, 1)

    def test_past_ends_near_origin(self):
        cfg = tiny_config(noise_std=0.0)
        scene = one_scene(cfg, 0)
        assert np.allclose(scene.past[-1], [0.0, 0.0], atol=1e-12)

    def test_noise_free_future_lies_on_branch(self):
        cfg = tiny_config(noise_std=0.0)
        scene = one_scene(cfg, 3)
        assert np.allclose(
            scene.future, branch_waypoints(cfg, scene.mode_label), atol=1e-12
        )

    def test_bitwise_deterministic(self):
        cfg = tiny_config()
        a = one_scene(cfg, 42)
        b = one_scene(cfg, 42)
        assert np.array_equal(a.past, b.past)
        assert np.array_equal(a.future, b.future)
        assert a.mode_label == b.mode_label

    def test_chunked_generation_matches_serial(self):
        cfg = tiny_config()
        serial = generate(cfg, 10)
        chunk = generate(cfg, 5, start_index=5)
        for a, b in zip(serial[5:], chunk):
            assert a.scene_id == b.scene_id
            assert np.array_equal(a.past, b.past)
            assert np.array_equal(a.future, b.future)

    def test_different_seeds_give_different_scenes(self):
        a = one_scene(tiny_config(seed=1), 0)
        b = one_scene(tiny_config(seed=2), 0)
        assert not np.array_equal(a.past, b.past)

    def test_negative_count_rejected(self):
        with pytest.raises(InputError):
            generate(tiny_config(), -3)

    def test_zero_count_gives_empty_list(self):
        assert generate(tiny_config(), 0) == []

    def test_branch_frequencies_match_probabilities(self):
        cfg = tiny_config(
            probabilities=(0.5, 0.3, 0.2),
            turns=(0.0, 0.4, -0.4),
            seed=5,
        )
        scenes = generate(cfg, 2000)
        counts = np.bincount([s.mode_label for s in scenes], minlength=3)
        expected = 2000 * np.asarray(cfg.probabilities)
        result = stats.chisquare(counts, expected)
        assert result.pvalue > 1e-4


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def reference_scene(config: GeneratorConfig, index: int) -> Scene:
    """One scene from its own stream, drawn the way the package first did it:
    the branch through Generator.choice, then past and future noise."""
    rng = np.random.default_rng([config.seed, index])
    branch = int(rng.choice(len(config.probabilities), p=np.asarray(config.probabilities)))
    past_x = (np.arange(config.past_len) - (config.past_len - 1)) * config.speed
    past = np.stack([past_x, np.zeros(config.past_len)], axis=1)
    future = branch_waypoints(config, branch)
    past = past + rng.normal(0.0, config.noise_std, size=past.shape)
    future = future + rng.normal(0.0, config.noise_std, size=future.shape)
    return Scene(
        scene_id=f"scene-{config.seed}-{index:06d}",
        past=past,
        future=future,
        mode_label=branch,
    )


def assert_matches_reference(config: GeneratorConfig, count: int, start_index: int):
    expected = [reference_scene(config, start_index + i) for i in range(count)]
    scenes = generate(config, count, start_index)
    assert len(scenes) == count
    for got, want in zip(scenes, expected):
        assert got.scene_id == want.scene_id
        assert got.mode_label == want.mode_label
        assert type(got.mode_label) is int
        assert got.past.tobytes() == want.past.tobytes()
        assert got.future.tobytes() == want.future.tobytes()
    features, targets = generate_split(config, count, start_index)
    want_features = np.stack([featurize(scene).features for scene in expected])
    want_targets = np.stack([featurize(scene).target for scene in expected])
    assert features.dtype == want_features.dtype and targets.dtype == want_targets.dtype
    assert features.shape == want_features.shape
    assert targets.shape == want_targets.shape
    assert features.tobytes() == want_features.tobytes()
    assert targets.tobytes() == want_targets.tobytes()
    return expected


class TestGenerationOracle:
    """generate and generate_split against the per-scene reference, byte for byte."""

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("start_index", [0, 5, 1234])
    def test_every_shipped_config(self, path, seed, start_index):
        generator = load_config(path).generator
        assert_matches_reference(dataclasses.replace(generator, seed=seed), 40, start_index)

    def test_single_branch(self):
        config = tiny_config(probabilities=(1.0,), turns=(0.3,))
        scenes = assert_matches_reference(config, 30, 2)
        assert {s.mode_label for s in scenes} == {0}

    def test_zero_probability_branch_never_drawn(self):
        config = tiny_config(probabilities=(0.5, 0.0, 0.5), turns=(0.4, 0.0, -0.4))
        scenes = assert_matches_reference(config, 300, 0)
        assert {s.mode_label for s in scenes} == {0, 2}

    @pytest.mark.parametrize(
        "probabilities",
        [(0.3, 0.3, 0.4 + 6e-10), (0.1, 0.2, 0.7 - 8e-10), (0.5 + 9e-10, 0.0, 0.5)],
    )
    def test_probabilities_off_one_within_tolerance(self, probabilities):
        assert sum(probabilities) != 1.0
        config = tiny_config(probabilities=probabilities, turns=(0.4, 0.0, -0.4))
        assert_matches_reference(config, 200, 9)

    def test_noise_free_negative_zero_turn(self):
        # The noise is added as Generator.normal makes it, 0.0 + 0 * z, so a
        # -0.0 waypoint comes out as +0.0.
        config = tiny_config(turns=(-0.0, 0.5), noise_std=0.0)
        assert_matches_reference(config, 20, 0)

    def test_empty_range(self):
        assert generate(tiny_config(), 0, 4) == []
        with pytest.raises(ConfigurationError):
            generate_split(tiny_config(), 0)

    @pytest.mark.parametrize("fn", [generate, generate_split])
    def test_range_checks(self, fn):
        with pytest.raises(InputError):
            fn(tiny_config(), -1)
        with pytest.raises(InputError):
            fn(tiny_config(), 3, -2)
        with pytest.raises(ConfigurationError):
            fn(tiny_config(probabilities=(0.5, 0.4)), 3)

    @pytest.mark.parametrize("fn", [generate, generate_split])
    def test_non_finite_coordinates_rejected(self, fn):
        with pytest.raises(InputError, match="finite"):
            fn(tiny_config(turns=(math.nan, 0.0)), 3)

    def test_non_finite_probability_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            tiny_config(probabilities=(math.nan, 1.0)).validate()


class TestDatasetFiles:
    def test_round_trip_is_exact(self, tmp_path):
        scenes = generate(tiny_config(), 25)
        path = tmp_path / "scenes.jsonl"
        save_dataset(scenes, path)
        loaded = load_dataset(path)
        assert len(loaded) == 25
        for a, b in zip(scenes, loaded):
            assert a.scene_id == b.scene_id
            assert a.mode_label == b.mode_label
            assert np.array_equal(a.past, b.past)
            assert np.array_equal(a.future, b.future)

    def test_empty_file_loads_empty(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        path.write_text("")
        assert load_dataset(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        scenes = generate(tiny_config(), 2)
        path = tmp_path / "scenes.jsonl"
        save_dataset(scenes, path)
        path.write_text(path.read_text().replace("\n", "\n\n"))
        assert len(load_dataset(path)) == 2

    def write_records(self, tmp_path, lines):
        path = tmp_path / "scenes.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def good_record(self) -> str:
        return json.dumps(
            {
                "scene_id": "scene-0-000000",
                "past": [[0.0, 0.0]],
                "future": [[1.0, 0.0]],
                "mode_label": 0,
            }
        )

    def test_invalid_json_names_line(self, tmp_path):
        path = self.write_records(tmp_path, [self.good_record(), "{oops"])
        with pytest.raises(DatasetParseError) as excinfo:
            load_dataset(path)
        assert excinfo.value.line_number == 2
        assert "line 2" in str(excinfo.value)

    def test_non_object_record_names_line(self, tmp_path):
        path = self.write_records(
            tmp_path, [self.good_record(), self.good_record(), "[1, 2]"]
        )
        with pytest.raises(DatasetParseError) as excinfo:
            load_dataset(path)
        assert excinfo.value.line_number == 3

    def test_missing_key_names_line_and_key(self, tmp_path):
        record = json.loads(self.good_record())
        del record["future"]
        path = self.write_records(tmp_path, [json.dumps(record)])
        with pytest.raises(DatasetParseError, match="future"):
            load_dataset(path)

    def test_bad_waypoints_rejected(self, tmp_path):
        record = json.loads(self.good_record())
        record["past"] = [[1.0, 2.0, 3.0]]
        path = self.write_records(tmp_path, [json.dumps(record)])
        with pytest.raises(DatasetParseError) as excinfo:
            load_dataset(path)
        assert excinfo.value.line_number == 1

    def test_non_numeric_waypoints_rejected(self, tmp_path):
        record = json.loads(self.good_record())
        record["future"] = [["a", "b"]]
        path = self.write_records(tmp_path, [json.dumps(record)])
        with pytest.raises(DatasetParseError):
            load_dataset(path)

    def test_non_integer_mode_label_rejected(self, tmp_path):
        record = json.loads(self.good_record())
        record["mode_label"] = "left"
        path = self.write_records(tmp_path, [json.dumps(record)])
        with pytest.raises(DatasetParseError, match="mode_label"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("past", [[True, 0.0]], "past must be a list of \\[x, y\\] pairs"),
            ("past", [[0.0, False]], "past must be a list of \\[x, y\\] pairs"),
            ("future", [[1.0, None]], "future must be a list of \\[x, y\\] pairs"),
            ("future", [[1.0, 10**400]], "finite"),
            ("mode_label", True, "mode_label must be an integer"),
            ("mode_label", 1.0, "mode_label must be an integer"),
            ("scene_id", 7, "scene_id must be a string"),
            ("scene_id", None, "scene_id must be a string"),
            ("scene_id", ["a"], "scene_id must be a string"),
        ],
        ids=[
            "bool-x",
            "bool-y",
            "null-y",
            "huge-int",
            "bool-label",
            "float-label",
            "int-id",
            "null-id",
            "list-id",
        ],
    )
    def test_wrongly_typed_values_rejected_on_their_line(
        self, tmp_path, key, value, problem
    ):
        record = json.loads(self.good_record())
        record[key] = value
        path = self.write_records(tmp_path, [self.good_record(), json.dumps(record)])
        with pytest.raises(DatasetParseError, match=problem) as excinfo:
            load_dataset(path)
        assert excinfo.value.line_number == 2
        assert str(excinfo.value).count("line 2") == 1

    def test_integer_coordinates_load_as_floats(self, tmp_path):
        record = json.loads(self.good_record())
        record["past"] = [[1, -2], [0, 0]]
        path = self.write_records(tmp_path, [json.dumps(record)])
        (scene,) = load_dataset(path)
        assert scene.past.dtype == np.float64
        assert scene.past.tolist() == [[1.0, -2.0], [0.0, 0.0]]

    def test_non_utf8_file_names_path(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        path.write_bytes(b"\xff\xfe" + self.good_record().encode())
        with pytest.raises(InputError, match="not UTF-8") as excinfo:
            load_dataset(path)
        assert str(path) in str(excinfo.value)


BENCHMARK_CONFIG = CONFIG_DIR / "benchmark_awta.json"


def generate_command(out: Path, *flags: str) -> int:
    return main(["generate", "--config", str(BENCHMARK_CONFIG), "--out", str(out), *flags])


def no_scene(*args, **kwargs):
    raise AssertionError("a Scene was built")


class TestGenerateCommand:
    """`wtalab generate` writes the bytes of save_dataset(generate(...)),
    streamed from one array generation, without building a Scene."""

    @pytest.mark.parametrize("count", [0, 1, 65])
    def test_same_bytes_as_save_dataset(self, tmp_path, monkeypatch, capsys, count):
        generator = load_config(BENCHMARK_CONFIG).generator
        save_dataset(generate(generator, count, start_index=7), tmp_path / "want.jsonl")
        monkeypatch.setattr(datagen, "Scene", no_scene)
        got = tmp_path / "got.jsonl"
        assert generate_command(got, "--count", str(count), "--start-index", "7") == 0
        assert got.read_bytes() == (tmp_path / "want.jsonl").read_bytes()
        assert capsys.readouterr().out == f"wrote {count} scenes to {got}\n"

    def test_an_unwritable_out_fails_before_any_scene(self, tmp_path, monkeypatch, capsys):
        calls = []
        real = datagen._generate_arrays
        monkeypatch.setattr(
            datagen, "_generate_arrays", lambda *args: calls.append(args[1:]) or real(*args)
        )
        assert generate_command(tmp_path / "missing" / "d.jsonl", "--count", "5") == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"
        assert calls == [] and list(tmp_path.iterdir()) == []
        assert generate_command(tmp_path / "d.jsonl", "--count", "5", "--start-index", "3") == 0
        assert calls == [(5, 3)]

    def test_peak_memory_is_below_twice_the_file(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        tracemalloc.start()
        try:
            assert generate_command(out, "--count", "8000") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.stat().st_size


class TestFeaturize:
    def test_features_end_at_origin(self):
        scene = one_scene(tiny_config(), 0)
        feat = featurize(scene)
        assert feat.features.shape == (8,)
        assert np.allclose(feat.features[-2:], [0.0, 0.0], atol=1e-15)

    def test_offset_is_last_past_point(self):
        scene = one_scene(tiny_config(), 2)
        feat = featurize(scene)
        assert np.array_equal(feat.offset, scene.past[-1])

    def test_labels_carried_through(self):
        scene = one_scene(tiny_config(), 4)
        feat = featurize(scene)
        assert feat.scene_id == scene.scene_id
        assert feat.mode_label == scene.mode_label


class TestSceneValidation:
    @pytest.mark.parametrize(
        "past, future",
        [
            (np.zeros((0, 2)), np.zeros((3, 2))),
            (np.zeros((3, 3)), np.zeros((3, 2))),
            (np.zeros((3, 2)), np.zeros(6)),
            (np.full((3, 2), np.inf), np.zeros((3, 2))),
        ],
    )
    def test_bad_scene_arrays_rejected(self, past, future):
        with pytest.raises(InputError):
            Scene(scene_id="s", past=past, future=future, mode_label=0)


RING_CONFIG = CONFIG_DIR / "quantization_ring.json"


class TestShippedSceneFamilies:
    """The scene families that configs/ describe, each in one file."""

    def test_three_branch_branches_are_distinct(self):
        cfg = load_config(CONFIG_DIR / "benchmark_awta.json").generator
        assert cfg == GeneratorConfig()
        ends = [branch_waypoints(cfg, b)[-1] for b in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(ends[i] - ends[j]) > 5.0

    def test_endpoint_ring_has_single_step_and_zero_features(self):
        cfg = dataclasses.replace(load_config(RING_CONFIG).generator, seed=1)
        assert cfg.past_len == 1 and cfg.future_len == 1
        features, _ = generate_split(cfg, 20)
        assert features.shape == (20, 2)
        assert np.allclose(features, 0.0, atol=1e-15)

    def test_endpoint_ring_modes_are_equally_spaced(self):
        cfg = load_config(RING_CONFIG).generator
        ends = np.array([branch_waypoints(cfg, b)[0] for b in range(6)])
        radii = np.linalg.norm(ends, axis=1)
        assert np.allclose(radii, 2.5, atol=1e-12)
        angles = np.sort(np.arctan2(ends[:, 1], ends[:, 0]))
        gaps = np.diff(angles)
        assert np.allclose(gaps, math.pi / 3, atol=1e-12)
