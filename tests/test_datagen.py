"""Tests for synthetic scene generation, dataset files, and featurization."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import stats

from wtalab import (
    ConfigurationError,
    DatasetParseError,
    GeneratorConfig,
    InputError,
    Scene,
    denormalize_prediction,
    endpoint_ring_config,
    featurize,
    featurize_split,
    generate,
    generate_scene,
    load_dataset,
    save_dataset,
    three_branch_config,
)
from wtalab.datagen import branch_waypoints


def tiny_config(**overrides) -> GeneratorConfig:
    base = dict(
        n_branches=2,
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
            dict(n_branches=0),
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


class TestGenerateScene:
    def test_shapes_and_id_format(self):
        cfg = tiny_config()
        scene = generate_scene(cfg, 7)
        assert scene.past.shape == (4, 2)
        assert scene.future.shape == (6, 2)
        assert scene.scene_id == "scene-11-000007"
        assert scene.mode_label in (0, 1)

    def test_past_ends_near_origin(self):
        cfg = tiny_config(noise_std=0.0)
        scene = generate_scene(cfg, 0)
        assert np.allclose(scene.past[-1], [0.0, 0.0], atol=1e-12)

    def test_noise_free_future_lies_on_branch(self):
        cfg = tiny_config(noise_std=0.0)
        scene = generate_scene(cfg, 3)
        assert np.allclose(
            scene.future, branch_waypoints(cfg, scene.mode_label), atol=1e-12
        )

    def test_bitwise_deterministic(self):
        cfg = tiny_config()
        a = generate_scene(cfg, 42)
        b = generate_scene(cfg, 42)
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
        a = generate_scene(tiny_config(seed=1), 0)
        b = generate_scene(tiny_config(seed=2), 0)
        assert not np.array_equal(a.past, b.past)

    def test_negative_index_rejected(self):
        with pytest.raises(InputError):
            generate_scene(tiny_config(), -1)

    def test_negative_count_rejected(self):
        with pytest.raises(InputError):
            generate(tiny_config(), -3)

    def test_zero_count_gives_empty_list(self):
        assert generate(tiny_config(), 0) == []

    def test_branch_frequencies_match_probabilities(self):
        cfg = tiny_config(
            n_branches=3,
            probabilities=(0.5, 0.3, 0.2),
            turns=(0.0, 0.4, -0.4),
            seed=5,
        )
        scenes = generate(cfg, 2000)
        counts = np.bincount([s.mode_label for s in scenes], minlength=3)
        expected = 2000 * np.asarray(cfg.probabilities)
        result = stats.chisquare(counts, expected)
        assert result.pvalue > 1e-4


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


class TestFeaturize:
    def test_features_end_at_origin(self):
        scene = generate_scene(tiny_config(), 0)
        feat = featurize(scene)
        assert feat.features.shape == (8,)
        assert np.allclose(feat.features[-2:], [0.0, 0.0], atol=1e-15)

    def test_denormalize_inverts_featurize(self):
        scene = generate_scene(tiny_config(), 9)
        feat = featurize(scene)
        restored = denormalize_prediction(feat.target, feat.offset)
        assert np.allclose(restored, scene.future, atol=1e-9)

    def test_offset_is_last_past_point(self):
        scene = generate_scene(tiny_config(), 2)
        feat = featurize(scene)
        assert np.array_equal(feat.offset, scene.past[-1])

    def test_labels_carried_through(self):
        scene = generate_scene(tiny_config(), 4)
        feat = featurize(scene)
        assert feat.scene_id == scene.scene_id
        assert feat.mode_label == scene.mode_label

    def test_denormalize_rejects_bad_offset(self):
        with pytest.raises(InputError):
            denormalize_prediction(np.zeros((3, 2)), np.zeros(3))

    def test_split_stacks_featurized_scenes_in_order(self):
        scenes = generate(tiny_config(), 5)
        features, targets = featurize_split(scenes)
        assert features.shape == (5, 8)
        for row, scene in enumerate(scenes):
            feat = featurize(scene)
            assert np.array_equal(features[row], feat.features)
            assert np.array_equal(targets[row], feat.target)

    @pytest.mark.parametrize("field", ["past_len", "future_len"])
    def test_split_rejects_mixed_lengths(self, field):
        cfg = tiny_config()
        other = dataclasses.replace(cfg, **{field: getattr(cfg, field) + 1})
        with pytest.raises(ConfigurationError):
            featurize_split(generate(cfg, 2) + generate(other, 2))

    def test_split_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            featurize_split([])


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


class TestPresets:
    def test_three_branch_config_validates(self):
        cfg = three_branch_config(seed=3)
        cfg.validate()
        assert cfg.n_branches == 3
        assert cfg.probabilities == (0.4, 0.4, 0.2)
        assert cfg.seed == 3

    def test_three_branch_branches_are_distinct(self):
        cfg = three_branch_config()
        ends = [branch_waypoints(cfg, b)[-1] for b in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(ends[i] - ends[j]) > 5.0

    def test_endpoint_ring_has_single_step_and_zero_features(self):
        cfg = endpoint_ring_config(6, 2.5, seed=1)
        cfg.validate()
        assert cfg.past_len == 1 and cfg.future_len == 1
        feat = featurize(generate_scene(cfg, 0))
        assert np.allclose(feat.features, 0.0, atol=1e-15)

    def test_endpoint_ring_modes_are_equally_spaced(self):
        cfg = endpoint_ring_config(6, 2.5, noise_std=0.0)
        ends = np.array([branch_waypoints(cfg, b)[0] for b in range(6)])
        radii = np.linalg.norm(ends, axis=1)
        assert np.allclose(radii, 2.5, atol=1e-12)
        angles = np.sort(np.arctan2(ends[:, 1], ends[:, 0]))
        gaps = np.diff(angles)
        assert np.allclose(gaps, math.pi / 3, atol=1e-12)

    def test_endpoint_ring_custom_probabilities(self):
        cfg = endpoint_ring_config(4, 1.0, probabilities=(0.7, 0.1, 0.1, 0.1))
        cfg.validate()
        assert cfg.probabilities == (0.7, 0.1, 0.1, 0.1)
