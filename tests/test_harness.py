"""Tests for experiment configs, the training loop, sweeps, charts, and the
command line interface."""

import dataclasses
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtalab import (
    ConfigurationError,
    DatasetParseError,
    ExperimentConfig,
    GeneratorConfig,
    InputError,
    LossConfig,
    ModelConfig,
    NMSConfig,
    NonFiniteError,
    OptimizerConfig,
    ScheduleState,
    SweepCell,
    emit_charts,
    evaluate,
    evaluate_cmd,
    generate,
    generate_split,
    load_config,
    load_dataset,
    save_config,
    save_dataset,
    sweep,
    train,
)
from wtalab import harness
from wtalab import _files
from wtalab._files import read_text, write_text_atomic
from wtalab.cli import main
from wtalab.harness import (
    DatasetPaths,
    EpochRecord,
    config_from_dict,
    config_to_dict,
    read_epoch_csv,
    resolve_out_dir,
    write_epoch_csv,
)
from wtalab.network import (
    GradientBuffer,
    adam_step,
    backward_batch,
    init_adam,
    init_params,
    save_checkpoint,
)
from wtalab.losses import VARIANTS, batch_objective
from wtalab.schedulers import CONTROLS, KINDS, control, value

from test_losses import reference_batch_objective
from test_network import reference_backward, reference_forward


def tiny_generator(seed=3) -> GeneratorConfig:
    return GeneratorConfig(
        probabilities=(0.5, 0.5),
        turns=(0.4, -0.4),
        speed=1.0,
        noise_std=0.05,
        past_len=3,
        future_len=4,
        seed=seed,
    )


def tiny_config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        model=ModelConfig(n_heads=3, hidden=(8,), init="glorot"),
        loss=LossConfig(variant="awta"),
        scheduler=ScheduleState(kind="exponential", t0=10.0, rho=0.5),
        optimizer=OptimizerConfig(lr=0.01),
        generator=tiny_generator(),
        train_count=24,
        val_count=16,
        epochs=2,
        batch_size=8,
        seed=1,
        out_dir=str(tmp_path / "run"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def blown_dataset_config(tmp_path) -> ExperimentConfig:
    """A dataset config whose first four train futures overflow the cost."""
    scenes = generate(tiny_generator(), 8)
    blown = [dataclasses.replace(s, future=s.future * 1e200) for s in scenes[:4]]
    save_dataset(blown + scenes[4:], tmp_path / "train.jsonl")
    save_dataset(scenes, tmp_path / "val.jsonl")
    return tiny_config(
        tmp_path,
        generator=None,
        dataset=DatasetPaths(
            train_path=str(tmp_path / "train.jsonl"),
            val_path=str(tmp_path / "val.jsonl"),
        ),
        batch_size=4,
    )


def bad_train_line_config(tmp_path) -> ExperimentConfig:
    """A dataset config whose train file breaks at line 2."""
    gen = tiny_generator()
    save_dataset(generate(gen, 1), tmp_path / "train.jsonl")
    with open(tmp_path / "train.jsonl", "a") as handle:
        handle.write('{"scene_id": \n')
    save_dataset(generate(gen, 16, start_index=24), tmp_path / "val.jsonl")
    return tiny_config(
        tmp_path,
        generator=None,
        dataset=DatasetPaths(
            train_path=str(tmp_path / "train.jsonl"),
            val_path=str(tmp_path / "val.jsonl"),
        ),
        epochs=1,
    )


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# A dataset-backed config with post-selection set, beside the generator
# configs in configs/.
DATASET_CONFIG = {
    "dataset": {"train_path": "train.jsonl", "val_path": "val.jsonl"},
    "model": {"n_heads": 3, "hidden": [8]},
    "loss": {"variant": "wta"},
    "nms": {"k_out": 2, "radius": 1},
    "epochs": 0,
    "out_dir": "runs/dataset",
}

# Keys that the loader rejects as unknown. No run read the first three: an
# awta run takes its temperature from the schedule, nms has one visiting
# order, and the branch count is the length of probabilities. Only tests set
# the next four: top-k truncation after post-selection, and Adam's
# constants, which are now adam_step's defaults. No config, acceptance check
# or benchmark workload moved the last five off one value: ewta's top_n and
# dac's depth come from their ladders, rwta's epsilon is RWTA_EPSILON, the
# score term has weight 1 and the exponential floor is T_FLOOR.
REMOVED_KEYS = [
    ({"generator": {}, "loss": {"variant": "awta", "temperature": 0.5}}, "temperature"),
    ({"generator": {}, "nms": {"k_out": 2, "radius": 1.0, "order": "score"}}, "order"),
    ({"generator": {"n_branches": 3}}, "n_branches"),
    ({"generator": {}, "eval_top_k": 2}, "eval_top_k"),
    ({"generator": {}, "optimizer": {"lr": 0.01, "beta1": 0.9}}, "beta1"),
    ({"generator": {}, "optimizer": {"beta2": 0.999}}, "beta2"),
    ({"generator": {}, "optimizer": {"eps": 1e-8}}, "eps"),
    ({"generator": {}, "loss": {"variant": "rwta", "epsilon": 0.05}}, "epsilon"),
    (
        {
            "generator": {},
            "loss": {"variant": "ewta", "top_n": 2},
            "scheduler": {"kind": "ewta-topn"},
        },
        "top_n",
    ),
    (
        {
            "generator": {},
            "loss": {"variant": "dac", "depth": 1},
            "scheduler": {"kind": "dac-depth"},
        },
        "depth",
    ),
    ({"generator": {}, "loss": {"variant": "awta", "score_coef": 1.0}}, "score_coef"),
    ({"generator": {}, "scheduler": {"kind": "exponential", "t_floor": 1e-8}}, "t_floor"),
]

# Schedules that no longer load: the linear kind is gone, and ewta and dac
# take their knob from their ladder alone, so a constant schedule has
# nothing to set.
REMOVED_SCHEDULES = [
    (
        {"generator": {}, "scheduler": {"kind": "linear", "t0": 10.0}},
        "unknown schedule kind 'linear', expected one of"
        " ('exponential', 'ewta-topn', 'dac-depth', 'constant')",
    ),
    (
        {"generator": {}, "loss": {"variant": "ewta"}, "scheduler": {"kind": "constant"}},
        "ewta needs a schedule of kind ewta-topn, got kind 'constant'",
    ),
    (
        {"generator": {}, "loss": {"variant": "dac"}, "scheduler": {"kind": "constant"}},
        "dac needs a schedule of kind dac-depth, got kind 'constant'",
    ),
]

# sha256 of the config.json that save_config writes for each config.
CONFIG_JSON_SHA256 = {
    "benchmark_awta.json": "38a9223c4a5359c28487a02dbe117ba9d09809963795fb911fe6a9eeadbe01b8",
    "benchmark_wta.json": "818be899c1d9778dddf3db99863819e1c1d6670d09cfaf8da3394b42ad46302a",
    "benchmark_wta12_nms.json": "f1283b455379cf0b30e94193dd31eb0269012da8f80c47aa006b084005438921",
    "phase_transition.json": "cf51fc3e5d8699c9f635dfe419ebc8290de326abd47935996cf1cbd3cccb6501",
    "quantization_ring.json": "1e65c8f7d107f6ab4bda7bc38189d9fd4b0ee49161a8ecd38d35cd8bb8215744",
    "dataset.json": "7556b2887dae2cea89266b66f1dba704ff6093325ae567fecc25ffaa218daa8d",
}


class TestConfigRoundTrip:
    def test_full_round_trip_through_json(self, tmp_path):
        config = tiny_config(tmp_path, nms=NMSConfig(k_out=2, radius=1.5))
        path = tmp_path / "config.json"
        save_config(config, path)
        loaded = load_config(path)
        assert loaded == config

    def test_dataset_config_round_trip(self, tmp_path):
        config = tiny_config(
            tmp_path,
            generator=None,
            dataset=DatasetPaths(train_path="train.jsonl", val_path="val.jsonl"),
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_defaults_fill_in(self):
        config = config_from_dict({"generator": {}})
        assert config.model.n_heads == 6
        assert config.scheduler.kind == "exponential"
        assert config.epochs == 50

    def test_generator_seed_defaults_to_experiment_seed(self):
        config = config_from_dict({"generator": {}, "seed": 9})
        assert config.generator.seed == 9

    def test_ladder_length_defaults_to_epochs(self):
        config = config_from_dict(
            {
                "generator": {},
                "epochs": 37,
                "loss": {"variant": "ewta"},
                "scheduler": {"kind": "ewta-topn"},
            }
        )
        assert config.scheduler.total_steps == 37

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"generator": {}, "learning_rate": 0.1}, "learning_rate"),
            ({"generator": {}, "model": {"n_heads": 4, "width": 8}}, "width"),
            ({"generator": {}, "loss": {"variant": "wta", "margin": 1.0}}, "margin"),
            ({"generator": {}, "scheduler": {"kind": "constant", "gamma": 0.9}}, "gamma"),
            ({"generator": {"bend": 0.1}}, "bend"),
            ({"generator": {}, "nms": {"k_out": 2, "metric": "l2"}}, "metric"),
            *REMOVED_KEYS,
        ],
    )
    def test_unknown_keys_rejected(self, data, key):
        with pytest.raises(ConfigurationError, match=f"unknown keys in .*'{key}'"):
            config_from_dict(data)

    @pytest.mark.parametrize("data, message", REMOVED_SCHEDULES)
    def test_removed_schedules_rejected(self, data, message):
        with pytest.raises(ConfigurationError) as excinfo:
            config_from_dict(data)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("name", sorted(CONFIG_JSON_SHA256))
    def test_config_json_bytes_are_pinned(self, tmp_path, name):
        source = CONFIGS / name
        if name == "dataset.json":
            source = tmp_path / name
            source.write_text(json.dumps(DATASET_CONFIG))
        save_config(load_config(source), tmp_path / "config.json")
        digest = hashlib.sha256((tmp_path / "config.json").read_bytes()).hexdigest()
        assert digest == CONFIG_JSON_SHA256[name]

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{broken")
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_non_object_config_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigurationError):
            load_config(path)


# Every config field with its JSON type, written out independently of the
# loader's own table.
FIELDS = {
    None: {
        "train_count": int, "val_count": int, "epochs": int, "batch_size": int,
        "seed": int, "out_dir": str,
    },
    "model": {"n_heads": int, "hidden": [int], "init": str},
    "loss": {"variant": str},
    "scheduler": {"kind": str, "t0": float, "rho": float, "total_steps": int},
    "optimizer": {"lr": float},
    "generator": {
        "probabilities": [float], "turns": [float], "speed": float,
        "noise_std": float, "past_len": int, "future_len": int, "seed": int,
    },
    "dataset": {"train_path": str, "val_path": str},
    "nms": {"k_out": int, "radius": float},
}

ANY_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda children: st.lists(children, min_size=1, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, min_size=1, max_size=3),
    max_leaves=6,
)

PLAUSIBLE = {
    int: st.integers(-2, 6) | st.sampled_from([10**30, -(10**30)]),
    float: st.floats(-1.0, 60.0) | st.sampled_from([0.5, 1e-8, 10**400]),
    str: st.sampled_from(
        [
            "wta", "rwta", "ewta", "dac", "awta", "exponential", "constant",
            "ewta-topn", "dac-depth", "glorot", "clustered", "run", "",
        ]
    ),
}


def field_values(kind):
    """Mostly well-typed values, sometimes any JSON at all."""
    if isinstance(kind, list):
        typed = st.lists(PLAUSIBLE[kind[0]], max_size=4)
    else:
        typed = PLAUSIBLE[kind]
    return typed | typed | ANY_JSON


def block_of(fields: dict):
    optional = {key: field_values(kind) for key, kind in fields.items()}
    optional["unknown_key"] = ANY_JSON
    return st.fixed_dictionaries({}, optional=optional)


@st.composite
def near_valid_configs(draw):
    """A loadable config with one or two fields set to drawn values."""
    data = {"generator": {}, "model": {"n_heads": 3, "hidden": [8]}, "epochs": 2}
    for _ in range(draw(st.integers(1, 2))):
        block = draw(st.sampled_from(list(FIELDS)))
        key = draw(st.sampled_from(sorted(FIELDS[block])))
        if block is None:
            target = data
        else:
            target = data.setdefault(block, {})
        target[key] = draw(field_values(FIELDS[block][key]))
    return data


CONFIG_OBJECTS = near_valid_configs() | st.fixed_dictionaries(
    {},
    optional={
        **{key: field_values(kind) for key, kind in FIELDS[None].items()},
        **{name: block_of(fields) | ANY_JSON for name, fields in FIELDS.items() if name},
    },
)


class TestConfigTyping:
    @pytest.mark.parametrize(
        "data",
        [
            {"generator": {}, "optimizer": {"lr": "x"}},
            {"generator": {}, "model": {"n_heads": 2.7}},
            {"generator": {}, "seed": True},
            {"generator": {}, "epochs": "3"},
            {"generator": {}, "model": {"hidden": [8, 8.0]}},
            {"generator": {}, "model": {"hidden": 8}},
            {"generator": {}, "model": 5},
            {"generator": {"probabilities": [0.5, "0.5"]}},
            {"generator": {"speed": float("nan")}},
            {"generator": {"noise_std": float("inf")}},
            {"generator": {}, "optimizer": {"lr": 10**400}},
            {"generator": {}, "out_dir": 5},
            {"generator": {}, "batch_size": 1.0},
            {"generator": {}, "nms": {"radius": 1.0}},
            {"dataset": {"train_path": "a.jsonl"}},
            {"generator": {}, "model": {"n_heads": 1}, "loss": {"variant": "rwta"}},
            {"generator": {}, "model": {"hidden": [0]}},
        ],
    )
    def test_wrongly_typed_values_rejected(self, data):
        with pytest.raises(ConfigurationError):
            config_from_dict(data)

    def test_integers_accepted_for_float_fields_unchanged(self):
        config = config_from_dict({"generator": {"speed": 2}, "optimizer": {"lr": 1}})
        assert config.optimizer.lr == 1 and type(config.optimizer.lr) is int
        assert config_to_dict(config)["generator"]["speed"] == 2

    def test_null_takes_the_default(self):
        config = config_from_dict({"generator": {}, "nms": None, "epochs": None})
        assert config.nms is None and config.epochs == 50

    def test_cli_reports_wrong_type_as_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"generator": {}, "optimizer": {"lr": "x"}}))
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigurationError"
        assert "optimizer.lr" in payload["message"]

    @settings(max_examples=400, deadline=None)
    @given(data=CONFIG_OBJECTS)
    def test_any_json_object_loads_or_raises_configuration_error(self, data):
        data = json.loads(json.dumps(data))
        try:
            config = config_from_dict(data)
        except ConfigurationError:
            return
        assert config_from_dict(config_to_dict(config)) == config


class TestConfigValidation:
    def test_generator_and_dataset_both_set_rejected(self, tmp_path):
        config = tiny_config(
            tmp_path, dataset=DatasetPaths(train_path="a", val_path="b")
        )
        with pytest.raises(ConfigurationError, match="exactly one"):
            config.validate()

    def test_neither_source_rejected(self, tmp_path):
        config = tiny_config(tmp_path, generator=None)
        with pytest.raises(ConfigurationError, match="exactly one"):
            config.validate()

    @pytest.mark.parametrize(
        "variant, kind",
        [
            ("awta", "ewta-topn"),
            ("awta", "dac-depth"),
            ("ewta", "exponential"),
            ("dac", "constant"),
        ],
    )
    def test_variant_schedule_mismatch_rejected(self, tmp_path, variant, kind):
        config = tiny_config(
            tmp_path,
            loss=LossConfig(variant=variant),
            scheduler=ScheduleState(kind=kind),
        )
        with pytest.raises(ConfigurationError, match="schedule"):
            config.validate()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_schedule_kinds_accepted_per_variant(self, variant, kind):
        data = {
            "generator": {},
            "loss": {"variant": variant},
            "scheduler": {"kind": kind},
        }
        if variant in ("wta", "rwta") or kind in CONTROLS[variant][1]:
            config_from_dict(data)
        else:
            with pytest.raises(ConfigurationError, match="schedule"):
                config_from_dict(data)

    def test_hard_variants_ignore_schedule_kind(self, tmp_path):
        config = tiny_config(
            tmp_path,
            loss=LossConfig(variant="wta"),
            scheduler=ScheduleState(kind="constant", t0=1.0),
        )
        config.validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(nms=NMSConfig(k_out=4)),
            dict(nms=NMSConfig(k_out=0)),
            dict(nms=NMSConfig(k_out=2, radius=-1.0)),
        ],
    )
    def test_post_selection_sizes_checked_before_training(self, tmp_path, overrides):
        # tiny_config has 3 heads; post-selection runs only after training,
        # so its k_out and radius are checked before the first epoch.
        config = tiny_config(tmp_path, **overrides)
        save_config(config, tmp_path / "config.json")
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "config.json")
        with pytest.raises(ConfigurationError):
            train(config)
        assert not (tmp_path / "run").exists()

    def test_loss_checked_against_head_count(self, tmp_path):
        config = tiny_config(
            tmp_path,
            loss=LossConfig(variant="ewta", top_n=4),
            scheduler=ScheduleState(kind="ewta-topn"),
        )
        with pytest.raises(ConfigurationError, match="top_n must be in"):
            config.validate()


class TestTraining:
    def test_epoch_records_and_outputs(self, tmp_path):
        config = tiny_config(tmp_path, epochs=3)
        result = train(config)
        assert [r.epoch for r in result.records] == [0, 1, 2]
        out = result.out_dir
        for name in (
            "config.json",
            "epochs.csv",
            "checkpoint_final.json",
            "checkpoint_best.json",
            "metrics.csv",
        ):
            assert (out / name).exists()
        assert load_config(out / "config.json") == config

    def test_zero_epochs_evaluates_the_initial_model(self, tmp_path):
        config = tiny_config(tmp_path, epochs=0)
        result = train(config, write_outputs=False)
        assert result.records == []
        assert result.best_epoch == -1
        assert result.report.n_scenes == config.val_count

    def test_report_matches_reevaluating_best_params(self, tmp_path):
        config = tiny_config(tmp_path, epochs=2)
        result = train(config, write_outputs=False)
        val_split = generate_split(
            config.generator, config.val_count, start_index=config.train_count
        )
        direct = evaluate(result.best_params, *val_split)
        assert direct == result.report

    def test_best_checkpoint_tracks_lowest_val_fde(self, tmp_path):
        config = tiny_config(tmp_path, epochs=4)
        result = train(config, write_outputs=False)
        fdes = [r.val_min_fde for r in result.records]
        assert result.best_epoch == int(np.argmin(fdes))

    def test_schedule_values_match_pure_schedules(self, tmp_path):
        config = tiny_config(tmp_path, epochs=3)
        result = train(config, write_outputs=False)
        for record in result.records:
            expected = value(config.scheduler, record.epoch, 3)
            assert record.schedule_value == expected

    def test_ewta_ladder_logged_as_schedule_value(self, tmp_path):
        config = tiny_config(
            tmp_path,
            epochs=3,
            loss=LossConfig(variant="ewta"),
            scheduler=ScheduleState(kind="ewta-topn", total_steps=3),
        )
        result = train(config, write_outputs=False)
        for record in result.records:
            expected = value(config.scheduler, record.epoch, 3)
            assert record.schedule_value == float(expected)

    def test_hard_wta_logs_no_schedule_value(self, tmp_path):
        config = tiny_config(
            tmp_path,
            loss=LossConfig(variant="wta"),
            scheduler=ScheduleState(kind="constant", t0=1.0),
        )
        result = train(config, write_outputs=False)
        assert all(r.schedule_value is None for r in result.records)

    def test_training_from_dataset_files(self, tmp_path):
        gen = tiny_generator()
        save_dataset(generate(gen, 24), tmp_path / "train.jsonl")
        save_dataset(generate(gen, 16, start_index=24), tmp_path / "val.jsonl")
        config = tiny_config(
            tmp_path,
            generator=None,
            dataset=DatasetPaths(
                train_path=str(tmp_path / "train.jsonl"),
                val_path=str(tmp_path / "val.jsonl"),
            ),
        )
        result = train(config, write_outputs=False)
        assert result.report.n_scenes == 16

    def test_dataset_and_generator_runs_agree(self, tmp_path):
        # Saving the generated scenes to files and training from them must
        # reproduce the in-memory run exactly.
        config = tiny_config(tmp_path)
        from_gen = train(config, write_outputs=False)
        gen = config.generator
        save_dataset(generate(gen, config.train_count), tmp_path / "train.jsonl")
        save_dataset(
            generate(gen, config.val_count, start_index=config.train_count),
            tmp_path / "val.jsonl",
        )
        file_config = tiny_config(
            tmp_path,
            generator=None,
            dataset=DatasetPaths(
                train_path=str(tmp_path / "train.jsonl"),
                val_path=str(tmp_path / "val.jsonl"),
            ),
        )
        from_files = train(file_config, write_outputs=False)
        for a, b in zip(from_gen.params.weights, from_files.params.weights):
            assert np.array_equal(a, b)

    def test_val_split_shape_checked_before_training(self, tmp_path):
        gen = tiny_generator()
        longer_past = dataclasses.replace(gen, past_len=5)
        save_dataset(generate(gen, 24), tmp_path / "train.jsonl")
        save_dataset(generate(longer_past, 16, start_index=24), tmp_path / "val.jsonl")
        config = tiny_config(
            tmp_path,
            generator=None,
            dataset=DatasetPaths(
                train_path=str(tmp_path / "train.jsonl"),
                val_path=str(tmp_path / "val.jsonl"),
            ),
        )
        with pytest.raises(ConfigurationError, match="train and val"):
            train(config)
        assert not (tmp_path / "run").exists()

    def test_non_finite_loss_names_epoch_and_batch(self, tmp_path):
        scenes = generate(tiny_generator(), 8)
        blown = [
            dataclasses.replace(s, future=s.future * 1e200) for s in scenes[:4]
        ]
        save_dataset(blown + scenes[4:], tmp_path / "train.jsonl")
        save_dataset(scenes, tmp_path / "val.jsonl")
        config = tiny_config(
            tmp_path,
            generator=None,
            dataset=DatasetPaths(
                train_path=str(tmp_path / "train.jsonl"),
                val_path=str(tmp_path / "val.jsonl"),
            ),
            batch_size=4,
        )
        with pytest.raises(NonFiniteError, match="epoch 0"):
            train(config, write_outputs=False)

    def test_finite_losses_whose_sum_overflows_are_accepted(self, tmp_path, monkeypatch):
        # Each per-sample loss is finite, but a batch of eight sums to inf:
        # the element check that a non-finite sum falls back to accepts it.
        def huge_losses(*args):
            objective = batch_objective(*args)
            objective.loss[:] = 1e308
            return objective

        monkeypatch.setattr(harness, "batch_objective", huge_losses)
        result = train(tiny_config(tmp_path), write_outputs=False)
        assert [record.train_loss for record in result.records] == [math.inf] * 2

    def test_nan_loss_names_epoch_and_batch(self, tmp_path, monkeypatch):
        calls = []

        def nan_in_fifth_batch(*args):
            objective = batch_objective(*args)
            calls.append(None)
            if len(calls) == 5:
                objective.loss[-1] = np.nan
            return objective

        monkeypatch.setattr(harness, "batch_objective", nan_in_fifth_batch)
        # Three batches per epoch: the fifth call is epoch 1, batch 1.
        with pytest.raises(NonFiniteError, match=r"^non-finite loss at epoch 1 batch 1$"):
            train(tiny_config(tmp_path), write_outputs=False)

    def test_failed_run_leaves_no_run_directory(self, tmp_path):
        config = blown_dataset_config(tmp_path)
        with pytest.raises(NonFiniteError):
            train(config)
        assert not (tmp_path / "run").exists()

    def test_unwritable_out_dir_fails_before_training(self, tmp_path, monkeypatch):
        (tmp_path / "afile").write_text("")
        config = tiny_config(tmp_path, out_dir=str(tmp_path / "afile" / "run"))
        monkeypatch.setattr(harness, "build_splits", None)  # must not be reached
        with pytest.raises(InputError, match="afile"):
            train(config)

    def test_given_splits_are_used_and_read_only(self, tmp_path):
        config = tiny_config(tmp_path)
        splits = harness.build_splits(config)
        assert all(not array.flags.writeable for array in splits)
        features, targets, val_features, val_targets = splits
        assert features.shape == (24, 6) and targets.shape == (24, 4, 2)
        assert val_features.shape == (16, 6) and val_targets.shape == (16, 4, 2)
        built = train(config, write_outputs=False)
        given_splits = train(config, write_outputs=False, splits=splits)
        assert given_splits.report == built.report
        for a, b in zip(built.params.weights, given_splits.params.weights):
            assert a.tobytes() == b.tobytes()


class TestDeterminism:
    def test_same_config_same_metrics_bytes(self, tmp_path):
        config_a = tiny_config(tmp_path, out_dir=str(tmp_path / "a"))
        config_b = tiny_config(tmp_path, out_dir=str(tmp_path / "b"))
        train(config_a)
        train(config_b)
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "checkpoint_final.json").read_bytes() == (
            tmp_path / "b" / "checkpoint_final.json"
        ).read_bytes()

    def test_epoch_logs_differ_only_in_wall_clock(self, tmp_path):
        config_a = tiny_config(tmp_path, out_dir=str(tmp_path / "a"))
        config_b = tiny_config(tmp_path, out_dir=str(tmp_path / "b"))
        train(config_a)
        train(config_b)
        rows_a = read_epoch_csv(tmp_path / "a" / "epochs.csv")
        rows_b = read_epoch_csv(tmp_path / "b" / "epochs.csv")
        for a, b in zip(rows_a, rows_b):
            assert dataclasses.replace(a, wall_s=0.0) == dataclasses.replace(
                b, wall_s=0.0
            )

    def test_different_seed_changes_the_run(self, tmp_path):
        a = train(tiny_config(tmp_path, seed=1), write_outputs=False)
        b = train(tiny_config(tmp_path, seed=2), write_outputs=False)
        assert a.report.min_ade != b.report.min_ade

    def test_floored_temperature_matches_hard_wta(self, tmp_path):
        # At a constant temperature far below any cost gap the soft weights
        # collapse to one-hot, so training must follow the hard variant.
        soft = tiny_config(
            tmp_path,
            loss=LossConfig(variant="awta"),
            scheduler=ScheduleState(kind="constant", t0=1e-8),
            epochs=3,
        )
        hard = tiny_config(
            tmp_path,
            loss=LossConfig(variant="wta"),
            scheduler=ScheduleState(kind="constant", t0=1e-8),
            epochs=3,
        )
        result_soft = train(soft, write_outputs=False)
        result_hard = train(hard, write_outputs=False)
        for w_soft, w_hard in zip(result_soft.params.weights, result_hard.params.weights):
            assert np.allclose(w_soft, w_hard, rtol=0, atol=1e-9)
        for a, b in zip(result_soft.records, result_hard.records):
            assert a.val_min_fde == pytest.approx(b.val_min_fde, abs=1e-9)


def reference_train_epochs(config, splits):
    """The training loop as first written, an oracle for _train_epochs.

    Each batch is gathered from the split with a fancy index of the
    shuffled order; forward, objective and backward are the first-written
    oracles, whose costs use np.mean, whose logit gradient subtracts a
    zeros-plus-one-hot array, and whose backward concatenates the two
    output gradients. Returns the final parameters and the per-epoch
    train_loss values.
    """
    features, targets = splits[:2]
    model_config = dataclasses.replace(
        config.model, input_dim=features.shape[1], horizon=targets.shape[1]
    )
    params = init_params(model_config, np.random.default_rng([config.seed, 1]))
    adam = init_adam(params)
    shuffle_rng = np.random.default_rng([config.seed, 2])
    losses = []
    for epoch in range(config.epochs):
        loss_config = control(
            config.loss, config.scheduler, epoch, config.model.n_heads
        )[1]
        order = shuffle_rng.permutation(len(features))
        loss_sum = 0.0
        for start in range(0, len(features), config.batch_size):
            rows = order[start : start + config.batch_size]
            preds, logits, activations = reference_forward(params, features[rows])
            objective = reference_batch_objective(
                preds, logits, targets[rows], loss_config
            )
            grad_w, grad_b = reference_backward(
                params,
                activations,
                objective["d_trajectories"],
                objective["d_score_logits"],
            )
            grads = GradientBuffer(weights=grad_w, biases=grad_b)
            adam_step(params, grads, adam, lr=config.optimizer.lr)
            loss_sum += float(np.sum(objective["loss"]))
        losses.append(loss_sum / len(features))
    return params, losses


LEAN_STEP_LOSSES = {
    "wta": (LossConfig(variant="wta"), ScheduleState(kind="constant")),
    "rwta": (LossConfig(variant="rwta"), ScheduleState(kind="constant")),
    "ewta": (
        LossConfig(variant="ewta"),
        ScheduleState(kind="ewta-topn", total_steps=3),
    ),
    "dac": (
        LossConfig(variant="dac"),
        ScheduleState(kind="dac-depth", total_steps=3),
    ),
    "awta": (
        LossConfig(variant="awta"),
        ScheduleState(kind="exponential", t0=10.0, rho=0.5),
    ),
}


class TestLeanStepOracle:
    """A whole training run against reference_train_epochs, byte for byte."""

    @pytest.mark.parametrize("hidden", [(), (8,)], ids=["linear", "hidden"])
    @pytest.mark.parametrize("variant", sorted(LEAN_STEP_LOSSES))
    def test_run_matches_first_written_loop(self, tmp_path, variant, hidden):
        loss, scheduler = LEAN_STEP_LOSSES[variant]
        # 22 scenes in batches of 8: the last batch holds 6.
        config = tiny_config(
            tmp_path,
            model=ModelConfig(n_heads=3, hidden=hidden),
            loss=loss,
            scheduler=scheduler,
            train_count=22,
            epochs=3,
        )
        config.validate()
        splits = harness.build_splits(config)
        result = train(config, write_outputs=False, splits=splits)
        params, losses = reference_train_epochs(config, splits)
        assert result.params.vector.tobytes() == params.vector.tobytes()
        assert [r.train_loss for r in result.records] == losses

    def test_subnormal_output_gradients_are_flushed(self, tmp_path, monkeypatch):
        # 6 heads over a 30-step horizon behind 64 hidden units: 64 x 366
        # output weights, above the flush gate. At T = 0.0625 in the last
        # epoch, losing heads' weights fall into the subnormal band.
        config = tiny_config(
            tmp_path,
            model=ModelConfig(n_heads=6, hidden=(64,)),
            generator=dataclasses.replace(tiny_generator(), future_len=30),
            scheduler=ScheduleState(kind="exponential", t0=0.5, rho=0.5),
            train_count=32,
            epochs=4,
        )
        assert 64 * 366 >= harness.FLUSH_MIN_OUTPUT_WEIGHTS
        config.validate()
        splits = harness.build_splits(config)
        produced, received = [], []

        def objective(*args):
            result = batch_objective(*args)
            produced.append(subnormal_count(result.d_outputs))
            return result

        def backward(params, activations, d_outputs, **kwargs):
            received.append(subnormal_count(d_outputs))
            return backward_batch(params, activations, d_outputs, **kwargs)

        monkeypatch.setattr(harness, "batch_objective", objective)
        monkeypatch.setattr(harness, "backward_batch", backward)
        result = train(config, write_outputs=False, splits=splits)
        assert sum(produced) > 0
        assert received == [0] * len(produced)
        params, losses = reference_train_epochs(config, splits)
        assert result.params.vector.tobytes() == params.vector.tobytes()
        assert [r.train_loss for r in result.records] == losses


TINY = np.finfo(float).tiny
SUBNORMAL = np.nextafter(TINY, 0.0)  # the largest subnormal


def subnormal_count(array) -> int:
    return int(np.count_nonzero((array != 0.0) & (np.abs(array) < TINY)))


class TestFlushSubnormals:
    def test_only_subnormals_become_zeros_of_their_sign(self):
        values = np.array(
            [SUBNORMAL, -SUBNORMAL, 5e-324, -5e-324, 0.0, -0.0, TINY, -TINY]
            + [np.nan, -np.nan, np.inf, -np.inf, 1.5, -2.5e-300, 1e308]
        )
        expected = values.copy()
        expected[:4] = [0.0, -0.0, 0.0, -0.0]
        flushed = values.copy()
        harness._flush_subnormals(flushed)
        assert flushed.tobytes() == expected.tobytes()

    def test_normal_values_keep_their_bits(self):
        rng = np.random.default_rng(5)
        # Mantissas in [0.5, 1) times 2**e for e >= -1021: every normal exponent.
        shape = (64, 366)
        mantissas = rng.uniform(0.5, 1.0, shape) * rng.choice([-1.0, 1.0], shape)
        values = np.ldexp(mantissas, rng.integers(-1021, 1025, shape))
        assert np.isfinite(values).all() and (np.abs(values) >= TINY).all()
        flushed = values.copy()
        harness._flush_subnormals(flushed)
        assert flushed.tobytes() == values.tobytes()

    def test_tiny_weight_check(self):
        bound = harness.FLUSH_WEIGHT_BOUND
        assert harness._has_tiny_weight(np.array([[1.0, 0.0, SUBNORMAL]]))
        assert harness._has_tiny_weight(np.array([[1.0, np.nextafter(bound, 0.0)]]))
        assert not harness._has_tiny_weight(np.array([[1.0, 0.0, bound, np.nan]]))

    def test_non_finite_gradient_raises_the_same_error(self, tmp_path, monkeypatch):
        def nan_in_second_batch(*args):
            objective = batch_objective(*args)
            calls.append(None)
            if len(calls) == 2:
                objective.d_outputs[0, 0] = np.nan
                objective.d_outputs[1, 0] = SUBNORMAL
            return objective

        def flush(gradient):
            flushed.append(None)
            flush_subnormals(gradient)

        flush_subnormals = harness._flush_subnormals
        monkeypatch.setattr(harness, "batch_objective", nan_in_second_batch)
        monkeypatch.setattr(harness, "_flush_subnormals", flush)
        messages = []
        # The gate closed, then open with every batch flushed.
        for min_weights, bound in ((math.inf, 0.0), (0, math.inf)):
            monkeypatch.setattr(harness, "FLUSH_MIN_OUTPUT_WEIGHTS", min_weights)
            monkeypatch.setattr(harness, "FLUSH_WEIGHT_BOUND", bound)
            calls, flushed = [], []
            with pytest.raises(NonFiniteError) as raised:
                train(tiny_config(tmp_path), write_outputs=False)
            messages.append(str(raised.value))
            assert len(flushed) == (2 if min_weights == 0 else 0)
        assert messages == [
            "epoch 0 batch 1: non-finite gradient in layer 0 weights; step rejected"
        ] * 2


class TestOutDirResolution:
    def test_relative_paths_land_under_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WTALAB_OUT_ROOT", str(tmp_path / "root"))
        assert resolve_out_dir("runs/x") == tmp_path / "root" / "runs" / "x"

    def test_absolute_paths_ignore_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WTALAB_OUT_ROOT", str(tmp_path / "root"))
        absolute = tmp_path / "elsewhere"
        assert resolve_out_dir(str(absolute)) == absolute

    def test_no_env_keeps_relative_path(self, monkeypatch):
        monkeypatch.delenv("WTALAB_OUT_ROOT", raising=False)
        assert str(resolve_out_dir("runs/x")) == "runs/x"

    def test_training_writes_under_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WTALAB_OUT_ROOT", str(tmp_path))
        config = tiny_config(tmp_path, out_dir="nested/run")
        result = train(config)
        assert result.out_dir == tmp_path / "nested" / "run"
        assert (tmp_path / "nested" / "run" / "metrics.csv").exists()


class TestEvaluateCmd:
    def test_checkpoint_report_matches_training_report(self, tmp_path):
        config = tiny_config(tmp_path)
        result = train(config)
        out_csv = tmp_path / "eval.csv"
        report = evaluate_cmd(
            config, result.out_dir / "checkpoint_best.json", out_path=out_csv
        )
        assert report == result.report
        assert out_csv.read_bytes() == (result.out_dir / "metrics.csv").read_bytes()

    def test_only_the_val_split_is_read(self, tmp_path):
        gen = tiny_generator()
        save_dataset(generate(gen, 24), tmp_path / "train.jsonl")
        save_dataset(generate(gen, 16, start_index=24), tmp_path / "val.jsonl")
        (tmp_path / "broken.jsonl").write_text('{"scene_id": \n')
        with pytest.raises(DatasetParseError):
            load_dataset(tmp_path / "broken.jsonl")
        good = tiny_config(
            tmp_path,
            generator=None,
            dataset=DatasetPaths(
                train_path=str(tmp_path / "train.jsonl"),
                val_path=str(tmp_path / "val.jsonl"),
            ),
        )
        broken = dataclasses.replace(
            good,
            dataset=DatasetPaths(
                train_path=str(tmp_path / "broken.jsonl"),
                val_path=str(tmp_path / "val.jsonl"),
            ),
        )
        checkpoint = train(good).out_dir / "checkpoint_best.json"
        assert evaluate_cmd(broken, checkpoint) == evaluate_cmd(good, checkpoint)

    def test_missing_checkpoint_raises(self, tmp_path):
        config = tiny_config(tmp_path)
        with pytest.raises(OSError):
            evaluate_cmd(config, tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "model",
        [ModelConfig(n_heads=2, hidden=(8,)), ModelConfig(n_heads=3, hidden=(8, 8))],
        ids=["n_heads", "hidden"],
    )
    def test_checkpoint_the_model_block_does_not_describe_raises(self, tmp_path, model):
        config = tiny_config(tmp_path)
        checkpoint = train(config).out_dir / "checkpoint_best.json"
        other = dataclasses.replace(config, model=model)
        with pytest.raises(ConfigurationError) as excinfo:
            evaluate_cmd(other, checkpoint)
        message = str(excinfo.value)
        assert "n_heads=3 and hidden=[8]" in message
        assert f"n_heads={model.n_heads} and hidden={list(model.hidden)}" in message


class TestSweep:
    def test_grid_order_and_csv(self, tmp_path):
        base = tiny_config(tmp_path, epochs=1, out_dir=str(tmp_path / "cells"))
        cells = sweep(
            base,
            t0_values=[5.0, 10.0],
            rho_values=[0.5],
            seeds=[1, 2],
            out_dir=tmp_path / "sweep",
        )
        assert [(c.t0, c.seed) for c in cells] == [
            (5.0, 1),
            (5.0, 2),
            (10.0, 1),
            (10.0, 2),
        ]
        assert all(c.status == "ok" for c in cells)
        assert all(c.report is not None for c in cells)
        text = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert text[0].startswith("t0,rho,seed,status")
        assert len(text) == 5

    def test_failed_cell_recorded_not_raised(self, tmp_path, monkeypatch):
        real_train = harness.train

        def exploding_train(config, write_outputs=True, splits=None):
            if config.seed == 2:
                raise NonFiniteError("non-finite loss at epoch 0 batch 1")
            return real_train(config, write_outputs=write_outputs, splits=splits)

        monkeypatch.setattr(harness, "train", exploding_train)
        base = tiny_config(tmp_path, epochs=1)
        cells = sweep(base, t0_values=[5.0], rho_values=[0.5], seeds=[1, 2, 3])
        statuses = [c.status for c in cells]
        assert statuses == ["ok", "failed", "ok"]
        assert "NonFiniteError" in cells[1].error
        assert cells[1].report is None

    def test_splits_built_once_per_sweep(self, tmp_path, monkeypatch):
        real = harness.generate_split
        calls = []

        def counting_generate_split(config, count, start_index=0):
            calls.append((count, start_index))
            return real(config, count, start_index)

        monkeypatch.setattr(harness, "generate_split", counting_generate_split)
        base = tiny_config(tmp_path, epochs=1)
        cells = sweep(base, [5.0, 10.0], [0.5, 0.7], [1, 2])
        assert all(c.status == "ok" for c in cells)
        assert calls == [(24, 0), (16, 24)]

    def test_dataset_splits_loaded_once_per_sweep(self, tmp_path, monkeypatch):
        gen = tiny_generator()
        save_dataset(generate(gen, 24), tmp_path / "train.jsonl")
        save_dataset(generate(gen, 16, start_index=24), tmp_path / "val.jsonl")
        real = harness.load_split
        paths = []

        def counting_load_split(path):
            paths.append(path)
            return real(path)

        monkeypatch.setattr(harness, "load_split", counting_load_split)
        base = tiny_config(
            tmp_path,
            generator=None,
            dataset=DatasetPaths(
                train_path=str(tmp_path / "train.jsonl"),
                val_path=str(tmp_path / "val.jsonl"),
            ),
            epochs=1,
        )
        cells = sweep(base, [5.0], [0.5], [1, 2, 3])
        assert all(c.status == "ok" for c in cells)
        assert paths == [base.dataset.train_path, base.dataset.val_path]

    def test_cells_byte_identical_to_solo_runs(self, tmp_path):
        base = tiny_config(tmp_path, epochs=3, out_dir=str(tmp_path / "cells"))
        cells = sweep(base, [5.0, 10.0], [0.5], [1, 2], write_cell_outputs=True)
        assert all(c.status == "ok" for c in cells)
        for cell in cells:
            cell_dir = tmp_path / "cells" / (
                f"cell-t0_{cell.t0:g}-rho_{cell.rho:g}-seed_{cell.seed}"
            )
            solo = train(
                dataclasses.replace(
                    base,
                    scheduler=dataclasses.replace(base.scheduler, t0=cell.t0, rho=cell.rho),
                    seed=cell.seed,
                    out_dir=str(tmp_path / "solo"),
                )
            )
            assert solo.report == cell.report
            for name in ("metrics.csv", "checkpoint_final.json", "checkpoint_best.json"):
                assert (cell_dir / name).read_bytes() == (solo.out_dir / name).read_bytes()

    def test_unbuildable_data_fails_once_before_any_cell(self, tmp_path, monkeypatch):
        # Cells differ only in schedule and seed, so data that cannot be
        # built would fail every cell the same way: the sweep parses the bad
        # file once and raises before the first cell trains.
        base = bad_train_line_config(tmp_path)
        real_load_split, real_train = harness.load_split, harness.train
        loads, trains = [], []

        def counting_load_split(path):
            loads.append(path)
            return real_load_split(path)

        def counting_train(config, write_outputs=True, splits=None):
            trains.append(config.seed)
            return real_train(config, write_outputs=write_outputs, splits=splits)

        monkeypatch.setattr(harness, "load_split", counting_load_split)
        monkeypatch.setattr(harness, "train", counting_train)
        with pytest.raises(DatasetParseError, match="^line 2"):
            sweep(base, [5.0], [0.5], [1, 2, 3], out_dir=tmp_path / "sweep")
        assert loads == [base.dataset.train_path]
        assert trains == []
        assert not (tmp_path / "sweep").exists()
        assert not (tmp_path / "run").exists()

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(InputError):
            sweep(tiny_config(tmp_path), [], [0.5], [1])

    @pytest.mark.parametrize("workers", [0, 2])
    def test_workers_other_than_one_rejected_before_any_cell(
        self, tmp_path, monkeypatch, workers
    ):
        trained = []
        monkeypatch.setattr(harness, "train", lambda *args, **kwargs: trained.append(1))
        with pytest.raises(InputError, match="workers must be 1"):
            sweep(tiny_config(tmp_path), [5.0], [0.5], [1], workers=workers)
        assert trained == []

    def test_unwritable_out_dir_rejected_before_any_cell(self, tmp_path, monkeypatch):
        # A path under a regular file: os.access alone would pass as root.
        (tmp_path / "file").write_text("")
        trained = []
        monkeypatch.setattr(harness, "train", lambda *args, **kwargs: trained.append(1))
        out_dir = tmp_path / "file" / "sweep"
        with pytest.raises(InputError, match="not a writable directory"):
            sweep(tiny_config(tmp_path), [5.0], [0.5], [1], out_dir=out_dir)
        assert trained == []

    @pytest.mark.parametrize(
        "loss,scheduler,t0_values,rho_values,name",
        [
            ("wta", ScheduleState(kind="constant", t0=1.0), [1.0, 2.0], [0.5], "t0"),
            ("wta", ScheduleState(kind="exponential"), [5.0], [0.5, 0.9], "rho"),
            ("dac", ScheduleState(kind="dac-depth"), [5.0], [0.5, 0.9], "rho"),
            ("awta", ScheduleState(kind="constant", t0=1.0), [5.0], [0.5, 0.9], "rho"),
            ("ewta", ScheduleState(kind="ewta-topn"), [5.0, 10.0], [0.5], "t0"),
        ],
    )
    def test_values_the_run_does_not_read_rejected_before_any_cell(
        self, tmp_path, monkeypatch, loss, scheduler, t0_values, rho_values, name
    ):
        # Each value of a parameter the run never reads trains the same run.
        trained = []
        monkeypatch.setattr(harness, "train", lambda *args, **kwargs: trained.append(1))
        base = tiny_config(tmp_path, loss=LossConfig(variant=loss), scheduler=scheduler)
        with pytest.raises(InputError, match=f"does not read {name}"):
            sweep(base, t0_values, rho_values, [1], out_dir=tmp_path / "sweep")
        assert trained == []
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize(
        "t0_values,rho_values,seeds,name",
        [
            ([5.0, 5.0], [0.5], [1], "t0"),
            ([5.0], [0.5, 0.9, 0.5], [1], "rho"),
            ([5.0], [0.5], [1, 2, 1], "seed"),
            ([5, 5.0], [0.5], [1], "t0"),
        ],
    )
    def test_repeated_grid_value_rejected_before_any_cell(
        self, tmp_path, monkeypatch, t0_values, rho_values, seeds, name
    ):
        trained = []
        monkeypatch.setattr(harness, "train", lambda *args, **kwargs: trained.append(1))
        with pytest.raises(InputError, match=f"repeats a {name} value"):
            sweep(tiny_config(tmp_path), t0_values, rho_values, seeds)
        assert trained == []

    def test_one_value_of_an_unread_parameter_is_allowed(self, tmp_path):
        # The command line always passes --t0 and --rho, so a run that reads
        # neither still sweeps its seeds.
        base = tiny_config(
            tmp_path,
            loss=LossConfig(variant="wta"),
            scheduler=ScheduleState(kind="constant", t0=1.0),
            epochs=1,
        )
        cells = sweep(base, [5.0], [0.5], [1, 2])
        assert [c.status for c in cells] == ["ok", "ok"]


class TestCharts:
    def test_epoch_charts_written_and_deterministic(self, tmp_path):
        config = tiny_config(tmp_path, epochs=3)
        result_a = train(config, write_outputs=False)
        result_b = train(config, write_outputs=False)
        dir_a = tmp_path / "charts_a"
        dir_b = tmp_path / "charts_b"
        emit_charts(result_a.records, dir_a)
        emit_charts(result_b.records, dir_b)
        for name in (
            "loss_vs_epoch.svg",
            "effective_hypotheses_vs_epoch.svg",
            "schedule_vs_epoch.svg",
        ):
            assert (dir_a / name).exists()
            # Wall-clock never enters the charts, so two runs of the same
            # config render identical bytes.
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        assert (dir_a / "charts_data.csv").exists()

    def test_sweep_charts_written(self, tmp_path, monkeypatch):
        base = tiny_config(tmp_path, epochs=1)
        cells = sweep(base, [5.0, 10.0], [0.5, 0.9], [1, 2])
        charted = []
        real_line_chart = harness.line_chart

        def capturing_line_chart(series, *args):
            charted.append(series)
            return real_line_chart(series, *args)

        monkeypatch.setattr(harness, "line_chart", capturing_line_chart)
        written = emit_charts(cells, tmp_path / "sweepcharts")
        names = {p.name for p in written}
        assert "sweep_min_ade_vs_t0.svg" in names
        assert "sweep_data.csv" in names
        # One point per t0 on each rho line: the mean over its seeds.
        [series] = charted
        assert [label for label, _, _ in series] == ["rho=0.5", "rho=0.9"]
        for label, xs, ys in series:
            rho = float(label.removeprefix("rho="))
            assert xs == [5.0, 10.0]
            for t0, y in zip(xs, ys):
                seeds = [c.report.min_ade for c in cells if (c.t0, c.rho) == (t0, rho)]
                assert len(seeds) == 2
                assert y == math.fsum(seeds) / 2

    def test_unscheduled_records_skip_schedule_chart(self, tmp_path):
        records = [
            EpochRecord(
                epoch=i,
                schedule_value=None,
                train_loss=1.0 / (i + 1),
                val_min_ade=0.5,
                val_min_fde=0.5,
                val_miss_rate=0.0,
                val_brier_fde=0.7,
                effective_hypotheses=3,
                wall_s=0.01,
            )
            for i in range(3)
        ]
        written = emit_charts(records, tmp_path / "charts")
        names = {p.name for p in written}
        assert "schedule_vs_epoch.svg" not in names

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(InputError):
            emit_charts([], tmp_path / "charts")

    def test_mixed_input_rejected(self, tmp_path):
        record = EpochRecord(0, None, 1.0, 0.5, 0.5, 0.0, 0.7, 3, 0.01)
        cell = SweepCell(t0=5.0, rho=0.5, seed=1, status="ok")
        with pytest.raises(InputError):
            emit_charts([cell, record], tmp_path / "charts")

    def test_all_failed_sweep_rejected(self, tmp_path):
        cells = [SweepCell(t0=5.0, rho=0.5, seed=1, status="failed", error="x")]
        with pytest.raises(InputError):
            emit_charts(cells, tmp_path / "charts")

    @pytest.mark.parametrize("case", ["empty", "epoch_then_cell", "cell_then_epoch", "all_failed"])
    def test_rejected_input_creates_no_directory(self, tmp_path, case):
        record = EpochRecord(0, None, 1.0, 0.5, 0.5, 0.0, 0.7, 3, 0.01)
        cell = SweepCell(t0=5.0, rho=0.5, seed=1, status="ok")
        failed = SweepCell(t0=5.0, rho=0.5, seed=1, status="failed", error="x")
        data = {
            "empty": [],
            "epoch_then_cell": [record, cell],
            "cell_then_epoch": [cell, record],
            "all_failed": [failed],
        }[case]
        with pytest.raises(InputError):
            emit_charts(data, tmp_path / "charts")
        assert not (tmp_path / "charts").exists()


class TestAtomicWrites:
    def test_bytes_and_mode_match_a_plain_write(self, tmp_path):
        write_text_atomic(tmp_path / "a.txt", "x,y\n1,2\n")
        (tmp_path / "b.txt").write_text("x,y\n1,2\n")
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert a.read_bytes() == b.read_bytes()
        assert a.stat().st_mode == b.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]

    def test_pieces_write_the_bytes_of_their_join(self, tmp_path):
        pieces = ["x,y\n", "", "1,2\n", "é\n"]
        write_text_atomic(tmp_path / "a.txt", iter(pieces))
        write_text_atomic(tmp_path / "b.txt", "".join(pieces))
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_a_str_is_written_in_one_call(self, tmp_path, monkeypatch):
        writes = []

        def recording_open(*args, **kwargs):
            handle = open(*args, **kwargs)
            real_write = handle.write
            handle.write = lambda text: writes.append(text) or real_write(text)
            return handle

        monkeypatch.setattr(_files, "open", recording_open, raising=False)
        write_text_atomic(tmp_path / "a.txt", "x,y\n1,2\n")
        assert writes == ["x,y\n1,2\n"]

    @staticmethod
    def pieces_then_error():
        yield "new\n"
        yield "more\n"
        raise RuntimeError("the pieces failed")

    @pytest.mark.parametrize("old", ["old\n", None])
    @pytest.mark.parametrize("text, error", [(None, TypeError), ("pieces", RuntimeError)])
    def test_failed_write_keeps_the_old_file_and_no_temp(self, tmp_path, old, text, error):
        path = tmp_path / "metrics.csv"
        if old is not None:
            path.write_text(old)
        if text == "pieces":
            text = self.pieces_then_error()
        with pytest.raises(error):
            write_text_atomic(path, text)
        if old is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert path.read_text() == old
            assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]


# A UTF-16 byte order mark: no UTF-8 text starts with these bytes.
NOT_UTF8 = b"\xff\xfe"


class TestReadText:
    def test_reads_utf8_with_universal_newlines(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes("x\r\ny\u00e9\rz\n".encode())
        assert read_text(path, InputError) == "x\nyé\nz\n"

    @pytest.mark.parametrize("error_type", [InputError, ConfigurationError])
    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"ok\n" + NOT_UTF8, "invalid start byte"),
            # The file ends after two of the three bytes of a euro sign.
            (b"ok\n" + "\u20ac".encode()[:2], "unexpected end of data"),
        ],
    )
    def test_non_utf8_raises_the_callers_type_naming_path(
        self, tmp_path, error_type, data, reason
    ):
        path = tmp_path / "a.txt"
        path.write_bytes(data)
        with pytest.raises(error_type) as excinfo:
            read_text(path, error_type)
        assert type(excinfo.value) is error_type
        assert str(excinfo.value) == f"{path} is not UTF-8 text: {reason} at byte 3"

    def test_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_text(tmp_path / "missing.txt", InputError)


class TestEpochCsv:
    def test_round_trip(self, tmp_path):
        records = [
            EpochRecord(0, 10.0, 1.5, 0.6, 0.7, 0.25, 0.9, 3, 0.1234),
            EpochRecord(1, None, 1.2, 0.5, 0.6, 0.0, 0.8, 3, 0.5),
        ]
        path = tmp_path / "epochs.csv"
        write_epoch_csv(records, path)
        loaded = read_epoch_csv(path)
        assert loaded[0].schedule_value == 10.0
        assert loaded[1].schedule_value is None
        assert loaded[0].train_loss == 1.5
        assert loaded[1].wall_s == 0.5

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "epochs.csv"
        path.write_text("wrong\n")
        with pytest.raises(InputError):
            read_epoch_csv(path)


class TestCli:
    def write_config(self, tmp_path, **overrides) -> str:
        config = tiny_config(tmp_path, **overrides)
        path = tmp_path / "config.json"
        save_config(config, path)
        return str(path)

    def test_generate_train_eval_charts_pipeline(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)

        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "d.jsonl"), "--count", "12"]) == 0
        assert len((tmp_path / "d.jsonl").read_text().splitlines()) == 12
        assert "wrote 12 scenes" in capsys.readouterr().out

        assert main(["train", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "best epoch" in out
        run_dir = tmp_path / "run"
        assert (run_dir / "metrics.csv").exists()

        assert main(
            [
                "eval",
                "--config",
                cfg,
                "--checkpoint",
                str(run_dir / "checkpoint_best.json"),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("n_scenes,min_ade")

        assert main(
            [
                "charts",
                "--epochs-csv",
                str(run_dir / "epochs.csv"),
                "--out-dir",
                str(tmp_path / "charts"),
            ]
        ) == 0
        assert (tmp_path / "charts" / "loss_vs_epoch.svg").exists()

    def test_train_overrides_seed_and_out_dir(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        override = tmp_path / "override"
        assert main(
            ["train", "--config", cfg, "--seed", "7", "--out-dir", str(override)]
        ) == 0
        capsys.readouterr()
        saved = load_config(override / "config.json")
        assert saved.seed == 7

    def test_train_seed_keeps_the_scenes_of_the_file(self, tmp_path, capsys):
        # The generator seed defaults to the file's seed when the config is
        # loaded, before --seed replaces the run seed.
        data = config_to_dict(tiny_config(tmp_path, seed=1))
        del data["generator"]["seed"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert main(["train", "--config", str(path), "--seed", "7"]) == 0
        capsys.readouterr()
        saved = json.loads((tmp_path / "run" / "config.json").read_text())
        assert saved["seed"] == 7
        assert saved["generator"]["seed"] == 1

    def test_sweep_command(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, epochs=1)
        assert main(
            [
                "sweep",
                "--config",
                cfg,
                "--t0",
                "5.0",
                "--rho",
                "0.5",
                "--seeds",
                "1,2",
                "--out-dir",
                str(tmp_path / "sweep"),
            ]
        ) == 0
        assert "2 cells (0 failed)" in capsys.readouterr().out
        assert (tmp_path / "sweep" / "sweep.csv").exists()

    def test_sweep_with_every_cell_failed_exits_one(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, epochs=1)
        argv = ["sweep", "--config", cfg, "--t0", "5.0", "--rho", "0.5"]
        argv += ["--seeds", "-1", "--out-dir", str(tmp_path / "sweep")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "1 cells (1 failed)" in captured.out
        assert len(captured.err.splitlines()) == 1
        payload = json.loads(captured.err)
        assert set(payload) == {"error", "message"}
        assert "every sweep cell failed" in payload["message"]
        assert "seed must be >= 0" in payload["message"]
        rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 2 and ",failed," in rows[1]

    def test_sweep_on_unbuildable_data_exits_one_before_any_cell(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        save_config(bad_train_line_config(tmp_path), path)
        argv = ["sweep", "--config", str(path), "--t0", "5.0", "--rho", "0.5"]
        assert main(argv + ["--seeds", "1,2,3", "--out-dir", str(tmp_path / "sweep")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        payload = json.loads(captured.err)
        assert payload["error"] == "DatasetParseError"
        assert payload["message"].startswith("line 2")
        assert not (tmp_path / "sweep" / "sweep.csv").exists()

    def test_sweep_over_a_value_the_run_does_not_read_exits_one(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path,
            loss=LossConfig(variant="wta"),
            scheduler=ScheduleState(kind="constant", t0=1.0),
            epochs=1,
        )
        argv = ["sweep", "--config", cfg, "--t0", "1,2", "--rho", "0.5", "--seeds", "1"]
        assert main(argv + ["--out-dir", str(tmp_path / "sweep")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        payload = json.loads(captured.err)
        assert payload["error"] == "InputError"
        assert "does not read t0" in payload["message"]
        assert not (tmp_path / "sweep").exists()

    def test_sweep_workers_flag_is_gone(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, epochs=1)
        argv = ["sweep", "--config", cfg, "--t0", "5.0", "--rho", "0.5", "--seeds", "1"]
        argv += ["--out-dir", str(tmp_path / "sweep"), "--workers", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "InputError"
        assert "--workers" in payload["message"]
        assert not (tmp_path / "sweep").exists()

    def test_sweep_out_dir_under_a_file_names_the_sweep_directory(self, tmp_path, capsys):
        # The sweep's --out-dir holds its table, not a run: the message must
        # not call it a run directory.
        cfg = self.write_config(tmp_path, epochs=1)
        (tmp_path / "afile").write_text("")
        out_dir = tmp_path / "afile" / "sweep"
        argv = ["sweep", "--config", cfg, "--t0", "5.0", "--rho", "0.5", "--seeds", "1"]
        assert main(argv + ["--out-dir", str(out_dir)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {
            "error": "InputError",
            "message": f"cannot write {out_dir}: {tmp_path / 'afile'} is not a"
            " writable directory",
        }

    def test_sweep_with_some_cells_ok_exits_zero(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, epochs=1)
        argv = ["sweep", "--config", cfg, "--t0", "5.0", "--rho", "0.5"]
        argv += ["--seeds", "1,-1", "--out-dir", str(tmp_path / "sweep")]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "2 cells (1 failed)" in captured.out
        assert captured.err == ""

    def test_sweep_with_a_bad_t0_records_a_failed_cell(self, tmp_path, capsys):
        # t0 = 0 fails the schedule's own check: that cell is recorded as
        # failed, after the good cell has trained, and the sweep goes on.
        cfg = self.write_config(tmp_path, epochs=1)
        argv = ["sweep", "--config", cfg, "--t0", "5.0,0", "--rho", "0.5"]
        argv += ["--seeds", "1", "--out-dir", str(tmp_path / "sweep")]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "2 cells (1 failed)" in captured.out
        assert captured.err == ""
        rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3
        assert rows[1].startswith("5.0,0.5,1,ok,,")
        assert rows[2] == (
            '0.0,0.5,1,failed,"ConfigurationError: t0 must be positive, got 0.0",,,,,'
        )

    def test_charts_on_header_only_csv_creates_no_directory(self, tmp_path, capsys):
        path = tmp_path / "epochs.csv"
        write_epoch_csv([], path)
        out_dir = tmp_path / "charts"
        assert main(["charts", "--epochs-csv", str(path), "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "InputError"
        assert not out_dir.exists()

    def test_missing_config_exits_one_with_json_error(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "missing.json")])
        assert rc == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.err.strip())
        assert set(payload) == {"error", "message"}

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"generator": {}, "bogus_key": 1}, "bogus_key"),
            *REMOVED_KEYS,
            # The message names the schedule kind that no longer loads.
            *[(data, data["scheduler"]["kind"]) for data, _ in REMOVED_SCHEDULES],
        ],
    )
    def test_bad_config_reports_configuration_error(self, tmp_path, capsys, data, key):
        # Small enough that a config the loader wrongly accepts trains fast.
        small = {
            "train_count": 8, "val_count": 8, "epochs": 1, "out_dir": str(tmp_path / "run"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**data, **small}))
        rc = main(["train", "--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigurationError"
        assert f"'{key}'" in payload["message"]

    def test_generate_requires_generator_block(self, tmp_path, capsys):
        config = tiny_config(
            tmp_path,
            generator=None,
            dataset=DatasetPaths(train_path="a", val_path="b"),
        )
        path = tmp_path / "config.json"
        save_config(config, path)
        rc = main(
            ["generate", "--config", str(path), "--out", str(tmp_path / "d.jsonl")]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ConfigurationError"

    def test_non_finite_data_gives_one_json_line(self, tmp_path, capsys):
        config = blown_dataset_config(tmp_path)
        path = tmp_path / "config.json"
        save_config(config, path)
        with warnings.catch_warnings():
            # A numpy RuntimeWarning would otherwise print before the error.
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["train", "--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "NonFiniteError"
        assert "epoch 0" in payload["message"]
        assert not (tmp_path / "run").exists()

    # Each first allocation is beyond the address space, so it fails at once:
    # about 10**32 parameters, too many to address, or 10**14 scene draws
    # (728 TiB).
    @pytest.mark.parametrize(
        "overrides",
        [{"model": ModelConfig(n_heads=3, hidden=(10**16, 10**16))}, {"train_count": 10**14}],
        ids=["hidden", "train_count"],
    )
    def test_a_run_too_large_to_allocate_gives_one_json_line(self, tmp_path, capsys, overrides):
        cfg = self.write_config(tmp_path, **overrides)
        assert main(["train", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "MemoryError"
        assert payload["message"].startswith("Unable to allocate")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "flag, bad",
        [
            ("--t0", "abc"),
            ("--rho", "0.5,x"),
            ("--seeds", "1.5"),
            ("--t0", "inf"),
            ("--rho", "nan"),
        ],
    )
    def test_bad_sweep_list_item_gives_one_json_line(self, tmp_path, capsys, flag, bad):
        cfg = self.write_config(tmp_path, epochs=1)
        args = {"--t0": "5.0", "--rho": "0.5", "--seeds": "1", flag: bad}
        argv = ["sweep", "--config", cfg, "--out-dir", str(tmp_path / "sweep")]
        for name, value in args.items():
            argv += [name, value]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "InputError"
        assert flag in payload["message"]
        assert repr(bad.split(",")[-1]) in payload["message"]
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize(
        "argv, problem",
        [
            (["train", "--config", "c.json", "--seed", "abc"], "--seed: invalid int value: 'abc'"),
            (["generate", "--config", "c.json", "--out", "d.jsonl", "--count", "z"], "--count"),
            (["bogus"], "invalid choice: 'bogus'"),
            (["charts", "--out-dir", "charts"], "required: --epochs-csv"),
        ],
        ids=["seed", "count", "subcommand", "missing-flag"],
    )
    def test_argument_error_gives_one_json_line(self, tmp_path, capsys, monkeypatch, argv, problem):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        payload = json.loads(captured.err)
        assert payload["error"] == "InputError"
        assert problem in payload["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("0,10.0,1.5,0.6", "expected 9 fields"),
            ("0,10.0,1.5,0.6,0.7,0.25,0.9,three,0.1", "three"),
            ("0,10.0,1.5,0.6,0.7,0.25,0.9,3,0.1,extra", "expected 9 fields"),
            ("0,10.0,nan,0.6,0.7,0.25,0.9,3,0.1", "finite"),
        ],
    )
    def test_malformed_epoch_row_gives_one_json_line(
        self, tmp_path, capsys, row, problem
    ):
        path = tmp_path / "epochs.csv"
        write_epoch_csv([EpochRecord(0, 10.0, 1.5, 0.6, 0.7, 0.25, 0.9, 3, 0.1)], path)
        path.write_text(path.read_text() + row + "\n")
        argv = ["charts", "--epochs-csv", str(path), "--out-dir", str(tmp_path / "c")]
        rc = main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "InputError"
        assert f"{path} line 3" in payload["message"] and problem in payload["message"]

    def assert_one_json_line(self, capsys, argv, error, path):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        payload = json.loads(captured.err)
        assert payload["error"] == error
        assert f"{path} is not UTF-8 text" in payload["message"]

    def test_non_utf8_config_gives_one_json_line(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(NOT_UTF8 + b"{}")
        argv = ["train", "--config", str(path)]
        self.assert_one_json_line(capsys, argv, "ConfigurationError", path)
        assert not (tmp_path / "run").exists()

    def test_non_utf8_checkpoint_gives_one_json_line(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        path = tmp_path / "checkpoint.json"
        path.write_bytes(NOT_UTF8 + b"{}")
        argv = ["eval", "--config", cfg, "--checkpoint", str(path)]
        self.assert_one_json_line(capsys, argv, "ConfigurationError", path)

    def test_non_utf8_epochs_csv_gives_one_json_line(self, tmp_path, capsys):
        path = tmp_path / "epochs.csv"
        path.write_bytes(NOT_UTF8)
        argv = ["charts", "--epochs-csv", str(path), "--out-dir", str(tmp_path / "c")]
        self.assert_one_json_line(capsys, argv, "InputError", path)
        assert not (tmp_path / "c").exists()

    def test_non_utf8_dataset_gives_one_json_line(self, tmp_path, capsys):
        save_dataset(generate(tiny_generator(), 8), tmp_path / "train.jsonl")
        path = tmp_path / "val.jsonl"
        path.write_bytes(NOT_UTF8)
        train_path = str(tmp_path / "train.jsonl")
        dataset = DatasetPaths(train_path=train_path, val_path=str(path))
        cfg = self.write_config(tmp_path, generator=None, dataset=dataset)
        self.assert_one_json_line(capsys, ["train", "--config", cfg], "InputError", path)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_overflow_in_the_model_frame_gives_one_json_line(
        self, tmp_path, capsys, command
    ):
        # Finite coordinates whose offsets from the last past point are not.
        path = tmp_path / "far.jsonl"
        record = {"past": [[-1e308, 0], [1e308, 0]], "future": [[0, 0]], "mode_label": 0}
        lines = [json.dumps({"scene_id": f"far-{i}", **record}) for i in range(4)]
        path.write_text("\n".join(lines) + "\n")
        dataset = DatasetPaths(train_path=str(path), val_path=str(path))
        cfg = self.write_config(tmp_path, generator=None, dataset=dataset)
        argv = ["train", "--config", cfg]
        if command == "eval":
            checkpoint = tmp_path / "checkpoint.json"
            model = ModelConfig(input_dim=4, n_heads=3, horizon=1, hidden=(8,))
            save_checkpoint(init_params(model, 0), checkpoint)
            argv = ["eval", "--config", cfg, "--checkpoint", str(checkpoint)]
        with warnings.catch_warnings():
            # A numpy RuntimeWarning would otherwise print before the error.
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "InputError"
        assert f"{path}: scene 'far-0' overflows the model frame" in payload["message"]
        assert not (tmp_path / "run").exists()

    def test_charts_requires_epochs_csv(self, tmp_path, capsys):
        rc = main(["charts", "--out-dir", str(tmp_path / "charts")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "InputError"
