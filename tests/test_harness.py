"""Tests for experiment configs, the training loop, sweeps, charts, and the
command line interface."""

import dataclasses
import json

import numpy as np
import pytest

from wtalab import (
    ConfigurationError,
    DatasetParseError,
    ExperimentConfig,
    GeneratorConfig,
    InputError,
    LossConfig,
    ModelSettings,
    NMSConfig,
    NonFiniteError,
    OptimizerConfig,
    ScheduleState,
    SweepCell,
    emit_charts,
    evaluate,
    evaluate_cmd,
    featurize_split,
    generate,
    load_config,
    load_dataset,
    save_config,
    save_dataset,
    sweep,
    train,
)
from wtalab import harness
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
from wtalab.metrics import read_report_csv
from wtalab.schedulers import exp_temperature, ewta_topn


def tiny_generator(seed=3) -> GeneratorConfig:
    return GeneratorConfig(
        n_branches=2,
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
        model=ModelSettings(n_heads=3, hidden=(8,), init="glorot"),
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


class TestConfigRoundTrip:
    def test_full_round_trip_through_json(self, tmp_path):
        config = tiny_config(
            tmp_path,
            nms=NMSConfig(k_out=2, radius=1.5),
            eval_top_k=2,
        )
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
        "data",
        [
            {"generator": {}, "learning_rate": 0.1},
            {"generator": {}, "model": {"n_heads": 4, "width": 8}},
            {"generator": {}, "loss": {"variant": "wta", "margin": 1.0}},
            {"generator": {}, "scheduler": {"kind": "constant", "gamma": 0.9}},
            {"generator": {"n_branches": 2, "bend": 0.1}},
            {"generator": {}, "nms": {"k_out": 2, "metric": "l2"}},
        ],
    )
    def test_unknown_keys_rejected(self, data):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            config_from_dict(data)

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
            ("dac", "linear"),
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
            dict(eval_top_k=4),
            dict(nms=NMSConfig(k_out=4)),
            dict(nms=NMSConfig(k_out=2), eval_top_k=3),
        ],
    )
    def test_post_selection_sizes_checked_before_training(self, tmp_path, overrides):
        # tiny_config has 3 heads; post-selection runs only after training.
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
            scheduler=ScheduleState(kind="constant", t0=1.0),
        )
        with pytest.raises(ConfigurationError):
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
        val_scenes = harness._load_split(config, "val")
        direct = evaluate(result.best_params, *featurize_split(val_scenes))
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
            expected = exp_temperature(config.scheduler.at(record.epoch))
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
            expected = ewta_topn(config.scheduler.at(record.epoch), 3)
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
        save_dataset(harness._load_split(config, "train"), tmp_path / "train.jsonl")
        save_dataset(harness._load_split(config, "val"), tmp_path / "val.jsonl")
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

        def exploding_train(config, write_outputs=True):
            if config.seed == 2:
                raise NonFiniteError("non-finite loss at epoch 0 batch 1")
            return real_train(config, write_outputs=write_outputs)

        monkeypatch.setattr(harness, "train", exploding_train)
        base = tiny_config(tmp_path, epochs=1)
        cells = sweep(base, t0_values=[5.0], rho_values=[0.5], seeds=[1, 2, 3])
        statuses = [c.status for c in cells]
        assert statuses == ["ok", "failed", "ok"]
        assert "NonFiniteError" in cells[1].error
        assert cells[1].report is None

    def test_parallel_matches_serial_order(self, tmp_path):
        base = tiny_config(tmp_path, epochs=1)
        serial = sweep(base, [5.0], [0.5], [1, 2], workers=1)
        parallel = sweep(base, [5.0], [0.5], [1, 2], workers=2)
        for a, b in zip(serial, parallel):
            assert (a.t0, a.rho, a.seed) == (b.t0, b.rho, b.seed)
            assert a.report.min_ade == b.report.min_ade

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(InputError):
            sweep(tiny_config(tmp_path), [], [0.5], [1])


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

    def test_sweep_charts_written(self, tmp_path):
        base = tiny_config(tmp_path, epochs=1)
        cells = sweep(base, [5.0, 10.0], [0.5, 0.9], [1])
        written = emit_charts(cells, tmp_path / "sweepcharts")
        names = {p.name for p in written}
        assert "sweep_min_ade_vs_t0.svg" in names
        assert "sweep_data.csv" in names

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

    def test_missing_config_exits_one_with_json_error(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "missing.json")])
        assert rc == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.err.strip())
        assert set(payload) == {"error", "message"}

    def test_bad_config_reports_configuration_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"generator": {}, "bogus_key": 1}))
        rc = main(["train", "--config", str(path)])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ConfigurationError"
        assert "bogus_key" in payload["message"]

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

    def test_charts_requires_epochs_csv(self, tmp_path, capsys):
        rc = main(["charts", "--out-dir", str(tmp_path / "charts")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "InputError"
