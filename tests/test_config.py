"""Run configuration: JSON round trips, unknown-key rejection, grid expansion."""

import pytest

from pcda.config import (
    RunConfig,
    expand_grid,
    load_run_config,
    load_train_config,
    run_config_from_json,
    run_config_to_json,
    save_run_config,
)
from pcda.deform import DeformSpec
from pcda.errors import DataFormatError
from pcda.synthbench import BenchConfig
from pcda.training import TrainConfig


def sample_config():
    return RunConfig(
        bench=BenchConfig(n_points=128, seed=7),
        train=TrainConfig(
            epochs=5,
            deform=DeformSpec(kind="feature", k_pts=50, layer=2),
        ),
        grid={"lr": [1e-3, 5e-4], "ssl_weight": [0.0, 0.25]},
    )


class TestRoundTrip:
    def test_parse_of_serialize_is_identity(self):
        cfg = sample_config()
        assert run_config_from_json(run_config_to_json(cfg)) == cfg

    def test_serialize_of_parse_is_byte_stable(self):
        text = run_config_to_json(sample_config())
        assert run_config_to_json(run_config_from_json(text)) == text

    def test_defaults_round_trip(self):
        cfg = RunConfig()
        assert run_config_from_json(run_config_to_json(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = sample_config()
        path = tmp_path / "run.json"
        save_run_config(path, cfg)
        assert load_run_config(path) == cfg

    def test_mixed_deform_round_trips_with_its_own_fields(self):
        cfg = RunConfig(
            train=TrainConfig(
                deform=DeformSpec(kind="mixed", k=2, layer=1, k_pts=30, relocate_sigma=0.0)
            )
        )
        again = run_config_from_json(run_config_to_json(cfg))
        assert again.train.deform.k_pts == 30 and again.train.deform.layer == 1
        assert again == cfg

    def test_missing_sections_use_defaults(self):
        cfg = run_config_from_json("{}")
        assert cfg == RunConfig()
        assert cfg.grid is None


class TestRejection:
    def test_unknown_top_level_key(self):
        with pytest.raises(DataFormatError, match="unknown keys.*extra"):
            run_config_from_json('{"extra": 1}')

    def test_unknown_train_key_names_path(self):
        with pytest.raises(DataFormatError, match=r"config\.train.*momentum"):
            run_config_from_json('{"train": {"momentum": 0.9}}')

    def test_unknown_nested_deform_key_names_path(self):
        with pytest.raises(DataFormatError, match=r"config\.train\.deform"):
            run_config_from_json('{"train": {"deform": {"kind": "sphere", "wobble": 2}}}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"train": {"deform": {"kind": "mixed", "mixed_volume": {"kind": "sphere"}}}}',
            '{"train": {"deform": {"normals_k": 10}}}',
            '{"train": {"adam_beta1": 0.9}}',
            '{"bench": {"oversample": 2.0}}',
        ],
    )
    def test_removed_fields_are_unknown_keys(self, text):
        with pytest.raises(DataFormatError, match="unknown keys"):
            run_config_from_json(text)

    def test_invalid_json(self):
        with pytest.raises(DataFormatError, match="invalid JSON"):
            run_config_from_json("{nope")

    @pytest.mark.parametrize("load", [load_run_config, load_train_config])
    def test_file_that_is_not_utf8(self, tmp_path, load):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"train": {"epochs": 1}}\xff\n')
        with pytest.raises(DataFormatError, match="invalid JSON"):
            load(path)

    def test_train_config_reads_only_the_train_section(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"train": {"epochs": 3}}')
        assert load_train_config(path) == TrainConfig(epochs=3)
        for extra in ('"bench": {}', '"grid": null'):
            path.write_text('{"train": {}, ' + extra + "}")
            with pytest.raises(DataFormatError, match="only the 'train' section"):
                load_train_config(path)

    def test_non_object_top_level(self):
        with pytest.raises(DataFormatError, match="top-level object"):
            run_config_from_json("[1, 2]")

    def test_non_object_section(self):
        with pytest.raises(DataFormatError, match="config.bench"):
            run_config_from_json('{"bench": 3}')

    def test_unknown_grid_axis(self):
        with pytest.raises(DataFormatError, match="unknown axes.*batch_size"):
            run_config_from_json('{"grid": {"batch_size": [16]}}')

    def test_grid_values_must_be_number_lists(self):
        for bad in ('{"grid": {"lr": []}}', '{"grid": {"lr": 0.1}}', '{"grid": {"lr": ["a"]}}'):
            with pytest.raises(DataFormatError):
                run_config_from_json(bad)

    def test_grid_bools_rejected(self):
        with pytest.raises(DataFormatError):
            run_config_from_json('{"grid": {"lr": [true]}}')

    def test_semantic_validation_still_applies(self):
        with pytest.raises(DataFormatError):
            run_config_from_json('{"train": {"dtype": "float16"}}')


class TestExpandGrid:
    def test_no_grid_yields_single_copy(self):
        cfg = RunConfig(train=TrainConfig(lr=2e-3))
        out = expand_grid(cfg)
        assert len(out) == 1
        assert out[0] == cfg.train
        assert out[0] is not cfg.train

    def test_cartesian_product_in_sorted_axis_order(self):
        cfg = RunConfig(grid={"ssl_weight": [0.0, 0.5], "lr": [1e-3, 2e-3, 3e-3]})
        out = expand_grid(cfg)
        assert len(out) == 6
        # axes sorted by name: lr varies slowest, ssl_weight fastest
        got = [(t.lr, t.ssl_weight) for t in out]
        want = [(lr, w) for lr in (1e-3, 2e-3, 3e-3) for w in (0.0, 0.5)]
        assert got == want

    def test_grid_overrides_base_train_values(self):
        cfg = RunConfig(train=TrainConfig(lr=9.0), grid={"lr": [1e-4]})
        out = expand_grid(cfg)
        assert out[0].lr == 1e-4
        assert out[0].epochs == cfg.train.epochs

    def test_single_axis(self):
        cfg = RunConfig(grid={"weight_decay": [0.0, 1e-4]})
        out = expand_grid(cfg)
        assert [t.weight_decay for t in out] == [0.0, 1e-4]
