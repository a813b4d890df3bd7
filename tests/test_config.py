"""The train-config file: a run's own config loads back, bad files are refused."""

import json

import pytest

from pcda.cloud import LabeledCloud
from pcda.config import load_train_config
from pcda.dataio import Dataset
from pcda.deform import DeformSpec
from pcda.errors import DataFormatError
from pcda.training import TrainConfig, train

from conftest import make_cloud


def tiny_dataset(seed):
    samples = [LabeledCloud(points=make_cloud(seed * 100 + i, 24), label=i % 2) for i in range(10)]
    return Dataset(samples=samples, num_classes=2)


def run_config_file(tmp_path, cfg, name="run"):
    """The config.json that a run of `cfg` writes, wrapped as a config file."""
    run = tmp_path / name
    train(tiny_dataset(0), tiny_dataset(1), cfg, str(run), stop_after=0)
    path = tmp_path / f"{name}.json"
    path.write_text('{"train": ' + (run / "config.json").read_text() + "}\n")
    return path


def load_text(tmp_path, text):
    path = tmp_path / "c.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return load_train_config(path)


FEATURE = TrainConfig(
    batch_size=4, lr=2e-3, use_mixup=False, seed=5, dtype="float32",
    deform=DeformSpec(kind="feature", k_pts=10, layer=2),
)


class TestRoundTrip:
    def test_defaults_round_trip(self, tmp_path):
        cfg = TrainConfig(batch_size=4)
        assert load_train_config(run_config_file(tmp_path, cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        assert load_train_config(run_config_file(tmp_path, FEATURE)) == FEATURE

    def test_mixed_deform_round_trips_with_its_own_fields(self, tmp_path):
        cfg = TrainConfig(
            batch_size=4,
            deform_domains="source-and-target",
            deform=DeformSpec(kind="mixed", k=2, layer=1, k_pts=10, relocate_sigma=0.0),
        )
        again = load_train_config(run_config_file(tmp_path, cfg))
        assert again.deform.k_pts == 10 and again.deform.layer == 1
        assert again == cfg

    def test_serialize_of_parse_is_byte_stable(self, tmp_path):
        # a run configured from another run's config.json writes the same
        # bytes, which is what `--resume` compares against the checkpoint
        first = run_config_file(tmp_path, FEATURE, "a")
        second = run_config_file(tmp_path, load_train_config(first), "b")
        assert first.read_bytes() == second.read_bytes()

    def test_missing_sections_use_defaults(self, tmp_path):
        assert load_text(tmp_path, "{}") == TrainConfig()
        assert load_text(tmp_path, '{"train": {"epochs": 3}}') == TrainConfig(epochs=3)


class TestRejection:
    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(DataFormatError, match="only the 'train' section.*extra"):
            load_text(tmp_path, '{"extra": 1}')

    def test_unknown_train_key_names_path(self, tmp_path):
        with pytest.raises(DataFormatError, match=r"config\.train.*momentum"):
            load_text(tmp_path, '{"train": {"momentum": 0.9}}')

    def test_unknown_nested_deform_key_names_path(self, tmp_path):
        with pytest.raises(DataFormatError, match=r"config\.train\.deform.*wobble"):
            load_text(tmp_path, '{"train": {"deform": {"kind": "sphere", "wobble": 2}}}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"train": {"deform": {"kind": "mixed", "mixed_volume": {"kind": "sphere"}}}}',
            '{"train": {"deform": {"normals_k": 10}}}',
            '{"train": {"adam_beta1": 0.9}}',
        ],
    )
    def test_removed_fields_are_unknown_keys(self, tmp_path, text):
        with pytest.raises(DataFormatError, match="unknown keys"):
            load_text(tmp_path, text)

    def test_invalid_json(self, tmp_path):
        with pytest.raises(DataFormatError, match="invalid JSON"):
            load_text(tmp_path, "{nope")

    def test_file_that_is_not_utf8(self, tmp_path):
        with pytest.raises(DataFormatError, match="invalid JSON"):
            load_text(tmp_path, b'{"train": {"epochs": 1}}\xff\n')

    def test_train_config_reads_only_the_train_section(self, tmp_path):
        for extra in ('"bench": {}', '"grid": null'):
            with pytest.raises(DataFormatError, match="only the 'train' section"):
                load_text(tmp_path, '{"train": {}, ' + extra + "}")

    def test_non_object_top_level(self, tmp_path):
        with pytest.raises(DataFormatError, match="top-level object"):
            load_text(tmp_path, "[1, 2]")

    def test_non_object_section(self, tmp_path):
        with pytest.raises(DataFormatError, match=r"config\.train: expected an object"):
            load_text(tmp_path, '{"train": 3}')
        with pytest.raises(DataFormatError, match=r"config\.train\.deform: expected an object"):
            load_text(tmp_path, '{"train": {"deform": []}}')

    def test_semantic_validation_still_applies(self, tmp_path):
        for text in ('{"train": {"dtype": "float16"}}', '{"train": {"lr": -1.0}}',
                     '{"train": {"weight_decay": -1e-4}}', '{"train": {"deform": {"k": 0}}}'):
            with pytest.raises(DataFormatError):
                load_text(tmp_path, text)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", 1.5),
            ("batch_size", 8.0),
            ("seed", 1.5),
            ("seed", True),
            ("lr", "x"),
            ("lr", False),
            ("use_mixup", "no"),
            ("use_mixup", 0),
            ("dtype", 32),
            ("deform.k", 2.5),
            ("deform.radius", "0.2"),
            ("deform.kind", None),
        ],
    )
    def test_value_of_the_wrong_type(self, tmp_path, field, value):
        outer, _, inner = field.rpartition(".")
        section = {inner: value}
        if outer:
            section = {outer: section}
        with pytest.raises(DataFormatError, match=rf"config\.train\.{field}: expected"):
            load_text(tmp_path, json.dumps({"train": section}))
