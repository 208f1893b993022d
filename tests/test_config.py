"""TrackerConfig: field types and values, JSON round trips, loading a file."""

import json
from dataclasses import asdict

import pytest

from evtrack.config import TrackerConfig, load_config

POSITIVE = ("patch_size", "embed_dim", "depth", "d_state", "dt_rank", "conv_width",
            "template_size", "search_size", "lt_capacity", "st_capacity",
            "update_interval", "window_us")
REAL = ("template_context", "search_context")


@pytest.mark.parametrize("name", POSITIVE)
@pytest.mark.parametrize("value", [0, -1])
def test_positive_fields(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        TrackerConfig(**{name: value})


def test_seed_non_negative():
    assert TrackerConfig(seed=0).seed == 0
    with pytest.raises(ValueError, match="seed must be non-negative"):
        TrackerConfig(seed=-1)


@pytest.mark.parametrize("name", ["template_context", "search_context"])
def test_context_factors_at_least_one(name):
    assert getattr(TrackerConfig(**{name: 1.0}), name) == 1.0
    with pytest.raises(ValueError, match="context factors"):
        TrackerConfig(**{name: 0.99})


@pytest.mark.parametrize("kw", [dict(template_size=120), dict(search_size=250),
                                dict(patch_size=24)])
def test_crop_sides_divisible_by_patch_size(kw):
    with pytest.raises(ValueError, match="divisible by patch_size"):
        TrackerConfig(**kw)


@pytest.mark.parametrize("name, value", [
    ("embed_dim", 32.0), ("depth", "2"), ("depth", True), ("seed", None),
    ("window_us", 1e4), ("seed", False)])
def test_int_fields_reject_other_types(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        TrackerConfig(**{name: value})


@pytest.mark.parametrize("name", REAL)
@pytest.mark.parametrize("value", ["2.0", True, None, float("nan"), float("inf")])
def test_real_fields_reject_other_values(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a finite real number"):
        TrackerConfig(**{name: value})


@pytest.mark.parametrize("name", REAL)
def test_real_fields_accept_ints(name):
    assert getattr(TrackerConfig(**{name: 3}), name) == 3


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_flag_must_be_a_bool(value):
    with pytest.raises(ValueError, match="regenerate_every_frame must be a bool"):
        TrackerConfig(regenerate_every_frame=value)


def test_from_json_rejects_string_flag():
    # "false" is truthy: accepting it would switch the flag on.
    with pytest.raises(ValueError, match="regenerate_every_frame"):
        TrackerConfig.from_json('{"regenerate_every_frame": "false"}')


@pytest.mark.parametrize("text", ["[]", '["depth", 2]', "2", '"depth"', "null"])
def test_from_json_requires_an_object(text):
    with pytest.raises(ValueError, match="JSON object"):
        TrackerConfig.from_json(text)


def test_from_json_names_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys: deepth, widht"):
        TrackerConfig.from_json('{"widht": 3, "depth": 2, "deepth": 2}')


@pytest.mark.parametrize("weights", [
    dict(lambda_l1=5.0, lambda_focal=1.0, lambda_giou=2.0),
    dict(lambda_l1=-1, lambda_focal="x", lambda_giou=None),
    dict(lambda_giou=0.0)])
def test_legacy_loss_weights_are_dropped(weights):
    # Every config written before the fields were removed carries them.
    legacy = dict(asdict(TrackerConfig(depth=2)), **weights)
    assert TrackerConfig.from_json(json.dumps(legacy)) == TrackerConfig(depth=2)


def test_legacy_keys_leave_other_unknown_keys_rejected():
    legacy = dict(asdict(TrackerConfig()), lambda_l1=5.0, memory_mode="shared",
                  lambda_iou=1.0)
    with pytest.raises(ValueError, match="unknown config keys: lambda_iou$"):
        TrackerConfig.from_json(json.dumps(legacy))


def test_legacy_shared_memory_mode_is_dropped():
    legacy = dict(asdict(TrackerConfig(depth=2)), memory_mode="shared")
    assert TrackerConfig.from_json(json.dumps(legacy)) == TrackerConfig(depth=2)


@pytest.mark.parametrize("mode", ["separate", None, 1])
def test_other_memory_modes_name_the_removed_mode(mode):
    with pytest.raises(ValueError, match=f"memory_mode {mode!r} was removed"):
        TrackerConfig.from_json(json.dumps({"memory_mode": mode}))


@pytest.mark.parametrize("cfg", [
    TrackerConfig(),
    TrackerConfig(embed_dim=16, depth=1, template_size=32, search_size=64,
                  template_context=1.5, search_context=3, seed=7,
                  regenerate_every_frame=True)])
def test_json_round_trip(cfg):
    text = cfg.to_json()
    assert "memory_mode" not in json.loads(text)
    assert TrackerConfig.from_json(text) == cfg


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(TrackerConfig(depth=2, seed=5).to_json())
    return str(path)


def test_load_config_reads_the_file(config_file):
    assert load_config(config_file) == TrackerConfig(depth=2, seed=5)
    assert load_config(None) == TrackerConfig()


def test_environment_does_not_override_the_seed(config_file, monkeypatch):
    # A run's values come from its config file alone, whatever the environment holds.
    monkeypatch.setenv("MEVT_SEED", "11")
    assert load_config(config_file) == TrackerConfig(depth=2, seed=5)
    assert load_config(None) == TrackerConfig()
