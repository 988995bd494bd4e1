import math

import pytest

from crowdflow.config import RunConfig, deep_merge, load_config_file, preset
from crowdflow.errors import ConfigError


def test_preset_names():
    room = preset("room-eq25")
    assert room["scenario"] == "evacuation"
    assert room["numerics"]["h"] == 0.03125
    assert preset("evacuation") == room
    corridor = preset("corridor-eq20")
    assert corridor["scenario"] == "corridor"
    assert preset("corridor") == corridor
    assert preset("rotation-disc")["scenario"] == "custom-linear"
    assert preset("contraction-disc")["scenario"] == "custom-linear"


def test_preset_returns_a_copy():
    first = preset("room-eq25")
    first["numerics"]["h"] = 999.0
    first["populations"][0]["betas"][0] = -3.0
    again = preset("room-eq25")
    assert again["numerics"]["h"] == 0.03125
    assert again["populations"][0]["betas"] == [0.6]


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset("nope")


def test_deep_merge_semantics():
    base = {"a": {"x": 1, "y": 2}, "items": [1, 2, 3], "k": "old"}
    patch = {"a": {"y": 20, "z": 30}, "items": [9], "k": "new"}
    merged = deep_merge(base, patch)
    assert merged["a"] == {"x": 1, "y": 20, "z": 30}
    assert merged["items"] == [9]  # lists replace wholesale
    assert merged["k"] == "new"
    assert base["a"]["y"] == 2  # inputs untouched


def test_flag_beats_override_beats_preset():
    cfg = RunConfig(
        scenario="room-eq25",
        h=0.1,
        overrides={"numerics": {"h": 0.2, "cfl": 0.4}},
    )
    resolved = cfg.resolved()
    assert resolved["numerics"]["h"] == 0.1
    assert resolved["numerics"]["cfl"] == 0.4
    assert resolved["numerics"]["theta"] == 1.0


def test_numeric_validation():
    with pytest.raises(ConfigError):
        RunConfig(scenario="room-eq25", cfl=1.5).resolved()
    with pytest.raises(ConfigError):
        RunConfig(scenario="room-eq25", theta=0.0).resolved()
    with pytest.raises(ConfigError):
        RunConfig(scenario="room-eq25", h=-0.5).resolved()
    with pytest.raises(ConfigError):
        RunConfig(scenario="room-eq25", final_time=-1.0).resolved()
    with pytest.raises(ConfigError, match="finite"):
        RunConfig(scenario="room-eq25", final_time=math.inf).resolved()
    with pytest.raises(ConfigError):
        RunConfig(scenario=42).resolved()


def test_dict_scenario_accepted():
    base = preset("rotation-disc")
    cfg = RunConfig(scenario=base, h=0.0625)
    assert cfg.resolved()["numerics"]["h"] == 0.0625


def test_load_config_file(tmp_path):
    path = tmp_path / "override.yaml"
    path.write_text("numerics:\n  h: 0.125\n  T: 2.0\noutput:\n  cadence: 0.5\n")
    data = load_config_file(path)
    assert data == {"numerics": {"h": 0.125, "T": 2.0}, "output": {"cadence": 0.5}}


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config_file(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("numerics: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config_file(bad)
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("5\n")
    with pytest.raises(ConfigError):
        load_config_file(scalar)
