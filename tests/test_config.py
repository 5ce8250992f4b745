"""Configuration schema: parsing, validation, round trips."""

import inspect

import pytest

from peelsort.cluster import kmeans
from peelsort.config import (SCHEMA, PipelineConfig, load_config, save_config)
from peelsort.errors import ConfigError
from peelsort.events import optimal_cut_bounds
from peelsort.peel import peel


def test_defaults_cover_every_key():
    cfg = PipelineConfig()
    assert set(cfg.values) == set(SCHEMA)
    assert cfg.get("detect.box_width") == 5
    assert cfg.get("detect.threshold_mad") == 4.0
    assert cfg.get("cluster.method") == "kmeans"
    assert cfg.get("preprocess.highpass") is False


@pytest.mark.parametrize("key,function,parameter", [
    ("cluster.restarts", kmeans, "restarts"),
    ("events.noise_level", optimal_cut_bounds, "noise_level"),
    ("peel.acceptance_factor", peel, "acceptance_factor"),
])
def test_schema_defaults_equal_the_library_defaults(key, function, parameter):
    # the schema reads the other shared defaults from their dataclasses and
    # constants; these it states, so they are checked against the signatures
    default = inspect.signature(function).parameters[parameter].default
    assert SCHEMA[key][1] == default and type(SCHEMA[key][1]) is type(default)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        PipelineConfig({"detect.boxwidth": 5})
    with pytest.raises(ConfigError, match="unknown"):
        PipelineConfig({"synth.scenario": "locust"})
    with pytest.raises(ConfigError, match="unknown"):
        PipelineConfig().get("nope")


def test_string_values_coerced_to_schema_types():
    cfg = PipelineConfig({"detect.box_width": "7",
                          "detect.threshold_mad": "3.5",
                          "preprocess.highpass": "yes"})
    assert cfg.get("detect.box_width") == 7
    assert cfg.get("detect.threshold_mad") == 3.5
    assert cfg.get("preprocess.highpass") is True


@pytest.mark.parametrize("raw,expected", [
    ("true", True), ("Yes", True), ("ON", True), ("1", True),
    ("false", False), ("No", False), ("off", False), ("0", False),
])
def test_bool_spellings(raw, expected):
    cfg = PipelineConfig({"preprocess.highpass": raw})
    assert cfg.get("preprocess.highpass") is expected


def test_bad_values_rejected():
    with pytest.raises(ConfigError, match="detect.box_width"):
        PipelineConfig({"detect.box_width": "five"})
    with pytest.raises(ConfigError, match="preprocess.highpass"):
        PipelineConfig({"preprocess.highpass": "maybe"})
    with pytest.raises(ConfigError):
        PipelineConfig({"detect.box_width": 5.5})
    with pytest.raises(ConfigError):
        # bools are not acceptable ints
        PipelineConfig({"detect.box_width": True})
    for key, bad in (("cluster.method", "kmean"), ("detect.polarity", "negative")):
        with pytest.raises(ConfigError, match=key):
            PipelineConfig({key: bad})
    for key, bad in (("peel.max_rounds", "0"), ("run.estimation_window_s", "-5"),
                     ("run.estimation_window_s", "nan"), ("events.before", "-3"),
                     ("events.after", -1), ("cluster.k", "0"), ("cluster.restarts", "0"),
                     ("cluster.bootstrap_b", "0"), ("peel.acceptance_factor", "0"),
                     ("peel.acceptance_factor", "-1"), ("peel.acceptance_factor", "nan"),
                     # every float key is finite: nan fails no bound, inf fails no minimum
                     ("run.estimation_window_s", "inf"), ("events.noise_level", "nan"),
                     ("events.side_threshold", "nan"), ("detect.threshold_mad", "nan"),
                     ("detect.threshold_mad", "inf"), ("data.rate_hz", "nan"),
                     ("data.rate_hz", float("inf")), ("synth.duration_s", "-inf"),
                     ("peel.acceptance_factor", "inf")):
        with pytest.raises(ConfigError, match=key):
            PipelineConfig({key: bad})


def test_int_promotes_to_float():
    cfg = PipelineConfig({"data.rate_hz": 20000})
    assert cfg.get("data.rate_hz") == 20000.0
    assert isinstance(cfg.get("data.rate_hz"), float)


def test_channel_files_split():
    cfg = PipelineConfig({"data.files": "a.npy, b.npy , c.npy"})
    assert cfg.channel_files() == ["a.npy", "b.npy", "c.npy"]
    cfg = PipelineConfig({"data.files": "one.npy"})
    assert cfg.channel_files() == ["one.npy"]
    with pytest.raises(ConfigError, match="data.files"):
        PipelineConfig().channel_files()


def test_echo_is_sorted():
    keys = list(PipelineConfig().echo())
    assert keys == sorted(keys)


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "detect.box_width = 9   # trailing comment\n"
        "cluster.method = gmm\n"
        "run.seed=42\n")
    cfg = load_config(path)
    assert cfg.get("detect.box_width") == 9
    assert cfg.get("cluster.method") == "gmm"
    assert cfg.get("run.seed") == 42
    assert cfg.get("detect.guard") == 50  # untouched default


def test_load_config_reports_line_number(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("run.seed = 1\nnot a setting\n")
    with pytest.raises(ConfigError, match=":2:"):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def test_save_load_round_trip(tmp_path):
    cfg = PipelineConfig({"cluster.k": 7, "preprocess.highpass": True,
                          "data.files": "x.npy,y.npy",
                          "peel.acceptance_factor": 0.9})
    path = tmp_path / "saved.cfg"
    save_config(cfg, path)
    again = load_config(path)
    assert again.echo() == cfg.echo()
