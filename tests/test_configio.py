"""Config file reading: required keys, defaults, error messages and order."""

import dataclasses
import math

import pytest

from mgems import model
from mgems.cli import main
from mgems.configio import load_config
from mgems.errors import ConfigFileError

from conftest import data_path, example_config_text

EXAMPLE = data_path("example_config.ini").read_text()

# the component sections in the order the loader reads them
SPEC_SECTIONS = ("pv", "wind", "diesel", "battery", "grid", "ems", "economics")

# wind keys with no model default that the file may still leave out
WIND_OPTIONAL = ("anemometer_height_m", "shear_exponent")


def required_keys(section: str) -> list[str]:
    """The keys of ``section`` a config file must give, in the order they
    are read: the model's fields without a default; [wind] reads its hub
    height first, as the default anemometer height."""
    types = {f.name: f.type for f in dataclasses.fields(model.MicrogridConfig)}
    keys = [f.name for f in dataclasses.fields(getattr(model, types[section]))
            if f.default is dataclasses.MISSING and f.name not in WIND_OPTIONAL]
    if section == "wind":
        keys.remove("hub_height_m")
        keys.insert(0, "hub_height_m")
    return keys


LOAD_ORDER = [(section, key) for section in SPEC_SECTIONS
              for key in required_keys(section)]


def without(keys) -> str:
    """The example config's text without the (section, key) pairs ``keys``."""
    return example_config_text(dict.fromkeys(keys))


def load(tmp_path, text: str):
    path = tmp_path / "config.ini"
    path.write_text(text)
    return load_config(path)


def test_the_example_gives_every_required_key_once():
    assert len(LOAD_ORDER) == 36
    assert example_config_text({}) == EXAMPLE
    for section, key in LOAD_ORDER:
        assert without([(section, key)]).count("\n") == \
            EXAMPLE.count("\n") - 1, (section, key)


@pytest.mark.parametrize("section,key", LOAD_ORDER,
                         ids=[f"{s}.{k}" for s, k in LOAD_ORDER])
def test_a_missing_required_key_is_named(tmp_path, section, key):
    with pytest.raises(ConfigFileError) as exc:
        load(tmp_path, without([(section, key)]))
    assert str(exc.value) == f"[{section}] missing required key {key!r}"


@pytest.mark.parametrize("position", range(len(LOAD_ORDER)),
                         ids=[f"{s}.{k}" for s, k in LOAD_ORDER])
def test_of_several_missing_keys_the_first_read_is_named(tmp_path, position):
    section, key = LOAD_ORDER[position]
    with pytest.raises(ConfigFileError) as exc:
        load(tmp_path, without(LOAD_ORDER[position:]))
    assert str(exc.value) == f"[{section}] missing required key {key!r}"


@pytest.mark.parametrize("section,key,value,message", [
    ("pv", "capacity_kw", "big", "[pv] capacity_kw: not a number: 'big'"),
    ("wind", "shear_exponent", "x", "[wind] shear_exponent: not a number: 'x'"),
    ("ems", "percentile", "high", "[ems] percentile: not a number: 'high'"),
    ("economics", "project_lifetime_years", "2.5",
     "[economics] project_lifetime_years: must be an integer, got 2.5"),
    ("economics", "project_lifetime_years", "inf",
     "[economics] project_lifetime_years: must be an integer, got inf"),
    ("pv", "capacity", "1", "[pv] unknown key(s): capacity"),
])
def test_a_bad_value_is_named(tmp_path, section, key, value, message):
    with pytest.raises(ConfigFileError) as exc:
        load(tmp_path, example_config_text({(section, key): value}))
    assert str(exc.value) == message


def test_optional_keys_take_their_defaults(tmp_path):
    text = example_config_text({("wind", "anemometer_height_m"): None,
                                ("wind", "shear_exponent"): None,
                                ("diesel", "min_loading_fraction"): None,
                                ("grid", "sell_price_ratio"): None,
                                ("wind", "hub_height_m"): 30})
    config = load(tmp_path, text).config
    assert config.wind.anemometer_height_m == config.wind.hub_height_m == 30.0
    assert config.wind.shear_exponent == 1.0 / 7.0
    assert config.diesel.min_loading_fraction == 0.0
    assert config.grid.sell_price_ratio == 1.0
    assert config.ems.percentile == 0.75
    assert config.ems.fixed_threshold is None
    assert config.ems.load_threshold_kw is None


def test_each_key_is_read_with_its_field_type(example_config):
    config = example_config.config
    assert type(config.economics.project_lifetime_years) is int
    assert config.economics.project_lifetime_years == 25
    assert config.ems.threshold_mode == "price-percentile"
    for section in SPEC_SECTIONS:
        for field in dataclasses.fields(getattr(config, section)):
            value = getattr(getattr(config, section), field.name)
            if field.type == "float":
                assert type(value) is float and math.isfinite(value), \
                    (section, field.name)


def test_a_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "config.ini"
    path.write_bytes(b"\xff\xfe" + EXAMPLE.encode())
    assert main(["validate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: config file {path} is not UTF-8: ")
    assert captured.err.count("\n") == 1
