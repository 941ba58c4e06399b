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
    ("pv", "capacity", "1", "[pv] unknown key(s): capacity"),
])
def test_a_bad_value_is_named(tmp_path, section, key, value, message):
    with pytest.raises(ConfigFileError) as exc:
        load(tmp_path, example_config_text({(section, key): value}))
    assert str(exc.value) == message


@pytest.mark.parametrize("text,message", [
    (example_config_text({("simulation", "price_unit"): "dollars"}),
     "[simulation] price_unit: expected currency_per_kwh or cents_per_kwh, "
     "got 'dollars'"),
    (EXAMPLE + "\n[foo]\nkey = 1\n", "unknown section [foo]"),
], ids=["price-unit-dollars", "unknown-section"])
def test_a_malformed_config_exits_2_naming_its_fault(tmp_path, capsys, text,
                                                     message):
    with pytest.raises(ConfigFileError) as exc:
        load(tmp_path, text)
    assert str(exc.value) == message
    assert main(["validate", "--config", str(tmp_path / "config.ini")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# configio only reads: a value is passed on for model.py to judge
@pytest.mark.parametrize("section,key,value,read", [
    ("pv", "capacity_kw", " big ", "big"),
    ("pv", "capacity_kw", "", ""),
    ("wind", "shear_exponent", "x", "x"),
    ("ems", "percentile", "high", "high"),
    ("battery", "capacity_kwh", "-5", -5.0),
    ("economics", "project_lifetime_years", "2.5", 2.5),
    ("economics", "project_lifetime_years", "inf", math.inf),
    ("economics", "project_lifetime_years", "25.0", 25),
    ("economics", "project_lifetime_years", "ten", "ten"),
    ("emissions", "export_offset_enabled", "maybe", "maybe"),
    ("emissions", "export_offset_enabled", "ON", True),
], ids=lambda value: repr(value) if isinstance(value, str) else None)
def test_a_value_is_passed_on_as_read(tmp_path, section, key, value, read):
    config = load(tmp_path, example_config_text({(section, key): value})).config
    got = getattr(getattr(config, section), key)
    assert got == read and type(got) is type(read)


def test_a_hub_height_that_is_no_number_is_named_at_both_heights(tmp_path):
    # the hub height is the anemometer's default height, as read
    text = example_config_text({("wind", "hub_height_m"): "tall",
                                ("wind", "anemometer_height_m"): None})
    report = model.validate_config(load(tmp_path, text).config)
    assert [str(v) for v in report.violations] == [
        "wind.hub_height_m: must be an int or a float, got 'tall' of type str",
        "wind.anemometer_height_m: must be an int or a float, got 'tall' of type str"]


@pytest.mark.parametrize("keys,outage", [
    ("outage_start = 3", model.OutageSpec(start_step=3)),
    ("outage_start = 2.5\noutage_hours = x",
     model.OutageSpec(start_step=2.5, duration_hours="x")),
    ("outage_steps = 4.0", model.OutageSpec(duration_steps=4)),
], ids=["start-alone", "text-and-float", "integral-float"])
def test_a_scenario_outage_is_passed_on_as_read(tmp_path, keys, outage):
    scenarios = load(tmp_path, EXAMPLE + f"\n[scenario:X]\n{keys}\n").scenarios
    assert scenarios["X"].outage == outage
    assert type(scenarios["X"].outage.start_step) is type(outage.start_step)


def test_a_config_without_a_section_header_exits_2(tmp_path, capsys):
    path = tmp_path / "config.ini"
    path.write_text("capacity_kw = 250\n" + EXAMPLE)
    assert main(["validate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: config file {path}: File contains no section headers.")


@pytest.mark.parametrize("value,enabled", [("off", False), (None, False),
                                           ("true", True)],
                         ids=["off", "missing", "true"])
def test_export_offset_enabled_is_a_flag_that_defaults_to_false(
        tmp_path, value, enabled):
    text = example_config_text({("emissions", "export_offset_enabled"): value})
    assert load(tmp_path, text).config.emissions.export_offset_enabled is enabled


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
