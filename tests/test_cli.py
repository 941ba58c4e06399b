"""CLI behaviour: outputs, exit codes, golden files, determinism."""

import contextlib
import dataclasses
import errno
import json
import re
import signal
import tempfile
import warnings
from datetime import timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from mgems import dispatch
from mgems._kernel import IMPORT
from mgems.cli import main, report_json_bytes
from mgems.configio import load_config
from mgems.dispatch import initial_state, run_arrays
from mgems.errors import ConfigFileError
from mgems.metrics import build_report
from mgems.model import validate_config

from conftest import data_path, example_config_text

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def fixture_args(tmp_path):
    config = data_path("example_config.ini")
    profile = data_path("example_day.csv")
    return str(config), str(profile), tmp_path


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def test_simulate_writes_trace_and_report(fixture_args, capsys):
    config, profile, out = fixture_args
    assert run_cli("simulate", "--config", config, "--profile", profile,
                   "--out", out / "run") == 0
    trace = (out / "run" / "trace.csv").read_text().splitlines()
    assert len(trace) == 25  # header + 24 steps
    report = json.loads((out / "run" / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["reliability"]["uptime_fraction"] == 1.0
    assert report["reliability"]["outage_count"] == 0
    manifest = json.loads((out / "run" / "manifest.json").read_text())
    assert manifest["random_free"] is True


def test_simulate_matches_golden_day(fixture_args):
    config, profile, out = fixture_args
    assert run_cli("simulate", "--config", config, "--profile", profile,
                   "--out", out / "run") == 0
    assert (out / "run" / "trace.csv").read_bytes() == \
        (GOLDEN / "day" / "trace.csv").read_bytes()
    assert (out / "run" / "report.json").read_bytes() == \
        (GOLDEN / "day" / "report.json").read_bytes()


def test_simulate_outage_matches_golden(fixture_args):
    config, profile, out = fixture_args
    assert run_cli("simulate", "--config", config, "--profile", profile,
                   "--out", out / "run", "--outage-start", 16,
                   "--outage-hours", 6) == 0
    assert (out / "run" / "trace.csv").read_bytes() == \
        (GOLDEN / "outage" / "trace.csv").read_bytes()
    assert (out / "run" / "report.json").read_bytes() == \
        (GOLDEN / "outage" / "report.json").read_bytes()


def test_simulate_missing_profile_exits_3(fixture_args, capsys):
    config, _, out = fixture_args
    code = run_cli("simulate", "--config", config, "--profile",
                   "/nonexistent/profile.csv", "--out", out / "run")
    assert code == 3
    assert "/nonexistent/profile.csv" in capsys.readouterr().err
    assert not (out / "run").exists()  # no partial outputs


def test_simulate_zero_steps_exits_2(fixture_args, capsys):
    config, profile, out = fixture_args
    code = run_cli("simulate", "--config", config, "--profile", profile,
                   "--out", out / "run", "--steps", 0)
    assert code == 2
    assert "empty horizon" in capsys.readouterr().err
    assert not (out / "run").exists()


def test_simulate_exits_4_on_a_balance_breach(fixture_args, capsys):
    config, profile, out = fixture_args
    real = dispatch._kernel_run

    def kernel(*args):
        final = real(*args)
        args[-1][0, IMPORT] += 1.0   # breaks the power balance at step 0
        return final
    with mock.patch.object(dispatch, "_kernel_run", kernel):
        code = run_cli("simulate", "--config", config, "--profile", profile,
                       "--out", out / "run")
    assert code == 4
    assert capsys.readouterr().err.startswith(
        "error: internal invariant breach: power balance residual")
    assert not (out / "run").exists()


def test_simulate_steps_truncates_horizon(fixture_args):
    config, profile, out = fixture_args
    assert run_cli("simulate", "--config", config, "--profile", profile,
                   "--out", out / "run", "--steps", 5) == 0
    assert len((out / "run" / "trace.csv").read_text().splitlines()) == 6


def test_simulate_invalid_config_exits_2(fixture_args, capsys):
    _, profile, out = fixture_args
    bad = out / "bad.ini"
    bad.write_text(data_path("example_config.ini").read_text()
                   .replace("soc_min = 0.20", "soc_min = 0.90"))
    code = run_cli("simulate", "--config", bad, "--profile", profile,
                   "--out", out / "run")
    assert code == 2
    assert "battery.soc_band" in capsys.readouterr().err
    assert not (out / "run").exists()


def test_simulate_malformed_profile_exits_2(fixture_args, capsys):
    config, _, out = fixture_args
    bad = out / "bad.csv"
    bad.write_text("index,demand_kw,price,grid_available,pv_kw,wind_kw\n"
                   "0,-5,0.1,1,0,0\n")
    code = run_cli("simulate", "--config", config, "--profile", bad,
                   "--out", out / "run")
    assert code == 2
    assert "demand_kw" in capsys.readouterr().err


def test_validate_prints_summary(fixture_args, capsys):
    config, profile, _ = fixture_args
    assert run_cli("validate", "--config", config, "--profile", profile) == 0
    out = capsys.readouterr().out
    assert "config: OK" in out
    assert ("converter_efficiency: 0.95 (checked to lie in (0, 1], but no "
            "calculation reads it: the converter is not modelled)\n") in out
    assert "cents_per_kwh (prices divided by 100" in out
    assert "horizon: 24 steps x 1.0 h" in out
    assert "0.26280000000000003 (price-percentile)" in out


def test_validate_reports_violations_one_per_line(fixture_args, capsys):
    config, _, out = fixture_args
    bad = out / "bad.ini"
    bad.write_text(Path(config).read_text()
                   .replace("soc_min = 0.20", "soc_min = 0.90")
                   .replace("derating_factor = 0.80", "derating_factor = 0"))
    assert run_cli("validate", "--config", bad) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2
    assert any("pv.derating_factor" in line for line in err)
    assert any("battery.soc_band" in line for line in err)


def test_scenarios_selection_cardinality(fixture_args):
    config, profile, out = fixture_args
    assert run_cli("scenarios", "--config", config, "--profile", profile,
                   "--out", out / "runs", "--scenarios", "S1,S4") == 0
    assert (out / "runs" / "base" / "report.json").is_file()
    assert (out / "runs" / "S1" / "report.json").is_file()
    assert (out / "runs" / "S4" / "report.json").is_file()
    assert not (out / "runs" / "S2").exists()
    matrix = (out / "runs" / "matrix.csv").read_text().splitlines()
    assert len(matrix) == 3  # header + two delta rows
    assert matrix[1].startswith("S1,")
    assert matrix[2].startswith("S4,")


def test_scenarios_all_matches_golden_matrix(fixture_args):
    config, profile, out = fixture_args
    assert run_cli("scenarios", "--config", config, "--profile", profile,
                   "--out", out / "runs", "--scenarios", "all") == 0
    assert (out / "runs" / "matrix.csv").read_bytes() == \
        (GOLDEN / "matrix.csv").read_bytes()
    for name in ("base", "S1", "S2", "S3", "S4"):
        assert (out / "runs" / name / "trace.csv").is_file()


def test_scenarios_unknown_id_exits_2(fixture_args, capsys):
    config, profile, out = fixture_args
    code = run_cli("scenarios", "--config", config, "--profile", profile,
                   "--out", out / "runs", "--scenarios", "S7")
    assert code == 2
    assert "S7" in capsys.readouterr().err


def test_scenarios_custom_from_config_file(fixture_args):
    config, profile, out = fixture_args
    custom = out / "custom.ini"
    custom.write_text(Path(config).read_text() + "\n[scenario:hot-summer]\n"
                      "demand_multiplier = 1.25\n")
    assert run_cli("scenarios", "--config", custom, "--profile", profile,
                   "--out", out / "runs", "--scenarios", "hot-summer") == 0
    matrix = (out / "runs" / "matrix.csv").read_text().splitlines()
    assert matrix[1].startswith("hot-summer,")
    assert (out / "runs" / "hot-summer" / "report.json").is_file()


def test_failing_scenario_marked_without_aborting_siblings(fixture_args):
    config, profile, out = fixture_args
    custom = out / "custom.ini"
    custom.write_text(Path(config).read_text() + "\n[scenario:bad-window]\n"
                      "outage_start = 100\noutage_steps = 6\n")
    assert run_cli("scenarios", "--config", custom, "--profile", profile,
                   "--out", out / "runs", "--scenarios", "S1,bad-window") == 0
    import csv
    with open(out / "runs" / "matrix.csv", newline="") as fh:
        rows = {row[0]: row for row in csv.reader(fh)}
    assert rows["S1"][1] == ""
    assert "does not fit" in rows["bad-window"][1]
    assert (out / "runs" / "S1" / "report.json").is_file()
    assert not (out / "runs" / "bad-window").exists()


def test_repeated_runs_are_bit_identical(fixture_args):
    config, profile, out = fixture_args
    for directory in ("one", "two"):
        assert run_cli("simulate", "--config", config, "--profile", profile,
                       "--out", out / directory) == 0
        assert run_cli("scenarios", "--config", config, "--profile", profile,
                       "--out", out / directory / "scen",
                       "--scenarios", "all") == 0
    for name in ("trace.csv", "report.json",
                 "scen/matrix.csv", "scen/S3/trace.csv",
                 "scen/base/report.json"):
        assert (out / "one" / name).read_bytes() == \
            (out / "two" / name).read_bytes(), name


def test_trace_column_sums_match_report_totals(fixture_args):
    import csv
    config, profile, out = fixture_args
    assert run_cli("simulate", "--config", config, "--profile", profile,
                   "--out", out / "run") == 0
    with open(out / "run" / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    report = json.loads((out / "run" / "report.json").read_text())
    column_for = {
        "imported_kwh": "grid_import_kw", "exported_kwh": "grid_export_kw",
        "dg_kwh": "dg_kw", "pv_kwh": "pv_kw", "wind_kwh": "wind_kw",
        "battery_charge_kwh": "battery_charge_kw",
        "battery_discharge_kwh": "battery_discharge_kw",
        "unserved_kwh": "unserved_kw", "curtailed_kwh": "curtailed_kw",
    }
    dt = report["horizon"]["step_hours"]
    for total, column in column_for.items():
        summed = sum(float(r[column]) for r in rows) * dt
        assert abs(summed - report["energy"][total]) <= 1e-6, total
    served = sum((float(r["demand_kw"]) - float(r["unserved_kw"])) * dt
                 for r in rows)
    assert abs(served - report["energy"]["served_kwh"]) <= 1e-6


def test_outputs_stay_inside_the_output_directory(fixture_args):
    config, profile, out = fixture_args
    target = out / "only-here"
    before = {p for p in out.rglob("*")}
    assert run_cli("simulate", "--config", config, "--profile", profile,
                   "--out", target) == 0
    created = {p for p in out.rglob("*")} - before
    assert created
    assert all(target in p.parents or p == target for p in created)


def test_simulate_rejects_a_nan_profile_value(fixture_args):
    config, _, out = fixture_args
    profile = out / "nan.csv"
    profile.write_text("index,demand_kw,price,grid_available,pv_kw,wind_kw\n"
                       "0,10,12.0,1,0,0\n1,nan,12.0,1,0,0\n")
    assert run_cli("simulate", "--config", config, "--profile", profile,
                   "--out", out / "run") == 2
    assert not (out / "run").exists()


def test_report_json_is_strict(example_config, example_inputs):
    config = example_config.config
    trace = run_arrays(example_inputs, initial_state(config.battery), config)
    report = build_report(trace, example_inputs, config)
    assert b"NaN" not in report_json_bytes(report)
    with pytest.raises(ValueError):
        report_json_bytes(dataclasses.replace(report, threshold=float("nan")))



def test_simulate_accepts_a_huge_finite_demand(fixture_args):
    # 1e308 - 250 kW of import rounds back to 1e308; that is not a breach
    config, _, out = fixture_args
    profile = out / "huge.csv"
    profile.write_text("index,demand_kw,price,grid_available,pv_kw,wind_kw\n"
                       "0,1e308,12.0,1,0,0\n")
    assert run_cli("simulate", "--config", config, "--profile", profile,
                   "--out", out / "run") == 0


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("key", ["outage_steps", "outage_start"])
@pytest.mark.parametrize("command", ["validate", "scenarios"])
def test_non_finite_scenario_integer_exits_2(fixture_args, capsys, command,
                                             key, value):
    config, profile, out = fixture_args
    custom = out / "custom.ini"
    keys = {"outage_steps": "2", key: value}
    custom.write_text(Path(config).read_text() + "\n[scenario:X]\n"
                      + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    args = ["--config", custom, "--profile", profile]
    if command == "scenarios":
        args += ["--out", out / "runs", "--scenarios", "X"]
    assert run_cli(command, *args) == 2
    assert f"[scenario:X] {key}: must be an integer, got {value}" in \
        capsys.readouterr().err
    assert not (out / "runs").exists()


@pytest.mark.parametrize("hours", ["inf", "nan"])
def test_simulate_rejects_a_non_finite_outage_duration(fixture_args, capsys,
                                                      hours):
    config, profile, out = fixture_args
    assert run_cli("simulate", "--config", config, "--profile", profile,
                   "--out", out / "run", "--outage-start", 16,
                   "--outage-hours", hours) == 2
    assert "outage duration_hours" in capsys.readouterr().err
    assert not (out / "run").exists()


@pytest.mark.parametrize("start,hours,message", [
    (100, 6, "outage window [100, 106) does not fit the 24-step horizon"),
    (16, 0, "outage duration must cover at least one step, got 0"),
])
def test_simulate_outage_errors_name_the_flags(fixture_args, capsys, start,
                                               hours, message):
    config, profile, out = fixture_args
    assert run_cli("simulate", "--config", config, "--profile", profile,
                   "--out", out / "run", "--outage-start", start,
                   "--outage-hours", hours) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --outage-start/--outage-hours: {message}\n"
    assert not (out / "run").exists()


@pytest.mark.parametrize("selection,flags,message", [
    ("S1", ["--outage-start", 16, "--outage-hours", 6],
     "no selected scenario has an outage window to replace"),
    ("S3", ["--outage-hours", -3],
     "outage duration must cover at least one step, got -3"),
    ("S3", ["--outage-start", -1, "--outage-hours", 6],
     "outage window [-1, 5) does not fit any horizon: start_step must be >= 0"),
])
def test_scenarios_outage_flag_errors_name_the_flags(fixture_args, capsys,
                                                     selection, flags,
                                                     message):
    config, profile, out = fixture_args
    assert run_cli("scenarios", "--config", config, "--profile", profile,
                   "--out", out / "runs", "--scenarios", selection,
                   *flags) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --outage-start/--outage-hours: {message}\n"
    assert not (out / "runs").exists()


def test_scenarios_outage_flags_replace_the_window_of_s3(fixture_args):
    config, profile, out = fixture_args
    assert run_cli("scenarios", "--config", config, "--profile", profile,
                   "--out", out / "runs", "--scenarios", "S1,S3",
                   "--outage-start", 16, "--outage-hours", 6) == 0
    # the window simulate forces with the same flags
    assert (out / "runs" / "S3" / "trace.csv").read_bytes() == \
        (GOLDEN / "outage" / "trace.csv").read_bytes()
    assert (out / "runs" / "S1" / "trace.csv").exists()


def test_scenarios_outage_flags_that_do_not_fit_fail_their_scenario_alone(
        fixture_args, capsys):
    config, profile, out = fixture_args
    assert run_cli("scenarios", "--config", config, "--profile", profile,
                   "--out", out / "runs", "--scenarios", "S1,S3",
                   "--outage-start", 100, "--outage-hours", 6) == 0
    message = ("scenario S3: outage window [100, 106) does not fit the "
               "24-step horizon")
    assert f"scenario S3 failed: {message}\n" in capsys.readouterr().err
    rows = (out / "runs" / "matrix.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["S1", "S3"]
    assert rows[2].startswith(f'S3,"{message}",')
    assert (out / "runs" / "S1" / "trace.csv").exists()
    assert not (out / "runs" / "S3").exists()


def test_simulate_manifest_records_the_invocation(fixture_args):
    config, profile, out = fixture_args
    assert run_cli("simulate", "--config", config, "--profile", profile,
                   "--out", out / "run") == 0
    assert (out / "run" / "manifest.json").read_text() == (
        "{\n"
        f'  "config_path": {json.dumps(config)},\n'
        f'  "profile_path": {json.dumps(profile)},\n'
        '  "profile_mode": "generation",\n'
        f'  "output_dir": {json.dumps(str(out / "run"))},\n'
        '  "scenario_selection": [],\n'
        '  "random_free": true,\n'
        '  "tool_version": "0.1.0"\n'
        "}\n")


def test_infinite_scenario_multiplier_is_reported_as_bad_input(fixture_args):
    config, profile, out = fixture_args
    custom = out / "custom.ini"
    custom.write_text(Path(config).read_text() + "\n[scenario:X]\n"
                      "demand_multiplier = inf\n")
    assert run_cli("scenarios", "--config", custom, "--profile", profile,
                   "--out", out / "runs", "--scenarios", "S1,X") == 0
    import csv
    with open(out / "runs" / "matrix.csv", newline="") as fh:
        rows = {row[0]: row for row in csv.reader(fh)}
    assert rows["X"][1] == \
        "scenario X: demand_multiplier must be finite and > 0, got inf"
    assert (out / "runs" / "S1" / "report.json").is_file()


@pytest.mark.parametrize("key,value,message", [
    ("demand_multiplier", "inf", "demand_multiplier must be finite and > 0, got inf"),
    ("demand_multiplier", "0", "demand_multiplier must be finite and > 0, got 0.0"),
    ("demand_multiplier", "nan", "demand_multiplier must be finite and > 0, got nan"),
    ("fuel_price_multiplier", "-1",
     "fuel_price_multiplier must be finite and > 0, got -1.0"),
    ("outage_hours", "inf",
     "outage duration_hours inf is not a finite number of steps"),
    ("outage_hours", "0.2", "outage duration must cover at least one step, got 0"),
    ("outage_steps", "0", "outage duration must cover at least one step, got 0"),
])
def test_validate_rejects_a_bad_scenario_value(fixture_args, capsys, key, value,
                                               message):
    config, profile, out = fixture_args
    custom = out / "custom.ini"
    custom.write_text(Path(config).read_text()
                      + f"\n[scenario:OK]\n\n[scenario:X]\n{key} = {value}\n")
    assert run_cli("validate", "--config", custom) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: [scenario:X] {message}\n"
    assert "config: OK" not in captured.out


def test_validate_rejects_a_negative_outage_start(fixture_args, capsys):
    config, profile, out = fixture_args
    custom = out / "custom.ini"
    custom.write_text(Path(config).read_text()
                      + "\n[scenario:X]\noutage_start = -1\noutage_steps = 2\n")
    assert run_cli("validate", "--config", custom) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: [scenario:X] outage window [-1, 1) does not "
                            "fit any horizon: start_step must be >= 0\n")
    assert "config: OK" not in captured.out


@pytest.mark.parametrize("start,steps,message", [
    (100, 6, "outage window [100, 106) does not fit the 24-step horizon"),
    (-1, 2, "outage window [-1, 1) does not fit any horizon: "
            "start_step must be >= 0"),
])
def test_matrix_error_cell_names_the_scenario_of_a_bad_window(
        fixture_args, start, steps, message):
    config, profile, out = fixture_args
    custom = out / "custom.ini"
    custom.write_text(Path(config).read_text() + "\n[scenario:W]\n"
                      f"outage_start = {start}\noutage_steps = {steps}\n")
    assert run_cli("scenarios", "--config", custom, "--profile", profile,
                   "--out", out / "runs", "--scenarios", "S1,W") == 0
    import csv
    with open(out / "runs" / "matrix.csv", newline="") as fh:
        rows = {row[0]: row for row in csv.reader(fh)}
    assert rows["W"][1] == f"scenario W: {message}"
    assert rows["S1"][1] == ""


def test_simulate_rejects_a_non_finite_profile_index(fixture_args, capsys,
                                                     tmp_path):
    config, profile, out = fixture_args
    lines = Path(profile).read_text().splitlines()
    lines[3] = "nan," + lines[3].split(",", 1)[1]
    bad = tmp_path / "nan_index.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert run_cli("simulate", "--config", config, "--profile", bad,
                   "--out", out / "run") == 2
    assert "line 4, column index: must be finite, got nan" in capsys.readouterr().err
    assert not (out / "run").exists()


def with_sections(config, out, sections):
    """A copy of the config file with ``sections`` appended."""
    custom = out / "custom.ini"
    custom.write_text(Path(config).read_text() + "\n" + sections)
    return custom


@pytest.mark.parametrize("section,name,problem", [
    ("scenario:../escaped", "../escaped", "is not a plain directory name"),
    ("scenario:", "", "is not a plain directory name"),
    ("scenario:.", ".", "is not a plain directory name"),
    ("scenario: .. ", "..", "is not a plain directory name"),
    ("scenario:a\\b", "a\\b", "is not a plain directory name"),
    ("scenario:base", "base", "is reserved for the base run"),
    ("scenario:matrix.csv", "matrix.csv", "is the name of an output file"),
    ("scenario:manifest.json", "manifest.json", "is the name of an output file"),
    ("scenario:trace.csv", "trace.csv", "is the name of an output file"),
    ("scenario: report.json", "report.json", "is the name of an output file"),
])
def test_validate_rejects_a_scenario_name_that_is_no_output_directory(
        fixture_args, capsys, section, name, problem):
    config, _, out = fixture_args
    custom = with_sections(config, out, f"[{section}]\ndemand_multiplier = 2\n")
    assert run_cli("validate", "--config", custom) == 2
    captured = capsys.readouterr()
    assert captured.err == \
        f"error: [{section}] scenario name {name!r} {problem}\n"
    assert "config: OK" not in captured.out
    with pytest.raises(ConfigFileError, match=re.escape(f"[{section}]")):
        load_config(custom)


@pytest.mark.parametrize("section,name,problem", [
    ("scenario:../escaped", "../escaped", "is not a plain directory name"),
    ("scenario:base", "base", "is reserved for the base run"),
    ("scenario:matrix.csv", "matrix.csv", "is the name of an output file"),
])
def test_scenarios_rejects_a_scenario_name_outside_its_directory(
        fixture_args, capsys, section, name, problem):
    config, profile, out = fixture_args
    custom = with_sections(config, out, f"[{section}]\ndemand_multiplier = 2\n")
    assert run_cli("scenarios", "--config", custom, "--profile", profile,
                   "--out", out / "a" / "b", "--scenarios", "all") == 2
    assert capsys.readouterr().err == \
        f"error: [{section}] scenario name {name!r} {problem}\n"
    assert not (out / "a" / "escaped").exists()
    assert not (out / "a" / "b").exists()


def files_under(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def test_simulate_writes_nothing_when_a_target_is_a_directory(fixture_args,
                                                              capsys):
    config, profile, out = fixture_args
    (out / "run" / "report.json").mkdir(parents=True)
    assert run_cli("simulate", "--config", config, "--profile", profile,
                   "--out", out / "run") == 3
    assert capsys.readouterr().err == \
        f"error: cannot write outputs: {out / 'run' / 'report.json'} is a directory\n"
    assert files_under(out / "run") == ["report.json"]


def test_scenarios_writes_nothing_when_a_scenario_directory_is_a_file(
        fixture_args, capsys):
    config, profile, out = fixture_args
    (out / "runs").mkdir()
    (out / "runs" / "S3").write_text("kept\n")
    assert run_cli("scenarios", "--config", config, "--profile", profile,
                   "--out", out / "runs", "--scenarios", "all") == 3
    assert capsys.readouterr().err == \
        f"error: cannot write outputs: {out / 'runs' / 'S3'} is not a directory\n"
    assert files_under(out / "runs") == ["S3"]
    assert (out / "runs" / "S3").read_text() == "kept\n"


def test_simulate_writes_nothing_under_an_out_path_that_is_a_file(
        fixture_args, capsys):
    config, profile, out = fixture_args
    (out / "taken").write_text("kept\n")
    assert run_cli("simulate", "--config", config, "--profile", profile,
                   "--out", out / "taken" / "run") == 3
    assert capsys.readouterr().err == \
        f"error: cannot write outputs: {out / 'taken'} is not a directory\n"
    assert (out / "taken").read_text() == "kept\n"


@pytest.mark.parametrize("command", [
    ["simulate"], ["scenarios", "--scenarios", "all"]])
def test_a_write_that_fails_midway_leaves_no_output_file(fixture_args, capsys,
                                                          command):
    config, profile, out = fixture_args
    real_write_bytes = Path.write_bytes
    written = []

    def write_bytes(path, data):
        written.append(path)
        if len(written) == 2:
            # half the file reaches the disk, then the disk is full
            real_write_bytes(path, data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write_bytes(path, data)

    # out/run exists; out/run/new and, for scenarios, its subdirectories
    # are made by the write
    (out / "run").mkdir()
    with mock.patch.object(Path, "write_bytes", write_bytes):
        assert run_cli(*command, "--config", config, "--profile", profile,
                       "--out", out / "run" / "new") == 3
    assert capsys.readouterr().err == \
        "error: cannot write outputs: [Errno 28] No space left on device\n"
    assert len(written) == 2
    # no file and no directory the write made is left
    assert (out / "run").is_dir() and list((out / "run").iterdir()) == []


def test_scenario_names_that_match_after_stripping_are_one_name_twice(
        fixture_args, capsys):
    config, _, out = fixture_args
    custom = with_sections(config, out, "[scenario:X]\ndemand_multiplier = 2\n"
                           "[scenario: X]\ndemand_multiplier = 3\n")
    assert run_cli("validate", "--config", custom) == 2
    assert capsys.readouterr().err == \
        "error: [scenario: X] scenario name 'X' is defined twice\n"


def test_a_padded_scenario_section_reads_its_own_keys(fixture_args):
    config, _, out = fixture_args
    custom = with_sections(config, out, "[scenario: X ]\ndemand_multiplier = 2\n")
    assert load_config(custom).scenarios["X"].demand_multiplier == 2.0


def test_all_runs_a_custom_builtin_id_once_in_its_place(fixture_args, capsys):
    config, profile, out = fixture_args
    custom = with_sections(config, out, "[scenario:S1]\ndemand_multiplier = 2\n"
                           "[scenario:A]\npv_multiplier = 0.5\n")
    assert run_cli("scenarios", "--config", custom, "--profile", profile,
                   "--out", out / "runs", "--scenarios", "all") == 0
    assert capsys.readouterr().out == \
        f"ran base + 5 scenario(s) -> {out / 'runs'}\n"
    matrix = (out / "runs" / "matrix.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in matrix[1:]] == \
        ["S1", "S2", "S3", "S4", "A"]
    manifest = json.loads((out / "runs" / "manifest.json").read_text())
    assert manifest["scenario_selection"] == ["S1", "S2", "S3", "S4", "A"]
    # the custom S1 doubles demand; the builtin S1 adds 5%
    base = json.loads((out / "runs" / "base" / "report.json").read_text())
    s1 = json.loads((out / "runs" / "S1" / "report.json").read_text())
    assert s1["energy"]["served_kwh"] + s1["energy"]["unserved_kwh"] == \
        pytest.approx(2 * (base["energy"]["served_kwh"]
                           + base["energy"]["unserved_kwh"]))


def test_a_selection_that_names_an_id_twice_exits_2(fixture_args, capsys):
    config, profile, out = fixture_args
    assert run_cli("scenarios", "--config", config, "--profile", profile,
                   "--out", out / "runs", "--scenarios", "S1,S2, S1") == 2
    assert capsys.readouterr().err == "error: scenario 'S1' is selected twice\n"
    assert not (out / "runs").exists()


def huge_pv_capital_cost(config, out):
    custom = out / "huge_capex.ini"
    custom.write_text(Path(config).read_text().replace(
        "capital_cost = 1300 ", "capital_cost = 1e308 ", 1))
    return custom


@pytest.mark.parametrize("command", ["simulate", "scenarios"])
def test_a_report_that_is_not_finite_exits_2(fixture_args, capsys, command):
    config, profile, out = fixture_args
    custom = huge_pv_capital_cost(config, out)
    assert run_cli("validate", "--config", custom) == 0
    capsys.readouterr()
    args = ["--config", custom, "--profile", profile, "--out", out / "run"]
    if command == "scenarios":
        args += ["--scenarios", "all"]
    assert run_cli(command, *args) == 2
    assert capsys.readouterr().err == \
        "error: report field economics.capex is not finite: inf\n"
    assert not (out / "run").exists()


def test_a_scenario_whose_report_is_not_finite_fails_alone(fixture_args):
    # islanded steps run the diesel unit, whose fuel then costs 1e308/kWh
    config, profile, out = fixture_args
    custom = with_sections(config, out, "[scenario:F]\n"
                           "fuel_price_multiplier = 1e308\n"
                           "outage_start = 16\noutage_steps = 6\n")
    assert run_cli("scenarios", "--config", custom, "--profile", profile,
                   "--out", out / "runs", "--scenarios", "S1,F") == 0
    import csv
    with open(out / "runs" / "matrix.csv", newline="") as fh:
        rows = {row[0]: row for row in csv.reader(fh)}
    assert rows["F"][1] == \
        "report field economics.operating_cost is not finite: inf"
    assert rows["S1"][1] == ""
    assert (out / "runs" / "S1" / "report.json").is_file()
    assert not (out / "runs" / "F").exists()


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once it has run ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def command_args(command, config, profile, out):
    args = [command, "--config", config]
    if command == "simulate":
        args += ["--profile", profile, "--out", out / "run"]
    return args


# each case overflowed or hung the economic metrics' loops before they
# were bounded
@pytest.mark.parametrize("changes,violation", [
    ({("economics", "project_lifetime_years"): "1e8"},
     "economics.project_lifetime_years: must be <= 100, got 100000000"),
    ({("economics", "discount_rate"): "1e300"},
     "economics.discount_rate: must be <= 1.0, got 1e+300"),
    ({("battery", "lifetime_years"): "1e-9"},
     "battery.lifetime_years: must be >= project_lifetime_years / 100 "
     "(0.25), got 1e-09"),
    ({("economics", "discount_rate"): "0",
      ("economics", "project_lifetime_years"): "1e300"},
     f"economics.project_lifetime_years: must be <= 100, got {int(1e300)}"),
], ids=["long-project", "huge-rate", "short-battery", "zero-rate-long-project"])
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_a_config_the_cash_flow_loops_cannot_run_exits_2(
        fixture_args, capsys, command, changes, violation):
    config, profile, out = fixture_args
    custom = out / "custom.ini"
    custom.write_text(example_config_text(changes))
    with time_limit(20):
        assert run_cli(*command_args(command, custom, profile, out)) == 2
    captured = capsys.readouterr()
    assert f"{violation}\n" in captured.err
    assert captured.out == ""


def test_a_config_at_the_cash_flow_bounds_runs_to_a_report(fixture_args):
    config, profile, out = fixture_args
    custom = out / "custom.ini"
    custom.write_text(example_config_text({
        ("economics", "discount_rate"): "1",
        ("economics", "project_lifetime_years"): "100",
        ("pv", "lifetime_years"): "1", ("wind", "lifetime_years"): "1",
        ("battery", "lifetime_years"): "1"}))
    with time_limit(20):
        assert run_cli(*command_args("simulate", custom, profile, out)) == 0
    assert (out / "run" / "report.json").is_file()


def test_a_rate_too_small_to_move_one_reports_as_a_zero_rate(fixture_args):
    config, profile, out = fixture_args
    reports = []
    for rate in ("0", "1e-20"):
        custom = out / "custom.ini"
        custom.write_text(example_config_text(
            {("economics", "discount_rate"): rate}))
        assert run_cli("simulate", "--config", custom, "--profile", profile,
                       "--out", out / rate) == 0
        reports.append((out / rate / "report.json").read_bytes())
    assert reports[0] == reports[1]


STEP_RANGE = "step_hours: must be in [1/3600, 8760.0] (one second to one year)"


# configs that validate accepted and that then crashed (an OverflowError in
# validate, a ZeroDivisionError in the kernel), exited 4 with the SOC out of
# its band, or warned of an overflow, found by the draw below
@pytest.mark.parametrize("changes,message", [
    ({("wind", "capacity_kw"): "1e300", ("wind", "unit_rated_kw"): "1e-10"},
     "wind.capacity_kw: must be a whole multiple of unit_rated_kw (1e-10), "
     "got 1e+300"),
    ({("battery", "roundtrip_efficiency"): "7.101793498300747e-104",
      ("simulation", "step_hours"): "6.612773674320953e-290"},
     f"{STEP_RANGE}, got 6.612773674320953e-290"),
    ({("battery", "capacity_kwh"): "4.0358804108661537e-268",
      ("simulation", "step_hours"): "9.033211655858882e+54"},
     f"{STEP_RANGE}, got 9.033211655858882e+54"),
    ({("grid", "sell_price_ratio"): "1e304",
      ("simulation", "step_hours"): "8760"},
     "report field economics.operating_cost is not finite: -inf"),
], ids=["wind-units-overflow", "tiny-step", "huge-step", "revenue-overflow"])
def test_a_config_the_draw_found_exits_2_without_a_warning(
        fixture_args, capsys, changes, message):
    config, profile, out = fixture_args
    custom = out / "custom.ini"
    custom.write_text(example_config_text(changes))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("simulate", "--config", custom, "--profile", profile,
                       "--out", out / "run") == 2
    assert f"{message}\n" in capsys.readouterr().err
    assert not (out / "run").exists()


def _numeric_keys():
    """Each (section, key) of the example config whose value is a number."""
    keys = []
    section = None
    for line in data_path("example_config.ini").read_text().splitlines():
        line = line.split("#")[0].strip()
        if line.startswith("["):
            section = line[1:-1]
        elif "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            with contextlib.suppress(ValueError):
                float(value)
                keys.append((section, key))
    return keys


# from 1e-300 to 1e300 in magnitude, every decade about equally likely
magnitude = st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
                      st.floats(1.0, 10.0, exclude_max=True),
                      st.integers(-300, 299))


@settings(max_examples=150, deadline=timedelta(seconds=10))
@given(st.dictionaries(st.sampled_from(_numeric_keys()), magnitude,
                       min_size=1, max_size=3))
def test_a_config_validate_accepts_simulates_or_exits_2(changes):
    with tempfile.TemporaryDirectory() as tmp:
        custom = Path(tmp) / "custom.ini"
        custom.write_text(example_config_text(
            {key: repr(value) for key, value in changes.items()}))
        try:
            loaded = load_config(custom)
        except ConfigFileError:
            reject()
        assume(validate_config(loaded.config).ok)
        with time_limit(20), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--config", str(custom), "--profile",
                         str(data_path("example_day.csv")), "--out",
                         str(Path(tmp) / "run")])
    assert code in (0, 2)
