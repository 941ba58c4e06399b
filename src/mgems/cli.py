"""Command-line frontend: validate configs, run simulations, run scenarios.

Exit codes: 0 success, 2 config/profile validation failure, 3 I/O failure,
4 internal invariant breach. All commands are deterministic: identical
inputs produce bit-identical output files, and nothing is written outside
the designated output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from dataclasses import replace
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from ._kernel import SOC
from .configio import SCENARIO_PREFIX, LoadedConfig, load_config
from .dispatch import (HorizonArrays, check_balance, initial_state,
                       price_threshold, run_arrays)
from .errors import BalanceError, MgemsError, ProfileFormatError
from .metrics import build_report
from .model import (BASE_KEY, PRICE_CENTS, MicrogridConfig, OutageSpec,
                    Scenario, validate_config, validate_scenario)
from .profiles import (GENERATION_HEADER, GENERATION_MODE, RESOURCE_MODE,
                       Profile, load_profile)
from .scenarios import (BUILTIN_IDS, DELTA_METRICS, builtin_scenario,
                        run_matrix)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_INVARIANT = 4

# what simulate's outage errors name: the flags that forced the outage
OUTAGE_FLAGS = "--outage-start/--outage-hours"

TRACE_HEADER = GENERATION_HEADER + (
    "pv_used_kw", "wind_used_kw", "curtailed_kw", "battery_charge_kw",
    "battery_discharge_kw", "dg_kw", "grid_import_kw", "grid_export_kw",
    "unserved_kw", "soc", "threshold", "mode")
# trace.csv's mode column
GRID_CONNECTED = "grid-connected"
ISLANDED = "islanded"


class _CommandError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


def _load_inputs(args, loaded: LoadedConfig) -> Profile:
    path = Path(args.profile)
    try:
        inputs = load_profile(path, args.mode, loaded.config,
                              loaded.price_unit)
    except OSError as exc:
        raise _CommandError(EXIT_IO, f"cannot read profile {path}: {exc}")
    except (ProfileFormatError, ValueError) as exc:
        raise _CommandError(EXIT_VALIDATION, f"profile {path}: {exc}")
    if args.steps is not None:
        if args.steps < 1:
            raise _CommandError(EXIT_VALIDATION,
                                f"--steps {args.steps}: empty horizon")
        if args.steps > len(inputs):
            raise _CommandError(
                EXIT_VALIDATION,
                f"--steps {args.steps} exceeds the {len(inputs)}-step profile")
        inputs = inputs[:args.steps]
    if not len(inputs):
        raise _CommandError(EXIT_VALIDATION, "profile has no data rows: empty horizon")
    return inputs


def _read_config(args) -> LoadedConfig:
    """The config, not yet validated; a file that is missing or cannot be
    read exits 3, as a profile's does."""
    path = Path(args.config)
    try:
        return load_config(path)
    except OSError as exc:
        raise _CommandError(EXIT_IO, f"cannot read config file {path}: {exc}")


def _load_validated(args) -> LoadedConfig:
    loaded = _read_config(args)
    report = validate_config(loaded.config)
    if not report.ok:
        raise _CommandError(EXIT_VALIDATION,
                            "invalid config:\n" + str(report))
    return loaded


def _outage_override(args) -> OutageSpec | None:
    if args.outage_start is None and args.outage_hours is None:
        return None
    if args.outage_hours is None:
        raise _CommandError(EXIT_VALIDATION,
                            "--outage-start needs --outage-hours")
    return OutageSpec(start_step=args.outage_start,
                      duration_hours=args.outage_hours)


# rows formatted and encoded per chunk, so that no list of every row's
# string and no whole-trace str is ever built; 8,192-row chunks raise the
# decade's peak RSS by about 5 MB
_TRACE_CHUNK_ROWS = 1024

# orjson writes the shortest round-trip digits, as repr does, but lays out
# magnitudes from 1e-9 up to 1e-4 and from 1e16 up differently (0.00006 for
# 6e-05, 1e16 for 1e+16) and writes non-finite values as null; below 1e-9
# both write the exponent form alike (1e-10)
_ORJSON_UNLIKE_MIN = 1e-9
_ORJSON_MIN = 1e-4
_ORJSON_MAX = 1e16


def _float_rows(block: np.ndarray) -> list[bytes]:
    """The repr cells of each row of a C-contiguous float64 block, comma-joined.

    orjson formats the block; a row holding a value it lays out unlike repr
    is formatted by repr.
    """
    import orjson   # see trace_csv_bytes
    # trimmed after the split, so the whole output is never copied
    rows = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).split(b"],[")
    rows[0] = rows[0][2:]
    rows[-1] = rows[-1][:-2]
    size = np.abs(block)
    unlike = ~(size < _ORJSON_MAX) | ((size < _ORJSON_MIN)
                                      & (size >= _ORJSON_UNLIKE_MIN))
    for i in np.flatnonzero(unlike.any(axis=1)).tolist():
        rows[i] = ",".join(map(repr, block[i].tolist())).encode("ascii")
    return rows


def _row_block(*columns: np.ndarray) -> np.ndarray:
    """1-D columns and 2-D blocks of columns, of any memory order, side by
    side in one C-contiguous float64 block, copied once."""
    parts = [column.reshape(len(column), -1) for column in columns]
    block = np.empty((len(parts[0]), sum(part.shape[1] for part in parts)))
    return np.concatenate(parts, axis=1, out=block)


def trace_csv_bytes(inputs: Profile, trace: HorizonArrays) -> bytes:
    """Per-step trace rows: inputs, allocation, SOC, threshold, and mode.

    The index is the step position; floats use the shortest round-trip repr.
    Each chunk of rows is formatted as two float blocks, demand and price,
    then pv, wind and the allocation, straight into the output buffer.
    """
    # imported here, not at module top: orjson imports zoneinfo and uuid,
    # which commands and library callers that write no trace never use
    import orjson
    threshold = repr(float(trace.threshold))
    flags = (b",0,", b",1,")
    tails = [f",{threshold},{m}".encode() for m in (ISLANDED, GRID_CONNECTED)]
    out = io.BytesIO()
    out.write((",".join(TRACE_HEADER) + "\n").encode("utf-8"))
    for start in range(0, len(inputs), _TRACE_CHUNK_ROWS):
        rows = slice(start, min(start + _TRACE_CHUNK_ROWS, len(inputs)))
        grid = (inputs.grid_available[rows] != 0).tolist()
        index = orjson.dumps(list(range(start, start + len(grid))))[1:-1]
        # kernel columns PV_USED..SOC are the trace's allocation columns,
        # in order
        cells = zip(index.split(b","), repeat(b","),
                    _float_rows(_row_block(inputs.demand_kw[rows],
                                           inputs.price[rows])),
                    map(flags.__getitem__, grid),
                    _float_rows(_row_block(inputs.pv_kw[rows],
                                           inputs.wind_kw[rows],
                                           trace.columns[rows, :SOC + 1])),
                    map(tails.__getitem__, grid))
        out.write(b"\n".join(map(b"".join, cells)))
        out.write(b"\n")
    # getvalue() hands over the buffer without a copy once writing is done
    return out.getvalue()


def report_json_bytes(report) -> bytes:
    return (json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n") \
        .encode("utf-8")


def _write_outputs(out_dir: Path, files: dict[str, bytes]) -> None:
    """Write ``files`` under ``out_dir``, or none of them.

    Nothing is written if a file would meet a directory: a target that is a
    directory, or a directory that is not. Each file is first written under
    a temporary name in its own directory, and all are moved into place
    only once every one is written, so a write that fails (a full disk, a
    permission error) leaves no target written, no temporary file and none
    of the directories this call made.
    """
    targets = [out_dir / name for name in files]
    directories = {parent for target in targets for parent in target.parents}
    for target in targets:
        if target in directories or target.is_dir():
            raise _CommandError(EXIT_IO,
                                f"cannot write outputs: {target} is a directory")
    made: list[Path] = []   # the directories this call makes
    for directory in directories:
        if not directory.exists():
            made.append(directory)
        elif not directory.is_dir():
            raise _CommandError(
                EXIT_IO, f"cannot write outputs: {directory} is not a directory")
    # deepest first, so that a failed write can remove them again
    made.sort(key=lambda directory: len(directory.parts), reverse=True)
    staged: list[tuple[Path, Path]] = []
    written = False
    try:
        for target, data in zip(targets, files.values()):
            target.parent.mkdir(parents=True, exist_ok=True)
            temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            staged.append((temporary, target))
            temporary.write_bytes(data)
        for temporary, target in staged:
            os.replace(temporary, target)
        written = True
    except OSError as exc:
        raise _CommandError(EXIT_IO, f"cannot write outputs: {exc}")
    finally:
        # a no-op for each temporary already moved into place
        for temporary, _ in staged:
            with contextlib.suppress(OSError):
                temporary.unlink(missing_ok=True)
        # rmdir removes only an empty directory: one holding a file moved
        # into place, or put there by another process, stays
        for directory in made if not written else ():
            with contextlib.suppress(OSError):
                directory.rmdir()


def _manifest_json_bytes(args, selection: tuple[str, ...] = ()) -> bytes:
    manifest = {
        "config_path": str(args.config),
        "profile_path": str(args.profile),
        "profile_mode": args.mode,
        "output_dir": str(args.out),
        "scenario_selection": selection,
        "random_free": True,
        "tool_version": __version__,
    }
    # json writes the selection tuple as a list
    return (json.dumps(manifest, indent=2) + "\n").encode("utf-8")


def _simulate_trace(inputs: Profile, config: MicrogridConfig,
                    outage: OutageSpec | None):
    if outage is not None:
        # imported here, so each call finds the name the module holds now:
        # a span tracer that wraps scenarios.apply_scenario sees this call
        from .scenarios import apply_scenario
        try:
            inputs, config = apply_scenario(
                inputs, config, Scenario(id=OUTAGE_FLAGS, outage=outage))
        except ValueError as exc:
            # the flags, not a scenario, are what the user wrote
            raise _CommandError(EXIT_VALIDATION,
                                f"{OUTAGE_FLAGS}: {exc.__cause__}") from None
    trace = run_arrays(inputs, initial_state(config.battery), config)
    check_balance(trace, inputs, config)
    return inputs, config, trace


def cmd_simulate(args) -> int:
    loaded = _load_validated(args)
    inputs = _load_inputs(args, loaded)
    try:
        inputs, config, trace = _simulate_trace(inputs, loaded.config,
                                                _outage_override(args))
        report = build_report(trace, inputs, config)
    except ValueError as exc:
        raise _CommandError(EXIT_VALIDATION, str(exc))
    _write_outputs(Path(args.out), {
        "trace.csv": trace_csv_bytes(inputs, trace),
        "report.json": report_json_bytes(report),
        "manifest.json": _manifest_json_bytes(args),
    })
    print(f"simulated {len(inputs)} steps -> {args.out}")
    return EXIT_OK


def _select_scenarios(selection: str, loaded: LoadedConfig,
                      outage: OutageSpec | None) -> list[Scenario]:
    if outage is not None:
        try:
            validate_scenario(Scenario(id=OUTAGE_FLAGS, outage=outage),
                              loaded.config.step_hours)
        except ValueError as exc:
            raise _CommandError(EXIT_VALIDATION, f"{OUTAGE_FLAGS}: {exc}")
    if selection.strip().lower() == "all":
        # a custom section of a builtin's id runs in the builtin's place
        names = list(BUILTIN_IDS) + sorted(set(loaded.scenarios)
                                           - set(BUILTIN_IDS))
    else:
        names = [n.strip() for n in selection.split(",") if n.strip()]
        if not names:
            raise _CommandError(EXIT_VALIDATION, "empty scenario selection")
    result = []
    for name in names:
        if name in loaded.scenarios:
            scenario = loaded.scenarios[name]
        elif name in BUILTIN_IDS:
            scenario = builtin_scenario(name)
        else:
            raise _CommandError(
                EXIT_VALIDATION,
                f"unknown scenario {name!r} (builtins: {', '.join(BUILTIN_IDS)})")
        if outage is not None and scenario.outage is not None:
            scenario = replace(scenario, outage=outage)
        result.append(scenario)
    if outage is not None and all(s.outage is None for s in result):
        raise _CommandError(EXIT_VALIDATION, f"{OUTAGE_FLAGS}: no selected "
                            "scenario has an outage window to replace")
    return result


def matrix_csv_bytes(outcomes, order: Sequence[str]) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["scenario", "error"]
                    + [f"delta_{name}_pct" for name in DELTA_METRICS])
    for name in order:
        outcome = outcomes[name]
        cells = [name, outcome.error or ""]
        for metric in DELTA_METRICS:
            value = outcome.deltas.get(metric)
            cells.append("" if value is None else repr(float(value)))
        writer.writerow(cells)
    return out.getvalue().encode("utf-8")


def cmd_scenarios(args) -> int:
    loaded = _load_validated(args)
    inputs = _load_inputs(args, loaded)
    scenario_list = _select_scenarios(args.scenarios, loaded,
                                      _outage_override(args))
    try:
        outcomes = run_matrix(inputs, loaded.config, scenario_list)
    except ValueError as exc:
        raise _CommandError(EXIT_VALIDATION, str(exc))

    order = [s.id for s in scenario_list]
    files = {"matrix.csv": matrix_csv_bytes(outcomes, order)}
    for name in [BASE_KEY] + order:
        outcome = outcomes[name]
        if outcome.error is not None:
            print(f"scenario {name} failed: {outcome.error}", file=sys.stderr)
            continue
        files[f"{name}/trace.csv"] = trace_csv_bytes(outcome.inputs, outcome.trace)
        files[f"{name}/report.json"] = report_json_bytes(outcome.report)
    files["manifest.json"] = _manifest_json_bytes(args, tuple(order))
    _write_outputs(Path(args.out), files)
    print(f"ran base + {len(order)} scenario(s) -> {args.out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    loaded = _read_config(args)
    report = validate_config(loaded.config)
    if not report.ok:
        for violation in report.violations:
            print(violation, file=sys.stderr)
        return EXIT_VALIDATION
    config = loaded.config
    for name, scenario in loaded.scenarios.items():
        try:
            validate_scenario(scenario, config.step_hours)
        except ValueError as exc:
            raise _CommandError(EXIT_VALIDATION, f"[{SCENARIO_PREFIX}{name}] {exc}")

    print("config: OK")
    print(f"pv: {config.pv.capacity_kw} kW | wind: {config.wind.capacity_kw} kW | "
          f"diesel: {config.diesel.capacity_kw} kW | "
          f"battery: {config.battery.capacity_kwh} kWh | "
          f"grid: {config.grid.import_limit_kw} kW import / "
          f"{config.grid.export_limit_kw} kW export")
    print(f"converter_efficiency: {config.economics.converter_efficiency} "
          "(checked to lie in (0, 1], but no calculation reads it: the "
          "converter is not modelled)")
    if loaded.price_unit == PRICE_CENTS:
        print("price unit: cents_per_kwh (prices divided by 100 at ingestion)")
    else:
        print("price unit: currency_per_kwh")
    if args.profile is not None:
        args.steps = None
        inputs = _load_inputs(args, loaded)
        print(f"horizon: {len(inputs)} steps x {config.step_hours} h")
        try:
            threshold = price_threshold(inputs.price, config.ems)
        except ValueError as exc:
            raise _CommandError(EXIT_VALIDATION, str(exc))
        print(f"threshold: {threshold!r} ({config.ems.threshold_mode})")
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgems",
        description="Deterministic community-microgrid EMS simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="config file (INI)")
        p.add_argument("--profile", required=True, help="profile CSV")
        p.add_argument("--mode", choices=(GENERATION_MODE, RESOURCE_MODE),
                       default=GENERATION_MODE, help="profile flavour")
        p.add_argument("--steps", type=int, default=None,
                       help="use only the first N profile steps")
        p.add_argument("--outage-start", type=int, default=None,
                       help="force a grid outage starting at this step")
        p.add_argument("--outage-hours", type=float, default=None,
                       help="forced outage duration in hours")

    p_sim = sub.add_parser("simulate", help="run one horizon, write trace + report")
    add_common(p_sim)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_scen = sub.add_parser("scenarios",
                            help="run the base case plus stress scenarios")
    add_common(p_scen)
    p_scen.add_argument("--out", required=True, help="output directory")
    p_scen.add_argument("--scenarios", required=True,
                        help="comma-separated ids, or 'all'")
    p_scen.set_defaults(func=cmd_scenarios)

    p_val = sub.add_parser("validate", help="check config and profile, print summary")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--profile", default=None)
    p_val.add_argument("--mode", choices=(GENERATION_MODE, RESOURCE_MODE),
                       default=GENERATION_MODE)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BalanceError as exc:
        print(f"error: internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except MgemsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
