"""Correctness checks on the program's outputs, run outside timed regions.

Each check returns a list of failure messages; an empty list is a pass.
They read only output files and stable entry points, never internal types.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import json
from pathlib import Path

BALANCE_TOLERANCE_KW = 1e-6
SOC_TOLERANCE = 1e-9

SUPPLY = ("pv_used_kw", "wind_used_kw", "battery_discharge_kw", "dg_kw",
          "grid_import_kw")
LOAD = ("battery_charge_kw", "grid_export_kw")


def run_cli(cli, argv: list[str]) -> int:
    """Call ``mgems.cli.main`` in process, discarding its progress line."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def soc_band(config_path: str) -> tuple[float, float]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    parser.read(config_path, encoding="utf-8")
    return (parser.getfloat("battery", "soc_min"),
            parser.getfloat("battery", "soc_max"))


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in strict JSON")


def strict_json(data: bytes, label: str) -> list[str]:
    """The bytes parse as JSON that holds no NaN or Infinity."""
    try:
        json.loads(data, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"{label}: not strict JSON: {exc}"]
    return []


def trace_rows(data: bytes, soc_min: float, soc_max: float,
               label: str) -> list[str]:
    """Every row balances to 1e-6 kW and keeps SOC inside its band."""
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    try:
        col = {name: header.index(name) for name in
               SUPPLY + LOAD + ("demand_kw", "unserved_kw", "soc")}
    except ValueError as exc:
        return [f"{label}: trace header lacks a column: {exc}"]
    supply = [col[n] for n in SUPPLY]
    load = [col[n] for n in LOAD]
    demand, unserved, soc = col["demand_kw"], col["unserved_kw"], col["soc"]
    errors = []
    for row_no, line in enumerate(lines[1:], start=1):
        f = line.split(",")
        lhs = sum(float(f[i]) for i in supply)
        rhs = (float(f[demand]) - float(f[unserved])) \
            + sum(float(f[i]) for i in load)
        if not abs(lhs - rhs) <= BALANCE_TOLERANCE_KW:
            errors.append(f"{label} row {row_no}: residual {lhs - rhs} kW")
        s = float(f[soc])
        if not soc_min - SOC_TOLERANCE <= s <= soc_max + SOC_TOLERANCE:
            errors.append(f"{label} row {row_no}: soc {s} outside "
                          f"[{soc_min}, {soc_max}]")
        if len(errors) >= 5:
            break
    if len(lines) < 2:
        errors.append(f"{label}: trace has no rows")
    return errors


def golden_day(cli, root: Path, out: Path) -> list[str]:
    """``simulate`` on the shipped example day reproduces the golden files."""
    data = root / "src" / "mgems" / "data"
    golden = root / "tests" / "golden" / "day"
    code = run_cli(cli, ["simulate", "--config", str(data / "example_config.ini"),
                         "--profile", str(data / "example_day.csv"),
                         "--out", str(out)])
    if code != 0:
        return [f"golden day: simulate exited {code}"]
    return [f"golden day: {name} differs from tests/golden/day"
            for name in ("trace.csv", "report.json")
            if (out / name).read_bytes() != (golden / name).read_bytes()]
