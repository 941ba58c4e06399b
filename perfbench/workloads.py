"""The three workloads: what one timed iteration runs and how it is checked.

Iterations call only stable entry points: ``mgems.cli.main(argv)`` and the
library path ``load_config`` -> ``load_profile`` -> ``run_matrix`` with the
loaded inputs passed through unchanged. Functions are looked up on their
modules at call time so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import mgems.cli
import mgems.configio
import mgems.profiles
import mgems.scenarios

import checks
from inputs import N_SCENARIOS

OUTPUT_FILES = ("trace.csv", "report.json", "manifest.json")


@dataclass
class Tally:
    """Operations attempted and failed; an operation fails on any error."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.extend(errors[:3])


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


class Simulate:
    """In-process ``mgems simulate``; outputs are checked, then removed."""

    def __init__(self, name: str, files: dict, scratch: Path, extra: list[str]):
        self.name = name
        self.config_path = files["config"]
        self.out = scratch / name
        self.argv = ["simulate", "--config", files["config"],
                     "--out", str(self.out)] + extra
        self.soc_band = checks.soc_band(files["config"])
        self.reference: str | None = None

    def prepare(self, tally: Tally) -> None:
        pass

    def iterate(self):
        return checks.run_cli(mgems.cli, self.argv)

    def inspect(self, code, tally: Tally) -> None:
        if code != 0:
            tally.record([f"{self.name}: simulate exited {code}"])
            shutil.rmtree(self.out, ignore_errors=True)
            return
        data = {name: (self.out / name).read_bytes() for name in OUTPUT_FILES}
        shutil.rmtree(self.out)
        digest = _digest(*data.values())
        if self.reference is None:
            self.reference = digest
            errors = checks.trace_rows(data["trace.csv"], *self.soc_band,
                                       label=f"{self.name} trace.csv")
            errors += checks.strict_json(data["report.json"],
                                         f"{self.name} report.json")
        elif digest != self.reference:
            errors = [f"{self.name}: outputs differ from the first iteration"]
        else:
            errors = []
        tally.record(errors)


class Matrix:
    """The README library path over the year with 50 config scenarios."""

    name = "matrix_year"

    def __init__(self, files: dict, scratch: Path):
        self.config_path = files["matrix_config"]
        self.year = files["year"]
        self.base_config = files["config"]
        self.scratch = scratch
        self.expected_base: bytes | None = None
        self.reference: dict[str, str] | None = None
        self.expected = {mgems.scenarios.BASE_KEY} | {
            f"P{k:02d}" for k in range(1, N_SCENARIOS + 1)}

    def prepare(self, tally: Tally) -> None:
        """The base case must equal ``simulate`` of the same year."""
        out = self.scratch / "matrix_base"
        code = checks.run_cli(mgems.cli, [
            "simulate", "--config", self.base_config, "--profile", self.year,
            "--out", str(out)])
        if code != 0:
            tally.record([f"matrix base: simulate exited {code}"])
            return
        self.expected_base = (out / "report.json").read_bytes()
        shutil.rmtree(out)
        tally.record([])

    def iterate(self):
        loaded = mgems.configio.load_config(self.config_path)
        inputs = mgems.profiles.load_profile(
            self.year, "generation", loaded.config, loaded.price_unit)
        return mgems.scenarios.run_matrix(inputs, loaded.config,
                                          list(loaded.scenarios.values()))

    def inspect(self, outcomes, tally: Tally) -> None:
        cli = mgems.cli
        base_key = mgems.scenarios.BASE_KEY
        first = self.reference is None
        if first:
            self.reference = {}
        for name, outcome in outcomes.items():
            if outcome.error is not None:
                tally.record([f"matrix scenario {name}: {outcome.error}"])
                continue
            report = cli.report_json_bytes(outcome.report)
            digest = _digest(report, cli.matrix_csv_bytes(outcomes, [name]))
            errors = []
            if first:
                self.reference[name] = digest
                errors += checks.strict_json(report, f"matrix {name} report")
                # None when prepare() was skipped, as in the memory probe
                if (name == base_key and self.expected_base is not None
                        and report != self.expected_base):
                    errors.append("matrix base report differs from the "
                                  "simulate report of the same year")
            elif self.reference.get(name) != digest:
                errors.append(f"matrix scenario {name}: outputs differ from "
                              "the first iteration")
            tally.record(errors)
        for name in sorted(self.expected - set(outcomes)):
            tally.record([f"matrix scenario {name}: no outcome"])


def build(name: str, files: dict, scratch: Path):
    """The workload called ``name`` over the generated ``files``."""
    if name == "simulate_year":
        return Simulate(name, files, scratch, ["--profile", files["year"]])
    if name == "matrix_year":
        return Matrix(files, scratch)
    if name == "simulate_decade_resource":
        return Simulate(name, files, scratch, [
            "--profile", files["decade"], "--mode", "resource",
            "--outage-start", str(files["decade_outage_start"]),
            "--outage-hours", str(files["decade_outage_hours"])])
    raise ValueError(f"unknown workload {name!r}")

