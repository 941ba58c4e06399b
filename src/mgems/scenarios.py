"""Stress-test scenarios: perturb a base profile/config pair and compare runs.

Built-ins: S1 demand +5%, S2 PV -20% with wind -40%, S3 a 6-hour grid
outage, S4 fuel price +100%. Impact is reported as numeric per-metric deltas
against the base run; qualitative labeling is left to the reader.

Applying a scenario is column arithmetic on the base Profile: scaled
columns are new arrays, unchanged columns are shared with the base run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from . import _halves
from ._kernel import ENERGY, N_COLUMNS
from .dispatch import (HorizonArrays, check_balance, compare_values,
                       initial_state, price_threshold, run_arrays)
from .metrics import SimulationReport, build_report, percent_change
from .model import MicrogridConfig
from .profiles import Profile

BUILTIN_IDS = ("S1", "S2", "S3", "S4")

BASE_KEY = "base"

# report fields compared scenario-vs-base in outcome deltas
DELTA_METRICS = ("operating_cost", "npc", "lcoe", "renewable_fraction",
                 "imported_kwh", "exported_kwh", "dg_kwh", "unserved_kwh",
                 "uptime_fraction")


@dataclass(frozen=True)
class OutageSpec:
    """A forced grid-unavailable window.

    start_step None defers to the default rule: the first step whose
    threshold-comparison value exceeds the resolved threshold. Duration is
    given in steps or in hours (converted with the configured step length).
    """

    start_step: int | None = None
    duration_steps: int | None = None
    duration_hours: float | None = None


@dataclass(frozen=True)
class Scenario:
    id: str
    demand_multiplier: float = 1.0
    pv_multiplier: float = 1.0
    wind_multiplier: float = 1.0
    fuel_price_multiplier: float = 1.0
    outage: OutageSpec | None = None


IDENTITY_SCENARIO = Scenario(id="identity")


def builtin_scenario(scenario_id: str) -> Scenario:
    """The four standard stress scenarios."""
    if scenario_id == "S1":
        return Scenario(id="S1", demand_multiplier=1.05)
    if scenario_id == "S2":
        return Scenario(id="S2", pv_multiplier=0.80, wind_multiplier=0.60)
    if scenario_id == "S3":
        return Scenario(id="S3", outage=OutageSpec(duration_hours=6.0))
    if scenario_id == "S4":
        return Scenario(id="S4", fuel_price_multiplier=2.0)
    raise ValueError(f"unknown builtin scenario: {scenario_id!r}")


_MULTIPLIERS = ("demand_multiplier", "pv_multiplier", "wind_multiplier",
                "fuel_price_multiplier")


def _outage_steps(outage: OutageSpec, step_hours: float) -> int:
    if outage.duration_steps is not None:
        steps = outage.duration_steps
    elif outage.duration_hours is not None:
        steps = outage.duration_hours / step_hours
        if not math.isfinite(steps):
            raise ValueError(f"outage duration_hours {outage.duration_hours} "
                             "is not a finite number of steps")
        steps = round(steps)
    else:
        raise ValueError("outage needs duration_steps or duration_hours")
    if steps < 1:
        raise ValueError(f"outage duration must cover at least one step, got {steps}")
    return steps


def validate_scenario(scenario: Scenario, step_hours: float) -> None:
    """Raise ValueError, naming the field, for a value no profile can make valid.

    Each multiplier must be finite and > 0, an outage must last at least
    one whole step of ``step_hours``, and an explicit outage start must be
    >= 0. The outage window's fit to the horizon, and its default start,
    depend on the profile and are checked when the scenario is applied.
    """
    for name in _MULTIPLIERS:
        value = getattr(scenario, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if scenario.outage is not None:
        steps = _outage_steps(scenario.outage, step_hours)
        start = scenario.outage.start_step
        if start is not None and start < 0:
            raise ValueError(f"outage window [{start}, {start + steps}) does "
                             "not fit any horizon: start_step must be >= 0")


def _resolve_outage(outage: OutageSpec, inputs: Profile,
                    config: MicrogridConfig) -> tuple[int, int]:
    steps = _outage_steps(outage, config.step_hours)
    start = outage.start_step
    if start is None:
        threshold = price_threshold(inputs.price, config.ems)
        above = np.flatnonzero(compare_values(inputs, config.ems) > threshold)
        if not len(above):
            raise ValueError("no step above the threshold; "
                             "set the outage start explicitly")
        start = int(above[0])
    if start + steps > len(inputs):
        raise ValueError(
            f"outage window [{start}, {start + steps}) does not fit the "
            f"{len(inputs)}-step horizon")
    return start, steps


def apply_scenario(inputs: Profile, config: MicrogridConfig,
                   scenario: Scenario) -> tuple[Profile, MicrogridConfig]:
    """Scale the profile and config per the scenario's condition changes.

    Demand/PV/wind columns scale pointwise, the outage window (step
    positions) forces grid unavailability, and the fuel price scales;
    everything else passes through unchanged. A value validate_scenario
    rejects, or an outage window that does not fit the horizon, raises
    ValueError prefixed with the scenario id; its __cause__ is the error
    without the prefix.
    """
    grid_available = inputs.grid_available
    try:
        validate_scenario(scenario, config.step_hours)
        if scenario.outage is not None:
            start, steps = _resolve_outage(scenario.outage, inputs, config)
            grid_available = grid_available.copy()
            grid_available[start:start + steps] = 0
    except ValueError as exc:
        raise ValueError(f"scenario {scenario.id}: {exc}") from exc
    scaled = replace(
        inputs,
        demand_kw=inputs.demand_kw * scenario.demand_multiplier,
        pv_kw=inputs.pv_kw * scenario.pv_multiplier,
        wind_kw=inputs.wind_kw * scenario.wind_multiplier,
        grid_available=grid_available)
    new_config = replace(config, diesel=replace(
        config.diesel,
        fuel_cost_per_kwh=config.diesel.fuel_cost_per_kwh
        * scenario.fuel_price_multiplier))
    return scaled, new_config


# compared by identity, as the HorizonArrays and Profile it holds
@dataclass(frozen=True, eq=False)
class ScenarioOutcome:
    scenario_id: str
    report: SimulationReport | None
    trace: HorizonArrays | None
    inputs: Profile | None
    deltas: dict[str, float | None]
    error: str | None = None


def _report_metric(report: SimulationReport, name: str) -> float | None:
    for section in (report.economics, report.energy, report.reliability):
        if hasattr(section, name):
            return getattr(section, name)
    raise AttributeError(name)


def _deltas(base: SimulationReport, new: SimulationReport) -> dict[str, float | None]:
    out: dict[str, float | None] = {}
    for name in DELTA_METRICS:
        base_value = _report_metric(base, name)
        new_value = _report_metric(new, name)
        if base_value in (None, 0) or new_value is None:
            out[name] = None
        else:
            out[name] = percent_change(base_value, new_value)
    return out


def _failed(scenario_id: str, exc: Exception) -> ScenarioOutcome:
    return ScenarioOutcome(
        scenario_id=scenario_id, report=None, trace=None, inputs=None,
        deltas={name: None for name in DELTA_METRICS}, error=str(exc))


class _Runs:
    """The kernel's traces of equal-length runs, filled in run order.

    A ``split_rows`` sink whose marks count filled runs: a child's runs
    arrive as their column-major (n, 11) blocks, read straight into arrays
    allocated here, so each run still owns its trace array and no second
    copy is held. A run whose kernel raised holds the exception instead. A
    child cannot send one, so its half is redone in this process, which
    records the same exception.
    """

    def __init__(self, runs: list[tuple[Profile, MicrogridConfig]],
                 threshold: float | None):
        self.runs = runs
        self.threshold = threshold
        # a trace, a received column block, or the exception a run raised
        self.filled: list = []

    def dispatch(self, lo: int, hi: int) -> None:
        for inputs, config in self.runs[lo:hi]:
            try:
                result = run_arrays(inputs, initial_state(config.battery),
                                    config, self.threshold)
            except Exception as exc:  # noqa: BLE001 - kept for its run
                result = exc
            self.filled.append(result)

    def tell(self) -> int:
        return len(self.filled)

    def rewind(self, mark: int) -> None:
        del self.filled[mark:]

    def since(self, mark: int) -> list[np.ndarray]:
        sent = self.filled[mark:]
        if not all(isinstance(trace, HorizonArrays) for trace in sent):
            raise RuntimeError("a run that raised cannot be sent")
        # a column-major trace's transpose is its bytes in order
        return [trace.columns.T for trace in sent]

    def reserve(self, count: int, size: int) -> list[memoryview] | None:
        # a child's half runs to the last run, so its payload must fill them
        steps = len(self.runs[0][0])
        if (size != steps * N_COLUMNS * 8 * count
                or len(self.filled) + count != len(self.runs)):
            return None
        blocks = [np.empty((steps, N_COLUMNS), order="F") for _ in range(count)]
        self.filled.extend(blocks)
        return [memoryview(block.T).cast("B") for block in blocks]

    def checked(self, i: int) -> tuple[HorizonArrays, SimulationReport]:
        """Run i's checked trace and its report; raises what its kernel did."""
        inputs, config = self.runs[i]
        trace = self.filled[i]
        if isinstance(trace, Exception):
            raise trace
        if isinstance(trace, np.ndarray):
            # as run_arrays returns it: run_kernel's result is the last
            # step's stored energy
            trace = HorizonArrays(
                columns=trace, grid_available=inputs.grid_available,
                threshold=float(self.threshold),
                initial_energy_kwh=float(
                    initial_state(config.battery).energy_kwh),
                final_energy_kwh=float(trace[-1, ENERGY]))
        check_balance(trace, inputs, config)
        return trace, build_report(trace, inputs, config)


def run_matrix(inputs: Profile, config: MicrogridConfig,
               scenarios: Iterable[Scenario]) -> dict[str, ScenarioOutcome]:
    """Run the base case plus every scenario, returning outcomes by id.

    Every scenario is applied first. Then the base run and each applied
    scenario's run are dispatched at the base's threshold, resolved once:
    a scenario changes neither the prices nor the EMS config. A long
    matrix, counted in kernel steps, splits its runs between this process
    and a forked child (see ``_halves.split_rows``). Last, this process
    checks and reports every run in the given order. Each outcome holds
    its own Profile, which shares unchanged columns with the base inputs,
    and its own trace. A failing scenario is reported in its outcome
    without aborting siblings; a failing base run raises.
    """
    runs = [(inputs, config)]
    applied = []   # per scenario: its position in runs, or what apply raised
    for scenario in scenarios:
        try:
            runs.append(apply_scenario(inputs, config, scenario))
            applied.append((scenario, len(runs) - 1))
        except Exception as exc:  # noqa: BLE001 - isolate failing scenarios
            applied.append((scenario, exc))
    # an empty horizon has no percentile; run_arrays rejects it by name
    threshold = (price_threshold(inputs.price, config.ems)
                 if len(inputs) else None)
    traces = _Runs(runs, threshold)
    _halves.split_rows(len(runs), traces.dispatch, traces,
                       weight=len(inputs),
                       minimum=_halves.MIN_KERNEL_STEPS)

    base_trace, base_report = traces.checked(0)
    outcomes = {BASE_KEY: ScenarioOutcome(
        scenario_id=BASE_KEY, report=base_report, trace=base_trace,
        inputs=inputs, deltas={name: 0.0 for name in DELTA_METRICS})}
    for scenario, run in applied:
        if isinstance(run, Exception):
            outcomes[scenario.id] = _failed(scenario.id, run)
            continue
        try:
            trace, report = traces.checked(run)
            outcome = ScenarioOutcome(
                scenario_id=scenario.id, report=report, trace=trace,
                inputs=runs[run][0], deltas=_deltas(base_report, report))
        except Exception as exc:  # noqa: BLE001 - isolate failing scenarios
            outcome = _failed(scenario.id, exc)
        outcomes[scenario.id] = outcome
    return outcomes
