"""Stress-test scenarios: perturb a base profile/config pair and compare runs.

Built-ins: S1 demand +5%, S2 PV -20% with wind -40%, S3 a 6-hour grid
outage, S4 fuel price +100%. Impact is reported as numeric per-metric deltas
against the base run; qualitative labeling is left to the reader.

Applying a scenario is column arithmetic on the base Profile: scaled
columns are new arrays, unchanged columns are shared with the base run.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import numbers
import operator
import os
import signal
import sys
import threading
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, NoReturn

import numpy as np

from ._kernel import N_COLUMNS
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


def _integer(name: str, value) -> int:
    """``value`` by its ``__index__``, which numpy's integers have too."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _real(name: str, value):
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def _outage_steps(outage: OutageSpec, step_hours: float) -> int:
    if outage.duration_steps is not None:
        steps = _integer("outage duration_steps", outage.duration_steps)
    elif outage.duration_hours is not None:
        steps = _real("outage duration_hours",
                      outage.duration_hours) / step_hours
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

    Each multiplier must be a finite real number > 0, and an outage must
    last at least one whole step of ``step_hours``, in integer steps or
    real hours, from an integer start >= 0 if one is given. The outage
    window's fit to the horizon, and its default start, depend on the
    profile and are checked when the scenario is applied.
    """
    for name in _MULTIPLIERS:
        value = _real(name, getattr(scenario, name))
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if scenario.outage is not None:
        steps = _outage_steps(scenario.outage, step_hours)
        start = scenario.outage.start_step
        if start is not None and _integer("outage start_step", start) < 0:
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
    rejects, an outage window that does not fit the horizon, or a scaled
    column or fuel price that is not finite raises ValueError prefixed with
    the scenario id; its __cause__ is the error without the prefix.
    """
    grid_available = inputs.grid_available
    try:
        validate_scenario(scenario, config.step_hours)
        if scenario.outage is not None:
            start, steps = _resolve_outage(scenario.outage, inputs, config)
            grid_available = grid_available.copy()
            grid_available[start:start + steps] = 0
        factors = {"demand_kw": scenario.demand_multiplier,
                   "pv_kw": scenario.pv_multiplier,
                   "wind_kw": scenario.wind_multiplier}
        # an overflow is named below by its first step, not warned about;
        # a column left at a multiplier of 1 is the base's own
        with np.errstate(over="ignore"):
            columns = {name: getattr(inputs, name) * factor if factor != 1
                       else getattr(inputs, name)
                       for name, factor in factors.items()}
        for name, column in columns.items():
            finite = np.isfinite(column)
            if not finite.all():
                raise ValueError(f"{name} scaled by {factors[name]} is not "
                                 f"finite at step {int(np.argmin(finite))}")
        fuel_cost = (config.diesel.fuel_cost_per_kwh
                     * scenario.fuel_price_multiplier)
        if not math.isfinite(fuel_cost):
            raise ValueError("fuel_cost_per_kwh scaled by "
                             f"{scenario.fuel_price_multiplier} is not finite")
    except ValueError as exc:
        raise ValueError(f"scenario {scenario.id}: {exc}") from exc
    scaled = replace(inputs, grid_available=grid_available, **columns)
    new_config = replace(config, diesel=replace(config.diesel,
                                                fuel_cost_per_kwh=fuel_cost))
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


# The matrix forks from this many kernel steps, runs times horizon steps: a
# fork, its copy-on-write faults and the child's exit cost a few ms, and
# this process faults in the shared pages of each trace the child made, 88
# bytes a step (see the README for where a split pays). The example day's
# 6 x 24 and a year's base run plus up to 13 scenarios stay in one process;
# the 51 x 8,760 of a 50-scenario year split.
MIN_KERNEL_STEPS = 131072

# A Linux pipe holds at least one 4,096-byte page, so this many 4-byte
# claims fill it without blocking; a longer matrix claims blocks of runs.
_MAX_CLAIMS = 1024


def _splits(steps: int) -> bool:
    """Whether to fork: MIN_KERNEL_STEPS, Linux, two CPUs, one thread, SIGCHLD.

    A forked child holds only the forking thread, so a lock another thread
    held at the fork would stay held in the child forever. With SIGCHLD
    ignored the kernel reaps the child itself, so its exit status is lost
    and its pid may be reused before this process could kill it.
    """
    return (steps >= MIN_KERNEL_STEPS and sys.platform == "linux"
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1
            and signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN)


def _run(inputs: Profile, config: MicrogridConfig, threshold: float | None):
    """The run's trace at ``threshold``, or the exception its kernel raised."""
    try:
        return run_arrays(inputs, initial_state(config.battery), config,
                          threshold)
    except Exception as exc:  # noqa: BLE001 - kept for its run
        return exc


def _claims(count: int) -> bytes:
    """Claims on ``count`` runs: the first run of each block of consecutive
    runs, 4 bytes each, in at most _MAX_CLAIMS blocks."""
    block = -(-count // _MAX_CLAIMS)
    return np.arange(0, count, block, dtype=np.uint32).tobytes()


def _claimed(fd: int, count: int) -> Iterator[int]:
    """The runs this process claims from the pipe ``fd``, one block at a
    time, until the pipe is empty."""
    block = -(-count // _MAX_CLAIMS)
    while claim := os.read(fd, 4):
        first = int.from_bytes(claim, sys.byteorder)
        yield from range(first, min(first + block, count))


def _send(runs: list[tuple[Profile, MicrogridConfig]], threshold: float,
          claims: int, slots: np.ndarray, done: np.ndarray) -> NoReturn:
    """In the child: copy the trace of each run claimed from ``claims`` into
    its slot, then set its done byte, and exit 0 once the claims are used
    up; a run that raised is left unmarked. Every path ends in os._exit, so
    the child runs no atexit handler and flushes no inherited stdio buffer.
    """
    status = 1
    try:
        for i in _claimed(claims, len(runs)):
            trace = _run(*runs[i], threshold)
            if isinstance(trace, HorizonArrays):
                slots[i].T[...] = trace.columns
                done[i] = 1
        status = 0
    finally:
        os._exit(status)


def _dispatch(runs: list[tuple[Profile, MicrogridConfig]],
              threshold: float | None) -> list:
    """Each run's trace at ``threshold``, or the exception its kernel raised.

    If ``_splits``, this process and a forked child claim runs one at a
    time from a pipe filled before the fork (a failed fork leaves every
    claim here). The child's traces are views of one anonymous shared
    mapping, made before the fork: a slot per run, whose transpose is an
    (n, 11) column-major trace, then a done byte per run, trusted only if
    the child exited 0. Last, this process dispatches every run still
    without a trace. An exception here, the interrupt included, kills and
    reaps the child.
    """
    count, n = len(runs), len(runs[0][0])
    traces: list = [None] * count
    if count >= 2 and _splits(count * n):
        shared = mmap.mmap(-1, count * (n * N_COLUMNS * 8 + 1))
        slots = np.frombuffer(shared, np.float64, count * N_COLUMNS * n
                              ).reshape(count, N_COLUMNS, n)
        done = np.frombuffer(shared, np.uint8, count, offset=slots.nbytes)
        claims, fill = os.pipe()
        os.write(fill, _claims(count))
        os.close(fill)
        pid = None
        try:
            with contextlib.suppress(OSError):
                pid = os.fork()
            if pid == 0:
                _send(runs, threshold, claims, slots, done)
            for i in _claimed(claims, count):
                traces[i] = _run(*runs[i], threshold)
        except BaseException:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise
        finally:
            os.close(claims)
        if pid is not None and os.waitstatus_to_exitcode(
                os.waitpid(pid, 0)[1]) == 0:
            for i in np.flatnonzero(done).tolist():
                inputs, config = runs[i]
                traces[i] = HorizonArrays.from_columns(
                    slots[i].T, inputs, initial_state(config.battery),
                    threshold)
    return [_run(*run, threshold) if trace is None else trace
            for run, trace in zip(runs, traces)]


def _checked(trace, inputs: Profile, config: MicrogridConfig
             ) -> tuple[HorizonArrays, SimulationReport]:
    """The checked trace and its report; raises what the run's kernel did."""
    if isinstance(trace, Exception):
        raise trace
    check_balance(trace, inputs, config)
    return trace, build_report(trace, inputs, config)


def run_matrix(inputs: Profile, config: MicrogridConfig,
               scenarios: Iterable[Scenario]) -> dict[str, ScenarioOutcome]:
    """Run the base case plus every scenario, returning outcomes by id.

    Every scenario is applied first. Then the base run and each applied
    scenario's run are dispatched at the base's threshold, resolved once:
    a scenario changes neither the prices nor the EMS config. From
    MIN_KERNEL_STEPS kernel steps, runs times horizon steps, this process
    and a forked child claim the runs one at a time, and the child's traces
    come back through a shared mapping; every run left without a trace is
    dispatched here (see ``_dispatch``). Last, this process checks and
    reports every run in the given order. Each outcome holds its own
    Profile, which shares unchanged columns with the base inputs, and its
    own trace; the traces the child made are views of one mapping. A
    failing scenario is reported in its outcome without aborting siblings;
    a failing base run raises.
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
    traces = _dispatch(runs, threshold)

    base_trace, base_report = _checked(traces[0], inputs, config)
    outcomes = {BASE_KEY: ScenarioOutcome(
        scenario_id=BASE_KEY, report=base_report, trace=base_trace,
        inputs=inputs, deltas={name: 0.0 for name in DELTA_METRICS})}
    for scenario, run in applied:
        try:
            if isinstance(run, Exception):
                raise run
            trace, report = _checked(traces[run], *runs[run])
            outcome = ScenarioOutcome(
                scenario_id=scenario.id, report=report, trace=trace,
                inputs=runs[run][0], deltas=_deltas(base_report, report))
        except Exception as exc:  # noqa: BLE001 - isolate failing scenarios
            outcome = ScenarioOutcome(
                scenario_id=scenario.id, report=None, trace=None, inputs=None,
                deltas={name: None for name in DELTA_METRICS}, error=str(exc))
        outcomes[scenario.id] = outcome
    return outcomes
