"""Stress-test scenarios, specified in model.py: apply, dispatch and compare.

Built-ins: S1 demand +5%, S2 PV -20% with wind -40%, S3 a 6-hour grid
outage, S4 fuel price +100%. Impact is reported as numeric per-metric deltas
against the base run; qualitative labeling is left to the reader.

Applying a scenario is column arithmetic on the base Profile: scaled
columns are new read-only arrays, which the Profile takes without a copy;
unchanged columns are shared with the base run. A matrix run is one unit of
work, ``_run``: the process that runs it dispatches and checks it.
"""

from __future__ import annotations

import contextlib
import math
import mmap
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
from .model import (BASE_KEY, MicrogridConfig, OutageSpec, Scenario,
                    outage_steps, shown, validate_scenario)
from .profiles import Profile

# frozen, so each run may share them
_BUILTINS = {scenario.id: scenario for scenario in (
    Scenario(id="S1", demand_multiplier=1.05),
    Scenario(id="S2", pv_multiplier=0.80, wind_multiplier=0.60),
    Scenario(id="S3", outage=OutageSpec(duration_hours=6.0)),
    Scenario(id="S4", fuel_price_multiplier=2.0))}
BUILTIN_IDS = tuple(_BUILTINS)

# report fields compared scenario-vs-base in outcome deltas
DELTA_METRICS = ("operating_cost", "npc", "lcoe", "renewable_fraction",
                 "imported_kwh", "exported_kwh", "dg_kwh", "unserved_kwh",
                 "uptime_fraction")


def builtin_scenario(scenario_id: str) -> Scenario:
    """The four standard stress scenarios."""
    if scenario_id not in _BUILTINS:
        raise ValueError(f"unknown builtin scenario: {scenario_id!r}")
    return _BUILTINS[scenario_id]


def _resolve_outage(outage: OutageSpec, inputs: Profile,
                    config: MicrogridConfig) -> tuple[int, int]:
    steps = outage_steps(outage, config.step_hours)
    start = outage.start_step
    if start is None:
        threshold = price_threshold(inputs.price, config.ems)
        above = np.flatnonzero(compare_values(inputs, config.ems) > threshold)
        if not len(above):
            raise ValueError("no step above the threshold; "
                             "set the outage start explicitly")
        start = above[0]
    start = int(start)   # a numpy int would overflow, or fail, on + steps
    if start + steps > len(inputs):
        raise ValueError(
            f"outage window [{shown(start)}, {shown(start + steps)}) does not "
            f"fit the {len(inputs)}-step horizon")
    return start, steps


def apply_scenario(inputs: Profile, config: MicrogridConfig,
                   scenario: Scenario) -> tuple[Profile, MicrogridConfig]:
    """Scale the profile and config per the scenario's condition changes.

    Demand/PV/wind columns scale pointwise, the outage window (step
    positions) forces grid unavailability, and the fuel price scales;
    everything else passes through unchanged. A value validate_scenario
    rejects, an outage window that does not fit the horizon, a scaled column
    the Profile rejects, or a fuel price that is not finite raises
    ValueError; the caller names the scenario.
    """
    validate_scenario(scenario, config.step_hours)
    grid_available = inputs.grid_available
    if scenario.outage is not None:
        start, steps = _resolve_outage(scenario.outage, inputs, config)
        grid_available = grid_available.copy()
        grid_available[start:start + steps] = 0
        grid_available.setflags(write=False)
    factors = {"demand_kw": scenario.demand_multiplier,
               "pv_kw": scenario.pv_multiplier,
               "wind_kw": scenario.wind_multiplier}
    # the Profile below names an overflow (not warned of) before the fuel
    # price does; a column left at a multiplier of 1 is the base's own
    with np.errstate(over="ignore"):
        columns = {name: getattr(inputs, name) * factor if factor != 1
                   else getattr(inputs, name)
                   for name, factor in factors.items()}
    for column in columns.values():
        column.setflags(write=False)
    scaled = replace(inputs, grid_available=grid_available, **columns)
    fuel_cost = (float(config.diesel.fuel_cost_per_kwh)
                 * float(scenario.fuel_price_multiplier))
    if not math.isfinite(fuel_cost):
        raise ValueError("fuel_cost_per_kwh scaled by "
                         f"{scenario.fuel_price_multiplier} is not finite")
    new_config = replace(config, diesel=replace(config.diesel,
                                                fuel_cost_per_kwh=fuel_cost))
    return scaled, new_config


# compared by identity, as the HorizonArrays and Profile it holds
@dataclass(frozen=True, eq=False)
class ScenarioOutcome:
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


def _failed(exc: Exception) -> ScenarioOutcome:
    return ScenarioOutcome(report=None, trace=None, inputs=None,
                           deltas=dict.fromkeys(DELTA_METRICS), error=str(exc))


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


def _run(inputs: Profile, config: MicrogridConfig,
         threshold: float) -> HorizonArrays:
    """The run's checked trace at ``threshold``; raises what its kernel or
    its check does."""
    trace = run_arrays(inputs, initial_state(config.battery), config,
                       threshold)
    check_balance(trace, inputs, config)
    return trace


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
            with contextlib.suppress(Exception):
                slots[i].T[...] = _run(*runs[i], threshold).columns
                done[i] = 1
        status = 0
    finally:
        os._exit(status)


def _dispatch(runs: list[tuple[Profile, MicrogridConfig]],
              threshold: float) -> dict[int, HorizonArrays]:
    """The checked traces a split made, by run: {} unless ``_splits``.

    This process and a forked child claim runs one at a time from a pipe
    filled before the fork (a failed fork leaves every claim here). The
    child's traces are views of one anonymous shared mapping, made before
    the fork: a slot per run, whose transpose is an (n, 11) column-major
    trace, then a done byte per run, trusted only if the child exited 0. A
    run that raised, in either process, is absent. Any other exception
    here, the interrupt included, kills and reaps the child.
    """
    count, n = len(runs), len(runs[0][0])
    if count < 2 or not _splits(count * n):
        return {}
    shared = mmap.mmap(-1, count * (n * N_COLUMNS * 8 + 1))
    slots = np.frombuffer(shared, np.float64, count * N_COLUMNS * n
                          ).reshape(count, N_COLUMNS, n)
    done = np.frombuffer(shared, np.uint8, count, offset=slots.nbytes)
    claims, fill = os.pipe()
    os.write(fill, _claims(count))
    os.close(fill)
    traces = {}
    pid = None
    try:
        with contextlib.suppress(OSError):
            pid = os.fork()
        if pid == 0:
            _send(runs, threshold, claims, slots, done)
        for i in _claimed(claims, count):
            with contextlib.suppress(Exception):
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
            traces[i] = HorizonArrays(
                columns=slots[i].T, threshold=float(threshold),
                initial_energy_kwh=initial_state(runs[i][1].battery))
    return traces


def run_matrix(inputs: Profile, config: MicrogridConfig,
               scenarios: Iterable[Scenario]) -> dict[str, ScenarioOutcome]:
    """Run the base case plus every scenario, returning outcomes by id.

    Every scenario is applied first. Then the base run and each applied
    scenario's run are dispatched at the base's threshold, resolved once:
    a scenario changes neither the prices nor the EMS config. From
    MIN_KERNEL_STEPS kernel steps, runs times horizon steps, this process
    and a forked child claim the runs one at a time, each checking the runs
    it dispatches, and the child's traces come back through a shared
    mapping (see ``_dispatch``). Last, in order, this process dispatches
    and checks each run still without a trace, and reports every run. Each
    outcome holds its own Profile, which shares unchanged columns with the
    base inputs, and its own trace; the traces the child made are views of
    one mapping. A scenario that fails to apply, dispatch, check or report
    is an outcome holding its error, and its siblings still run; a failing
    base run raises. An id that is BASE_KEY or repeats raises ValueError
    before any scenario is applied.
    """
    scenarios = list(scenarios)
    ids = [scenario.id for scenario in scenarios]
    for i, name in enumerate(ids):
        if name == BASE_KEY:
            raise ValueError(f"scenario name {BASE_KEY!r} is reserved")
        if name in ids[:i]:
            raise ValueError(f"scenario {name!r} is selected twice")
    names, runs = [BASE_KEY], [(inputs, config)]
    outcomes: dict[str, ScenarioOutcome] = {}
    for scenario in scenarios:
        try:
            runs.append(apply_scenario(inputs, config, scenario))
            names.append(scenario.id)
        except Exception as exc:  # noqa: BLE001 - isolate failing scenarios
            outcomes[scenario.id] = _failed(exc)
    threshold = price_threshold(inputs.price, config.ems)
    traces = _dispatch(runs, threshold)
    for i, (name, run) in enumerate(zip(names, runs)):
        try:
            trace = traces[i] if i in traces else _run(*run, threshold)
            report = build_report(trace, *run)
            deltas = (dict.fromkeys(DELTA_METRICS, 0.0) if name == BASE_KEY
                      else _deltas(outcomes[BASE_KEY].report, report))
        except Exception as exc:  # noqa: BLE001 - isolate failing scenarios
            if name == BASE_KEY:
                raise
            outcomes[name] = _failed(exc)
        else:
            outcomes[name] = ScenarioOutcome(report=report, trace=trace,
                                             inputs=run[0], deltas=deltas)
    return {name: outcomes[name] for name in [BASE_KEY, *ids]}
