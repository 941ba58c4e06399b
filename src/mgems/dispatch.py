"""EMS core: threshold resolution, horizon dispatch and its invariant check.

Every function here takes its horizon as a Profile. The per-step
allocation rule lives in one kernel, mgems._kernel.run_kernel;
dispatch_step runs it on a one-step Profile, not a second description.
run_arrays calls it through the module global _kernel_run, which the
benchmark's span tracer (perfbench/spans.py) wraps; BACKEND names the
kernel in the benchmark's meta line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernel
from ._kernel import (CHARGE, CURTAILED, DG, DISCHARGE, ENERGY, EXPORT,
                      IMPORT, N_COLUMNS, PV_USED, SOC, UNSERVED, WIND_USED)
from .errors import BalanceError
from .model import (THRESHOLD_FIXED, THRESHOLD_LOAD, THRESHOLD_PERCENTILE,
                    BatterySpec, EmsConfig, MicrogridConfig)
from .profiles import Profile

BALANCE_TOLERANCE_KW = 1e-6
BALANCE_RELATIVE = 8 * float(np.finfo(np.float64).eps)
SOC_TOLERANCE = 1e-9

GRID_CONNECTED = "grid-connected"
ISLANDED = "islanded"


_kernel_run = _kernel.run_kernel
BACKEND = "python"


@dataclass(frozen=True)
class BatteryState:
    """Battery state at a step boundary: SOC fraction and stored energy."""

    soc: float
    energy_kwh: float

    @classmethod
    def from_soc(cls, soc: float, spec: BatterySpec) -> "BatteryState":
        return cls(soc=soc, energy_kwh=soc * spec.capacity_kwh)


def initial_state(spec: BatterySpec) -> BatteryState:
    """Default starting state: battery at its lower SOC bound."""
    return BatteryState.from_soc(spec.soc_min, spec)


@dataclass(frozen=True)
class DispatchDecision:
    """Complete power allocation for one step, all fields nonnegative kW.

    Exactly one of charge/discharge and one of import/export may be nonzero;
    islanded steps have zero grid exchange, and the diesel unit only runs
    islanded.
    """

    pv_used_kw: float
    wind_used_kw: float
    curtailed_kw: float
    battery_charge_kw: float
    battery_discharge_kw: float
    dg_kw: float
    grid_import_kw: float
    grid_export_kw: float
    unserved_kw: float
    mode: str


def price_threshold(prices: Sequence[float], ems: EmsConfig) -> float:
    """Resolve the charge/discharge threshold for a horizon.

    Fixed mode passes the configured price through; percentile mode takes the
    lower-interpolation percentile of the sorted price sequence;
    load-threshold mode returns the configured load level (kW, compared
    against demand rather than price).
    """
    if ems.threshold_mode == THRESHOLD_FIXED:
        return float(ems.fixed_threshold)
    if ems.threshold_mode == THRESHOLD_LOAD:
        return float(ems.load_threshold_kw)
    if ems.threshold_mode == THRESHOLD_PERCENTILE:
        # stable, as sorted() was: equal prices keep their order (0.0 / -0.0)
        ordered = np.sort(np.asarray(prices, dtype=np.float64), kind="stable")
        if not len(ordered):
            raise ValueError("percentile threshold needs a nonempty price sequence")
        index = math.floor(ems.percentile * (len(ordered) - 1))
        return float(ordered[index])
    raise ValueError(f"unknown threshold mode: {ems.threshold_mode!r}")


# compared by identity: == of its arrays would have no truth value
@dataclass(frozen=True, eq=False)
class HorizonArrays:
    """Array-valued dispatch trace for a whole horizon.

    columns is the (n, 11) kernel output matrix (see mgems._kernel for the
    column order); threshold is the resolved comparison threshold, and
    initial_energy_kwh / final_energy_kwh are the stored energy before the
    first step and after the last.
    """

    columns: np.ndarray
    grid_available: np.ndarray
    threshold: float
    initial_energy_kwh: float
    final_energy_kwh: float

    def column(self, index: int) -> np.ndarray:
        return self.columns[:, index]

    def decision(self, i: int) -> DispatchDecision:
        row = self.columns[i]
        return DispatchDecision(
            pv_used_kw=float(row[PV_USED]),
            wind_used_kw=float(row[WIND_USED]),
            curtailed_kw=float(row[CURTAILED]),
            battery_charge_kw=float(row[CHARGE]),
            battery_discharge_kw=float(row[DISCHARGE]),
            dg_kw=float(row[DG]),
            grid_import_kw=float(row[IMPORT]),
            grid_export_kw=float(row[EXPORT]),
            unserved_kw=float(row[UNSERVED]),
            mode=GRID_CONNECTED if self.grid_available[i] else ISLANDED,
        )

    def state(self, i: int) -> BatteryState:
        row = self.columns[i]
        return BatteryState(soc=float(row[SOC]), energy_kwh=float(row[ENERGY]))

    def __len__(self) -> int:
        return self.columns.shape[0]


def compare_values(inputs: Profile, ems: EmsConfig) -> np.ndarray:
    """The per-step column tested against the threshold in this mode."""
    if ems.threshold_mode == THRESHOLD_LOAD:
        return inputs.demand_kw
    return inputs.price


def run_arrays(inputs: Profile, initial: BatteryState,
               config: MicrogridConfig,
               threshold: float | None = None) -> HorizonArrays:
    """Dispatch a horizon and return the trace as arrays.

    The threshold is resolved from the full price sequence unless given.
    """
    if not len(inputs):
        raise ValueError("empty horizon")
    if threshold is None:
        threshold = price_threshold(inputs.price, config.ems)
    b = config.battery
    out = np.empty((len(inputs), N_COLUMNS), dtype=np.float64)
    final_energy = _kernel_run(
        inputs.demand_kw, inputs.pv_kw, inputs.wind_kw, inputs.grid_available,
        compare_values(inputs, config.ems), float(threshold),
        config.step_hours, b.capacity_kwh, initial.energy_kwh,
        b.soc_min * b.capacity_kwh, b.soc_max * b.capacity_kwh,
        math.sqrt(b.roundtrip_efficiency), b.max_charge_kw, b.max_discharge_kw,
        config.grid.import_limit_kw, config.grid.export_limit_kw,
        config.diesel.capacity_kw, config.diesel.min_loading_fraction,
        b.soc_min, out)
    return HorizonArrays(columns=out, grid_available=inputs.grid_available,
                         threshold=float(threshold),
                         initial_energy_kwh=float(initial.energy_kwh),
                         final_energy_kwh=float(final_energy))


def balance_residuals(trace: HorizonArrays, inputs: Profile) -> np.ndarray:
    """Per-step power-balance residual, generation side minus load side."""
    cols = trace.columns
    demand = inputs.demand_kw
    supply = (cols[:, PV_USED] + cols[:, WIND_USED] + cols[:, DISCHARGE]
              + cols[:, DG] + cols[:, IMPORT])
    load = (demand - cols[:, UNSERVED]) + cols[:, CHARGE] + cols[:, EXPORT]
    return supply - load


def check_balance(trace: HorizonArrays, inputs: Profile,
                  config: MicrogridConfig) -> None:
    """Raise BalanceError at the first step that breaks a dispatch invariant.

    The invariants, checked in this order: the power balance holds within
    1e-6 kW plus 8 * eps times the step's largest term (a NaN residual fails;
    the relative part keeps rounding in sums of huge but finite flows from
    reading as a breach, and adds under 2e-9 kW below 1e6 kW); no flow is
    negative (-0.0 is allowed); charge and discharge are never both
    nonzero, nor import and export; an islanded step exchanges nothing with
    the grid; the diesel unit runs only islanded; the SOC stays in its band
    within 1e-9; and each step's stored energy is exactly the previous one
    plus its charge and minus its discharge, recomputed in the kernel's
    operation order.
    """
    battery, dt_h = config.battery, config.step_hours
    cols = trace.columns
    flows = cols[:, :UNSERVED + 1]
    residuals = np.abs(balance_residuals(trace, inputs))
    # the tolerance is never below its absolute part: scale only the rest
    suspect = np.flatnonzero(~(residuals <= BALANCE_TOLERANCE_KW))
    if len(suspect):
        demand = np.abs(inputs.demand_kw[suspect])
        largest = np.maximum(np.abs(flows[suspect]).max(axis=1), demand)
        tolerance = BALANCE_TOLERANCE_KW + BALANCE_RELATIVE * largest
        unbalanced = ~(residuals[suspect] <= tolerance)
        if unbalanced.any():
            first = int(np.argmax(unbalanced))
            raise BalanceError(
                f"power balance residual {float(residuals[suspect[first]])} "
                f"kW at step {int(suspect[first])} exceeds "
                f"{float(tolerance[first])} kW")
    grid = trace.grid_available != 0
    charging, discharging = cols[:, CHARGE] != 0.0, cols[:, DISCHARGE] != 0.0
    importing, exporting = cols[:, IMPORT] != 0.0, cols[:, EXPORT] != 0.0
    soc, energy = cols[:, SOC], cols[:, ENERGY]
    low = battery.soc_min - SOC_TOLERANCE
    high = battery.soc_max + SOC_TOLERANCE
    sqrt_eta = math.sqrt(battery.roundtrip_efficiency)
    before = np.concatenate(([trace.initial_energy_kwh], energy))[:-1]
    after = before + cols[:, CHARGE] * sqrt_eta * dt_h \
        - (cols[:, DISCHARGE] / sqrt_eta) * dt_h
    checks = [
        ("negative flow", flows < 0.0),
        ("battery charges and discharges", charging & discharging),
        ("grid imports and exports", importing & exporting),
        ("grid exchange while islanded", ~grid & (importing | exporting)),
        ("diesel runs while grid-connected", grid & (cols[:, DG] != 0.0)),
        ("SOC outside its band", ~((soc >= low) & (soc <= high))),
        ("stored energy breaks continuity", ~(after == energy))]
    for name, broken in checks:
        if broken.any():
            step = np.argmax(broken.reshape(len(cols), -1).any(axis=1))
            raise BalanceError(f"{name} at step {int(step)}")


def dispatch_step(state: BatteryState, step: Profile, threshold: float,
                  config: MicrogridConfig) -> tuple[DispatchDecision, BatteryState]:
    """Allocate one step and advance the battery state.

    ``step`` is a one-step horizon, such as ``profile[i:i + 1]``; any other
    length raises ValueError.
    """
    if len(step) != 1:
        raise ValueError(f"dispatch_step needs a one-step profile, "
                         f"got {len(step)} steps")
    trace = run_arrays(step, state, config, threshold)
    return trace.decision(0), trace.state(0)
