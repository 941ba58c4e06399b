"""EMS core: threshold rules, battery state stepping, and horizon dispatch.

The per-step allocation rule lives in a kernel with two interchangeable
backends: a compiled extension (mgems._speedups) and a pure-Python fallback
(mgems._kernel). The compiled backend is selected at import when available;
set MGEMS_BACKEND=python or MGEMS_BACKEND=compiled to force one. Both
produce bit-identical traces.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernel
from ._kernel import (CHARGE, CURTAILED, DG, DISCHARGE, ENERGY, EXPORT,
                      IMPORT, N_COLUMNS, PV_USED, SOC, UNSERVED, WIND_USED)
from .errors import BalanceError
from .model import (THRESHOLD_FIXED, THRESHOLD_LOAD, THRESHOLD_PERCENTILE,
                    BatterySpec, EmsConfig, MicrogridConfig)
from .profiles import Profile, StepInput

BALANCE_TOLERANCE_KW = 1e-6
BALANCE_RELATIVE = 8 * float(np.finfo(np.float64).eps)
SOC_TOLERANCE = 1e-9

GRID_CONNECTED = "grid-connected"
ISLANDED = "islanded"


def _select_backend():
    forced = os.environ.get("MGEMS_BACKEND", "").strip().lower()
    if forced == "python":
        return _kernel.run_kernel, "python"
    try:
        from . import _speedups
    except ImportError:
        if forced == "compiled":
            raise ImportError(
                "MGEMS_BACKEND=compiled but mgems._speedups is not built")
        return _kernel.run_kernel, "python"
    return _speedups.run_kernel, "compiled"


_kernel_run, BACKEND = _select_backend()


class Intent(enum.Enum):
    CHARGE = "charge"
    DISCHARGE = "discharge"


class Gate(enum.Enum):
    PERMIT = "permit"
    DECLINE = "decline"


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

    FIELDS = ("pv_used_kw", "wind_used_kw", "curtailed_kw", "battery_charge_kw",
              "battery_discharge_kw", "dg_kw", "grid_import_kw",
              "grid_export_kw", "unserved_kw", "mode")


@dataclass(frozen=True)
class SurplusResult:
    """Signed instantaneous surplus and the energy it amounts to over a step."""

    surplus_kw: float
    surplus_kwh: float


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


def shaving_intent(price: float, threshold: float) -> Intent:
    """Discharge above the threshold, charge at or below it."""
    return Intent.DISCHARGE if price > threshold else Intent.CHARGE


def soc_gate(state: BatteryState, intent: Intent, spec: BatterySpec) -> Gate:
    """Decline charging at the upper SOC bound and discharging at the lower."""
    if intent is Intent.CHARGE and state.soc >= spec.soc_max:
        return Gate.DECLINE
    if intent is Intent.DISCHARGE and state.soc <= spec.soc_min:
        return Gate.DECLINE
    return Gate.PERMIT


def surplus(inp: StepInput, battery_available_discharge_kw: float,
            dt_h: float) -> SurplusResult:
    """Aggregate PV+wind+battery output minus demand, as kW and kWh."""
    if dt_h <= 0:
        raise ValueError(f"dt_h must be > 0, got {dt_h}")
    kw = inp.pv_kw + inp.wind_kw + battery_available_discharge_kw - inp.demand_kw
    return SurplusResult(surplus_kw=kw, surplus_kwh=kw * dt_h)


def step_battery(state: BatteryState, charge_kw: float, discharge_kw: float,
                 dt_h: float, spec: BatterySpec) -> BatteryState:
    """Advance the battery by one step of terminal charging or discharging.

    Callers must pre-clamp powers to the SOC headroom; a resulting SOC
    outside the configured band (beyond 1e-9) is a caller bug and raises.
    """
    sqrt_eta = math.sqrt(spec.roundtrip_efficiency)
    energy = state.energy_kwh + charge_kw * sqrt_eta * dt_h \
        - (discharge_kw / sqrt_eta) * dt_h
    if spec.capacity_kwh > 0.0:
        soc = energy / spec.capacity_kwh
    else:
        soc = state.soc
    if soc < spec.soc_min - SOC_TOLERANCE or soc > spec.soc_max + SOC_TOLERANCE:
        raise ValueError(
            f"battery step left SOC at {soc}, outside "
            f"[{spec.soc_min}, {spec.soc_max}]: powers were not pre-clamped")
    return BatteryState(soc=soc, energy_kwh=energy)


@dataclass(frozen=True)
class HorizonArrays:
    """Array-valued dispatch trace for a whole horizon.

    columns is the (n, 11) kernel output matrix (see mgems._kernel for the
    column order); threshold is the resolved comparison threshold.
    """

    columns: np.ndarray
    grid_available: np.ndarray
    threshold: float
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


def run_arrays(inputs: Sequence[StepInput], initial: BatteryState,
               config: MicrogridConfig,
               threshold: float | None = None) -> HorizonArrays:
    """Dispatch a horizon and return the trace as arrays.

    The threshold is resolved from the full price sequence unless given.
    """
    inputs = Profile.from_steps(inputs)
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
                         final_energy_kwh=float(final_energy))


def balance_residuals(trace: HorizonArrays,
                      inputs: Sequence[StepInput]) -> np.ndarray:
    """Per-step power-balance residual, generation side minus load side."""
    cols = trace.columns
    demand = Profile.from_steps(inputs).demand_kw
    supply = (cols[:, PV_USED] + cols[:, WIND_USED] + cols[:, DISCHARGE]
              + cols[:, DG] + cols[:, IMPORT])
    load = (demand - cols[:, UNSERVED]) + cols[:, CHARGE] + cols[:, EXPORT]
    return supply - load


def check_balance(trace: HorizonArrays, inputs: Sequence[StepInput]) -> None:
    """Raise BalanceError at the first step that breaks a dispatch invariant.

    The invariants, checked in this order: the power balance holds within
    1e-6 kW plus 8 * eps times the step's largest term (a NaN residual fails;
    the relative part keeps rounding in sums of huge but finite flows from
    reading as a breach, and adds under 2e-9 kW below 1e6 kW); no flow is
    negative (-0.0 is allowed); charge and discharge are never both
    nonzero, nor import and export; an islanded step exchanges nothing with
    the grid; and the diesel unit runs only islanded. The SOC band and
    energy continuity need the battery spec and are not checked here.
    """
    cols = trace.columns
    flows = cols[:, :UNSERVED + 1]
    residuals = np.abs(balance_residuals(trace, inputs))
    # the tolerance is never below its absolute part: scale only the rest
    suspect = np.flatnonzero(~(residuals <= BALANCE_TOLERANCE_KW))
    if len(suspect):
        demand = np.abs(Profile.from_steps(inputs).demand_kw[suspect])
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
    for name, broken in (
            ("negative flow", flows < 0.0),
            ("battery charges and discharges", charging & discharging),
            ("grid imports and exports", importing & exporting),
            ("grid exchange while islanded", ~grid & (importing | exporting)),
            ("diesel runs while grid-connected", grid & (cols[:, DG] != 0.0))):
        if broken.any():
            step = np.argmax(broken.reshape(len(cols), -1).any(axis=1))
            raise BalanceError(f"{name} at step {int(step)}")


def dispatch_step(state: BatteryState, inp: StepInput, threshold: float,
                  config: MicrogridConfig) -> tuple[DispatchDecision, BatteryState]:
    """Allocate one step and advance the battery state (a one-step horizon)."""
    trace = run_arrays([inp], state, config, threshold)
    return trace.decision(0), trace.state(0)


def run_horizon(inputs: Sequence[StepInput], initial: BatteryState,
                config: MicrogridConfig,
                threshold: float | None = None,
                ) -> list[tuple[DispatchDecision, BatteryState]]:
    """Dispatch a horizon step by step, deterministically.

    Returns one (decision, post-step battery state) pair per input.
    """
    trace = run_arrays(inputs, initial, config, threshold)
    return [(trace.decision(i), trace.state(i)) for i in range(len(inputs))]
