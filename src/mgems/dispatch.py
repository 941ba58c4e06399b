"""EMS core: threshold resolution, horizon dispatch and its invariant check.

Every function here takes its horizon as a Profile, which alone holds
per-step grid availability. The per-step allocation rule lives in one
kernel, mgems._kernel.run_kernel, and a trace holds only its output
columns, the threshold and the starting stored energy. A run starts from
that stored energy alone, in kWh: it is the only state the kernel carries
from one step to the next. This module holds no output format. run_arrays
calls the kernel through the module global _kernel_run, which the
benchmark's span tracer (perfbench/spans.py) wraps; BACKEND names the
kernel in the benchmark's meta line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernel
from ._kernel import (CHARGE, DG, DISCHARGE, ENERGY, EXPORT, IMPORT,
                      N_COLUMNS, PV_USED, SOC, UNSERVED, WIND_USED)
from .errors import BalanceError
from .model import (THRESHOLD_FIXED, THRESHOLD_LOAD, THRESHOLD_PERCENTILE,
                    BatterySpec, EmsConfig, MicrogridConfig)
from .profiles import Profile

BALANCE_TOLERANCE_KW = 1e-6
BALANCE_RELATIVE = 8 * float(np.finfo(np.float64).eps)
SOC_TOLERANCE = 1e-9

_kernel_run = _kernel.run_kernel
BACKEND = "python"


def initial_state(spec: BatterySpec) -> float:
    """Default starting stored energy, kWh: the battery at its SOC floor."""
    return spec.soc_min * spec.capacity_kwh


def price_threshold(prices: Sequence[float], ems: EmsConfig) -> float:
    """Resolve the charge/discharge threshold for a horizon.

    Fixed mode passes the configured price through; percentile mode takes the
    lower-interpolation percentile of the sorted price sequence, found by
    selection; load-threshold mode returns the configured load level (kW,
    compared against demand rather than price).
    """
    if ems.threshold_mode == THRESHOLD_FIXED:
        return float(ems.fixed_threshold)
    if ems.threshold_mode == THRESHOLD_LOAD:
        return float(ems.load_threshold_kw)
    if ems.threshold_mode == THRESHOLD_PERCENTILE:
        values = np.asarray(prices, dtype=np.float64)
        if not len(values):
            raise ValueError("percentile threshold needs a nonempty price sequence")
        index = math.floor(ems.percentile * (len(values) - 1))
        value = np.partition(values, index)[index]
        if value == 0:
            # a stable sort keeps equal prices in input order: of 0.0 and
            # -0.0, it picks the zero that is k-th in the input
            value = values[values == 0][index - np.count_nonzero(values < 0)]
        return float(value)
    raise ValueError(f"unknown threshold mode: {ems.threshold_mode!r}")


# compared by identity: == of its arrays would have no truth value
@dataclass(frozen=True, eq=False)
class HorizonArrays:
    """Array-valued dispatch trace for a whole horizon.

    columns is the (n, 11) kernel output matrix, stored column-major (see
    mgems._kernel for the column order); threshold is the resolved
    comparison threshold, and initial_energy_kwh the stored energy before
    the first step. Per-step grid availability is the run's Profile's.
    """

    columns: np.ndarray
    threshold: float
    initial_energy_kwh: float

    def __len__(self) -> int:
        return self.columns.shape[0]


def compare_values(inputs: Profile, ems: EmsConfig) -> np.ndarray:
    """The per-step column tested against the threshold in this mode."""
    if ems.threshold_mode == THRESHOLD_LOAD:
        return inputs.demand_kw
    return inputs.price


def run_arrays(inputs: Profile, initial_energy_kwh: float,
               config: MicrogridConfig,
               threshold: float | None = None) -> HorizonArrays:
    """Dispatch a horizon and return the trace as arrays.

    The run starts with ``initial_energy_kwh`` stored. The threshold is
    resolved from the full price sequence unless given.
    """
    if not len(inputs):
        raise ValueError("empty horizon")
    if threshold is None:
        threshold = price_threshold(inputs.price, config.ems)
    b = config.battery
    # column-major: the kernel, the check and the report each work a column
    # at a time
    out = np.empty((len(inputs), N_COLUMNS), dtype=np.float64, order="F")
    _kernel_run(
        inputs.demand_kw, inputs.pv_kw, inputs.wind_kw, inputs.grid_available,
        compare_values(inputs, config.ems), float(threshold),
        config.step_hours, b.capacity_kwh, initial_energy_kwh,
        b.soc_min * b.capacity_kwh, b.soc_max * b.capacity_kwh,
        math.sqrt(b.roundtrip_efficiency), b.max_charge_kw, b.max_discharge_kw,
        config.grid.import_limit_kw, config.grid.export_limit_kw,
        config.diesel.capacity_kw, config.diesel.min_loading_fraction,
        b.soc_min, out)
    return HorizonArrays(columns=out, threshold=float(threshold),
                         initial_energy_kwh=float(initial_energy_kwh))


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
    grid = inputs.grid_available != 0
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

