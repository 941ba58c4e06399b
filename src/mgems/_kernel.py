"""Pure-Python dispatch kernel.

Step rule, in priority order:
  grid available, charge regime (compare <= threshold):
      surplus -> battery charge, then export, then curtail;
      deficit -> battery discharge, then import, residual unserved.
  grid available, discharge regime (compare > threshold):
      surplus -> export then curtail (never charges);
      deficit -> battery discharge, then import, residual unserved.
  grid unavailable (islanded):
      surplus -> battery charge, then curtail;
      deficit -> battery discharge, then diesel, residual unserved.

The charge/discharge decision evaluates surplus with zero battery
contribution, and the battery only ever charges from renewable surplus.
Renewable attribution is PV-first: wind absorbs the curtailment.

Only the battery's stored energy carries from one step to the next, so
run_kernel works in three phases:
  1. a numpy pre-pass computes the surplus and classifies each step as
     charge-eligible, discharge-eligible or idle;
  2. a Python loop runs the energy recurrence alone: SOC headroom, the
     charge or discharge clamp and the stored-energy update, written into
     array('d') buffers;
  3. a numpy post-pass allocates the rest (export, curtailment, import,
     diesel with its minimum-loading cutoff, unserved energy) and does the
     PV-first attribution and the SOC column.

The reference for this rule is the frozen one-step-at-a-time version in
tests/kernel_reference.py; tests require run_kernel and the compiled twin
in _speedups.pyx to reproduce it bit for bit, signed zeros included. Two
rules keep that true:
  - every expression keeps the reference's operands and operation order
    (no reassociation; only loop-invariant subexpressions are hoisted);
  - every min is written np.where(a < b, a, b), the vector form of
    `a if a < b else b`. np.minimum is not the same: it returns a NaN
    operand where the rule returns b, and it does not promise which zero
    it returns for 0.0 and -0.0, while the rule does produce -0.0 (the
    discharge is -0.0 when pv + wind == demand exactly).
"""

from __future__ import annotations

from array import array

import numpy as np

# column order of the kernel output matrix
PV_USED, WIND_USED, CURTAILED, CHARGE, DISCHARGE, DG, IMPORT, EXPORT, \
    UNSERVED, SOC, ENERGY = range(11)
N_COLUMNS = 11

# step kinds of the pre-pass (the loop tests them by sign)
_CHARGE, _IDLE, _DISCHARGE = 1, 0, -1


def _min(a, b):
    """Elementwise `a if a < b else b` (see the module docstring)."""
    return np.where(a < b, a, b)


def run_kernel(demand, pv, wind, grid_ok, compare, threshold,
               dt, cap, energy0, e_min, e_max, sqrt_eta,
               max_chg, max_dis, imp_lim, exp_lim, dg_cap, dg_min_frac,
               soc_fallback, out):
    """Run the step rule over a horizon, filling the (n, 11) output matrix.

    compare is the per-step value tested against the threshold (price in the
    price modes, demand in load-threshold mode). Returns final stored kWh.
    """
    n = demand.shape[0]
    if not n:
        return energy0

    # 1. pre-pass: surplus and step kind
    ren = pv + wind
    sur = ren - demand
    deficit = -sur
    surplus = sur > 0.0
    grid = grid_ok != 0
    idle = surplus & grid & (compare > threshold)
    kind = np.where(surplus, _CHARGE, _DISCHARGE)
    kind[idle] = _IDLE
    # the value the battery clamps: surplus to charge, deficit to discharge
    want = np.where(surplus, sur, deficit)

    # 2. the energy recurrence; flow is the charge or discharge, by kind
    charge_den = sqrt_eta * dt
    no_chg = 0.0 * sqrt_eta * dt
    no_dis = (0.0 / sqrt_eta) * dt
    flow = array("d", [0.0]) * n
    stored = array("d", [0.0]) * n
    energy = energy0
    for i, k, x in zip(range(n), kind.tolist(), want.tolist()):
        if k > 0:
            head = (e_max - energy) / charge_den
            if head < 0.0:
                head = 0.0
            eff = max_chg if max_chg < head else head
            x = x if x < eff else eff
            energy = energy + x * sqrt_eta * dt - no_dis
            flow[i] = x
        elif k:
            head = (energy - e_min) * sqrt_eta / dt
            if head < 0.0:
                head = 0.0
            eff = max_dis if max_dis < head else head
            x = x if x < eff else eff
            energy = energy + no_chg - (x / sqrt_eta) * dt
            flow[i] = x
        else:
            energy = energy + no_chg - no_dis
        stored[i] = energy
    flow = np.frombuffer(flow, dtype=np.float64)
    stored = np.frombuffer(stored, dtype=np.float64)

    # 3. post-pass: allocate what the battery left
    chg = np.where(kind == _CHARGE, flow, 0.0)
    dis = np.where(kind == _DISCHARGE, flow, 0.0)
    rem = sur - chg                                  # surplus steps
    exp_all = _min(rem, exp_lim)
    curt = np.where(surplus, np.where(grid, rem - exp_all, rem), 0.0)
    exp = np.where(surplus & grid, exp_all, 0.0)
    rem = deficit - dis                              # deficit steps
    imp_all = _min(rem, imp_lim)
    dg_all = _min(rem, dg_cap)
    dg_all[(dg_all > 0.0) & (dg_all < dg_min_frac * dg_cap)] = 0.0
    imp = np.where(~surplus & grid, imp_all, 0.0)
    dg = np.where(~surplus & ~grid, dg_all, 0.0)
    uns = np.where(surplus, 0.0, np.where(grid, rem - imp_all, rem - dg_all))
    used = ren - curt
    pv_used = _min(pv, used)

    out[:, PV_USED] = pv_used
    out[:, WIND_USED] = used - pv_used
    out[:, CURTAILED] = curt
    out[:, CHARGE] = chg
    out[:, DISCHARGE] = dis
    out[:, DG] = dg
    out[:, IMPORT] = imp
    out[:, EXPORT] = exp
    out[:, UNSERVED] = uns
    out[:, SOC] = stored / cap if cap > 0.0 else soc_fallback
    out[:, ENERGY] = stored
    return energy
