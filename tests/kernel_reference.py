"""Frozen reference for the dispatch kernel: the step rule, one step at a time.

step_scalar is the per-step allocation rule exactly as mgems first shipped
it, and run_reference folds it over a horizon. Both are kept unchanged so
that tests can require the kernel in src/ to reproduce them bit for bit,
signed zeros included. Do not edit
them to make a kernel change pass: a change here is a change of the step
rule, and so of the program's output and the golden files.
"""

from mgems._kernel import ENERGY


def step_scalar(demand, pv, wind, grid_ok, discharge_regime, energy,
                dt, cap, e_min, e_max, sqrt_eta,
                max_chg, max_dis, imp_lim, exp_lim, dg_cap, dg_min_frac,
                soc_fallback):
    """Allocate one step. Returns the 11 output fields as a tuple.

    energy/e_min/e_max are stored kWh; power fields are terminal kW.
    soc_fallback is reported when the battery has zero capacity.
    """
    ren = pv + wind
    sur = ren - demand
    chg = 0.0
    dis = 0.0
    dg = 0.0
    imp = 0.0
    exp = 0.0
    uns = 0.0
    curt = 0.0

    # terminal-power limits from the SOC headroom and the rate caps
    head = (e_max - energy) / (sqrt_eta * dt)
    if head < 0.0:
        head = 0.0
    eff_chg = max_chg if max_chg < head else head
    head = (energy - e_min) * sqrt_eta / dt
    if head < 0.0:
        head = 0.0
    eff_dis = max_dis if max_dis < head else head

    if grid_ok:
        if sur > 0.0:
            if not discharge_regime:
                chg = sur if sur < eff_chg else eff_chg
            rem = sur - chg
            exp = rem if rem < exp_lim else exp_lim
            curt = rem - exp
        else:
            deficit = -sur
            dis = deficit if deficit < eff_dis else eff_dis
            rem = deficit - dis
            imp = rem if rem < imp_lim else imp_lim
            uns = rem - imp
    else:
        if sur > 0.0:
            chg = sur if sur < eff_chg else eff_chg
            curt = sur - chg
        else:
            deficit = -sur
            dis = deficit if deficit < eff_dis else eff_dis
            rem = deficit - dis
            dg = rem if rem < dg_cap else dg_cap
            if dg > 0.0 and dg < dg_min_frac * dg_cap:
                dg = 0.0  # the unit cannot run below its minimum loading
            uns = rem - dg

    used = ren - curt
    pv_used = pv if pv < used else used
    wind_used = used - pv_used
    energy = energy + chg * sqrt_eta * dt - (dis / sqrt_eta) * dt
    soc = energy / cap if cap > 0.0 else soc_fallback

    return (pv_used, wind_used, curt, chg, dis, dg, imp, exp, uns, soc, energy)


def run_reference(demand, pv, wind, grid_ok, compare, threshold,
                  dt, cap, energy0, e_min, e_max, sqrt_eta,
                  max_chg, max_dis, imp_lim, exp_lim, dg_cap, dg_min_frac,
                  soc_fallback, out):
    """run_kernel's contract, as a fold of step_scalar over the horizon."""
    n = demand.shape[0]
    d = demand.tolist()
    p = pv.tolist()
    w = wind.tolist()
    g = grid_ok.tolist()
    cmp_vals = compare.tolist()
    rows = []
    energy = energy0
    for i in range(n):
        row = step_scalar(d[i], p[i], w[i], g[i] != 0, cmp_vals[i] > threshold,
                          energy, dt, cap, e_min, e_max, sqrt_eta,
                          max_chg, max_dis, imp_lim, exp_lim, dg_cap,
                          dg_min_frac, soc_fallback)
        energy = row[ENERGY]
        rows.append(row)
    if n:
        out[:, :] = rows
    return energy
