# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled dispatch kernel.

Transliteration of the frozen reference step rule in
tests/kernel_reference.py: same arithmetic, same operation order, so traces
are bit-identical to it and to the pure-Python backend (the build disables
floating-point contraction to keep it that way). A change of the step rule
must change _kernel.py and this file together; test_kernel checks parity.
"""


cdef inline double _min(double a, double b) noexcept nogil:
    return a if a < b else b


def run_kernel(const double[::1] demand, const double[::1] pv,
               const double[::1] wind, const unsigned char[::1] grid_ok,
               const double[::1] compare,
               double threshold, double dt, double cap, double energy0,
               double e_min, double e_max, double sqrt_eta,
               double max_chg, double max_dis, double imp_lim,
               double exp_lim, double dg_cap, double dg_min_frac,
               double soc_fallback, double[:, ::1] out):
    """Run the step rule over a horizon, filling the (n, 11) output matrix.

    The input columns are const so that read-only Profile arrays are accepted.
    """
    cdef Py_ssize_t n = demand.shape[0]
    cdef Py_ssize_t i
    cdef double energy = energy0
    cdef double ren, sur, chg, dis, dg, imp, exp, uns, curt
    cdef double head, eff_chg, eff_dis, rem, deficit, used, pv_used, d, p, w

    with nogil:
        for i in range(n):
            d = demand[i]
            p = pv[i]
            w = wind[i]
            ren = p + w
            sur = ren - d
            chg = 0.0
            dis = 0.0
            dg = 0.0
            imp = 0.0
            exp = 0.0
            uns = 0.0
            curt = 0.0

            head = (e_max - energy) / (sqrt_eta * dt)
            if head < 0.0:
                head = 0.0
            eff_chg = _min(max_chg, head)
            head = (energy - e_min) * sqrt_eta / dt
            if head < 0.0:
                head = 0.0
            eff_dis = _min(max_dis, head)

            if grid_ok[i]:
                if sur > 0.0:
                    if not (compare[i] > threshold):
                        chg = _min(sur, eff_chg)
                    rem = sur - chg
                    exp = _min(rem, exp_lim)
                    curt = rem - exp
                else:
                    deficit = -sur
                    dis = _min(deficit, eff_dis)
                    rem = deficit - dis
                    imp = _min(rem, imp_lim)
                    uns = rem - imp
            else:
                if sur > 0.0:
                    chg = _min(sur, eff_chg)
                    curt = sur - chg
                else:
                    deficit = -sur
                    dis = _min(deficit, eff_dis)
                    rem = deficit - dis
                    dg = _min(rem, dg_cap)
                    if dg > 0.0 and dg < dg_min_frac * dg_cap:
                        dg = 0.0
                    uns = rem - dg

            used = ren - curt
            pv_used = _min(p, used)
            energy = energy + chg * sqrt_eta * dt - (dis / sqrt_eta) * dt

            out[i, 0] = pv_used
            out[i, 1] = used - pv_used
            out[i, 2] = curt
            out[i, 3] = chg
            out[i, 4] = dis
            out[i, 5] = dg
            out[i, 6] = imp
            out[i, 7] = exp
            out[i, 8] = uns
            out[i, 9] = energy / cap if cap > 0.0 else soc_fallback
            out[i, 10] = energy

    return energy
