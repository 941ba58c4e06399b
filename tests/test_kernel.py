"""Kernel exactness: the kernel against the frozen reference step rule.

Traces are compared as int64 bit patterns, because np.array_equal treats
-0.0 and 0.0 as equal while trace.csv does not. NaNs (from a NaN input) must
sit in the same places; their payload bits are not compared.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import mgems._kernel as pykernel
from kernel_reference import run_reference


def assert_same_bits(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))


def random_case(rng, n):
    demand = rng.uniform(0, 400, n)
    pv = rng.uniform(0, 300, n)
    wind = rng.uniform(0, 200, n)
    grid = (rng.random(n) > 0.25).astype(np.uint8)
    price = rng.uniform(0, 0.6, n)
    cap = float(rng.uniform(0, 900))
    soc_min = float(rng.uniform(0, 0.4))
    soc_max = float(rng.uniform(soc_min + 0.1, 1.0))
    params = dict(
        threshold=float(rng.uniform(0, 0.6)),
        dt=float(rng.choice([0.25, 0.5, 1.0])),
        cap=cap,
        energy0=soc_min * cap,
        e_min=soc_min * cap,
        e_max=soc_max * cap,
        sqrt_eta=math.sqrt(float(rng.uniform(0.5, 1.0))),
        max_chg=float(rng.uniform(0, 200)),
        max_dis=float(rng.uniform(0, 300)),
        imp_lim=float(rng.uniform(0, 400)),
        exp_lim=float(rng.uniform(0, 300)),
        dg_cap=float(rng.uniform(0, 120)),
        dg_min_frac=float(rng.choice([0.0, 0.0, 0.3])),
        soc_fallback=soc_min,
    )
    return demand, pv, wind, grid, price, params


def run_backend(run_kernel, case):
    demand, pv, wind, grid, price, params = case
    out = np.empty((len(demand), pykernel.N_COLUMNS), dtype=np.float64)
    final = run_kernel(demand, pv, wind, grid, price, *params.values(), out)
    return final, out


def assert_matches_reference(run_kernel, case):
    final, out = run_backend(run_kernel, case)
    ref_final, ref_out = run_backend(run_reference, case)
    assert_same_bits(out, ref_out)
    assert_same_bits(final, ref_final)
    return out


# --- the Python kernel against the reference ---------------------------------

def limit(hi):
    return st.one_of(st.just(0.0), st.floats(0.0, hi))


@st.composite
def cases(draw):
    """A horizon and a config; rows may tie exactly, be all zero or NaN."""
    threshold = draw(st.floats(0.0, 0.6))
    rows = draw(st.lists(st.tuples(
        st.floats(0.0, 400.0), st.floats(0.0, 300.0), st.floats(0.0, 200.0),
        st.booleans(), st.one_of(st.floats(0.0, 0.6), st.just(threshold)),
        st.sampled_from(["free", "tie", "zero", "nan"])), max_size=40))
    demand, pv, wind, grid, price = [], [], [], [], []
    for d, p, w, g, c, shape in rows:
        if shape == "zero":
            d = p = w = 0.0
        elif shape == "tie":
            d = p + w
        elif shape == "nan":
            d = math.nan
        demand.append(d)
        pv.append(p)
        wind.append(w)
        grid.append(g)
        price.append(c)
    cap = draw(limit(900.0))
    soc_min = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.4)))
    soc_max = draw(st.floats(soc_min, 1.0))
    soc0 = draw(st.floats(soc_min, soc_max))
    params = dict(
        threshold=threshold,
        dt=draw(st.sampled_from([0.25, 0.5, 1.0])),
        cap=cap,
        energy0=soc0 * cap,
        e_min=soc_min * cap,
        e_max=soc_max * cap,
        sqrt_eta=math.sqrt(draw(st.floats(0.5, 1.0))),
        max_chg=draw(limit(200.0)),
        max_dis=draw(limit(300.0)),
        imp_lim=draw(limit(400.0)),
        exp_lim=draw(limit(300.0)),
        dg_cap=draw(limit(120.0)),
        dg_min_frac=draw(st.sampled_from([0.0, 0.3, 1.0])),
        soc_fallback=soc_min,
    )
    return (np.array(demand, dtype=np.float64), np.array(pv, dtype=np.float64),
            np.array(wind, dtype=np.float64), np.array(grid, dtype=np.uint8),
            np.array(price, dtype=np.float64), params)


@settings(max_examples=300, deadline=None)
@given(cases())
def test_python_kernel_matches_the_reference_step_rule(case):
    assert_matches_reference(pykernel.run_kernel, case)


def test_python_kernel_matches_the_reference_on_random_horizons():
    rng = np.random.default_rng(42)
    for _ in range(100):
        case = random_case(rng, int(rng.integers(1, 200)))
        assert_matches_reference(pykernel.run_kernel, case)
    # a year of hourly steps: long enough for the energy recurrence to drift
    # if any step rounded differently
    assert_matches_reference(pykernel.run_kernel, random_case(rng, 8760))


def test_python_kernel_keeps_the_negative_zero_discharge_of_a_tie():
    rng = np.random.default_rng(9)
    demand, pv, wind, grid, price, params = random_case(rng, 1)
    demand = pv + wind
    params.update(energy0=params["e_max"])  # discharge headroom available
    out = assert_matches_reference(
        pykernel.run_kernel, (demand, pv, wind, grid, price, params))
    assert math.copysign(1.0, out[0, pykernel.DISCHARGE]) == -1.0


def test_python_kernel_on_an_empty_horizon():
    rng = np.random.default_rng(1)
    case = random_case(rng, 0)
    out = assert_matches_reference(pykernel.run_kernel, case)
    assert out.shape == (0, pykernel.N_COLUMNS)
    assert run_backend(pykernel.run_kernel, case)[0] == case[-1]["energy0"]
