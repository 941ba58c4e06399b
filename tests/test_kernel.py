"""Kernel exactness: the kernel against the frozen reference step rule.

Traces are compared as int64 bit patterns, because np.array_equal treats
-0.0 and 0.0 as equal while trace.csv does not. NaNs (from a NaN input) must
sit in the same places; their payload bits are not compared.
"""

import math
from itertools import islice
from unittest import mock

import numpy as np
import pytest
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


# --- stretches a pinned battery cannot change ---------------------------------

def pinned_case(kinds, energy0, nan_at=(), **overrides):
    """A hand-built horizon: "d" a deficit step, "c" a surplus step below the
    threshold, "i" an idle one (surplus above it), "x" an islanded deficit;
    params follow random_case's order."""
    rows = {"d": (150.0, 50.0, 1, 0.1), "c": (60.0, 200.0, 1, 0.1),
            "i": (60.0, 200.0, 1, 0.5), "x": (150.0, 50.0, 0, 0.5)}
    demand, pv, grid, price = (np.array(column, dtype=np.float64)
                               for column in zip(*map(rows.__getitem__, kinds)))
    demand[list(nan_at)] = math.nan
    params = dict(threshold=0.3, dt=1.0, cap=400.0, energy0=energy0,
                  e_min=80.0, e_max=320.0, sqrt_eta=math.sqrt(0.9),
                  max_chg=100.0, max_dis=150.0, imp_lim=250.0, exp_lim=200.0,
                  dg_cap=60.0, dg_min_frac=0.3, soc_fallback=0.2)
    params.update(overrides)
    return demand, pv, np.full(len(kinds), 10.0), grid.astype(np.uint8), \
        price, params


PINNED = {
    # at the floor: deficits with idle and islanded steps among them, then
    # a charge that frees the battery and a deficit that drains it again
    "deficit-at-floor": (pinned_case("d" * 40 + "didxdiid" * 20 + "c" + "d" * 30,
                                     80.0), True),
    # at the ceiling: surpluses with idle steps among them, then deficits
    "surplus-at-ceiling": (pinned_case("c" * 50 + "ciic" * 30 + "d" * 5,
                                       320.0), True),
    # no rate at all: every step of either sign leaves the energy alone
    "no-rates": (pinned_case("dcdiccddx" * 30, 200.0, max_chg=0.0,
                             max_dis=0.0), True),
    "no-charge-rate": (pinned_case("c" * 40 + "d" * 3 + "c" * 40, 200.0,
                                   max_chg=0.0), True),
    # a stretch that runs to the horizon's last step, of each sign
    "deficit-to-the-end": (pinned_case("cd" + "d" * 100, 80.0), True),
    "surplus-to-the-end": (pinned_case("d" + "c" * 100, 320.0), True),
    # NaN demands inside a stretch at the floor
    "nan-demand": (pinned_case("d" * 20 + "dxd" * 10 + "c" + "d" * 20, 80.0,
                               nan_at=(5, 6, 25, 60)), True),
    # an empty battery: its energy is a zero, whose sign a step may change,
    # so no stretch is skipped
    "empty-floor": (pinned_case("d" * 60 + "i" * 5 + "d" * 60, 0.0,
                                e_min=0.0), False),
    "empty-floor-negative-zero": (pinned_case("d" * 60 + "i" * 5 + "d" * 60,
                                              -0.0, e_min=0.0), False),
    "empty-no-capacity": (pinned_case("dcdi" * 30, 0.0, cap=0.0, e_min=0.0,
                                      e_max=0.0), False),
}


@pytest.mark.parametrize("name", PINNED)
def test_skipped_stretches_match_the_reference(name):
    case, skips = PINNED[name]
    with mock.patch.object(pykernel, "islice", wraps=islice) as jump:
        out = assert_matches_reference(pykernel.run_kernel, case)
    assert jump.called == skips
    if skips:
        # the stored energy holds still over the skipped stretch
        assert (np.diff(out[:, pykernel.ENERGY]) == 0.0).mean() > 0.5
