"""Scenario construction, application, and matrix orchestration tests."""

import contextlib
import dataclasses
import gc
import os
import select
import signal
import struct
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgems import dispatch, scenarios
from mgems._kernel import ENERGY, IMPORT
from mgems.cli import main, matrix_csv_bytes, report_json_bytes
from mgems.dispatch import initial_state, price_threshold, run_arrays
from mgems.errors import BalanceError
from mgems.metrics import accumulate, renewable_fraction
from mgems.model import EmsConfig
from mgems.profiles import Profile
from mgems.scenarios import (BASE_KEY, BUILTIN_IDS, IDENTITY_SCENARIO,
                             OutageSpec, Scenario, apply_scenario,
                             builtin_scenario, run_matrix, validate_scenario)

from conftest import data_path, horizon, make_config, split_from


@pytest.fixture(autouse=True)
def no_file_descriptor_leaks():
    """Each test leaves as many file descriptors open as it found: every
    path of the matrix, the fork's included, closes its claims pipe."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = len(os.listdir("/proc/self/fd"))
    yield
    if len(os.listdir("/proc/self/fd")) != before:
        gc.collect()   # closes a descriptor that only garbage still holds
        assert len(os.listdir("/proc/self/fd")) == before


def day(n=24, demand=100.0, price=0.2, pv=50.0, wind=10.0):
    return horizon(demand=np.broadcast_to(demand, n), price=price, pv=pv,
                   wind=wind)


def test_builtin_condition_changes_are_exact():
    s1 = builtin_scenario("S1")
    assert s1.demand_multiplier == 1.05
    assert (s1.pv_multiplier, s1.wind_multiplier,
            s1.fuel_price_multiplier) == (1.0, 1.0, 1.0)
    assert s1.outage is None

    s2 = builtin_scenario("S2")
    assert s2.pv_multiplier == 0.80
    assert s2.wind_multiplier == 0.60
    assert s2.demand_multiplier == 1.0

    s3 = builtin_scenario("S3")
    assert s3.outage == OutageSpec(duration_hours=6.0)
    assert s3.demand_multiplier == 1.0

    s4 = builtin_scenario("S4")
    assert s4.fuel_price_multiplier == 2.0
    assert s4.outage is None

    with pytest.raises(ValueError):
        builtin_scenario("S9")


def test_identity_scenario_is_bit_exact_identity():
    config = make_config()
    inputs = day()
    new_inputs, new_config = apply_scenario(inputs, config, IDENTITY_SCENARIO)
    assert new_inputs == inputs
    assert new_config == config


def test_s1_scales_demand_pointwise():
    config = make_config()
    inputs = horizon(demand=235.2, price=0.2808)
    scaled, _ = apply_scenario(inputs, config, builtin_scenario("S1"))
    assert scaled.demand_kw[0] == pytest.approx(246.96, rel=1e-12)
    assert scaled.demand_kw[0] == 235.2 * 1.05
    assert scaled.pv_kw[0] == 0.0
    assert scaled.price[0] == 0.2808


def test_s2_scales_renewables_only():
    config = make_config()
    scaled, _ = apply_scenario(day(n=1, pv=100.0, wind=50.0), config,
                               builtin_scenario("S2"))
    assert scaled.pv_kw[0] == pytest.approx(80.0)
    assert scaled.wind_kw[0] == pytest.approx(30.0)
    assert scaled.demand_kw[0] == 100.0


def test_s4_scales_fuel_price_only():
    config = make_config()
    inputs, new_config = apply_scenario(day(), config, builtin_scenario("S4"))
    assert new_config.diesel.fuel_cost_per_kwh == 2.0
    assert new_config.diesel.capacity_kw == config.diesel.capacity_kw
    assert inputs == day()


def test_outage_window_forces_grid_unavailable_exactly_there():
    config = make_config(ems=EmsConfig(threshold_mode="fixed-price",
                                       fixed_threshold=0.25))
    scenario = Scenario(id="x", outage=OutageSpec(start_step=16,
                                                  duration_steps=6))
    scaled, _ = apply_scenario(day(), config, scenario)
    available = scaled.grid_available.tolist()
    assert available == [True] * 16 + [False] * 6 + [True] * 2


def test_outage_duration_hours_converts_with_step_length():
    config = make_config(step_hours=0.5,
                         ems=EmsConfig(threshold_mode="fixed-price",
                                       fixed_threshold=0.25))
    scenario = Scenario(id="x", outage=OutageSpec(start_step=0,
                                                  duration_hours=6.0))
    scaled, _ = apply_scenario(day(48), config, scenario)
    assert sum(1 for g in scaled.grid_available if not g) == 12


def test_default_outage_start_is_first_step_above_threshold():
    config = make_config(ems=EmsConfig(threshold_mode="fixed-price",
                                       fixed_threshold=0.25))
    price = np.full(24, 0.2)
    price[5], price[9] = 0.30, 0.40
    scaled, _ = apply_scenario(day(price=price), config,
                               Scenario(id="x", outage=OutageSpec(
                                   duration_steps=3)))
    available = scaled.grid_available.tolist()
    assert available == [True] * 5 + [False] * 3 + [True] * 16


def test_outage_window_must_fit_horizon():
    config = make_config()
    with pytest.raises(ValueError, match="does not fit"):
        apply_scenario(day(), config,
                       Scenario(id="x", outage=OutageSpec(start_step=20,
                                                          duration_steps=6)))
    with pytest.raises(ValueError, match="does not fit"):
        apply_scenario(day(), config,
                       Scenario(id="x", outage=OutageSpec(start_step=-1,
                                                          duration_steps=2)))


def test_nonpositive_multiplier_is_rejected():
    config = make_config()
    with pytest.raises(ValueError, match="demand_multiplier"):
        apply_scenario(day(), config, Scenario(id="x", demand_multiplier=0.0))


@pytest.mark.parametrize("name", ["demand_multiplier", "pv_multiplier",
                                  "wind_multiplier", "fuel_price_multiplier"])
def test_infinite_multiplier_is_rejected(name):
    config = make_config()
    scenario = dataclasses.replace(IDENTITY_SCENARIO, **{name: float("inf")})
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        apply_scenario(day(), config, scenario)


@pytest.mark.parametrize("scenario,message", [
    (Scenario(id="x", pv_multiplier=float("nan")),
     "pv_multiplier must be finite and > 0, got nan"),
    (Scenario(id="x", wind_multiplier=-0.0),
     "wind_multiplier must be finite and > 0, got -0.0"),
    (Scenario(id="x", outage=OutageSpec(duration_hours=float("-inf"))),
     "outage duration_hours -inf is not a finite number of steps"),
    (Scenario(id="x", outage=OutageSpec(duration_hours=0.4)),
     "outage duration must cover at least one step, got 0"),
    (Scenario(id="x", outage=OutageSpec(start_step=3)),
     "outage needs duration_steps or duration_hours"),
    (Scenario(id="x", outage=OutageSpec(start_step=-1, duration_steps=2)),
     "outage window [-1, 1) does not fit any horizon: start_step must be >= 0"),
])
def test_validate_scenario_names_the_bad_field(scenario, message):
    with pytest.raises(ValueError) as exc:
        validate_scenario(scenario, 1.0)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        apply_scenario(day(), make_config(), scenario)
    assert str(exc.value) == f"scenario x: {message}"


def test_validate_scenario_accepts_the_builtins_and_a_late_outage():
    for scenario_id in BUILTIN_IDS:
        validate_scenario(builtin_scenario(scenario_id), 1.0)
    # the window's fit depends on the profile, so it is left to apply_scenario
    validate_scenario(Scenario(id="x", outage=OutageSpec(start_step=10**9,
                                                         duration_steps=2)), 0.25)


@pytest.mark.parametrize("scenario,message", [
    (Scenario(id="x", outage=OutageSpec(start_step=0, duration_steps=2.5)),
     "outage duration_steps must be an integer, got 2.5"),
    (Scenario(id="x", outage=OutageSpec(start_step=0,
                                        duration_steps=float("nan"))),
     "outage duration_steps must be an integer, got nan"),
    (Scenario(id="x", outage=OutageSpec(start_step=1.5, duration_steps=2)),
     "outage start_step must be an integer, got 1.5"),
    (Scenario(id="x", demand_multiplier="2"),
     "demand_multiplier must be a real number, got '2'"),
    (Scenario(id="x", demand_multiplier=None),
     "demand_multiplier must be a real number, got None"),
    (Scenario(id="x", outage=OutageSpec(duration_hours="6")),
     "outage duration_hours must be a real number, got '6'"),
], ids=["steps-2.5", "steps-nan", "start-1.5", "multiplier-str",
        "multiplier-None", "hours-str"])
def test_a_value_of_the_wrong_type_is_rejected_by_name(
        example_config, example_inputs, scenario, message):
    config = example_config.config
    with pytest.raises(ValueError) as exc:
        validate_scenario(scenario, config.step_hours)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        apply_scenario(example_inputs, config, scenario)
    assert str(exc.value) == f"scenario x: {message}"
    outcome = run_matrix(example_inputs, config, [scenario])["x"]
    assert outcome.error == f"scenario x: {message}"


def test_numpy_numbers_are_integers_and_real_numbers():
    as_numpy = Scenario(id="x", demand_multiplier=np.float32(1.5),
                        outage=OutageSpec(start_step=np.int64(2),
                                          duration_steps=np.uint8(3)))
    as_python = Scenario(id="x", demand_multiplier=1.5,
                         outage=OutageSpec(start_step=2, duration_steps=3))
    got = apply_scenario(day(), make_config(), as_numpy)
    assert got == apply_scenario(day(), make_config(), as_python)


def test_a_scenario_shares_the_columns_it_leaves_unscaled(example_config,
                                                          example_inputs):
    outcomes = run_matrix(example_inputs, example_config.config,
                          [builtin_scenario("S1"), builtin_scenario("S4")])
    s1, s4 = outcomes["S1"].inputs, outcomes["S4"].inputs
    for column in ("demand_kw", "price", "grid_available", "pv_kw",
                   "wind_kw"):
        assert getattr(s4, column) is getattr(example_inputs, column)
    assert s1.pv_kw is example_inputs.pv_kw
    assert s1.wind_kw is example_inputs.wind_kw
    assert s1.demand_kw is not example_inputs.demand_kw


@pytest.mark.parametrize("outage,ems,message", [
    (OutageSpec(start_step=20, duration_steps=6), None,
     "outage window [20, 26) does not fit the 24-step horizon"),
    (OutageSpec(duration_hours=6.0),
     EmsConfig(threshold_mode="load-threshold", load_threshold_kw=150.0),
     "no step above the threshold; set the outage start explicitly"),
])
def test_a_window_the_profile_rejects_names_the_scenario(outage, ems, message):
    config = make_config() if ems is None else make_config(ems=ems)
    with pytest.raises(ValueError) as exc:
        apply_scenario(day(), config, Scenario(id="x", outage=outage))
    assert str(exc.value) == f"scenario x: {message}"


@pytest.mark.parametrize("hours", [float("inf"), float("nan")])
def test_non_finite_outage_duration_is_rejected_by_name(hours):
    config = make_config()
    outage = OutageSpec(start_step=0, duration_hours=hours)
    with pytest.raises(ValueError, match="outage duration_hours"):
        apply_scenario(day(), config, Scenario(id="x", outage=outage))


def test_s1_total_demand_scales_exactly(example_config, example_inputs):
    config = example_config.config
    scaled, _ = apply_scenario(example_inputs, config, builtin_scenario("S1"))
    base_total = sum(example_inputs.demand_kw.tolist())
    assert sum(scaled.demand_kw.tolist()) == pytest.approx(
        base_total * 1.05, rel=1e-12)
    base = run_arrays(example_inputs, initial_state(config.battery), config)
    run = run_arrays(scaled, initial_state(config.battery), config)
    base_totals, _ = accumulate(base, example_inputs, 1.0)
    new_totals, _ = accumulate(run, scaled, 1.0)
    assert new_totals.served_kwh + new_totals.unserved_kwh == pytest.approx(
        (base_totals.served_kwh + base_totals.unserved_kwh) * 1.05, rel=1e-9)


def test_run_matrix_empty_set_returns_base_only(example_config, example_inputs):
    outcomes = run_matrix(example_inputs, example_config.config, [])
    assert set(outcomes) == {BASE_KEY}
    base = outcomes[BASE_KEY]
    assert base.error is None
    assert base.deltas["operating_cost"] == 0.0


def test_run_matrix_outcomes_and_determinism(example_config, example_inputs):
    config = example_config.config
    scenarios = [builtin_scenario(s) for s in ("S1", "S2", "S3", "S4")]
    first = run_matrix(example_inputs, config, scenarios)
    second = run_matrix(example_inputs, config, scenarios)
    assert set(first) == {BASE_KEY, "S1", "S2", "S3", "S4"}
    for key in first:
        assert first[key].deltas == second[key].deltas
        assert first[key].report == second[key].report


def test_run_matrix_isolates_failing_scenarios(example_config, example_inputs):
    config = example_config.config
    bad = Scenario(id="broken", outage=OutageSpec(start_step=100,
                                                  duration_steps=6))
    outcomes = run_matrix(example_inputs, config,
                          [builtin_scenario("S1"), bad])
    assert outcomes["S1"].error is None
    assert outcomes["broken"].error is not None
    assert outcomes["broken"].report is None
    assert "does not fit" in outcomes["broken"].error


def test_s2_never_increases_renewable_fraction():
    rng = np.random.default_rng(17)
    config = make_config(ems=EmsConfig(threshold_mode="fixed-price",
                                       fixed_threshold=0.25))
    config = dataclasses.replace(
        config, grid=dataclasses.replace(config.grid, import_limit_kw=1e6))
    s2 = builtin_scenario("S2")
    for _ in range(100):
        n = int(rng.integers(4, 30))
        # drawn step by step, so each seed gives the same horizons as ever
        demand, price, pv, wind = zip(*[
            (rng.uniform(10, 250), rng.uniform(0, 0.5), rng.uniform(0, 250),
             rng.uniform(0, 120)) for _ in range(n)])
        inputs = horizon(demand=demand, price=price, pv=pv, wind=wind)
        scaled, s2_config = apply_scenario(inputs, config, s2)
        base_trace = run_arrays(inputs, initial_state(config.battery), config)
        s2_trace = run_arrays(scaled, initial_state(s2_config.battery),
                              s2_config)
        base_totals, _ = accumulate(base_trace, inputs, 1.0)
        s2_totals, _ = accumulate(s2_trace, scaled, 1.0)
        assert renewable_fraction(s2_totals) <= \
            renewable_fraction(base_totals) + 1e-9


def test_default_outage_start_in_load_threshold_mode_compares_demand():
    config = make_config(ems=EmsConfig(threshold_mode="load-threshold",
                                       load_threshold_kw=150.0))
    demand = np.full(24, 100.0)  # price 0.2 never exceeds a 150 kW threshold
    demand[7], demand[12] = 180.0, 200.0
    scaled, _ = apply_scenario(day(demand=demand), config,
                               builtin_scenario("S3"))
    available = scaled.grid_available.tolist()
    assert available == [True] * 7 + [False] * 6 + [True] * 11


def test_default_outage_start_needs_a_step_above_the_threshold():
    config = make_config(ems=EmsConfig(threshold_mode="load-threshold",
                                       load_threshold_kw=150.0))
    with pytest.raises(ValueError, match="no step above the threshold"):
        apply_scenario(day(), config, builtin_scenario("S3"))


multiplier = st.floats(min_value=0.01, max_value=10.0)
column = st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                  max_size=30)


@given(column, multiplier, multiplier, multiplier)
def test_apply_scenario_equals_per_row_python_products(values, dm, pm, wm):
    inputs = horizon(demand=values, price=0.1, pv=[v / 3.0 for v in values],
                     wind=[v * 0.7 for v in values])
    scenario = Scenario(id="x", demand_multiplier=dm, pv_multiplier=pm,
                        wind_multiplier=wm)
    scaled, _ = apply_scenario(inputs, make_config(), scenario)
    for name, m in (("demand_kw", dm), ("pv_kw", pm), ("wind_kw", wm)):
        assert getattr(scaled, name).tolist() == \
            [v * m for v in getattr(inputs, name).tolist()]
    assert scaled.grid_available.tolist() == inputs.grid_available.tolist()
    assert scaled.price is inputs.price  # unchanged columns are shared


def test_apply_scenario_outage_leaves_the_base_profile_unchanged():
    config = make_config()
    inputs = day()
    scenario = Scenario(id="x", outage=OutageSpec(start_step=2,
                                                  duration_steps=3))
    scaled, _ = apply_scenario(inputs, config, scenario)
    assert list(scaled.grid_available[:6]) == [1, 1, 0, 0, 0, 1]
    assert inputs.grid_available.all()


# A matrix over the example day that mixes multiplier scenarios, an
# explicit outage, a default-start outage (S3) and one window the day
# rejects: base plus six runs, which a split shares between this process
# and the child.
MIXED = [builtin_scenario("S1"), builtin_scenario("S2"),
         Scenario(id="window", outage=OutageSpec(start_step=5,
                                                 duration_steps=4)),
         Scenario(id="late", outage=OutageSpec(start_step=20,
                                               duration_steps=6)),
         builtin_scenario("S3"), builtin_scenario("S4"),
         Scenario(id="mixed", demand_multiplier=1.1, pv_multiplier=0.9,
                  wind_multiplier=1.2, fuel_price_multiplier=1.5)]


def bits(value) -> bytes:
    return struct.pack("<d", value)


def assert_same_outcomes(got, want):
    """Bit for bit: order, traces, their scalars, profiles and reports."""
    assert list(got) == list(want)
    order = list(want)
    assert matrix_csv_bytes(got, order) == matrix_csv_bytes(want, order)
    for key, expected in want.items():
        outcome = got[key]
        assert outcome.error == expected.error
        if expected.trace is None:
            assert outcome.trace is outcome.report is outcome.inputs is None
            continue
        trace, reference = outcome.trace, expected.trace
        assert trace.columns.shape == reference.columns.shape
        # a trace received from the child is column-major too
        assert trace.columns.flags.f_contiguous
        assert trace.columns.tobytes() == reference.columns.tobytes()
        assert trace.grid_available.tobytes() == \
            reference.grid_available.tobytes()
        for field in ("threshold", "initial_energy_kwh", "final_energy_kwh"):
            assert bits(getattr(trace, field)) == \
                bits(getattr(reference, field))
        assert trace.final_energy_kwh == reference.columns[-1, ENERGY]
        for column in ("demand_kw", "price", "grid_available", "pv_kw",
                       "wind_kw"):
            assert getattr(outcome.inputs, column).tobytes() == \
                getattr(expected.inputs, column).tobytes()
        assert report_json_bytes(outcome.report) == \
            report_json_bytes(expected.report)


def in_one_process(inputs, config, matrix):
    with mock.patch.object(os, "fork",
                           side_effect=AssertionError("forked")):
        return run_matrix(inputs, config, matrix)


def split_once(inputs, config, matrix):
    with split_from(2), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        outcomes = run_matrix(inputs, config, matrix)
    assert fork.call_count == 1
    return outcomes


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def both_take_runs(action=None, at=1):
    """Patch the matrix's run_arrays so that both processes take runs by a
    handshake, not by timing: this process's first run waits, up to 10 s,
    for a byte the child writes as it starts its ``at``-th run, and from
    that run on the child calls ``action`` before each run. The child's
    first run waits, up to 10 s, until this process has begun its own, so
    the child cannot claim every run first. Yields the ids of the inputs
    each process dispatched, "here" and "child" (filled in when the block
    ends), and whether the wait saw the byte ("met").
    """
    parent = os.getpid()
    real = scenarios.run_arrays
    started, start = os.pipe()
    began, begin = os.pipe()
    record, log = os.pipe()
    calls = []
    taken = {"here": [], "child": [], "met": False}

    def run(inputs, *args):
        calls.append(1)
        if os.getpid() == parent:
            if len(calls) == 1:
                os.write(begin, b"\0")
                taken["met"] = bool(select.select([started], [], [], 10)[0])
            taken["here"].append(id(inputs))
        else:
            os.write(log, struct.pack("<Q", id(inputs)))
            if len(calls) == at:
                os.write(start, b"\0")
            if len(calls) == 1:
                select.select([began], [], [], 10)
            if len(calls) >= at and action is not None:
                action()
        return real(inputs, *args)
    try:
        with mock.patch.object(scenarios, "run_arrays", run):
            yield taken
        os.close(log)
        with open(record, "rb", closefd=False) as pipe:
            data = pipe.read()
        taken["child"] = [value for value, in struct.iter_unpack("<Q", data)]
    finally:
        for fd in (started, start, began, begin, record, log):
            with contextlib.suppress(OSError):
                os.close(fd)


def dispatched(outcomes):
    """The ids of the inputs of every run the matrix dispatched."""
    return sorted(id(o.inputs) for o in outcomes.values()
                  if o.error is None)


def test_a_split_matrix_equals_the_one_process_matrix(example_config,
                                                      example_inputs):
    config = example_config.config
    one = in_one_process(example_inputs, config, MIXED)
    assert [key for key, o in one.items() if o.error] == ["late"]
    with both_take_runs() as taken:
        two = split_once(example_inputs, config, MIXED)
    assert_same_outcomes(two, one)
    assert taken["met"]
    # each run was dispatched once, in one process or the other
    assert sorted(taken["here"] + taken["child"]) == dispatched(two)
    assert taken["here"] and taken["child"]
    assert_no_child_left()


def _raise():
    raise RuntimeError("the child's run failed")


def _child_exits(code):
    """Patch os._exit to exit with ``code``: the child marks its runs done
    first."""
    real_exit = os._exit
    return mock.patch.object(os, "_exit", lambda status: real_exit(code))


# (context, child action, the child's run it starts at)
@pytest.mark.parametrize("failure,action,at", [
    pytest.param(contextlib.nullcontext,
                 lambda: os.kill(os.getpid(), signal.SIGKILL), 1,
                 id="sigkill"),
    pytest.param(contextlib.nullcontext, lambda: os._exit(3), 1, id="exit-3"),
    pytest.param(contextlib.nullcontext, _raise, 1, id="raises"),
    pytest.param(contextlib.nullcontext, lambda: os._exit(0), 1,
                 id="exit-0-with-a-claimed-run-unmarked"),
    pytest.param(lambda: _child_exits(7), None, 1,
                 id="exit-7-after-marking-its-runs"),
    pytest.param(contextlib.nullcontext, lambda: os._exit(5), 2,
                 id="exit-5-in-its-second-run"),
])
def test_a_failed_child_leaves_the_same_outcomes(example_config,
                                                 example_inputs, failure,
                                                 action, at):
    config = example_config.config
    one = in_one_process(example_inputs, config, MIXED)
    with failure(), both_take_runs(action, at) as taken:
        two = split_once(example_inputs, config, MIXED)
    assert_same_outcomes(two, one)
    assert taken["met"] and len(taken["child"]) >= at
    # the child left no run both marked done and followed by exit status 0,
    # so this process dispatched every run, each once
    assert sorted(taken["here"]) == dispatched(two)
    assert_no_child_left()


def test_a_child_that_claims_nothing_leaves_the_same_outcomes(
        example_config, example_inputs):
    """The child reads its first claim only after this process has taken
    every run, so it finds the claims used up."""
    config = example_config.config
    one = in_one_process(example_inputs, config, MIXED)
    taken, take = os.pipe()
    real_fork, real_waitpid = os.fork, os.waitpid

    def fork():
        pid = real_fork()
        if pid == 0:
            select.select([taken], [], [], 10)
        return pid

    def waitpid(pid, options):
        os.write(take, b"\0")   # this process has taken every run
        return real_waitpid(pid, options)
    try:
        with split_from(2), mock.patch.object(os, "fork", fork), \
                mock.patch.object(os, "waitpid", waitpid), \
                mock.patch.object(scenarios, "run_arrays",
                                  wraps=scenarios.run_arrays) as runs:
            assert_same_outcomes(run_matrix(example_inputs, config, MIXED),
                                 one)
    finally:
        os.close(taken)
        os.close(take)
    assert runs.call_count == 7
    assert_no_child_left()


@pytest.mark.parametrize("count", [1, 2, 1023, 1024, 1025, 4097, 10**6])
def test_the_claims_fit_one_page_and_cover_each_run_once(count):
    claims = scenarios._claims(count)
    assert len(claims) <= 4096
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, claims)
        os.close(write_fd)
        assert list(scenarios._claimed(read_fd, count)) == list(range(count))
    finally:
        os.close(read_fd)
        with contextlib.suppress(OSError):
            os.close(write_fd)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_error_in_this_process_half_kills_and_reaps_the_child(
        example_config, example_inputs, error):
    parent = os.getpid()
    real = scenarios._run

    def run(*args):
        if os.getpid() != parent:
            time.sleep(20)   # killed, not waited for
        else:
            raise error("this process's run failed")
        return real(*args)

    started = time.monotonic()
    with mock.patch.object(scenarios, "_run", run), \
            pytest.raises(error, match="this process's run failed"):
        split_once(example_inputs, example_config.config, MIXED)
    assert time.monotonic() - started < 10
    assert_no_child_left()


@contextlib.contextmanager
def _a_second_thread():
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        yield
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()


@contextlib.contextmanager
def _sigchld_ignored():
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        yield
    finally:
        signal.signal(signal.SIGCHLD, previous)


@pytest.mark.parametrize("condition", [_a_second_thread, _sigchld_ignored],
                         ids=["a-second-thread", "sigchld-ignored"])
def test_no_fork_while(example_config, example_inputs, condition):
    config = example_config.config
    one = in_one_process(example_inputs, config, MIXED)
    with condition(), split_from(2):
        assert_same_outcomes(in_one_process(example_inputs, config, MIXED),
                             one)


def test_a_single_run_is_never_split_however_long(example_config,
                                                  example_inputs):
    unfit = Scenario(id="late", outage=OutageSpec(start_step=24,
                                                  duration_steps=1))
    with split_from(2):
        outcomes = in_one_process(example_inputs, example_config.config,
                                  [unfit])
    assert outcomes[BASE_KEY].error is None
    assert "does not fit" in outcomes["late"].error


def test_a_failed_fork_leaves_every_run_to_this_process(example_config,
                                                        example_inputs):
    config = example_config.config
    one = in_one_process(example_inputs, config, MIXED)
    with split_from(2), mock.patch.object(
            os, "fork", side_effect=BlockingIOError("fork: no pids left")) \
            as fork:
        assert_same_outcomes(run_matrix(example_inputs, config, MIXED), one)
    assert fork.call_count == 1


CHILD_SCRIPT = textwrap.dedent("""
    import importlib.resources
    import os
    import sys

    from mgems import scenarios
    from mgems.configio import load_config
    from mgems.profiles import load_profile

    data = importlib.resources.files("mgems") / "data"
    loaded = load_config(data / "example_config.ini")
    inputs = load_profile(data / "example_day.csv", "generation",
                          loaded.config, loaded.price_unit)
    matrix = [scenarios.builtin_scenario(s) for s in scenarios.BUILTIN_IDS]
    one = scenarios.run_matrix(inputs, loaded.config, matrix)

    scenarios.MIN_KERNEL_STEPS = 2
    os.sched_getaffinity = lambda pid: {0, 1}
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    os.fork = counting_fork

    assert not sys.stdout.write_through   # the line below stays buffered
    print("written before the fork")
    two = scenarios.run_matrix(inputs, loaded.config, matrix)
    same = all(two[key].trace.columns.tobytes()
               == one[key].trace.columns.tobytes() for key in one)
    print(same, len(forks), file=sys.stderr)
""")


def test_the_child_does_not_flush_inherited_stdio_buffers(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    # stdout is a pipe, so block-buffered unless the environment says
    # otherwise: the line is still in the buffer when the matrix forks
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-c", CHILD_SCRIPT],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["True", "1"]
    assert proc.stdout == "written before the fork\n"


THRESHOLD_MODES = [
    EmsConfig(threshold_mode="fixed-price", fixed_threshold=0.25),
    EmsConfig(threshold_mode="price-percentile", percentile=0.75),
    EmsConfig(threshold_mode="load-threshold", load_threshold_kw=150.0),
]


@st.composite
def matrices(draw):
    """A random horizon of 1-48 steps, a config in one of the threshold
    modes, and 1-6 scenarios, of which one may not apply."""
    n = draw(st.integers(1, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inputs = Profile(demand_kw=rng.uniform(0, 250, n),
                     price=rng.uniform(0.05, 0.4, n),
                     grid_available=(rng.random(n) < 0.8).astype(np.uint8),
                     pv_kw=rng.uniform(0, 200, n),
                     wind_kw=rng.uniform(0, 80, n))
    factor = st.floats(0.5, 2.0, exclude_min=True, exclude_max=True)
    outage = st.none() | st.builds(
        OutageSpec, start_step=st.none() | st.integers(0, n - 1),
        duration_steps=st.integers(1, n))
    matrix = [Scenario(id=f"X{i}", demand_multiplier=draw(factor),
                       pv_multiplier=draw(factor),
                       wind_multiplier=draw(factor),
                       fuel_price_multiplier=draw(factor),
                       outage=draw(outage))
              for i in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(matrix) - 1))
        matrix[i] = Scenario(id=f"X{i}", outage=OutageSpec(start_step=n,
                                                          duration_steps=1))
    ems = draw(st.sampled_from(THRESHOLD_MODES))
    return inputs, make_config(ems=ems), matrix


@settings(max_examples=25, deadline=None)
@given(matrices())
def test_a_split_equals_one_process_for_any_matrix(drawn):
    inputs, config, matrix = drawn
    one = in_one_process(inputs, config, matrix)
    with split_from(2), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        assert_same_outcomes(run_matrix(inputs, config, matrix), one)
    # every run that is not an applied scenario's failure is dispatched
    runs = sum(outcome.error is None for outcome in one.values())
    assert fork.call_count == int(runs >= 2)
    assert_no_child_left()


def _kernel_failing_for(demand0, error):
    """A _kernel_run that raises ``error`` for the run whose first demand
    is ``demand0`` and runs the kernel for every other."""
    real = dispatch._kernel_run

    def kernel(demand, *args):
        if demand[0] == demand0:
            raise error
        return real(demand, *args)
    return mock.patch.object(dispatch, "_kernel_run", kernel)


# first: run 1, which the child usually claims while this process's first
# run waits for it; last: run 8
@pytest.mark.parametrize("position", ["first", "last"])
def test_a_scenario_whose_kernel_raises_fails_alone(example_config,
                                                    example_inputs, position):
    config = example_config.config
    boom = Scenario(id="boom", demand_multiplier=1.07)
    matrix = [boom] + MIXED if position == "first" else MIXED + [boom]
    demand0 = example_inputs.demand_kw[0] * 1.07
    clean = in_one_process(example_inputs, config, MIXED)
    with _kernel_failing_for(demand0, RuntimeError("kernel failed here")):
        one = in_one_process(example_inputs, config, matrix)
        with both_take_runs() as taken:
            two = split_once(example_inputs, config, matrix)
    assert_same_outcomes(two, one)
    assert taken["met"]
    assert one["boom"].error == "kernel failed here"
    assert one["boom"].report is None and one["boom"].trace is None
    del one["boom"]
    assert_same_outcomes(one, clean)
    assert_no_child_left()


@contextlib.contextmanager
def _base_fault(fault):
    """A _kernel_run that fails, in either process, for every run whose
    demand is the column the matrix applies its scenarios to: the base run,
    and each scenario's run that leaves demand unscaled and so shares it."""
    real, real_apply = dispatch._kernel_run, scenarios.apply_scenario
    bases = []

    def apply(inputs, *args):
        bases.append(inputs.demand_kw)
        return real_apply(inputs, *args)

    def kernel(demand, *args):
        final = real(demand, *args)
        if any(demand is base for base in bases):
            if fault == "raises":
                raise ValueError("the base run's kernel failed")
            args[-1][0, IMPORT] += 1.0   # breaks the power balance
        return final
    with mock.patch.object(dispatch, "_kernel_run", kernel), \
            mock.patch.object(scenarios, "apply_scenario", apply):
        yield


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("fault,error,message,exit_code", [
    ("unbalanced", BalanceError, "power balance residual", 4),
    ("raises", ValueError, "the base run's kernel failed", 2),
])
def test_a_failing_base_run_propagates(example_config, example_inputs,
                                       tmp_path, capsys, split, fault, error,
                                       message, exit_code):
    config = example_config.config
    with _base_fault(fault), pytest.raises(error, match=message):
        if split:
            split_once(example_inputs, config, MIXED)
        else:
            in_one_process(example_inputs, config, MIXED)
    assert_no_child_left()
    with _base_fault(fault), (split_from(2) if split
                              else contextlib.nullcontext()):
        code = main(["scenarios", "--config",
                     str(data_path("example_config.ini")), "--profile",
                     str(data_path("example_day.csv")), "--out",
                     str(tmp_path / "out"), "--scenarios", "all"])
    assert code == exit_code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert_no_child_left()


def _varied_day():
    rng = np.random.default_rng(23)
    return Profile(demand_kw=rng.uniform(50, 250, 48),
                   price=rng.uniform(0.05, 0.4, 48),
                   grid_available=np.ones(48, np.uint8),
                   pv_kw=rng.uniform(0, 200, 48),
                   wind_kw=rng.uniform(0, 80, 48))


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("ems", [
    EmsConfig(threshold_mode="fixed-price", fixed_threshold=0.25),
    EmsConfig(threshold_mode="price-percentile", percentile=0.75),
    EmsConfig(threshold_mode="load-threshold", load_threshold_kw=150.0),
], ids=lambda ems: ems.threshold_mode)
def test_the_threshold_is_resolved_once_per_matrix(ems, split):
    config = make_config(ems=ems)
    inputs = _varied_day()
    matrix = [builtin_scenario("S1"), builtin_scenario("S2"),
              builtin_scenario("S4"),
              Scenario(id="window", outage=OutageSpec(start_step=3,
                                                      duration_steps=5))]
    with mock.patch.object(scenarios, "price_threshold",
                           wraps=price_threshold) as resolve, \
            mock.patch.object(dispatch, "price_threshold",
                              side_effect=AssertionError("resolved per run")):
        if split:
            outcomes = split_once(inputs, config, matrix)
        else:
            outcomes = in_one_process(inputs, config, matrix)
    assert resolve.call_count == 1
    threshold = price_threshold(inputs.price, config.ems)
    assert [o.error for o in outcomes.values()] == [None] * 5
    for outcome in outcomes.values():
        assert bits(outcome.trace.threshold) == bits(threshold)
        alone = run_arrays(outcome.inputs, initial_state(config.battery),
                           config)
        assert outcome.trace.columns.tobytes() == alone.columns.tobytes()
        assert bits(outcome.trace.final_energy_kwh) == \
            bits(alone.final_energy_kwh)
    # the last step moves the battery, so a final energy read off any
    # other step would differ
    assert all(o.trace.columns[-1, ENERGY] != o.trace.columns[-2, ENERGY]
               for o in outcomes.values())


def test_a_default_start_outage_resolves_its_own_threshold():
    config = make_config()
    matrix = [builtin_scenario("S1"), builtin_scenario("S3"),
              Scenario(id="S3-again", outage=OutageSpec(duration_steps=2))]
    with mock.patch.object(scenarios, "price_threshold",
                           wraps=price_threshold) as resolve:
        run_matrix(_varied_day(), config, matrix)
    assert resolve.call_count == 3


@pytest.mark.parametrize("runs,splits", [(3, False), (4, True)])
def test_the_matrix_splits_from_its_kernel_step_minimum(runs, splits):
    steps = scenarios.MIN_KERNEL_STEPS // 4
    rng = np.random.default_rng(29)
    inputs = Profile(demand_kw=rng.uniform(50, 250, steps),
                     price=rng.uniform(0.05, 0.4, steps),
                     grid_available=np.ones(steps, np.uint8),
                     pv_kw=rng.uniform(0, 200, steps),
                     wind_kw=rng.uniform(0, 80, steps))
    matrix = [Scenario(id=f"D{k}", demand_multiplier=1 + k / 10)
              for k in range(1, runs)]
    with mock.patch.object(os, "sched_getaffinity", return_value={0, 1}), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        outcomes = run_matrix(inputs, make_config(), matrix)
    assert fork.call_count == int(splits)
    assert [o.error for o in outcomes.values()] == [None] * runs
    assert_no_child_left()


def test_the_example_days_matrix_stays_in_one_process(example_config,
                                                      example_inputs):
    with mock.patch.object(os, "sched_getaffinity", return_value={0, 1}):
        outcomes = in_one_process(example_inputs, example_config.config,
                                  [builtin_scenario(s) for s in BUILTIN_IDS]
                                  + MIXED[2:4] + MIXED[-1:])
    assert len(outcomes) == 8


@pytest.mark.parametrize("multiplier,column", [
    ("demand_multiplier", "demand_kw"), ("pv_multiplier", "pv_kw"),
    ("wind_multiplier", "wind_kw")])
def test_a_scaled_column_that_is_not_finite_is_named(multiplier, column):
    # step 1 overflows to inf; pytest turns a numpy warning into an error
    inputs = horizon(demand=[1.0, 2e8, 3e8], price=0.1, pv=[0.0, 2e8, 3e8],
                     wind=[1.0, 2e8, 0.0])
    scenario = Scenario(id="X", **{multiplier: 1e301})
    with pytest.raises(ValueError) as exc:
        apply_scenario(inputs, make_config(), scenario)
    cause = f"{column} scaled by 1e+301 is not finite at step 1"
    assert str(exc.value) == f"scenario X: {cause}"
    assert str(exc.value.__cause__) == cause
    outcome = run_matrix(inputs, make_config(), [scenario])["X"]
    assert outcome.error == f"scenario X: {cause}"


def replace_fuel(config, cost):
    return dataclasses.replace(config, diesel=dataclasses.replace(
        config.diesel, fuel_cost_per_kwh=cost))


def test_a_scaled_fuel_price_that_is_not_finite_is_named():
    config = make_config()
    scenario = Scenario(id="F", fuel_price_multiplier=1e308)
    with pytest.raises(ValueError) as exc:
        apply_scenario(day(), replace_fuel(config, 2.0), scenario)
    assert str(exc.value) == \
        "scenario F: fuel_cost_per_kwh scaled by 1e+308 is not finite"
    scaled = apply_scenario(day(), replace_fuel(config, 1e300), Scenario(
        id="G", fuel_price_multiplier=1e8))[1]
    assert scaled.diesel.fuel_cost_per_kwh == 1e300 * 1e8


def test_scenarios_names_a_scaled_demand_that_is_not_finite(tmp_path, capsys):
    config = tmp_path / "config.ini"
    config.write_text(data_path("example_config.ini").read_text()
                      + "\n[scenario:X]\ndemand_multiplier = 1e308\n")
    assert main(["scenarios", "--config", str(config), "--profile",
                 str(data_path("example_day.csv")), "--out",
                 str(tmp_path / "runs"), "--scenarios", "X"]) == 0
    assert capsys.readouterr().err == (
        "scenario X failed: scenario X: demand_kw scaled by 1e+308 is not "
        "finite at step 0\n")
