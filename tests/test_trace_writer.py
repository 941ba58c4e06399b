"""trace.csv writer: byte equality with the frozen row-loop reference.

The writer formats floats with orjson and falls back to repr for the rows
orjson lays out differently; the tests below pin orjson's digits on this
machine to repr's, over random bit patterns and at the fallback's edges.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mgems._kernel import DISCHARGE, SOC
from mgems.cli import _TRACE_CHUNK_ROWS, trace_csv_bytes
from mgems.dispatch import initial_state, run_arrays
from mgems.profiles import Profile

from conftest import make_config
from trace_reference import trace_csv_reference


def random_run(seed: int, n: int):
    """A dispatched n-step horizon with random grid outages."""
    rng = np.random.default_rng(seed)
    grid = (rng.random(n) > 0.1).astype(np.uint8)
    for start in rng.integers(0, n, size=3):
        grid[start:start + int(rng.integers(1, 30))] = 0
    inputs = Profile(demand_kw=rng.uniform(0, 400, n),
                     price=np.round(rng.uniform(0, 0.6, n), 4),
                     grid_available=grid,
                     pv_kw=np.where(rng.random(n) < 0.4, 0.0, rng.uniform(0, 300, n)),
                     wind_kw=rng.uniform(0, 200, n))
    config = make_config()
    return inputs, run_arrays(inputs, initial_state(config.battery), config)


def with_negative_zero_discharge(inputs, trace, rows):
    """The run with -0.0 written into the trace's discharge column at ``rows``."""
    columns = trace.columns.copy()
    columns[rows, DISCHARGE] = -0.0
    return inputs, dataclasses.replace(trace, columns=columns)


@pytest.mark.parametrize("n", [1, _TRACE_CHUNK_ROWS - 1, _TRACE_CHUNK_ROWS,
                               _TRACE_CHUNK_ROWS + 1])
def test_writer_matches_the_reference_at_chunk_edges(n):
    inputs, trace = with_negative_zero_discharge(*random_run(n, n), [0, n - 1])
    data = trace_csv_bytes(inputs, trace)
    assert isinstance(data, bytes)
    assert data == trace_csv_reference(inputs, trace)
    assert data.count(b"\n") == n + 1
    assert b",-0.0," in data


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3 * _TRACE_CHUNK_ROWS))
def test_writer_matches_the_reference_on_random_horizons(seed, n):
    inputs, trace = with_negative_zero_discharge(*random_run(seed, n), [seed % n])
    assert trace_csv_bytes(inputs, trace) == trace_csv_reference(inputs, trace)


def with_floats(inputs, trace, values):
    """The run with its 15 float cells per row replaced by ``values``.

    ``values`` is an (n, 15) float64 array in trace.csv's column order:
    demand, price, pv, wind, then the allocation columns PV_USED..SOC.
    """
    columns = trace.columns.copy()
    columns[:, :SOC + 1] = values[:, 4:]
    inputs = Profile(demand_kw=values[:, 0], price=values[:, 1],
                     grid_available=inputs.grid_available,
                     pv_kw=values[:, 2], wind_kw=values[:, 3])
    return inputs, dataclasses.replace(trace, columns=columns)


FLOAT_CELLS = 4 + SOC + 1

bit_patterns = st.lists(st.integers(0, 2**64 - 1), min_size=FLOAT_CELLS,
                        max_size=4 * FLOAT_CELLS)


@settings(max_examples=300, deadline=None)
@given(bit_patterns, st.integers(0, 2**32 - 1), st.floats(allow_nan=False))
def test_writer_matches_the_reference_on_raw_bit_patterns(bits, seed,
                                                          threshold):
    n = len(bits) // FLOAT_CELLS
    patterns = np.array(bits[:n * FLOAT_CELLS], dtype=np.uint64) \
        .reshape(n, FLOAT_CELLS)
    # a Profile holds only finite values >= 0: the input cells drop their
    # sign bit and are never NaN or infinite; the trace cells keep any bits
    patterns[:, :4] &= np.uint64(2**63 - 1)
    values = patterns.view(np.float64)
    assume(np.isfinite(values[:, :4]).all())
    inputs, trace = with_floats(*random_run(seed, n), values)
    trace = dataclasses.replace(trace, threshold=threshold)
    assert trace_csv_bytes(inputs, trace) == trace_csv_reference(inputs, trace)


# each side of the three edges where orjson and repr start or stop laying
# floats out differently, a value far below the lowest, the extremes of
# float64 and a signed zero: the values an input column can hold
EDGE_MAGNITUDES = [1e-10, 9.999999999999999e-10, 1e-9, 1e-05,
                   9.999999999999999e-05, 1e-4, 1.2746614836466278e-14,
                   5e-324, 2.2250738585072014e-308, 9999999999999998.0, 1e16,
                   1.5e16, 1.7976931348623157e308]
INPUT_EDGE_VALUES = EDGE_MAGNITUDES + [-0.0, 0.0]
# a trace column also takes the non-finite and the negative values, which
# a Profile rejects; every float column is laid out by one _float_rows
TRACE_EDGE_VALUES = INPUT_EDGE_VALUES + [float("nan"), float("inf"),
                                         float("-inf")] \
    + [-v for v in EDGE_MAGNITUDES]


@pytest.mark.parametrize("column,value", [
    pytest.param(column, value, id=f"{name}-{value!r}")
    for name, column, values in [
        ("demand", 0, INPUT_EDGE_VALUES), ("price", 1, INPUT_EDGE_VALUES),
        ("wind", 3, INPUT_EDGE_VALUES), ("pv_used", 4, TRACE_EDGE_VALUES),
        ("soc", FLOAT_CELLS - 1, TRACE_EDGE_VALUES)]
    for value in values])
def test_edge_values_match_the_reference_at_chunk_edges(column, value):
    n = 2 * _TRACE_CHUNK_ROWS + 1
    inputs, trace = random_run(17, n)
    values = np.column_stack((inputs.demand_kw, inputs.price, inputs.pv_kw,
                              inputs.wind_kw, trace.columns[:, :SOC + 1]))
    edges = [0, _TRACE_CHUNK_ROWS - 1, _TRACE_CHUNK_ROWS,
             _TRACE_CHUNK_ROWS + 1, n - 1]
    values[edges, column] = value
    inputs, trace = with_floats(inputs, trace, values)
    data = trace_csv_bytes(inputs, trace)
    assert data == trace_csv_reference(inputs, trace)
    lines = data.split(b"\n")
    for row in edges:
        cells = lines[row + 1].split(b",")
        # the index and the grid flag come before the 15 float cells
        cell = cells[1 + column + (column >= 2)]
        assert cell == repr(value).encode()

