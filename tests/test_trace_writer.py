"""trace.csv writer: byte equality with the frozen row-loop reference."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mgems._kernel import DISCHARGE
from mgems.cli import _TRACE_CHUNK_ROWS, trace_csv_bytes
from mgems.dispatch import initial_state, run_arrays
from mgems.profiles import Profile

from conftest import SPLIT_THRESHOLDS, make_config, split_from
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


@SPLIT_THRESHOLDS
@pytest.mark.parametrize("n", [1, _TRACE_CHUNK_ROWS - 1, _TRACE_CHUNK_ROWS,
                               _TRACE_CHUNK_ROWS + 1])
def test_writer_matches_the_reference_at_chunk_edges(n, min_rows):
    inputs, trace = with_negative_zero_discharge(*random_run(n, n), [0, n - 1])
    with split_from(min_rows):
        data = trace_csv_bytes(inputs, trace)
    assert isinstance(data, bytes)
    assert data == trace_csv_reference(inputs, trace)
    assert data.count(b"\n") == n + 1
    assert b",-0.0," in data


@SPLIT_THRESHOLDS
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3 * _TRACE_CHUNK_ROWS))
def test_writer_matches_the_reference_on_random_horizons(min_rows, seed, n):
    inputs, trace = with_negative_zero_discharge(*random_run(seed, n), [seed % n])
    with split_from(min_rows):
        data = trace_csv_bytes(inputs, trace)
    assert data == trace_csv_reference(inputs, trace)

