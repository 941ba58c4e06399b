"""Memory guards for the decade-scale I/O layers, measured with tracemalloc.

Peaks are counted in bytes allocated by Python and numpy while the call
runs, so they are deterministic and need no timing. The bounds are ratios
to the bytes read or written.
"""

import tracemalloc

import numpy as np
import pytest

from mgems.cli import trace_csv_bytes
from mgems.dispatch import initial_state, run_arrays
from mgems.profiles import GENERATION_HEADER, parse_profile

from conftest import make_config

STEPS = 24_000


@pytest.fixture(scope="module")
def profile_bytes() -> bytes:
    rng = np.random.default_rng(11)
    columns = [rng.uniform(0, 400, STEPS), np.round(rng.uniform(0, 0.6, STEPS), 5),
               (rng.random(STEPS) > 0.05).astype(int), rng.uniform(0, 300, STEPS),
               rng.uniform(0, 200, STEPS)]
    lines = [",".join(GENERATION_HEADER)]
    lines += [f"{i},{d!r},{p!r},{g},{a!r},{b!r}"
              for i, (d, p, g, a, b) in enumerate(zip(*(c.tolist() for c in columns)))]
    return ("\n".join(lines) + "\n").encode()


def peak_bytes(call):
    """The call's result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_parse_profile_peak_stays_within_six_times_its_input(profile_bytes):
    profile, peak = peak_bytes(lambda: parse_profile(profile_bytes, "generation"))
    assert len(profile) == STEPS
    assert peak <= 6.0 * len(profile_bytes), \
        f"peak {peak} B for {len(profile_bytes)} B of input"


def test_trace_writer_peak_stays_within_2_5_times_its_output(profile_bytes):
    inputs = parse_profile(profile_bytes, "generation")
    config = make_config()
    trace = run_arrays(inputs, initial_state(config.battery), config)
    data, peak = peak_bytes(lambda: trace_csv_bytes(inputs, trace))
    assert data.count(b"\n") == STEPS + 1
    assert peak <= 2.5 * len(data), f"peak {peak} B for {len(data)} B of output"
