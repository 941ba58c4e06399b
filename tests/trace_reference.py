"""Frozen reference for the trace writer: trace.csv built one row at a time.

trace_csv_reference is the row-loop writer exactly as mgems shipped it
before the writer formatted columns in chunks. It is kept unchanged so that
tests can require mgems.cli.trace_csv_bytes to reproduce it byte for byte.
Do not edit it to make a writer change pass: a change here is a change of
the trace.csv format, and so of the golden files.
"""

from mgems._kernel import SOC
from mgems.cli import GRID_CONNECTED, ISLANDED, TRACE_HEADER


def trace_csv_reference(inputs, trace) -> bytes:
    """Per-step trace rows: inputs, allocation, SOC, threshold, and mode.

    The index is the step position; floats use the shortest round-trip repr.
    """
    modes = (ISLANDED, GRID_CONNECTED)
    threshold = repr(float(trace.threshold))
    lines = [",".join(TRACE_HEADER)]
    # kernel columns PV_USED..SOC are the trace's allocation columns, in
    # order; converted row by row to keep long horizons' memory down
    for i, d, p, g, pv, w, row in zip(
            range(len(inputs)), inputs.demand_kw.tolist(), inputs.price.tolist(),
            (inputs.grid_available != 0).tolist(), inputs.pv_kw.tolist(),
            inputs.wind_kw.tolist(), trace.columns[:, :SOC + 1]):
        lines.append(f"{i},{d!r},{p!r},{g:d},{pv!r},{w!r},"
                     f"{','.join(map(repr, row.tolist()))},{threshold},{modes[g]}")
    lines.append("")  # trailing newline
    return "\n".join(lines).encode("utf-8")
