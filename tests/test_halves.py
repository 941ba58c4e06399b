"""write_halves: the child's failures, the thread guard and stdio buffers.

Each test forces the split with a small threshold and two CPUs, and
compares the output with one in-process ``work(0, n, out)`` call.
"""

import io
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path
from unittest import mock

import pytest

from mgems import _halves
from mgems._halves import write_halves
from mgems.cli import trace_csv_bytes

from conftest import data_path, split_from
from test_trace_writer import random_run
from trace_reference import trace_csv_reference

pytestmark = pytest.mark.skipif(sys.platform != "linux",
                                reason="splits only on Linux")

N = 101


def rows(lo, hi, out):
    out.write(b"".join(b"row %d\n" % i for i in range(lo, hi)))


REFERENCE = b"".join(b"row %d\n" % i for i in range(N))


def in_child(action):
    """A work function that runs ``action`` in the child, then writes rows."""
    parent = os.getpid()

    def work(lo, hi, out):
        if os.getpid() != parent:
            action()
        rows(lo, hi, out)
    return work


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def split(work):
    out = io.BytesIO()
    out.write(b"header\n")
    with split_from(2), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        write_halves(N, work, out)
    assert fork.call_count == 1
    return out.getvalue()


@pytest.mark.parametrize("exit_code,parent_calls", [
    (0, [(0, 50)]),
    (7, [(0, 50), (50, N)]),
])
def test_the_childs_payload_is_used_only_after_a_clean_exit(exit_code,
                                                             parent_calls):
    parent = os.getpid()
    calls = []   # filled in this process only

    def work(lo, hi, out):
        if os.getpid() == parent:
            calls.append((lo, hi))
        rows(lo, hi, out)

    real_exit = os._exit
    # the child sends its whole payload, then exits with exit_code
    with mock.patch.object(os, "_exit", lambda status: real_exit(exit_code)):
        assert split(work) == b"header\n" + REFERENCE
    assert calls == parent_calls
    assert_no_child_left()


def test_out_stays_writable_after_the_childs_bytes_are_read_in():
    out = io.BytesIO()
    out.write(b"header\n")
    with split_from(2):
        write_halves(N, rows, out)
    # a view left on the buffer would make this write raise BufferError
    out.write(b"tail\n")
    assert out.getvalue() == b"header\n" + REFERENCE + b"tail\n"
    assert_no_child_left()


def _raise():
    raise RuntimeError("the child's half failed")


@pytest.mark.parametrize("action", [
    pytest.param(lambda: os.kill(os.getpid(), signal.SIGKILL), id="sigkill"),
    pytest.param(_raise, id="raises"),
    pytest.param(lambda: os._exit(3), id="exit-3"),
    pytest.param(lambda: os._exit(0), id="exit-0-without-payload"),
])
def test_a_failed_child_leaves_the_reference_bytes_and_no_child(action):
    assert split(in_child(action)) == b"header\n" + REFERENCE
    assert_no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_error_in_the_parent_half_kills_and_reaps_the_child(error):
    parent = os.getpid()

    def work(lo, hi, out):
        if os.getpid() != parent:
            time.sleep(20)   # killed, not waited for
        elif lo == 0:
            raise error("the parent's half failed")
        rows(lo, hi, out)

    started = time.monotonic()
    with pytest.raises(error, match="the parent's half failed"):
        split(work)
    assert time.monotonic() - started < 10
    assert_no_child_left()


def test_no_fork_while_a_second_thread_is_alive():
    inputs, trace = random_run(5, 300)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        with split_from(2), mock.patch.object(
                os, "fork", side_effect=AssertionError("forked with two threads")):
            data = trace_csv_bytes(inputs, trace)
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert data == trace_csv_reference(inputs, trace)


def test_a_failed_fork_leaves_both_halves_to_this_process():
    with split_from(2), mock.patch.object(
            os, "fork", side_effect=BlockingIOError("fork: no pids left")):
        out = io.BytesIO()
        write_halves(N, rows, out)
    assert out.getvalue() == REFERENCE


def test_a_single_item_is_never_split_however_heavy():
    out = io.BytesIO()
    with split_from(2), mock.patch.object(
            os, "fork", side_effect=AssertionError("forked for one item")):
        _halves.split_rows(1, lambda lo, hi: rows(lo, hi, out),
                           _halves._Appended(out), weight=10**9)
    assert out.getvalue() == b"row 0\n"


def test_no_fork_while_sigchld_is_ignored():
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        with split_from(2), mock.patch.object(
                os, "fork", side_effect=AssertionError("forked, SIGCHLD ignored")):
            out = io.BytesIO()
            write_halves(N, rows, out)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert out.getvalue() == REFERENCE


CHILD_SCRIPT = textwrap.dedent("""
    import os
    import sys

    import numpy as np

    from mgems import _halves
    from mgems.cli import trace_csv_bytes
    from mgems.configio import load_config
    from mgems.dispatch import initial_state, run_arrays
    from mgems.profiles import Profile

    os.sched_getaffinity = lambda pid: {0, 1}
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    os.fork = counting_fork
    assert not sys.stdout.write_through   # the line below stays buffered
    config = load_config(sys.argv[1]).config
    n = _halves.MIN_ROWS
    rng = np.random.default_rng(5)
    inputs = Profile(demand_kw=rng.uniform(0, 400, n),
                     price=rng.uniform(0, 0.6, n),
                     grid_available=np.ones(n, np.uint8),
                     pv_kw=rng.uniform(0, 300, n), wind_kw=rng.uniform(0, 200, n))
    trace = run_arrays(inputs, initial_state(config.battery), config)
    print("written before the fork")
    data = trace_csv_bytes(inputs, trace)
    print(data.count(b"\\n") - 1, len(forks), file=sys.stderr)
""")


def test_the_child_does_not_flush_inherited_stdio_buffers(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    # stdout is a pipe, so block-buffered unless the environment says
    # otherwise: the line is still in the buffer when trace_csv_bytes forks
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, str(data_path("example_config.ini"))],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == [str(_halves.MIN_ROWS), "1"]
    assert proc.stdout == "written before the fork\n"
