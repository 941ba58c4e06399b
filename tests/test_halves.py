"""split_rows: the child's failures, the thread guard and stdio buffers.

Each test forces the split with a threshold of two items and two CPUs, and
compares the sink's items with one in-process ``work(0, n)`` call.
"""

import os
import signal
import struct
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path
from unittest import mock

import pytest

from mgems._halves import split_rows

from conftest import split_from

pytestmark = pytest.mark.skipif(sys.platform != "linux",
                                reason="splits only on Linux")

N = 101
REFERENCE = list(range(N))

_ITEM = struct.Struct("<q")


class Numbers:
    """A sink of row numbers, eight bytes each, held in one bytearray."""

    def __init__(self):
        self.data = bytearray()

    def add(self, lo, hi):
        self.data += b"".join(map(_ITEM.pack, range(lo, hi)))

    def tell(self):
        return len(self.data) // _ITEM.size

    def rewind(self, mark):
        del self.data[mark * _ITEM.size:]

    def since(self, mark):
        return [self.data[mark * _ITEM.size:]]

    def reserve(self, count, size):
        if size != count * _ITEM.size:
            return None
        start = len(self.data)
        self.data += bytes(size)
        return [memoryview(self.data)[start:]]

    def items(self):
        return [value for (value,) in _ITEM.iter_unpack(self.data)]


def in_child(action, sink):
    """A work function that runs ``action`` in the child, then adds rows."""
    parent = os.getpid()

    def work(lo, hi):
        if os.getpid() != parent:
            action()
        sink.add(lo, hi)
    return work


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def split(work, sink):
    with split_from(2), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        split_rows(N, work, sink, minimum=2)
    assert fork.call_count == 1
    return sink.items()


@pytest.mark.parametrize("exit_code,parent_calls", [
    (0, [(0, 50)]),
    (7, [(0, 50), (50, N)]),
])
def test_the_childs_payload_is_used_only_after_a_clean_exit(exit_code,
                                                             parent_calls):
    parent = os.getpid()
    calls = []   # filled in this process only
    sink = Numbers()

    def work(lo, hi):
        if os.getpid() == parent:
            calls.append((lo, hi))
        sink.add(lo, hi)

    real_exit = os._exit
    # the child sends its whole payload, then exits with exit_code
    with mock.patch.object(os, "_exit", lambda status: real_exit(exit_code)):
        assert split(work, sink) == REFERENCE
    assert calls == parent_calls
    assert_no_child_left()


def test_the_sink_stays_resizable_after_the_childs_bytes_are_read_in():
    sink = Numbers()
    split(sink.add, sink)
    # a view left on the bytearray would make this resize raise BufferError
    sink.add(N, N + 1)
    assert sink.items() == REFERENCE + [N]
    assert_no_child_left()


def _raise():
    raise RuntimeError("the child's half failed")


@pytest.mark.parametrize("action", [
    pytest.param(lambda: os.kill(os.getpid(), signal.SIGKILL), id="sigkill"),
    pytest.param(_raise, id="raises"),
    pytest.param(lambda: os._exit(3), id="exit-3"),
    pytest.param(lambda: os._exit(0), id="exit-0-without-payload"),
])
def test_a_failed_child_leaves_the_reference_items_and_no_child(action):
    sink = Numbers()
    assert split(in_child(action, sink), sink) == REFERENCE
    assert_no_child_left()


@pytest.mark.parametrize("since", [
    pytest.param(lambda self, mark: [self.data[mark * 8:-8]], id="one-item-short"),
    pytest.param(lambda self, mark: [self.data[mark * 8:-3]], id="no-whole-item"),
    pytest.param(lambda self, mark: [self.data[mark * 8:] + bytes(8)],
                 id="one-item-long"),
])
def test_a_payload_other_than_the_childs_items_is_redone_here(since):
    # only the child calls since()
    sink = Numbers()
    with mock.patch.object(Numbers, "since", since):
        assert split(sink.add, sink) == REFERENCE
    assert_no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_error_in_the_parent_half_kills_and_reaps_the_child(error):
    parent = os.getpid()
    sink = Numbers()

    def work(lo, hi):
        if os.getpid() != parent:
            time.sleep(20)   # killed, not waited for
        elif lo == 0:
            raise error("the parent's half failed")
        sink.add(lo, hi)

    started = time.monotonic()
    with pytest.raises(error, match="the parent's half failed"):
        split(work, sink)
    assert time.monotonic() - started < 10
    assert_no_child_left()


def test_no_fork_while_a_second_thread_is_alive():
    sink = Numbers()
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        with split_from(2), mock.patch.object(
                os, "fork", side_effect=AssertionError("forked with two threads")):
            split_rows(N, sink.add, sink, minimum=2)
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert sink.items() == REFERENCE


def test_a_failed_fork_leaves_both_halves_to_this_process():
    sink = Numbers()
    with split_from(2), mock.patch.object(
            os, "fork", side_effect=BlockingIOError("fork: no pids left")):
        split_rows(N, sink.add, sink, minimum=2)
    assert sink.items() == REFERENCE


def test_a_single_item_is_never_split_however_heavy():
    sink = Numbers()
    with split_from(2), mock.patch.object(
            os, "fork", side_effect=AssertionError("forked for one item")):
        split_rows(1, sink.add, sink, minimum=2, weight=10**9)
    assert sink.items() == [0]


def test_no_fork_while_sigchld_is_ignored():
    sink = Numbers()
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        with split_from(2), mock.patch.object(
                os, "fork", side_effect=AssertionError("forked, SIGCHLD ignored")):
            split_rows(N, sink.add, sink, minimum=2)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert sink.items() == REFERENCE


CHILD_SCRIPT = textwrap.dedent("""
    import os
    import sys

    from mgems._halves import split_rows

    os.sched_getaffinity = lambda pid: {0, 1}
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    os.fork = counting_fork


    class Bytes:
        # a sink of row numbers below 256, one byte each
        def __init__(self):
            self.data = bytearray()

        def add(self, lo, hi):
            self.data += bytes(range(lo, hi))

        def tell(self):
            return len(self.data)

        def rewind(self, mark):
            del self.data[mark:]

        def since(self, mark):
            return [self.data[mark:]]

        def reserve(self, count, size):
            if size != count:
                return None
            self.data += bytes(size)
            return [memoryview(self.data)[-size:]]


    assert not sys.stdout.write_through   # the line below stays buffered
    sink = Bytes()
    print("written before the fork")
    split_rows(200, sink.add, sink, minimum=2)
    print(list(sink.data) == list(range(200)), len(forks), file=sys.stderr)
""")


def test_the_child_does_not_flush_inherited_stdio_buffers(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    # stdout is a pipe, so block-buffered unless the environment says
    # otherwise: the line is still in the buffer when split_rows forks
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-c", CHILD_SCRIPT],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["True", "1"]
    assert proc.stdout == "written before the fork\n"
