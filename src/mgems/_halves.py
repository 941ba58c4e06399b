"""Run a row loop in two processes: this one and one forked child.

The profile parser and the trace writer each pass their chunk loop as
``work(lo, hi)``, which appends the result of rows ``lo..hi`` to a sink;
the scenario matrix passes its kernel loop, whose rows are whole runs.
``split_rows`` leaves in the sink exactly what one ``work(0, n)`` call
would. When a split can be seen to pay, a forked child runs the upper half
while this process runs the lower one, and the child's bytes are then read
straight into room the sink makes after the lower half's result, so no
copy of them is held on the way. Whatever happens to the child, the result
does not depend on it: a child that dies, exits nonzero or sends a short
payload has its half recomputed here.

A sink has four methods:

- ``tell()``: a mark of how much it holds;
- ``rewind(mark)``: drop everything appended since ``mark``;
- ``since(mark)``: the bytes-like pieces appended since ``mark``;
- ``reserve(size)``: append room for ``size`` bytes of another process's
  ``since`` pieces, in order, and return it as writable byte memoryviews,
  or None if ``size`` cannot be such a payload.
"""

from __future__ import annotations

import io
import os
import signal
import struct
import sys
import threading
from typing import NoReturn

# Row count from which a split is faster than one process for both text
# layers. In an 87 MB process (2 vCPU, Python 3.11) a fork, its
# copy-on-write faults and the child's exit cost 4-7 ms: the trace writer
# gains from about 2,000 rows, the parser from about 12,000 lines. So the
# year's 8,760 rows run in one process and the decade's 87,600 in two.
MIN_ROWS = 16384
# The scenario matrix, the third caller, counts its work in kernel steps,
# runs times horizon steps. A step costs well under a row, and the child's
# traces cross the pipe at 88 bytes a step. In the same process, runs of
# 8,760 steps split lost up to 61,000 steps, won or lost by a few percent
# from 65,000 to 88,000, and won in every measurement from 96,000. So the
# example day's 6 x 24 and a year's base run plus up to 13 scenarios stay
# in one process, and the 51 x 8,760 of a 50-scenario year split.
MIN_KERNEL_STEPS = 131072

_LENGTH = struct.Struct("<Q")


def _splits(rows: int, minimum: int) -> bool:
    """Whether to fork: ``minimum`` rows, Linux, two CPUs, one thread, SIGCHLD.

    A forked child holds only the forking thread, so a lock another thread
    held at the fork would stay held in the child forever. With SIGCHLD
    ignored the kernel reaps the child itself, so its exit status is lost
    and its pid may be reused before this process could kill it.
    """
    return (rows >= minimum and sys.platform == "linux"
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1
            and signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN)


class _Appended:
    """A BytesIO as a sink: its position marks what it holds."""

    def __init__(self, out: io.BytesIO):
        self.out = out

    def tell(self) -> int:
        return self.out.tell()

    def rewind(self, mark: int) -> None:
        self.out.seek(mark)
        self.out.truncate()

    def since(self, mark: int) -> list:
        return [self.out.getbuffer()[mark:]]

    def reserve(self, size: int) -> list[memoryview]:
        start = self.out.tell()
        if size:
            # one write past the end grows the buffer to its final size
            self.out.seek(start + size - 1)
            self.out.write(b"\0")
        return [self.out.getbuffer()[start:]]


def _run_child(work, sink, lo: int, hi: int, fd: int) -> NoReturn:
    """Send work's result for rows lo..hi to ``fd`` after its length; exit.

    Every path ends in os._exit, so the child runs no atexit handler and
    flushes no stdio buffer it inherited from the parent.
    """
    status = 1
    try:
        mark = sink.tell()
        work(lo, hi)
        pieces = [memoryview(piece) for piece in sink.since(mark)]
        with open(fd, "wb") as pipe:
            pipe.write(_LENGTH.pack(sum(piece.nbytes for piece in pieces)))
            for piece in pieces:
                pipe.write(piece)
        status = 0
    finally:
        os._exit(status)


def _receive(pipe, sink) -> bool:
    """Read one length-prefixed payload from ``pipe`` into ``sink.reserve``.

    Returns False if the pipe ends before the length or the payload does,
    or if the sink cannot take a payload of that length.
    """
    head = pipe.read(_LENGTH.size)
    if len(head) != _LENGTH.size:
        return False
    (size,) = _LENGTH.unpack(head)
    room = sink.reserve(size)
    if room is None:
        return False
    try:
        for view in room:
            filled = 0
            while filled < len(view):
                got = pipe.readinto(view[filled:])
                if not got:
                    return False
                filled += got
    finally:
        # a BytesIO cannot be resized or handed over while a view is held
        for view in room:
            view.release()
    return True


def split_rows(n: int, work, sink, weight: int = 1,
               minimum: int | None = None) -> None:
    """Append items 0..n to ``sink`` as ``work(0, n)`` would.

    Each item is ``weight`` rows of work: a line or a trace row weighs 1,
    a matrix run the steps of its horizon. Splits the items at n // 2
    between this process and a forked child when there are two or more and
    ``_splits(n * weight, minimum)``, where ``minimum`` is MIN_ROWS unless
    given. An exception from this process's half, the interrupt included,
    kills and reaps the child before it propagates.
    """
    if minimum is None:
        minimum = MIN_ROWS
    if n < 2 or not _splits(n * weight, minimum):
        work(0, n)
        return
    mid = n // 2
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        work(0, n)
        return
    if pid == 0:
        os.close(read_fd)
        _run_child(work, sink, mid, n, write_fd)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            work(0, mid)
            mark = sink.tell()
            received = _receive(pipe, sink)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status = os.waitpid(pid, 0)
    if not (received and os.waitstatus_to_exitcode(status) == 0):
        sink.rewind(mark)
        work(mid, n)


def write_halves(n: int, work, out: io.BytesIO) -> None:
    """Write rows 0..n to ``out`` as ``work(0, n, out)`` would.

    ``work(lo, hi, out)`` writes the bytes of rows lo..hi to ``out``; long
    runs split as in ``split_rows``.
    """
    split_rows(n, lambda lo, hi: work(lo, hi, out), _Appended(out))
