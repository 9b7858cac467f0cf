"""Forked children: the repository's one way to run work in parallel.

Two kinds of leaf run in children.  On the experiment engine
(:meth:`~repro.harness.parallel.ParallelEngine.run`) the model units
of one (benchmark, target) -- a *group* -- read that benchmark's trace
and annotations, and only exhibit rendering reads their results: the
parent runs a benchmark's trace and annotate units itself, forks one
child per group, and goes on with the next benchmark while the
children model.  A sweep (:func:`~repro.harness.sweep.run_sweep`)
forks one child per computing process, each evaluating a contiguous
share of the grid's chunks against the parent's trace and stage memo.

* **At most n processes compute at once**: the CPUs this process may
  run on (:func:`usable_cpus`) by default, or the ``--jobs`` count.
  The parent counts as one while it computes; when it has nothing to
  do but wait, it blocks in ``select``.  With one CPU, or no
  ``os.fork``, everything runs inline and nothing forks.
* **A child** resets SIGINT, SIGTERM and SIGALRM, closes every
  inherited descriptor but its pipe, disables the cyclic collector,
  runs its work -- for a model group through the inline tier guard,
  sentinel re-runs included, under the per-unit watchdog -- writes one
  pickle of what it produced and leaves through ``os._exit``.  It
  never writes the journal or the trace cache.
* **Failure.**  A child that cannot be forked, exits non-zero, dies,
  writes an unreadable payload or (with ``--unit-timeout``) outlives
  its deadline fails its work, and the parent runs that work inline
  (:meth:`Children.rerun_inline`).  The child never touched the
  parent's memory, so nothing is undone.

Each reaped child adds to the run scope of ``metrics.json``:
``children/processes``, ``children/cpu_s`` (from its ``wait4``
rusage) and ``children/peak_rss_mb`` (the largest child's peak); each
inline re-run of a failed child's work adds to
``children/rerun_inline``.
"""

from __future__ import annotations

import contextlib
import gc
import os
import pickle
import select
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

#: pid -> the child running it (what :func:`kill_children` reaps from a
#: signal handler or the journal's crash drill).
_LIVE: dict = {}


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask's size)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def computing_processes(jobs: int) -> int:
    """Processes that may compute at once: *jobs*, every usable CPU at 1."""
    if not hasattr(os, "fork"):
        return 1
    return jobs if jobs > 1 else usable_cpus()


def peak_rss_mb(usage) -> float:
    """The peak resident set in MB of one ``resource`` rusage."""
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return usage.ru_maxrss / (1024 * 1024 if sys.platform == "darwin"
                              else 1024)


def kill_children() -> None:
    """Kill and reap every child still running (for signal handlers
    and the journal's crash drill)."""
    for pid in list(_LIVE):
        _LIVE.pop(pid, None)
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(OSError):
            os.waitpid(pid, 0)


@dataclass
class Child:
    """One forked leaf: its pipe, and once settled, its result."""

    owner: str                      #: its benchmark (or ``sweep``)
    pid: int = 0
    fd: int = -1
    deadline: Optional[float] = None
    data: bytearray = field(default_factory=bytearray)
    eof: bool = False
    done: bool = False
    #: The unpickled return value of the child's work (None = failed:
    #: the caller runs the work inline).
    result: object = None


def _close_inherited_fds(keep: int) -> None:
    """Close every descriptor above stdio except *keep*: the child must
    hold no journal descriptor and no copy of a cache lock."""
    try:
        limit = os.sysconf("SC_OPEN_MAX")
    except (OSError, ValueError):
        limit = 1 << 16
    os.closerange(3, keep)
    os.closerange(keep + 1, max(keep + 1, limit))


def _child(work: Callable, write_fd: int) -> None:
    """The forked child's whole life; it never returns."""
    status = 1
    try:
        for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGALRM):
            with contextlib.suppress(ValueError, OSError):
                signal.signal(signum, signal.SIG_DFL)
        sys.setprofile(None)
        sys.settrace(None)
        # A collection would touch (and so copy) every page the child
        # shares with the parent; the child is short-lived.
        gc.disable()
        _close_inherited_fds(write_fd)
        view = memoryview(pickle.dumps(work(), pickle.HIGHEST_PROTOCOL))
        while view:
            view = view[os.write(write_fd, view):]
        status = 0
    finally:
        os._exit(status)


class Children:
    """The forked children of one engine run or sweep: at most *cpus*
    processes compute at once, the parent counted while it computes.

    *metrics* (a :class:`~repro.obs.MetricsRegistry` or None) receives
    the run-scope cost of every reaped child and of every inline re-run.
    """

    def __init__(self, cpus: int, metrics=None) -> None:
        self.cpus = cpus
        self.metrics = metrics
        #: read fd -> running child.
        self._running: dict = {}

    def fork(self, owner: str, work: Callable, timeout: float) -> Child:
        """Run ``work()`` in a forked child once a CPU is free; its
        return value comes home pickled.  *timeout* seconds (0 = none)
        bound the child's life.  A failed fork returns a settled child
        with no result."""
        self.wait(self.cpus - 1)
        child = Child(owner)
        read_fd = write_fd = -1
        try:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
        except OSError:
            for fd in (read_fd, write_fd):
                if fd >= 0:
                    os.close(fd)
            child.done = True
            return child
        if pid == 0:
            _child(work, write_fd)
        os.close(write_fd)
        os.set_blocking(read_fd, False)
        child.pid, child.fd = pid, read_fd
        if timeout > 0:
            child.deadline = time.monotonic() + timeout
        self._running[read_fd] = child
        _LIVE[pid] = child
        return child

    def wait(self, at_most: int) -> None:
        """Block until at most *at_most* children are running (the
        parent calls this with ``cpus - 1`` before it computes)."""
        while len(self._running) > at_most:
            self._step(block=True)

    def poll(self) -> None:
        """Settle every child that has finished; never blocks."""
        self._step(block=False)

    def settle(self, child: Child) -> None:
        """Block until *child* has settled."""
        while not child.done:
            self._step(block=True)

    def rerun_inline(self) -> None:
        """Count one failed child's work as re-run in the parent, and
        block until the parent may compute it."""
        if self.metrics is not None:
            self.metrics.inc_run("children/rerun_inline")
        self.wait(self.cpus - 1)

    def close(self) -> None:
        """Kill and reap every child still running."""
        for child in list(self._running.values()):
            with contextlib.suppress(OSError):
                os.kill(child.pid, signal.SIGKILL)
            self._settle(child)

    # -- internals ---------------------------------------------------------
    def _step(self, block: bool) -> None:
        """Drain every running child's pipe and settle those that have
        finished or overrun their deadline; with *block*, first wait
        until one of them has something to say."""
        if block:
            deadlines = [child.deadline for child in self._running.values()
                         if child.deadline is not None]
            remaining = None if not deadlines \
                else max(0.0, min(deadlines) - time.monotonic())
            select.select(list(self._running), [], [], remaining)
        now = time.monotonic()
        for child in list(self._running.values()):
            self._read(child)
            if child.eof:
                self._settle(child)
            elif child.deadline is not None and now >= child.deadline:
                with contextlib.suppress(OSError):
                    os.kill(child.pid, signal.SIGKILL)
                self._settle(child)

    @staticmethod
    def _read(child: Child) -> None:
        """Drain what the child has written so far (non-blocking)."""
        while True:
            try:
                chunk = os.read(child.fd, 1 << 16)
            except BlockingIOError:
                return
            if not chunk:
                child.eof = True
                return
            child.data += chunk

    def _settle(self, child: Child) -> None:
        """Reap *child*, record its cost and decode its payload."""
        del self._running[child.fd]
        _LIVE.pop(child.pid, None)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except ChildProcessError:  # reaped by kill_children already
            status = usage = None
        finally:
            with contextlib.suppress(OSError):
                os.close(child.fd)
        child.done = True
        if usage is not None and self.metrics is not None:
            self.metrics.inc_run("children/processes")
            self.metrics.inc_run("children/cpu_s",
                                 usage.ru_utime + usage.ru_stime)
            self.metrics.max_run("children/peak_rss_mb", peak_rss_mb(usage))
        if status == 0 and child.eof:
            try:
                child.result = pickle.loads(bytes(child.data))
            except Exception:  # a damaged payload: run the work inline
                child.result = None
        child.data = bytearray()
