"""Deferred model sentinels: the reference re-run in a forked child.

A sampled model unit's fast result is a leaf -- only exhibit rendering
reads it -- so its check need not sit on the critical path.  Inside the
in-process engine loop (:meth:`~repro.harness.parallel.ParallelEngine
.run` at ``jobs=1``, the default journaled ``repro experiment`` path)
the tier guard hands each sampled model unit to a
:class:`DeferredChecks` queue and returns the fast result at once.  The
queue forks a child that inherits the annotated trace, the machine
config and the fast result, runs the reference model, diffs the two
with :func:`~repro.harness.guard.diff_model_results`, writes only the
list of differences to a pipe, and leaves through ``os._exit``.  The
parent meanwhile goes on with the next units.

* **One child at a time.**  Later checks wait in FIFO order and are
  forked the next time the parent enters the guard; the parent never
  blocks there.
* **Settling.**  The engine finishes shards in order, and finishes one
  (payload, checkpoint, ``done`` record) only once all its checks have
  settled.  Every check settles before the merge, so before any exhibit
  renders.
* **Failure.**  A difference, an oracle exception, a child that dies,
  or one that outlives the unit watchdog fails the check.  The engine
  then drops that shard's model stage and runs it again through the
  inline guard, which reproduces the inline run exactly.

Pool workers (``--jobs N``) and direct :class:`~repro.harness.session
.Session` use never defer: their guard checks inline.  Each reaped
child adds to the run scope of ``metrics.json``: ``sentinel/children``,
``sentinel/cpu_s`` (from its ``wait4`` rusage) and
``sentinel/peak_rss_mb`` (the largest child's peak).
"""

from __future__ import annotations

import collections
import contextlib
import gc
import json
import os
import select
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.harness.guard import diff_model_results

#: pid -> the check its child is running (what :func:`kill_children`
#: reaps from a signal handler or the journal's crash drill).
_LIVE: dict = {}


def kill_children() -> None:
    """Kill and reap every sentinel child still running."""
    for pid in list(_LIVE):
        _LIVE.pop(pid, None)
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(OSError):
            os.waitpid(pid, 0)


@dataclass
class _Check:
    """One sampled model unit awaiting (or under) its reference re-run."""

    owner: str              #: the shard (benchmark) the unit belongs to
    run: Callable           #: ``run(engine)`` builds and runs the model
    oracle_tier: str
    result: object          #: the fast result the session already holds
    timeout: float          #: unit watchdog seconds (0 = none)
    pid: int = 0
    fd: int = -1
    deadline: Optional[float] = None
    data: bytearray = field(default_factory=bytearray)
    eof: bool = False


def _close_inherited_fds(keep: int) -> None:
    """Close every descriptor above stdio except *keep*: the child must
    hold no journal descriptor and no copy of a cache lock."""
    try:
        limit = os.sysconf("SC_OPEN_MAX")
    except (OSError, ValueError):
        limit = 1 << 16
    os.closerange(3, keep)
    os.closerange(keep + 1, max(keep + 1, limit))


def _child(check: _Check, write_fd: int) -> None:
    """The forked child's whole life; it never returns."""
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
        try:
            oracle = check.run(check.oracle_tier)
            message = {"differences": diff_model_results(check.result,
                                                         oracle)}
        except BaseException as exc:
            message = {"error": f"{type(exc).__name__}: {exc}"}
        view = memoryview(json.dumps(message).encode())
        while view:
            view = view[os.write(write_fd, view):]
    finally:
        os._exit(0)


class DeferredChecks:
    """FIFO of deferred model checks, run one forked child at a time.

    *metrics* (a :class:`~repro.obs.MetricsRegistry` or None) receives
    the run-scope cost of every reaped child.
    """

    def __init__(self, metrics=None) -> None:
        self.metrics = metrics
        self._queue: collections.deque = collections.deque()
        self._running: Optional[_Check] = None
        #: owner -> checks submitted but not yet settled.
        self._unsettled: collections.Counter = collections.Counter()
        #: owners with a failed check.
        self._failed: set = set()

    # -- the guard's side ------------------------------------------------
    def submit(self, owner: str, run: Callable, oracle_tier: str, result,
               timeout: float) -> None:
        """Queue one sampled unit's check (forked at once when idle)."""
        if owner in self._failed:
            return  # its model stage will be re-run inline anyway
        self._queue.append(_Check(owner, run, oracle_tier, result,
                                  float(timeout or 0.0)))
        self._unsettled[owner] += 1
        self.poll()

    def poll(self) -> None:
        """Settle a finished child and fork the next check; never
        blocks."""
        if self._running is not None:
            self._collect(self._running, block=False)
        elif self._queue:
            self._fork(self._queue.popleft())

    # -- the engine's side -------------------------------------------------
    def settled(self, owner: str) -> bool:
        return not self._unsettled[owner]

    def failed(self, owner: str) -> bool:
        return owner in self._failed

    def wait(self, owner: str) -> None:
        """Block until every check of *owner* has settled."""
        while not self.settled(owner):
            if self._running is None:
                self._fork(self._queue.popleft())
            if self._running is not None:
                self._collect(self._running, block=True)

    def close(self) -> None:
        """Kill and reap any child still running; drop the queue."""
        check = self._running
        if check is not None:
            self._running = None
            _LIVE.pop(check.pid, None)
            with contextlib.suppress(OSError):
                os.kill(check.pid, signal.SIGKILL)
            self._reap(check)
        self._queue.clear()
        self._unsettled.clear()

    # -- internals ---------------------------------------------------------
    def _fork(self, check: _Check) -> None:
        read_fd = write_fd = -1
        try:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
        except OSError:
            # No pipe or process to be had: fail the check, so its
            # benchmark's model stage is re-run inline.
            for fd in (read_fd, write_fd):
                if fd >= 0:
                    os.close(fd)
            self._settle(check, passed=False)
            return
        if pid == 0:
            _child(check, write_fd)
        os.close(write_fd)
        os.set_blocking(read_fd, False)
        check.pid, check.fd = pid, read_fd
        if check.timeout > 0:
            check.deadline = time.monotonic() + check.timeout
        self._running = check
        _LIVE[pid] = check

    def _read(self, check: _Check) -> None:
        """Drain what the child has written so far (non-blocking)."""
        while True:
            try:
                chunk = os.read(check.fd, 65536)
            except BlockingIOError:
                return
            if not chunk:
                check.eof = True
                return
            check.data += chunk

    def _collect(self, check: _Check, block: bool) -> None:
        """Settle *check* once its child has finished or overrun its
        deadline; with *block*, wait for one or the other."""
        while True:
            self._read(check)
            if check.eof:
                break
            if check.deadline is not None and \
                    time.monotonic() >= check.deadline:
                with contextlib.suppress(OSError):
                    os.kill(check.pid, signal.SIGKILL)
                break
            if not block:
                return
            remaining = None if check.deadline is None \
                else max(0.0, check.deadline - time.monotonic())
            select.select([check.fd], [], [], remaining)
        self._running = None
        _LIVE.pop(check.pid, None)
        status = self._reap(check)
        self._settle(check, passed=status == 0 and check.eof
                     and self._message(check) == {"differences": []})
        if self._queue:
            self._fork(self._queue.popleft())

    def _reap(self, check: _Check) -> Optional[int]:
        """Wait for the child, record its cost, close its pipe; returns
        its wait status (None if it was already reaped)."""
        try:
            _, status, usage = os.wait4(check.pid, 0)
        except ChildProcessError:
            status = usage = None
        finally:
            with contextlib.suppress(OSError):
                os.close(check.fd)
        if usage is not None and self.metrics is not None:
            self.metrics.inc_run("sentinel/children")
            self.metrics.inc_run("sentinel/cpu_s",
                                 usage.ru_utime + usage.ru_stime)
            # ru_maxrss is KiB on Linux, bytes on macOS.
            divisor = 1024 * 1024 if sys.platform == "darwin" else 1024
            self.metrics.max_run("sentinel/peak_rss_mb",
                                 usage.ru_maxrss / divisor)
        return status

    @staticmethod
    def _message(check: _Check):
        try:
            return json.loads(bytes(check.data))
        except ValueError:
            return None

    def _settle(self, check: _Check, passed: bool) -> None:
        self._unsettled[check.owner] -= 1
        if passed:
            return
        # The shard's model stage is re-run inline, which re-checks
        # every sampled unit: its queued checks would be wasted.
        self._failed.add(check.owner)
        kept = [queued for queued in self._queue
                if queued.owner != check.owner]
        self._unsettled[check.owner] -= len(self._queue) - len(kept)
        self._queue = collections.deque(kept)
