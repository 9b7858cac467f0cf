"""Host-speed normalisation of a pass's time.

The small shared VMs this benchmark runs on change speed by up to 2x
from one second to the next: another tenant's load slows the virtual
CPU without showing as steal time, so process CPU time moves with wall
time.  A pass of several seconds spends a varying share of its time in
the slow state, and its wall time varies with that share.

The sampler measures the host's speed *during* the pass, on the same
CPU.  Every :data:`PERIOD_S` of process CPU time, ``SIGPROF`` runs a
fixed pure-Python probe in the pass's own thread and records how long
it took.  The pass's own time (its wall time minus the probes) is then
rescaled by ``REFERENCE_PROBE_S / mean probe time``: the time the pass
would have taken on a host where the probe takes its reference time.
The probes cost about 2% of a pass.  The probe is the benchmark's own
code, so a change to the program cannot speed it up.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Process CPU time between two probes.
PERIOD_S = 0.02

#: The probe's time on an uncontended 2.1 GHz Xeon vCPU.  It only sets
#: the scale of the normalised seconds.
REFERENCE_PROBE_S = 0.0003

_PROBE_ITERATIONS = 2000


def probe() -> int:
    """A fixed amount of interpreter work: dict and integer operations,
    like the program's timing models."""
    table: dict = {}
    acc = 0
    for i in range(_PROBE_ITERATIONS):
        key = (i * 2654435761) & 255
        value = table.get(key, 0)
        table[key] = value + (i & 7)
        acc ^= value
    return acc


class Sampler:
    """Times :func:`probe` at regular intervals of process CPU time."""

    def __init__(self) -> None:
        self.samples: list = []             # (start, end) of each probe

    def _sample(self) -> None:
        start = time.monotonic()
        probe()
        self.samples.append((start, time.monotonic()))

    def _on_signal(self, signum, frame) -> None:
        self._sample()

    def install(self) -> None:
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self._sample()          # at least one probe, however short the pass

    def normalise(self, start: float, end: float) -> dict:
        """The window [start, end]'s own time and its normalised time.

        Probes that ran inside the window are subtracted from it; their
        mean time gives the host's speed.  The final probe of
        :meth:`stop` stands in when none ran inside.
        """
        inside = [b - a for a, b in self.samples if a >= start and b <= end]
        own_s = end - start - sum(inside)
        mean_s = statistics.fmean(inside or [b - a for a, b in
                                             self.samples[-1:]])
        return {"own_s": own_s, "probe_s": mean_s, "probes": len(inside),
                "ref_s": own_s * REFERENCE_PROBE_S / mean_s}
